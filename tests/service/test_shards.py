"""Sharded job store: layout, routing, fault domains, scrub/rebuild.

Covers the shard hash and the one on-disk layout (every N >= 1 writes
a manifest, shard files and journals), the one-time migration of a
legacy single-file ``jobs.sqlite3`` to shard 0, cross-shard claims by
concurrent workers, single-flight dedup on the home shard, the
per-shard circuit breaker (trip on repeated failures, half-open probe,
recovery), keyset pagination that stays stable while a shard is
degraded, the quarantine schema migration applied per shard, and the
intent-journal-based scrub/rebuild path (N = 1 included).
"""

import json
import sqlite3
import threading

import pytest

from repro.cli import main
from repro.errors import (
    JobNotFound,
    JobStoreCorruptError,
    ServiceError,
    ShardUnavailableError,
)
from repro.gateway import (
    DecompositionGateway,
    GatewayClient,
    GatewayConfig,
)
from repro.resilience import FaultPlan, FaultRule, fault_injection
from repro.service import (
    ArtifactStore,
    DecompositionService,
    JobSpec,
    JobStore,
    Scheduler,
    SchedulerPolicy,
    ShardedJobStore,
    open_job_store,
    rebuild_shard,
    scrub_store,
    shard_for_key,
)
from repro.service import shards as shards_module
from repro.service.shards import (
    LEGACY_DB_NAME,
    read_journal,
    resolve_n_shards,
    shard_db_path,
    shard_journal_path,
)


@pytest.fixture
def chaos_seed():
    return 1234


def key_for_shard(index, n_shards, salt=0):
    """A valid artifact key that hashes onto ``index`` of ``n_shards``."""
    value = index + salt * n_shards
    assert value % n_shards == index
    return f"{value:08x}" + "0" * 56


@pytest.fixture
def spec(fast_config):
    return JobSpec(workload="cos", n_inputs=6, config=fast_config,
                   max_attempts=3)


@pytest.fixture
def store(tmp_path):
    return open_job_store(tmp_path, shards=3)


class TestLayout:
    def test_hash_is_stable_and_in_range(self):
        key = "deadbeef" + "0" * 56
        assert shard_for_key(key, 4) == int("deadbeef", 16) % 4
        for n in (2, 3, 8):
            assert 0 <= shard_for_key(key, n) < n

    def test_default_layout_is_one_shard(self, tmp_path, spec):
        store = open_job_store(tmp_path)
        assert isinstance(store, ShardedJobStore)
        assert store.n_shards == 1
        assert json.loads(
            (tmp_path / "shards.json").read_text()
        )["n_shards"] == 1
        assert shard_db_path(tmp_path, 0).exists()
        assert not (tmp_path / LEGACY_DB_NAME).exists()
        job = store.submit(spec, key_for_shard(0, 1), now=100.0)
        assert job.id.startswith("job-s00-")
        assert [r["op"] for r in read_journal(
            shard_journal_path(tmp_path, 0)
        )] == ["submit"]
        assert store.shard_health() == {
            "total": 1, "degraded": [], "states": store.shard_states(),
        }

    def test_sharded_layout_and_manifest(self, tmp_path):
        store = open_job_store(tmp_path, shards=3)
        assert isinstance(store, ShardedJobStore)
        for i in range(3):
            assert shard_db_path(tmp_path, i).exists()
        manifest = json.loads((tmp_path / "shards.json").read_text())
        assert manifest["n_shards"] == 3

    def test_manifest_is_discovered_on_reopen(self, tmp_path):
        open_job_store(tmp_path, shards=3)
        reopened = open_job_store(tmp_path)  # no count given
        assert isinstance(reopened, ShardedJobStore)
        assert reopened.n_shards == 3

    def test_resharding_is_refused(self, tmp_path):
        open_job_store(tmp_path, shards=3)
        with pytest.raises(ServiceError, match="reshard"):
            open_job_store(tmp_path, shards=5)
        assert resolve_n_shards(tmp_path) == 3

    def test_one_shard_directory_is_not_resharded(self, tmp_path):
        open_job_store(tmp_path)
        with pytest.raises(ServiceError, match="reshard"):
            open_job_store(tmp_path, shards=4)


class TestRouting:
    def test_submit_lands_on_home_shard_with_tagged_id(
        self, store, spec, tmp_path
    ):
        key = key_for_shard(2, 3)
        job = store.submit(spec, key, now=100.0)
        assert job.id.startswith("job-s02-")
        with sqlite3.connect(shard_db_path(tmp_path, 2)) as conn:
            rows = conn.execute("SELECT id FROM jobs").fetchall()
        assert rows == [(job.id,)]
        assert store.get(job.id).artifact_key == key

    def test_migrated_legacy_id_resolves_on_shard_zero(
        self, tmp_path, spec
    ):
        legacy = JobStore(tmp_path / LEGACY_DB_NAME)
        job = legacy.submit(spec, "a" * 64, now=100.0)
        assert job.id.startswith("job-") and "-s00-" not in job.id
        del legacy
        store = open_job_store(tmp_path)
        assert store.get(job.id).artifact_key == "a" * 64
        assert store.claim("w", 30.0, now=101.0).id == job.id
        store.complete(job.id, med=0.5, runtime_seconds=1.0, now=102.0)
        assert store.get(job.id).state == "done"
        assert [r["op"] for r in read_journal(
            shard_journal_path(tmp_path, 0)
        )] == ["submit", "done"]

    def test_out_of_range_tag_is_not_found(self, store):
        with pytest.raises(JobNotFound):
            store.get("job-s07-0123456789ab")

    def test_dedup_twin_keys_meet_on_one_shard(self, store, spec):
        key = key_for_shard(0, 3)
        first = store.submit(spec, key, now=100.0)
        second = store.submit(spec, key, now=101.0)
        assert shard_for_key(key, 3) == 0
        live = store.find_by_key(key, states=("queued", "running", "done"))
        assert {job.id for job in live} == {first.id, second.id}
        # the idempotent-submit probe sees the first twin, oldest first
        assert live[0].id == first.id


class TestCrossShardScheduling:
    def test_two_workers_claim_across_shards(self, store, spec):
        jobs = [
            store.submit(spec, key_for_shard(i % 3, 3, salt=i // 3),
                         now=100.0 + i)
            for i in range(6)
        ]
        claimed = {"w0": [], "w1": []}
        for step in range(6):
            worker = f"w{step % 2}"
            job = store.claim(worker, lease_seconds=30.0, now=200.0)
            assert job is not None
            claimed[worker].append(job)
        assert store.claim("w0", 30.0, now=200.0) is None
        got = {job.id for jobs_ in claimed.values() for job in jobs_}
        assert got == {job.id for job in jobs}
        # both workers really ran, and the registry merges across shards
        assert len(claimed["w0"]) == 3 and len(claimed["w1"]) == 3
        workers = {w.id: w for w in store.list_workers()}
        assert set(workers) == {"w0", "w1"}

    def test_counts_and_pending_aggregate(self, store, spec):
        for i in range(3):
            store.submit(spec, key_for_shard(i, 3), now=100.0 + i)
        assert store.counts()["queued"] == 3
        assert store.pending() == 3


class TestCircuitBreaker:
    def make_store(self, tmp_path, **kwargs):
        kwargs.setdefault("trip_threshold", 2)
        kwargs.setdefault("probe_interval_seconds", 0.0)
        return ShardedJobStore(tmp_path, 3, **kwargs)

    def seam(self, site, index, chaos_seed):
        return FaultPlan(
            [FaultRule(site=site, probability=1.0, match=f"{index}:")],
            seed=chaos_seed,
        )

    def test_repeated_operational_errors_trip_the_breaker(
        self, tmp_path, spec, chaos_seed
    ):
        store = self.make_store(tmp_path)
        key = key_for_shard(1, 3)
        with fault_injection(self.seam("shard.unavailable", 1,
                                       chaos_seed)):
            for _ in range(2):
                with pytest.raises(ShardUnavailableError):
                    store.submit(spec, key, now=100.0)
        states = {s["index"]: s["state"] for s in store.shard_states()}
        assert states == {0: "healthy", 1: "degraded", 2: "healthy"}
        assert store.degraded_shards() == [1]

    def test_corruption_trips_immediately(
        self, tmp_path, spec, chaos_seed
    ):
        store = self.make_store(tmp_path, trip_threshold=3)
        with fault_injection(self.seam("shard.corrupt", 2, chaos_seed)):
            with pytest.raises(ShardUnavailableError):
                store.submit(spec, key_for_shard(2, 3), now=100.0)
        assert store.degraded_shards() == [2]

    def test_degraded_submit_carries_retry_after(
        self, tmp_path, spec, chaos_seed
    ):
        store = self.make_store(tmp_path, retry_after_seconds=7.0,
                                probe_interval_seconds=3600.0)
        with fault_injection(self.seam("shard.unavailable", 1,
                                       chaos_seed)):
            for _ in range(2):
                with pytest.raises(ShardUnavailableError):
                    store.submit(spec, key_for_shard(1, 3), now=100.0)
        # circuit open, seam gone: still scoped-unavailable (no probe
        # slot for an hour), and the envelope names shard + retry hint
        with pytest.raises(ShardUnavailableError) as info:
            store.submit(spec, key_for_shard(1, 3), now=100.0)
        assert info.value.shard == 1
        assert info.value.retry_after == pytest.approx(7.0)

    def test_claims_continue_on_surviving_shards(
        self, tmp_path, spec, chaos_seed
    ):
        store = self.make_store(tmp_path, probe_interval_seconds=3600.0)
        done = [
            store.submit(spec, key_for_shard(i, 3), now=100.0 + i)
            for i in (0, 2)
        ]
        with fault_injection(self.seam("shard.unavailable", 1,
                                       chaos_seed)):
            for _ in range(2):
                with pytest.raises(ShardUnavailableError):
                    store.submit(spec, key_for_shard(1, 3), now=100.0)
        claimed = {
            store.claim("w", 30.0, now=200.0).id for _ in range(2)
        }
        assert claimed == {job.id for job in done}
        assert store.claim("w", 30.0, now=200.0) is None

    def test_all_shards_down_raises_operational_error(
        self, tmp_path, spec, chaos_seed
    ):
        store = self.make_store(tmp_path, probe_interval_seconds=3600.0)
        plan = FaultPlan(
            [FaultRule(site="shard.unavailable", probability=1.0)],
            seed=chaos_seed,
        )
        with fault_injection(plan):
            for index in range(3):
                for _ in range(2):
                    with pytest.raises(ShardUnavailableError):
                        store.submit(
                            spec, key_for_shard(index, 3), now=100.0
                        )
        with pytest.raises(sqlite3.OperationalError, match="all 3"):
            store.claim("w", 30.0, now=200.0)

    def test_half_open_probe_recovers_the_shard(
        self, tmp_path, spec, chaos_seed
    ):
        store = self.make_store(tmp_path)  # probe interval 0: eager
        key = key_for_shard(1, 3)
        with fault_injection(self.seam("shard.unavailable", 1,
                                       chaos_seed)):
            for _ in range(2):
                with pytest.raises(ShardUnavailableError):
                    store.submit(spec, key, now=100.0)
        assert store.degraded_shards() == [1]
        # seam disarmed: the next call is the half-open probe and
        # succeeds, closing the circuit
        job = store.submit(spec, key, now=101.0)
        assert job.id.startswith("job-s01-")
        assert store.degraded_shards() == []


class TestWholeStoreDown:
    """N = 1 with its only shard corrupt: the store opens degraded and
    every surface says so instead of failing at open."""

    def corrupt_one_shard_directory(self, tmp_path, spec):
        open_job_store(tmp_path).submit(spec, "a" * 64, now=100.0)
        path = shard_db_path(tmp_path, 0)
        for suffix in ("-wal", "-shm"):
            sidecar = path.with_name(path.name + suffix)
            if sidecar.exists():
                sidecar.unlink()
        path.write_bytes(b"scribbled over by a failing disk")

    def test_aggregates_raise_store_pressure(self, tmp_path, spec):
        self.corrupt_one_shard_directory(tmp_path, spec)
        store = open_job_store(tmp_path)
        assert store.shard_health()["degraded"] == [0]
        for call in (store.pending, store.list_jobs, store.list_workers,
                     store.recover_orphans):
            with pytest.raises(sqlite3.OperationalError, match="all 1"):
                call()

    def test_healthz_reports_degraded(self, tmp_path, spec):
        self.corrupt_one_shard_directory(tmp_path, spec)
        service = DecompositionService(tmp_path)
        with DecompositionGateway(service, GatewayConfig(port=0)) as gw:
            health = GatewayClient(gw.url).healthz()
        assert health["status"] == "degraded"
        assert health["pending"] is None
        assert health["shards"]["degraded"] == [0]

    def test_cli_reports_instead_of_crashing(
        self, tmp_path, spec, capsys
    ):
        self.corrupt_one_shard_directory(tmp_path, spec)
        assert main(["status", "--service-dir", str(tmp_path)]) == 1
        assert "job store unavailable" in capsys.readouterr().err
        assert main(
            ["status", "--service-dir", str(tmp_path), "--shards"]
        ) == 3
        assert main(["admin", "scrub", "--service-dir",
                     str(tmp_path)]) == 3
        assert main(["admin", "rebuild", "--service-dir", str(tmp_path),
                     "--shard", "0"]) == 0
        assert main(["admin", "scrub", "--service-dir",
                     str(tmp_path)]) == 0
        assert open_job_store(tmp_path).counts()["queued"] == 1


class TestPaginationWhileDegraded:
    def test_pages_stay_stable_when_a_shard_trips(
        self, tmp_path, spec, chaos_seed
    ):
        store = ShardedJobStore(tmp_path, 3, trip_threshold=1,
                                probe_interval_seconds=3600.0)
        jobs = [
            store.submit(spec, key_for_shard(i % 3, 3, salt=i // 3),
                         now=100.0 + i)
            for i in range(9)
        ]
        page1, cursor = store.page_jobs(limit=4)
        assert [j.id for j in page1] == [j.id for j in jobs[:4]]
        assert cursor is not None

        plan = FaultPlan(
            [FaultRule(site="shard.unavailable", probability=1.0,
                       match="1:")],
            seed=chaos_seed,
        )
        with fault_injection(plan):
            with pytest.raises(ShardUnavailableError):
                store.submit(spec, key_for_shard(1, 3, salt=50),
                             now=200.0)
        assert store.degraded_shards() == [1]

        # the cursor survives the trip: no duplicates, no re-ordering —
        # exactly the survivors' jobs after the anchor, oldest first
        rest = []
        while cursor is not None:
            page, cursor = store.page_jobs(limit=4, cursor=cursor)
            rest.extend(page)
        expected = [
            job.id for job in jobs[4:] if not job.id.startswith("job-s01-")
        ]
        assert [job.id for job in rest] == expected
        seen = [job.id for job in page1] + [job.id for job in rest]
        assert len(seen) == len(set(seen))

    def test_unknown_cursor_is_a_service_error(self, store, spec):
        store.submit(spec, key_for_shard(0, 3), now=100.0)
        with pytest.raises(ServiceError, match="cursor"):
            store.page_jobs(limit=1, cursor="job-nonexistent0")


OLD_SCHEMA = """
CREATE TABLE jobs (
    id              TEXT PRIMARY KEY,
    artifact_key    TEXT NOT NULL,
    spec            TEXT NOT NULL,
    state           TEXT NOT NULL CHECK (state IN
                        ('queued', 'running', 'done', 'failed')),
    attempts        INTEGER NOT NULL DEFAULT 0,
    max_attempts    INTEGER NOT NULL,
    not_before      REAL NOT NULL DEFAULT 0,
    lease_expires   REAL,
    worker          TEXT,
    cache_hit       INTEGER NOT NULL DEFAULT 0,
    error           TEXT,
    created_at      REAL NOT NULL,
    started_at      REAL,
    finished_at     REAL,
    runtime_seconds REAL,
    med             REAL
);
CREATE INDEX idx_jobs_state ON jobs (state, not_before);
CREATE INDEX idx_jobs_key ON jobs (artifact_key);
"""


class TestShardedMigration:
    def test_quarantine_migration_runs_per_shard(self, tmp_path, spec):
        # lay out the sharded directory, then regress shard 1 to the
        # pre-quarantine schema with one live row in it
        open_job_store(tmp_path, shards=3)
        path = shard_db_path(tmp_path, 1)
        path.unlink()
        old_id = "job-s01-00000000dead"
        with sqlite3.connect(path) as conn:
            conn.executescript(OLD_SCHEMA)
            conn.execute(
                "INSERT INTO jobs (id, artifact_key, spec, state, "
                "max_attempts, created_at) VALUES (?, ?, ?, 'queued', "
                "3, 0)",
                (old_id, key_for_shard(1, 3),
                 json.dumps(spec.to_wire(), sort_keys=True)),
            )
            conn.commit()

        store = open_job_store(tmp_path)  # eager open migrates shard 1
        assert store.degraded_shards() == []
        assert store.get(old_id).state == "queued"
        # the migrated shard admits the new terminal state
        scheduler = Scheduler(
            store,
            SchedulerPolicy(retry_backoff_seconds=0.01,
                            quarantine_after=1),
        )
        claimed = scheduler.claim("w0", now=1.0)
        assert claimed.id == old_id
        assert scheduler.record_failure(
            claimed, error="boom", now=1.0
        ) == "quarantined"
        assert store.get(old_id).state == "quarantined"


def make_legacy_directory(root, spec):
    """A pre-manifest service directory: one ``jobs.sqlite3`` holding
    untagged ids in all five states — the running one leased, with a
    checkpoint in the artifact store."""
    legacy = JobStore(root / LEGACY_DB_NAME)
    artifacts = ArtifactStore(root / "artifacts")
    keys = [f"{i:02x}" * 32 for i in range(5)]
    jobs = [
        legacy.submit(spec, key, now=100.0 + i)
        for i, key in enumerate(keys)
    ]
    for i, job in enumerate(jobs[:4]):
        assert legacy.claim(f"w{i}", 30.0, now=110.0 + i).id == job.id
    legacy.complete(jobs[0].id, med=0.25, runtime_seconds=2.0,
                    now=120.0)
    artifacts.put(keys[0], {"luts": []})
    legacy.fail(jobs[1].id, "boom", now=121.0)
    legacy.quarantine(jobs[2].id, "poison", now=122.0)
    legacy.heartbeat(jobs[3].id, 600.0, now=123.0)
    artifacts.put_checkpoint(keys[3], {"round": 1})
    records = legacy.list_jobs()
    assert [r.state for r in records] == [
        "done", "failed", "quarantined", "running", "queued",
    ]
    assert all("-s00-" not in r.id for r in records)
    return records


class TestLegacyMigration:
    def test_migration_keeps_every_record(self, tmp_path, spec):
        legacy = make_legacy_directory(tmp_path, spec)
        store = open_job_store(tmp_path)
        assert store.n_shards == 1
        assert store.list_jobs() == legacy  # field for field
        # the legacy file and its WAL sidecars are gone, nothing stranded
        assert not list(tmp_path.glob(LEGACY_DB_NAME + "*"))
        assert shard_db_path(tmp_path, 0).exists()
        assert resolve_n_shards(tmp_path) == 1
        running = store.get(legacy[3].id)
        assert running.lease_expires == pytest.approx(723.0)
        assert ArtifactStore(tmp_path / "artifacts").get_checkpoint(
            running.artifact_key
        ) == {"round": 1}
        ops = [
            (r["op"], r["id"])
            for r in read_journal(shard_journal_path(tmp_path, 0))
        ]
        assert ops == [
            ("submit", legacy[0].id), ("done", legacy[0].id),
            ("submit", legacy[1].id), ("failed", legacy[1].id),
            ("submit", legacy[2].id), ("quarantined", legacy[2].id),
            ("submit", legacy[3].id),
            ("submit", legacy[4].id),
        ]

    def test_backfill_writes_the_fields_live_appends_write(
        self, tmp_path, spec
    ):
        make_legacy_directory(tmp_path / "old", spec)
        open_job_store(tmp_path / "old")
        live = open_job_store(tmp_path / "new")
        for i, finish in enumerate(("complete", "fail", "quarantine")):
            job = live.submit(spec, f"{i:02x}" * 32, now=100.0 + i)
            live.claim("w", 30.0, now=110.0)
            if finish == "complete":
                live.complete(job.id, med=0.25, runtime_seconds=2.0)
            else:
                getattr(live, finish)(job.id, "boom")

        def fields(root):
            return {
                record["op"]: sorted(record)
                for record in read_journal(shard_journal_path(root, 0))
            }

        assert fields(tmp_path / "old") == fields(tmp_path / "new")

    def test_second_open_is_a_no_op(self, tmp_path, spec):
        legacy = make_legacy_directory(tmp_path, spec)
        open_job_store(tmp_path)
        snapshot = {
            path.name: path.read_bytes()
            for path in (
                tmp_path / "shards.json", shard_journal_path(tmp_path, 0)
            )
        }
        reopened = open_job_store(tmp_path)
        assert reopened.list_jobs() == legacy
        for name, data in snapshot.items():
            assert (tmp_path / name).read_bytes() == data

    def test_concurrent_opens_migrate_once(self, tmp_path, spec):
        legacy = make_legacy_directory(tmp_path, spec)
        n_threads = 4  # more openers than cores
        barrier = threading.Barrier(n_threads)
        opened, errors = [], []

        def open_it():
            barrier.wait(timeout=30)
            try:
                opened.append(open_job_store(tmp_path))
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=open_it) for _ in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert errors == []
        assert len(opened) == n_threads
        for store in opened:
            assert store.list_jobs() == legacy
        submits = [
            r["id"] for r in read_journal(shard_journal_path(tmp_path, 0))
            if r["op"] == "submit"
        ]
        assert submits == [r.id for r in legacy]
        assert sorted(p.name for p in tmp_path.glob("jobs*.sqlite3")) == [
            "jobs-00.sqlite3"
        ]

    def test_corrupt_legacy_file_raises_and_stays(self, tmp_path):
        legacy = tmp_path / LEGACY_DB_NAME
        legacy.write_bytes(b"not a database, just a damaged disk block")
        with pytest.raises(JobStoreCorruptError):
            open_job_store(tmp_path)
        assert legacy.read_bytes().startswith(b"not a database")
        assert not (tmp_path / "shards.json").exists()
        assert not shard_db_path(tmp_path, 0).exists()
        assert not shard_journal_path(tmp_path, 0).exists()

    def test_crash_before_the_manifest_reopens_cleanly(
        self, tmp_path, spec, monkeypatch
    ):
        legacy = make_legacy_directory(tmp_path, spec)

        def crash(root, n_shards):
            raise RuntimeError("simulated crash before the manifest")

        monkeypatch.setattr(shards_module, "_write_manifest", crash)
        with pytest.raises(RuntimeError, match="simulated crash"):
            open_job_store(tmp_path)
        monkeypatch.undo()
        assert not (tmp_path / LEGACY_DB_NAME).exists()
        assert shard_db_path(tmp_path, 0).exists()
        assert not (tmp_path / "shards.json").exists()
        # the half-migrated directory is an N=1 layout, whatever the
        # reopening command asks for
        with pytest.raises(ServiceError, match="reshard"):
            open_job_store(tmp_path, shards=4)
        assert open_job_store(tmp_path).list_jobs() == legacy
        submits = [
            r for r in read_journal(shard_journal_path(tmp_path, 0))
            if r["op"] == "submit"
        ]
        assert len(submits) == len(legacy)

    def test_migrated_store_rebuilds_from_its_backfilled_journal(
        self, tmp_path, spec
    ):
        legacy = make_legacy_directory(tmp_path, spec)
        open_job_store(tmp_path)
        shard_db_path(tmp_path, 0).unlink()
        report = rebuild_shard(tmp_path, 0)
        assert report["restored"] == len(legacy)
        assert report["terminal_from_journal"] == 3
        rebuilt = {job.id: job for job in open_job_store(tmp_path)
                   .list_jobs()}
        for job in legacy:
            assert rebuilt[job.id].artifact_key == job.artifact_key
            expected = "queued" if job.state == "running" else job.state
            assert rebuilt[job.id].state == expected
        assert rebuilt[legacy[0].id].med == pytest.approx(0.25)
        assert scrub_store(tmp_path)["ok"]


class TestJournalScrubRebuild:
    def test_submit_and_terminal_ops_are_journaled(
        self, store, spec, tmp_path
    ):
        key = key_for_shard(2, 3)
        job = store.submit(spec, key, now=100.0)
        store.claim("w", 30.0, now=101.0)
        store.complete(job.id, med=0.5, runtime_seconds=1.0, now=102.0)
        records = list(read_journal(shard_journal_path(tmp_path, 2)))
        assert [r["op"] for r in records] == ["submit", "done"]
        assert records[0]["id"] == job.id
        assert records[0]["artifact_key"] == key
        assert records[1]["id"] == job.id

    def test_scrub_clean_store(self, store, spec, tmp_path):
        store.submit(spec, key_for_shard(0, 3), now=100.0)
        report = scrub_store(tmp_path)
        assert report["ok"]
        assert report["n_shards"] == 3
        assert [s["jobs"] for s in report["shards"]] == [1, 0, 0]

    def test_scrub_flags_garbage_shard(self, store, spec, tmp_path):
        store.submit(spec, key_for_shard(1, 3), now=100.0)
        del store
        path = shard_db_path(tmp_path, 1)
        # take the WAL sidecars with the main file, otherwise SQLite's
        # own WAL recovery quietly undoes the simulated disk loss
        for suffix in ("-wal", "-shm"):
            sidecar = path.with_name(path.name + suffix)
            if sidecar.exists():
                sidecar.unlink()
        path.write_bytes(b"not a database")
        report = scrub_store(tmp_path)
        assert not report["ok"]
        bad = report["shards"][1]
        assert not bad["ok"]
        assert any("integrity" in f for f in bad["findings"])
        assert report["shards"][0]["ok"] and report["shards"][2]["ok"]

    def test_scrub_flags_journaled_job_missing_from_db(
        self, store, spec, tmp_path
    ):
        job = store.submit(spec, key_for_shard(0, 3), now=100.0)
        del store
        path = shard_db_path(tmp_path, 0)
        with sqlite3.connect(path) as conn:
            conn.execute("DELETE FROM jobs WHERE id = ?", (job.id,))
            conn.commit()
        report = scrub_store(tmp_path)
        assert not report["ok"]
        assert any(
            job.id in finding
            for finding in report["shards"][0]["findings"]
        )

    def test_rebuild_restores_terminal_and_requeues_live(
        self, store, spec, tmp_path
    ):
        key_done = key_for_shard(1, 3)
        key_live = key_for_shard(1, 3, salt=1)
        done = store.submit(spec, key_done, now=100.0)
        live = store.submit(spec, key_live, now=101.0)
        claimed = store.claim("w", 30.0, now=102.0)
        assert claimed.id == done.id
        store.complete(done.id, med=0.25, runtime_seconds=1.0, now=103.0)
        del store

        path = shard_db_path(tmp_path, 1)
        path.write_bytes(b"scribbled over by a failing disk")
        report = rebuild_shard(tmp_path, 1)
        assert report["backed_up"] == str(path) + ".corrupt"
        assert report["terminal_from_journal"] == 1
        assert report["requeued"] == 1
        assert report["restored"] == 2

        rebuilt = open_job_store(tmp_path)
        restored_done = rebuilt.get(done.id)
        assert restored_done.state == "done"
        assert restored_done.med == pytest.approx(0.25)
        assert rebuilt.get(live.id).state == "queued"
        # the rebuilt database is structurally sound — the only scrub
        # finding left is the done job's artifact, which this
        # store-level test never wrote
        after = scrub_store(tmp_path)["shards"][1]
        assert after["jobs"] == 2
        assert all("artifact" in f for f in after["findings"])

    def test_one_shard_rebuild_after_losing_the_file(
        self, tmp_path, spec
    ):
        store = open_job_store(tmp_path)
        artifacts = ArtifactStore(tmp_path / "artifacts")
        jobs = [
            store.submit(spec, f"{i:02x}" * 32, now=100.0 + i)
            for i in range(3)
        ]
        store.claim("w", 30.0, now=110.0)
        store.complete(jobs[0].id, med=0.5, runtime_seconds=1.0)
        artifacts.put(jobs[0].artifact_key, {"luts": []})
        artifacts.put(jobs[1].artifact_key, {"luts": []})
        del store
        path = shard_db_path(tmp_path, 0)
        for victim in (path, path.with_name(path.name + "-wal"),
                       path.with_name(path.name + "-shm")):
            if victim.exists():
                victim.unlink()
        assert not scrub_store(tmp_path)["ok"]

        report = rebuild_shard(tmp_path, 0)
        assert report["backed_up"] is None
        assert report["restored"] == 3
        assert report["terminal_from_journal"] == 1
        assert report["done_from_artifact"] == 1
        assert report["requeued"] == 1
        after = scrub_store(tmp_path)
        assert after["ok"] and after["shards"][0]["jobs"] == 3
        rebuilt = open_job_store(tmp_path)
        assert [job.id for job in rebuilt.list_jobs()] == [
            job.id for job in jobs
        ]
        assert [job.state for job in rebuilt.list_jobs()] == [
            "done", "done", "queued",
        ]

    def test_reset_shard_reopens_after_offline_repair(
        self, tmp_path, spec, chaos_seed
    ):
        store = ShardedJobStore(tmp_path, 3, trip_threshold=1,
                                probe_interval_seconds=3600.0)
        plan = FaultPlan(
            [FaultRule(site="shard.corrupt", probability=1.0,
                       match="0:")],
            seed=chaos_seed,
        )
        with fault_injection(plan):
            with pytest.raises(ShardUnavailableError):
                store.submit(spec, key_for_shard(0, 3), now=100.0)
        assert store.degraded_shards() == [0]
        store.reset_shard(0)
        assert store.degraded_shards() == []
        assert store.submit(
            spec, key_for_shard(0, 3), now=101.0
        ).id.startswith("job-s00-")
