"""Tests for the durable SQLite job store (lifecycle + recovery)."""

import pytest

from repro.errors import JobNotFound, ServiceError
from repro.service import JobSpec, JobStore, open_job_store


KEY_A = "a" * 64
KEY_B = "b" * 64


@pytest.fixture
def store(tmp_path):
    return JobStore(tmp_path / "jobs.sqlite3")


@pytest.fixture
def spec(fast_config):
    return JobSpec(workload="cos", n_inputs=6, config=fast_config,
                   max_attempts=3)


class TestLifecycle:
    def test_submit_creates_queued_job(self, store, spec):
        job = store.submit(spec, KEY_A, now=100.0)
        assert job.state == "queued"
        assert job.attempts == 0
        assert job.artifact_key == KEY_A
        assert job.spec == spec

    def test_claim_marks_running_and_counts_attempt(self, store, spec):
        job = store.submit(spec, KEY_A, now=100.0)
        claimed = store.claim("w0", lease_seconds=30.0, now=101.0)
        assert claimed.id == job.id
        assert claimed.state == "running"
        assert claimed.attempts == 1
        assert claimed.worker == "w0"
        assert claimed.lease_expires == pytest.approx(131.0)

    def test_claim_is_fifo(self, store, spec):
        first = store.submit(spec, KEY_A, now=100.0)
        second = store.submit(spec, KEY_B, now=101.0)
        assert store.claim("w", 30.0, now=102.0).id == first.id
        assert store.claim("w", 30.0, now=102.0).id == second.id

    def test_claim_empty_queue(self, store):
        assert store.claim("w", 30.0, now=1.0) is None

    def test_complete(self, store, spec):
        job = store.submit(spec, KEY_A, now=100.0)
        store.claim("w", 30.0, now=101.0)
        store.complete(job.id, med=1.5, runtime_seconds=0.2, now=102.0)
        done = store.get(job.id)
        assert done.state == "done"
        assert done.med == 1.5
        assert done.finished_at == 102.0
        assert done.error is None

    def test_single_flight_on_duplicate_keys(self, store, spec):
        first = store.submit(spec, KEY_A, now=100.0)
        store.submit(spec, KEY_A, now=100.5)  # duplicate key
        other = store.submit(spec, KEY_B, now=101.0)
        assert store.claim("w0", 30.0, now=102.0).id == first.id
        # the duplicate is held back while its twin runs; B is next
        assert store.claim("w1", 30.0, now=102.0).id == other.id
        assert store.claim("w2", 30.0, now=102.0) is None
        store.complete(first.id, now=103.0)
        # twin released once the runner finished
        assert store.claim("w2", 30.0, now=104.0) is not None


class TestRetryAndFailure:
    def test_retry_requeues_with_backoff_gate(self, store, spec):
        job = store.submit(spec, KEY_A, now=100.0)
        store.claim("w", 30.0, now=101.0)
        store.retry(job.id, error="boom", not_before=105.0)
        queued = store.get(job.id)
        assert queued.state == "queued"
        assert queued.error == "boom"
        assert store.claim("w", 30.0, now=104.0) is None  # gated
        assert store.claim("w", 30.0, now=105.5).attempts == 2

    def test_fail_is_terminal(self, store, spec):
        job = store.submit(spec, KEY_A, now=100.0)
        store.claim("w", 30.0, now=101.0)
        store.fail(job.id, error="dead", now=102.0)
        failed = store.get(job.id)
        assert failed.state == "failed"
        assert failed.error == "dead"
        assert store.claim("w", 30.0, now=103.0) is None

    def test_transitions_require_running_state(self, store, spec):
        job = store.submit(spec, KEY_A, now=100.0)
        with pytest.raises(ServiceError, match="queued"):
            store.complete(job.id, now=101.0)
        with pytest.raises(JobNotFound):
            store.complete("job-missing", now=101.0)


class TestOrphanRecovery:
    def test_expired_lease_requeues(self, store, spec):
        job = store.submit(spec, KEY_A, now=100.0)
        store.claim("w", lease_seconds=10.0, now=101.0)
        assert store.recover_orphans(now=105.0) == []  # lease alive
        recovered = store.recover_orphans(now=112.0)
        assert recovered == [job.id]
        requeued = store.get(job.id)
        assert requeued.state == "queued"
        assert "lease expired" in requeued.error

    def test_heartbeat_extends_lease(self, store, spec):
        job = store.submit(spec, KEY_A, now=100.0)
        store.claim("w", lease_seconds=10.0, now=101.0)
        store.heartbeat(job.id, lease_seconds=10.0, now=108.0)
        assert store.recover_orphans(now=112.0) == []
        assert store.recover_orphans(now=119.0) == [job.id]

    def test_exhausted_orphan_fails(self, store, fast_config):
        spec = JobSpec(workload="cos", n_inputs=6, config=fast_config,
                       max_attempts=1)
        job = store.submit(spec, KEY_A, now=100.0)
        store.claim("w", lease_seconds=10.0, now=101.0)
        assert store.recover_orphans(now=120.0) == [job.id]
        assert store.get(job.id).state == "failed"

    def test_recovered_job_is_reclaimable(self, store, spec):
        job = store.submit(spec, KEY_A, now=100.0)
        store.claim("w0", lease_seconds=10.0, now=101.0)
        store.recover_orphans(now=120.0)
        reclaimed = store.claim("w1", lease_seconds=10.0, now=121.0)
        assert reclaimed.id == job.id
        assert reclaimed.attempts == 2
        assert reclaimed.worker == "w1"


class TestInspection:
    def test_counts_and_pending(self, store, spec):
        store.submit(spec, KEY_A, now=100.0)
        running = store.submit(spec, KEY_B, now=101.0)
        store.claim("w", 30.0, now=102.0)  # claims KEY_A job
        counts = store.counts()
        assert counts == {"queued": 1, "running": 1, "done": 0,
                          "failed": 0, "quarantined": 0}
        assert store.pending() == 2
        assert running is not None

    def test_list_jobs_filter_validated(self, tmp_path):
        # the store front validates; JobStore is its per-shard engine
        with pytest.raises(ServiceError, match="unknown job state"):
            open_job_store(tmp_path / "svc").list_jobs("zombie")

    def test_get_unknown_job(self, store):
        with pytest.raises(JobNotFound):
            store.get("job-unknown")

    def test_store_survives_reopen(self, store, spec, tmp_path):
        job = store.submit(spec, KEY_A, now=100.0)
        reopened = JobStore(tmp_path / "jobs.sqlite3")
        assert reopened.get(job.id).spec == spec
