"""Shard chaos: corrupt one of four shards mid-run, finish on the rest.

The ISSUE acceptance scenario end to end, in-process: a 4-shard
service behind a live gateway, ``shard.corrupt`` armed against one
shard while the worker pool drains the queue.  Jobs on the surviving
shards must complete; the gateway must answer the whole time with
``/healthz`` and the Prometheus exposition naming the degraded shard;
submits routed to the dead shard must get a scoped 503 with
Retry-After; and after ``rebuild_shard`` + ``reset_shard`` the
stranded jobs complete too — with every artifact's design document
byte-identical to an N=1 run of the same specs.
"""

import dataclasses
import json

import pytest

from repro.core import CoreSolverConfig, FrameworkConfig
from repro.errors import GatewayError, ShardUnavailableError
from repro.gateway import DecompositionGateway, GatewayClient, GatewayConfig
from repro.resilience import FaultPlan, FaultRule, fault_injection
from repro.service import (
    DecompositionService,
    JobSpec,
    SchedulerPolicy,
    artifact_key,
    rebuild_shard,
    shard_for_key,
)
from repro.service.shards import shard_db_path
from repro.workloads import build_workload

N_SHARDS = 4

FAST_POLICY = SchedulerPolicy(
    lease_seconds=30.0,
    retry_backoff_seconds=0.01,
    poll_interval_seconds=0.01,
)

TINY = FrameworkConfig(
    mode="joint",
    free_size=2,
    n_partitions=2,
    n_rounds=1,
    seed=7,
    solver=CoreSolverConfig(max_iterations=150, n_replicas=2),
)


def spec_with_seed(seed):
    return JobSpec(
        workload="cos", n_inputs=6,
        config=dataclasses.replace(TINY, seed=seed),
    )


def key_of(spec):
    table = build_workload(spec.workload, n_inputs=spec.n_inputs).table
    return artifact_key(table, spec.config)


def seed_on_shard(shard, start=100):
    """A spec seed whose artifact key hashes onto ``shard``."""
    for seed in range(start, start + 200):
        if shard_for_key(key_of(spec_with_seed(seed)), N_SHARDS) == shard:
            return seed
    raise AssertionError(f"no seed found for shard {shard}")


def canonical(design):
    return json.dumps(design, sort_keys=True)


@pytest.mark.slow
def test_corrupted_shard_mid_run_completes_and_rebuilds(tmp_path):
    specs = [spec_with_seed(seed) for seed in range(6)]

    # -- baseline: the same specs through a default (N=1) service ----
    baseline = DecompositionService(
        tmp_path / "baseline", n_workers=2, policy=FAST_POLICY
    )
    for spec in specs:
        baseline.submit(spec)
    baseline.run_until_drained(timeout=300)
    baseline_designs = {}
    for job in baseline.jobs():
        assert job.state == "done", (job.id, job.error)
        envelope = baseline.artifacts.get(job.artifact_key)
        baseline_designs[job.artifact_key] = canonical(envelope["design"])

    # -- sharded run with one shard corrupted mid-flight ---------------
    service = DecompositionService(
        tmp_path / "svc", n_workers=2, policy=FAST_POLICY,
        shards=N_SHARDS,
    )
    root = tmp_path / "svc"
    with DecompositionGateway(service, GatewayConfig(port=0)) as gateway:
        client = GatewayClient(gateway.url)
        jobs = [client.submit(spec)[0] for spec in specs]
        by_shard = {}
        for job in jobs:
            index = int(job.id[len("job-s"):len("job-s") + 2])
            by_shard.setdefault(index, []).append(job)
        victim = min(by_shard)  # deterministic pick with jobs on it
        victims = by_shard[victim]
        survivors = [
            job for index, group in by_shard.items() if index != victim
            for job in group
        ]
        assert victims and survivors

        plan = FaultPlan(
            [FaultRule(site="shard.corrupt", probability=1.0,
                       match=f"{victim}:")],
            seed=1234,
        )
        with fault_injection(plan):
            pool = service.serve_forever()
            try:
                for job in survivors:
                    record = client.wait(job.id, timeout_seconds=120)
                    assert record.state == "done", (job.id, record.error)

                # the dead shard is visible the whole time: healthz ...
                health = client.healthz()
                assert health["status"] == "degraded"
                assert health["shards"]["total"] == N_SHARDS
                assert victim in health["shards"]["degraded"]
                # ... and the Prometheus exposition
                metrics = client.metrics_text()
                assert f"repro_service_shard{victim:02d}_up 0" in metrics
                assert "repro_service_shards_degraded 1" in metrics
                up = [
                    index for index in range(N_SHARDS) if index != victim
                ]
                for index in up:
                    assert (
                        f"repro_service_shard{index:02d}_up 1" in metrics
                    )

                # a submit routed to the dead shard: scoped 503, not a
                # whole-service outage
                with pytest.raises(GatewayError) as info:
                    client.submit(
                        spec_with_seed(seed_on_shard(victim))
                    )
                assert info.value.status == 503
                assert info.value.retry_after is not None

                # the victim's own jobs are stranded behind the open
                # circuit (a read is scoped-unavailable, not lost)
                for job in victims:
                    with pytest.raises(ShardUnavailableError):
                        service.store.get(job.id)
            finally:
                pool.stop()

        # -- rebuild the lost shard from journal + artifacts -----------
        path = shard_db_path(root, victim)
        for suffix in ("", "-wal", "-shm"):
            sidecar = path.with_name(path.name + suffix)
            if sidecar.exists():
                sidecar.unlink()
        report = rebuild_shard(root, victim)
        assert report["restored"] == len(victims)
        assert report["requeued"] == len(victims)

        service.store.reset_shard(victim)
        assert service.store.degraded_shards() == []
        health = client.healthz()
        assert health["status"] == "ok"

        pool = service.serve_forever()
        try:
            for job in victims:
                record = client.wait(job.id, timeout_seconds=120)
                assert record.state == "done", (job.id, record.error)
        finally:
            pool.stop()

    # -- every artifact byte-identical to the N=1 run -----------------
    sharded_designs = {}
    for job in service.jobs():
        assert job.state == "done"
        envelope = service.artifacts.get(job.artifact_key)
        sharded_designs[job.artifact_key] = canonical(envelope["design"])
    assert sharded_designs == baseline_designs
