"""Service telemetry: a structured summary derived from durable state.

Telemetry is *computed*, not accumulated: everything is derived from the
job store rows and the artifact directory on demand.  That makes the
numbers correct across processes (``repro status`` sees exactly what
``repro serve`` produced, even after a crash) and means there is no
second, driftable source of truth to keep consistent.

The summary layout (all times in seconds)::

    {
      "jobs": {"queued": 0, "running": 1, "done": 7, "failed": 0,
               "quarantined": 0, "total": 8},
      "cache": {"hits": 3, "misses": 4, "hit_rate": 0.4286,
                "n_artifacts": 4, "total_bytes": 51234},
      "retries": {"total": 2, "jobs_retried": 1, "max_attempts_seen": 3},
      "timing": {"solve_seconds_total": ..., "solve_seconds_mean": ...,
                 "solve_seconds_max": ..., "wall_seconds": ...,
                 "jobs_per_second": ...},
      "queue": {"depth": 0, "oldest_waiting_seconds": null},
      "fleet": {...},
      "shards": {"total": 1, "degraded": [], "states": [...]}
    }
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence

from repro.obs.exporters import prometheus_text
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.service.artifacts import ArtifactStore
from repro.service.jobstore import JOB_STATES, JobRecord, WorkerRecord
from repro.service.shards import ShardedJobStore

__all__ = [
    "service_summary",
    "format_job_table",
    "format_worker_table",
    "prometheus_exposition",
    "LIVE_WORKER_SECONDS",
]

#: a worker whose last heartbeat is older than this is shown as stale
LIVE_WORKER_SECONDS = 60.0


def _round(value: Optional[float], digits: int = 4) -> Optional[float]:
    return None if value is None else round(float(value), digits)


def service_summary(
    store: ShardedJobStore,
    artifacts: Optional[ArtifactStore] = None,
    now: Optional[float] = None,
) -> Dict:
    """Build the structured telemetry summary (see module docs)."""
    now = time.time() if now is None else now
    jobs = store.list_jobs()
    counts = {state: 0 for state in JOB_STATES}
    for job in jobs:
        counts[job.state] += 1
    done = [job for job in jobs if job.state == "done"]
    hits = sum(1 for job in done if job.cache_hit)
    solved = [
        job.runtime_seconds
        for job in done
        if not job.cache_hit and job.runtime_seconds is not None
    ]
    retries_per_job = [job.retries for job in jobs]
    finished = [job for job in jobs if job.finished_at is not None]
    first_start = min(
        (job.started_at for job in jobs if job.started_at is not None),
        default=None,
    )
    last_finish = max(
        (job.finished_at for job in finished), default=None
    )
    wall = (
        None
        if first_start is None or last_finish is None
        else max(0.0, last_finish - first_start)
    )
    waiting = [
        now - job.created_at for job in jobs if job.state == "queued"
    ]
    summary = {
        "jobs": {**counts, "total": len(jobs)},
        "cache": {
            "hits": hits,
            "misses": len(done) - hits,
            "hit_rate": _round(hits / len(done)) if done else None,
        },
        "retries": {
            "total": sum(retries_per_job),
            "jobs_retried": sum(1 for r in retries_per_job if r > 0),
            "max_attempts_seen": max(
                (job.attempts for job in jobs), default=0
            ),
        },
        "timing": {
            "solve_seconds_total": _round(sum(solved)) if solved else None,
            "solve_seconds_mean": (
                _round(sum(solved) / len(solved)) if solved else None
            ),
            "solve_seconds_max": _round(max(solved)) if solved else None,
            "wall_seconds": _round(wall),
            "jobs_per_second": (
                _round(len(finished) / wall) if wall else None
            ),
        },
        "queue": {
            "depth": counts["queued"] + counts["running"],
            "oldest_waiting_seconds": (
                _round(max(waiting)) if waiting else None
            ),
        },
        "fleet": _fleet_summary(store.list_workers(), now=now),
        "shards": store.shard_health(),
    }
    if artifacts is not None:
        summary["cache"].update(artifacts.stats())
    return summary


def _fleet_summary(workers: Sequence[WorkerRecord], now: float) -> Dict:
    """Worker-registry rollup for :func:`service_summary`."""
    ages = [max(0.0, now - w.last_heartbeat) for w in workers]
    return {
        "workers": len(workers),
        "live": sum(1 for age in ages if age <= LIVE_WORKER_SECONDS),
        "busy": sum(1 for w in workers if w.current_job is not None),
        "remote": sum(1 for w in workers if w.kind == "remote"),
        "jobs_completed": sum(w.jobs_completed for w in workers),
        "jobs_failed": sum(w.jobs_failed for w in workers),
        "max_heartbeat_age_seconds": (
            _round(max(ages)) if ages else None
        ),
    }


def prometheus_exposition(
    store: ShardedJobStore,
    artifacts: Optional[ArtifactStore] = None,
    now: Optional[float] = None,
    registry: Optional[MetricsRegistry] = None,
) -> str:
    """Prometheus text exposition of the service state.

    Combines the durable-state summary (re-derived from the job store
    and artifact directory, exported as gauges under ``repro_service_*``)
    with the in-process counters/histograms of ``registry`` (default:
    the global registry — scheduler/worker/solver metrics).
    """
    summary = service_summary(store, artifacts, now=now)
    derived = MetricsRegistry()
    for state, count in summary["jobs"].items():
        derived.gauge(
            f"service_jobs_{state}",
            help=f"jobs currently in state {state}"
            if state != "total" else "all jobs ever submitted",
        ).set(count)
    cache = summary["cache"]
    derived.gauge(
        "service_cache_hits", help="done jobs served from cache"
    ).set(cache["hits"])
    derived.gauge(
        "service_cache_misses", help="done jobs actually solved"
    ).set(cache["misses"])
    if cache.get("n_artifacts") is not None:
        derived.gauge(
            "service_artifacts", help="stored artifact count"
        ).set(cache["n_artifacts"])
    if cache.get("total_bytes") is not None:
        derived.gauge(
            "service_artifact_bytes", help="stored artifact bytes"
        ).set(cache["total_bytes"])
    derived.gauge(
        "service_retries", help="total executed retries"
    ).set(summary["retries"]["total"])
    derived.gauge(
        "service_queue_depth", help="queued plus running jobs"
    ).set(summary["queue"]["depth"])
    solve_total = summary["timing"]["solve_seconds_total"]
    if solve_total is not None:
        derived.gauge(
            "service_solve_seconds_total",
            help="cumulative non-cached solve wall time",
        ).set(solve_total)
    fleet = summary["fleet"]
    derived.gauge(
        "service_workers", help="workers ever registered"
    ).set(fleet["workers"])
    derived.gauge(
        "service_workers_live",
        help=f"workers heard from within {LIVE_WORKER_SECONDS:.0f}s",
    ).set(fleet["live"])
    derived.gauge(
        "service_workers_busy", help="workers holding a running job"
    ).set(fleet["busy"])
    if fleet["max_heartbeat_age_seconds"] is not None:
        derived.gauge(
            "service_worker_heartbeat_lag_seconds",
            help="oldest worker heartbeat age",
        ).set(fleet["max_heartbeat_age_seconds"])
    shards = summary["shards"]
    derived.gauge(
        "service_shards_total", help="job-store shard count"
    ).set(shards["total"])
    derived.gauge(
        "service_shards_degraded",
        help="shards whose circuit breaker is currently open",
    ).set(len(shards["degraded"]))
    # the registry has no label support, so per-shard liveness is one
    # gauge per shard: repro_service_shard00_up 0|1
    for state in shards["states"]:
        derived.gauge(
            f"service_shard{state['index']:02d}_up",
            help="1 while this shard's circuit is closed",
        ).set(1 if state["state"] == "healthy" else 0)
    text = prometheus_text(derived)
    process = prometheus_text(
        registry if registry is not None else get_metrics()
    )
    return text + process


def format_job_table(jobs: Sequence[JobRecord]) -> str:
    """Fixed-width text table of jobs for the ``status`` CLI."""
    header = (
        f"{'id':<20} {'state':<11} {'problem':<16} {'att':>3} "
        f"{'cache':>5} {'med':>8} {'runtime':>8}  error"
    )
    lines = [header, "-" * len(header)]
    for job in jobs:
        med = "-" if job.med is None else f"{job.med:.4f}"
        runtime = (
            "-"
            if job.runtime_seconds is None
            else f"{job.runtime_seconds:.2f}s"
        )
        error = "" if not job.error else f" {job.error}"
        lines.append(
            f"{job.id:<20} {job.state:<11} {job.spec.describe():<16} "
            f"{job.attempts:>3} {('yes' if job.cache_hit else 'no'):>5} "
            f"{med:>8} {runtime:>8} {error}"
        )
    return "\n".join(lines)


def format_worker_table(
    workers: Sequence[WorkerRecord], now: Optional[float] = None
) -> str:
    """Fixed-width fleet table for ``repro status --workers``."""
    now = time.time() if now is None else now
    header = (
        f"{'worker':<28} {'kind':<7} {'hb age':>8} {'lease':>8} "
        f"{'done':>5} {'fail':>5}  current job"
    )
    lines = [header, "-" * len(header)]
    for worker in workers:
        age = max(0.0, now - worker.last_heartbeat)
        stale = "" if age <= LIVE_WORKER_SECONDS else "!"
        lease = (
            "-"
            if worker.lease_expires is None
            else f"{worker.lease_expires - now:+.1f}s"
        )
        lines.append(
            f"{worker.id:<28} {worker.kind:<7} "
            f"{f'{age:.1f}s{stale}':>8} {lease:>8} "
            f"{worker.jobs_completed:>5} {worker.jobs_failed:>5}  "
            f"{worker.current_job or '-'}"
        )
    return "\n".join(lines)
