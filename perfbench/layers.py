"""Per-layer metrics from a span export (see ``spans.py``).

Time metrics ending in ``_s`` are seconds per decomposition; counts
are per decomposition (``per job`` for service counts) so runs of
different length compare.  ``kernel.flops_per_step`` and
``kernel.bytes_per_step`` are *computed* from the solved shapes, not
measured.  A layer the workload does not exercise reads 0.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional

from stats import percentile, self_times

#: every per-layer metric, with its unit, in report order
PER_LAYER = (
    ("framework.self_s", "s"),
    ("framework.accept_ratio", "ratio"),
    ("formulation.build_s", "s"),
    ("formulation.builds", "count"),
    ("formulation.cache_hit_ratio", "ratio"),
    ("solver.solves", "count"),
    ("solver.solve_ms.p50", "ms"),
    ("solver.decode_ms.p50", "ms"),
    ("theorem3.calls", "count"),
    ("theorem3.s", "s"),
    ("sb.iterations.mean", "count"),
    ("sb.dynamic_stop_frac", "ratio"),
    ("kernel.step_us.p50", "us"),
    ("kernel.steps", "count"),
    ("kernel.flops_per_step", "flop_computed"),
    ("kernel.bytes_per_step", "B_computed"),
    ("synthesis.s", "s"),
    ("executor.run_ms.p50", "ms"),
    ("executor.overhead_ms.p50", "ms"),
    ("store.submit_ms.p50", "ms"),
    ("store.claim_ms.p50", "ms"),
    ("store.heartbeat_ms.p50", "ms"),
    ("store.heartbeats", "count"),
    ("store.complete_ms.p50", "ms"),
    ("store.find_by_key_ms.p50", "ms"),
    ("queue.wait_ms.p50", "ms"),
    ("queue.wait_ms.p90", "ms"),
    ("artifacts.checkpoint_ms.p50", "ms"),
    ("artifacts.checkpoints", "count"),
    ("artifacts.checkpoint_bytes", "B"),
    ("artifacts.put_ms.p50", "ms"),
    ("artifacts.get_ms.p50", "ms"),
    ("gateway.submit_self_ms.p50", "ms"),
    ("gateway.result_ms.p50", "ms"),
    ("gateway.result_ms.p90", "ms"),
    ("gateway.rejected", "count"),
    ("client.retries", "count"),
    ("fusion.fused_jobs", "count"),
    ("fusion.rejected", "count"),
    ("loadgen.lateness_ms.p90", "ms"),
    ("dedup_ratio", "ratio"),
    ("gap.job_ms", "ms"),
    ("gap.executor_ms", "ms"),
    ("gap.heartbeat_ms", "ms"),
    ("gap.checkpoint_ms", "ms"),
    ("gap.artifact_ms", "ms"),
    ("gap.store_ms", "ms"),
    ("gap.compute_ms", "ms"),
    ("gap.explained_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("complete_ms.p90", "ms"),
    ("submit_ms.p50", "ms"),
    ("submit_ms.p90", "ms"),
)


def _p(values: List[float], q: float, scale: float = 1.0) -> float:
    return percentile(values, q) * scale if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def kernel_cost(r: int, c: int, replicas: int, dtype: str):
    """Computed flops and bytes of one fused bipartite SB step.

    Two coupling mat-vecs (``t K^T`` and ``(v1 - v2) K``) cost
    ``2 * 2 R r c`` flops; the element-wise update is about 12 flops
    per oscillator.  Bytes: K is read twice, and about 14 state-sized
    arrays are read or written per step.
    """
    itemsize = 4 if dtype == "float32" else 8
    n = 2 * r + c
    flops = 4 * replicas * r * c + 12 * replicas * n
    moved = itemsize * (2 * r * c + 14 * replicas * n)
    return flops, moved


class SpanIndex:
    """Spans of one export grouped by name, with self times."""

    def __init__(self, export: Dict) -> None:
        self.spans = export["spans"]
        self.leaves = export["leaves"]
        self.counters = export["counters"]
        self.requests = export["requests"]
        self.self_s = self_times(self.spans)
        self.by_name: Dict[str, List[int]] = defaultdict(list)
        self.children: Dict[int, List[int]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            self.by_name[span["name"]].append(index)
            if span["parent"] >= 0:
                self.children[span["parent"]].append(index)

    def dur(self, index: int) -> float:
        span = self.spans[index]
        return span["end"] - span["start"]

    def durations(self, name: str) -> List[float]:
        return [self.dur(i) for i in self.by_name.get(name, [])]

    def total(self, prefix: str) -> float:
        return sum(
            self.dur(i) for name, ids in self.by_name.items()
            if name.startswith(prefix) for i in ids
        )


def library_layers(export: Dict) -> Dict[str, float]:
    idx = SpanIndex(export)
    decomposes = idx.by_name.get("framework.decompose", [])
    n_dec = len(decomposes)
    counters = idx.counters
    out: Dict[str, float] = {}
    out["framework.self_s"] = _ratio(
        sum(idx.self_s[i] for i in decomposes), n_dec
    )
    out["framework.accept_ratio"] = _ratio(
        counters.get("framework.accepted", 0),
        counters.get("framework.components", 0),
    )
    hits = counters.get("formulation.hits", 0)
    misses = counters.get("formulation.misses", 0)
    out["formulation.build_s"] = _ratio(idx.total("formulation."), n_dec)
    out["formulation.builds"] = _ratio(misses, n_dec)
    out["formulation.cache_hit_ratio"] = _ratio(hits, hits + misses)
    solves = idx.by_name.get("solver.solve_model", [])
    out["solver.solves"] = _ratio(len(solves), n_dec)
    out["solver.solve_ms.p50"] = _p(idx.durations("solver.solve_model"),
                                    50, 1e3)
    decode = [
        sum(idx.dur(c) for c in idx.children[i]
            if idx.spans[c]["name"] == "solver.decode")
        for i in solves
    ]
    out["solver.decode_ms.p50"] = _p(decode, 50, 1e3)
    hook = idx.leaves.get("theorem3.hook", {})
    out["theorem3.calls"] = _ratio(hook.get("count", 0), n_dec)
    out["theorem3.s"] = _ratio(hook.get("sum_s", 0.0), n_dec)
    runs = [idx.spans[i]["attrs"] for i in idx.by_name.get("sb.solve", [])]
    iterations = [a["iterations"] for a in runs]
    out["sb.iterations.mean"] = _ratio(sum(iterations), len(runs))
    out["sb.dynamic_stop_frac"] = _ratio(
        sum(1 for a in runs if a["dynamic_stop"]), len(runs)
    )
    step = idx.leaves.get("kernel.step", {})
    out["kernel.step_us.p50"] = step.get("p50_s", 0.0) * 1e6
    out["kernel.steps"] = _ratio(step.get("count", 0), n_dec)
    flops = moved = 0.0
    for a in runs:
        f, b = kernel_cost(a["r"], a["c"], a["replicas"], a["dtype"])
        flops += f * a["iterations"]
        moved += b * a["iterations"]
    out["kernel.flops_per_step"] = _ratio(flops, sum(iterations))
    out["kernel.bytes_per_step"] = _ratio(moved, sum(iterations))
    out["synthesis.s"] = _ratio(idx.total("synthesis."), n_dec)
    return out


def _job_sum(idx: SpanIndex, job: str, prefixes) -> float:
    return sum(
        idx.dur(i) for i, span in enumerate(idx.spans)
        if span["job"] == job and span["name"].startswith(prefixes)
    )


def service_layers(export: Dict, records: List,
                   library_s: Optional[Dict[str, float]] = None
                   ) -> Dict[str, float]:
    """Service metrics of a traced server; ``library_s`` maps job ids
    to the library decompose seconds of the same spec (gap attribution).
    """
    idx = SpanIndex(export)
    out: Dict[str, float] = {}
    executes = idx.by_name.get("executor.execute", [])
    n_jobs = len(executes)
    out["executor.run_ms.p50"] = _p([idx.dur(i) for i in executes], 50, 1e3)
    overhead = [
        idx.dur(i) - sum(
            idx.dur(c) for c in idx.children[i]
            if idx.spans[c]["name"] == "framework.decompose"
        )
        for i in executes
    ]
    out["executor.overhead_ms.p50"] = _p(overhead, 50, 1e3)
    for name in ("submit", "heartbeat", "complete", "find_by_key"):
        out[f"store.{name}_ms.p50"] = _p(idx.durations("store." + name),
                                         50, 1e3)
    claims = [
        idx.dur(i) for i in idx.by_name.get("store.claim", [])
        if idx.spans[i]["attrs"].get("hit")
    ]
    out["store.claim_ms.p50"] = _p(claims, 50, 1e3)
    out["store.heartbeats"] = _ratio(
        len(idx.by_name.get("store.heartbeat", [])), n_jobs
    )
    waits = [
        (r.started_at - r.created_at) * 1e3 for r in records
        if r.started_at is not None
    ]
    out["queue.wait_ms.p50"] = _p(waits, 50)
    out["queue.wait_ms.p90"] = _p(waits, 90)
    checkpoints = idx.by_name.get("artifacts.put_checkpoint", [])
    out["artifacts.checkpoint_ms.p50"] = _p(
        idx.durations("artifacts.put_checkpoint"), 50, 1e3
    )
    out["artifacts.checkpoints"] = _ratio(len(checkpoints), n_jobs)
    out["artifacts.checkpoint_bytes"] = _ratio(
        sum(idx.spans[i]["attrs"].get("bytes", 0) for i in checkpoints),
        len(checkpoints),
    )
    out["artifacts.put_ms.p50"] = _p(idx.durations("artifacts.put"), 50, 1e3)
    out["artifacts.get_ms.p50"] = _p(idx.durations("artifacts.get"), 50, 1e3)
    submit_self = [
        (r["duration_s"] - r["store_s"]) * 1e3 for r in idx.requests
        if r["method"] == "POST" and r["path"] == "/v1/jobs"
    ]
    out["gateway.submit_self_ms.p50"] = _p(submit_self, 50)
    if library_s:
        out.update(_gap(idx, records, library_s))
    return out


def _gap(idx: SpanIndex, records: List,
         library_s: Dict[str, float]) -> Dict[str, float]:
    """Mean per-job split of (service time - library decompose time).

    Service time is ``finished_at - started_at``.  The parts: executor
    self time, heartbeat, checkpoint (capture, serialize, write) and
    artifact IO, the completing store transaction, and ``compute``: the
    server's decompose time outside those hooks minus the library's.
    """
    by_job = {r.id: r for r in records}
    parts = defaultdict(float)
    n = 0
    for i in idx.by_name.get("executor.execute", []):
        job = idx.spans[i]["job"]
        record = by_job.get(job)
        if job not in library_s or record is None or not record.finished_at:
            continue
        n += 1
        decompose = sum(
            idx.dur(c) for c in idx.children[i]
            if idx.spans[c]["name"] == "framework.decompose"
        )
        heartbeat = _job_sum(idx, job, ("store.heartbeat",))
        checkpoint = _job_sum(
            idx, job, ("checkpoint.", "artifacts.put_checkpoint",
                       "artifacts.get_checkpoint",
                       "artifacts.delete_checkpoint")
        )
        artifact = _job_sum(idx, job, ("artifacts.get", "artifacts.put"))
        artifact -= _job_sum(idx, job, ("artifacts.get_checkpoint",
                                        "artifacts.put_checkpoint"))
        parts["job"] += (record.finished_at - record.started_at
                         - library_s[job])
        parts["executor"] += idx.self_s[i]
        parts["heartbeat"] += heartbeat
        parts["checkpoint"] += checkpoint
        parts["artifact"] += artifact
        parts["store"] += _job_sum(idx, job, ("store.complete",))
        parts["compute"] += (decompose - heartbeat
                             - _job_sum(idx, job, ("checkpoint.",
                                                   "artifacts.put_checkpoint"))
                             - library_s[job])
    if not n:
        return {}
    out = {f"gap.{k}_ms": v / n * 1e3 for k, v in parts.items()}
    service = sum(parts[k] for k in ("executor", "heartbeat", "checkpoint",
                                     "artifact", "store"))
    out["gap.explained_frac"] = _ratio(service, parts["job"])
    return out


def complete(metrics: Dict[str, float]) -> Dict[str, Dict]:
    """Every per-layer metric with its unit; absent layers read 0."""
    return {
        name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
        for name, unit in PER_LAYER
    }
