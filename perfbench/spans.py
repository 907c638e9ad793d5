"""In-memory span recording around the public calls of each layer.

Nothing here edits the program: :func:`install_library` and
:func:`install_service` replace public functions and methods with thin
wrappers *at run time, in the benchmark's own process* (or in the
server launched by ``serve_launcher.py``).  A wrapper opens a span
(name, start, end, parent, job id) on a per-thread stack, so nested
calls become children and every span of one job carries its id.

Calls that happen hundreds of thousands of times per run (one SB
kernel step, one Theorem-3 hook) are recorded as *leaves*: their
durations go into a flat array and are charged to the enclosing span's
``leaf_s`` instead of creating a span each.

Spans stay in memory; :meth:`SpanRecorder.export` returns them for the
report (the server launcher writes the export to a JSON file at exit).
"""

from __future__ import annotations

import functools
import threading
import time
import weakref
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional

from stats import percentile

perf = time.perf_counter


class SpanRecorder:
    """Collects spans per thread; see the module docs."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._threads: List[list] = []
        self._local = threading.local()
        self.leaves: Dict[str, array] = {}
        self.counters: Counter = Counter()
        self.requests: List[Dict] = []

    # -- recording -----------------------------------------------------

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [], [0])  # spans, stack, mark
            with self._lock:
                self._threads.append(state[0])
        return state

    def begin(self, name: str, job: Optional[str] = None) -> list:
        spans, stack, _ = self._state()
        parent = stack[-1] if stack else -1
        if job is None and parent >= 0:
            job = spans[parent][4]
        # [name, start, end, parent, job, leaf_s, attrs]
        record = [name, perf(), 0.0, parent, job, 0.0, None]
        stack.append(len(spans))
        spans.append(record)
        return record

    def end(self, record: list) -> None:
        record[2] = perf()
        self._local.state[1].pop()

    def leaf(self, name: str, seconds: float) -> None:
        spans, stack, _ = self._state()
        if stack:
            spans[stack[-1]][5] += seconds
        durations = self.leaves.get(name)
        if durations is None:
            with self._lock:
                durations = self.leaves.setdefault(name, array("d"))
        durations.append(seconds)

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def top_level_since_mark(self, prefix: str) -> float:
        """Seconds in this thread's top-level ``prefix*`` spans since
        the previous call; moves the mark (per-request accounting).
        """
        spans, _, mark = self._state()
        total = sum(
            s[2] - s[1] for s in spans[mark[0]:]
            if s[3] == -1 and s[0].startswith(prefix) and s[2] > 0.0
        )
        mark[0] = len(spans)
        return total

    # -- export --------------------------------------------------------

    def export(self) -> Dict:
        """Closed spans of every thread, parents re-indexed globally."""
        out: List[Dict] = []
        with self._lock:
            threads = list(self._threads)
        for spans in threads:
            base = len(out)
            for name, start, end, parent, job, leaf_s, attrs in list(spans):
                out.append({
                    "name": name,
                    "start": start,
                    "end": end if end > 0.0 else start,
                    "parent": base + parent if parent >= 0 else -1,
                    "job": job,
                    "leaf_s": leaf_s,
                    "attrs": attrs or {},
                })
        leaves = {
            name: {
                "count": len(values),
                "sum_s": float(sum(values)),
                "p50_s": percentile(values, 50) if len(values) else 0.0,
            }
            for name, values in self.leaves.items()
        }
        return {
            "spans": out,
            "leaves": leaves,
            "counters": dict(self.counters),
            "requests": list(self.requests),
        }


def _wrap(owner, attr: str, name: str, recorder: SpanRecorder,
          job: Optional[Callable] = None,
          after: Optional[Callable] = None) -> None:
    """Replace ``owner.attr`` by a span-recording wrapper."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        record = recorder.begin(
            name, job(args) if job is not None else None
        )
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.end(record)
        if after is not None:
            after(record, args, result)
        return result

    setattr(owner, attr, wrapper)


def _wrap_leaf(owner, attr: str, name: str, recorder: SpanRecorder):
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        start = perf()
        try:
            return original(*args, **kwargs)
        finally:
            recorder.leaf(name, perf() - start)

    wrapper.__perfbench_leaf__ = True
    setattr(owner, attr, wrapper)


def install_library(recorder: SpanRecorder) -> None:
    """Wrap the decomposition layers (framework down to the kernel)."""
    import repro.core.framework as framework
    import repro.core.solver as core_solver
    from repro.core.framework import IsingDecomposer
    from repro.core.ising_formulation import WeightCache
    from repro.core.solver import CoreCOPSolver
    from repro.ising.solvers.bsb import BallisticSBSolver
    from repro.ising.structured import BipartiteDecompositionModel

    # framework: the decompose call, plus the accept ratio read from
    # the public progress hook (chained in front of any caller hook)
    decompose = IsingDecomposer.decompose

    @functools.wraps(decompose)
    def traced_decompose(self, table, *args, progress=None, **kwargs):
        def counting(event):
            if event.get("event") == "component":
                recorder.count("framework.components")
                if event.get("accepted"):
                    recorder.count("framework.accepted")
            if progress is not None:
                progress(event)

        record = recorder.begin("framework.decompose")
        try:
            return decompose(self, table, *args, progress=counting, **kwargs)
        finally:
            recorder.end(record)

    IsingDecomposer.decompose = traced_decompose

    # formulation: memoized builds; hits/misses read as deltas of the
    # public counters so caches that were garbage-collected still count
    seen: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def cache_delta(record, args, result):
        cache = args[0]
        hits, misses = seen.get(cache, (0, 0))
        recorder.count("formulation.hits", cache.hits - hits)
        recorder.count("formulation.misses", cache.misses - misses)
        seen[cache] = (cache.hits, cache.misses)

    for attr in ("model", "terms"):
        _wrap(WeightCache, attr, "formulation.build", recorder,
              after=cache_delta)

    # solver: one core-COP solve, its SB run, and decoding
    _wrap(CoreCOPSolver, "solve_model", "solver.solve_model", recorder)

    def sb_counts(record, args, result):
        solver, model = args[0], args[1]
        metadata = result.metadata or {}
        record[6] = {
            "iterations": int(result.n_iterations),
            "dynamic_stop": result.stop_reason != "max_iterations",
            "r": getattr(model, "n_rows", 0),
            "c": getattr(model, "n_cols", 0),
            "replicas": solver.n_replicas,
            "dtype": metadata.get("dtype", "float64"),
        }

    _wrap(BallisticSBSolver, "solve", "sb.solve", recorder,
          after=sb_counts)
    for attr in ("setting_from_spins", "spins_from_setting"):
        _wrap(core_solver, attr, "solver.decode", recorder)
    _wrap(BipartiteDecompositionModel, "objective", "solver.decode",
          recorder)

    # Theorem 3: time the hook that theorem3_intervention returns
    intervention = core_solver.theorem3_intervention

    @functools.wraps(intervention)
    def traced_intervention(model):
        hook = intervention(model)

        def timed_hook(state):
            start = perf()
            try:
                hook(state)
            finally:
                recorder.leaf("theorem3.hook", perf() - start)

        return timed_hook

    core_solver.theorem3_intervention = traced_intervention

    # kernel: wrap ``step`` on whichever kernel class the model builds
    make_kernel = BipartiteDecompositionModel.make_kernel

    @functools.wraps(make_kernel)
    def traced_make_kernel(self, *args, **kwargs):
        kernel = make_kernel(self, *args, **kwargs)
        cls = type(kernel)
        if not getattr(cls.step, "__perfbench_leaf__", False):
            _wrap_leaf(cls, "step", "kernel.step", recorder)
        return kernel

    BipartiteDecompositionModel.make_kernel = traced_make_kernel

    # synthesis and metrics, as the framework calls them
    for attr in ("apply_column_setting", "mean_error_distance",
                 "error_rate_per_output"):
        _wrap(framework, attr, "synthesis." + attr, recorder)


def install_service(recorder: SpanRecorder) -> None:
    """Wrap the service layers: executor, job store, artifacts, gateway."""
    from repro.core.checkpoint import DecomposeCheckpoint
    from repro.gateway.server import DecompositionGateway
    from repro.service.artifacts import ArtifactStore
    from repro.service.jobstore import JobStore
    from repro.service.worker import JobExecutor

    _wrap(JobExecutor, "execute", "executor.execute", recorder,
          job=lambda args: args[1].id)

    def claim_hit(record, args, result):
        record[6] = {"hit": result is not None}
        if result is not None:
            record[4] = result.id

    for attr in ("submit", "find_by_key", "recover_orphans"):
        _wrap(JobStore, attr, "store." + attr, recorder)
    for attr in ("heartbeat", "complete"):
        _wrap(JobStore, attr, "store." + attr, recorder,
              job=lambda args: args[1])
    _wrap(JobStore, "claim", "store.claim", recorder, after=claim_hit)

    def checkpoint_bytes(record, args, result):
        try:
            size = result.stat().st_size
        except OSError:
            size = 0
        record[6] = {"bytes": size}

    for attr in ("get", "put", "get_checkpoint", "delete_checkpoint"):
        _wrap(ArtifactStore, attr, "artifacts." + attr, recorder)
    _wrap(ArtifactStore, "put_checkpoint", "artifacts.put_checkpoint",
          recorder, after=checkpoint_bytes)

    # checkpoint capture and serialization run inside decompose, before
    # the artifact write; they are checkpoint cost all the same
    capture = DecomposeCheckpoint.capture

    @functools.wraps(capture)
    def traced_capture(*args, **kwargs):
        record = recorder.begin("checkpoint.capture")
        try:
            return capture(*args, **kwargs)
        finally:
            recorder.end(record)

    DecomposeCheckpoint.capture = staticmethod(traced_capture)
    _wrap(DecomposeCheckpoint, "to_dict", "checkpoint.serialize", recorder)

    # one entry per HTTP request: the gateway's own accounting call
    # gives method/path/status/duration; the store time spent by this
    # handler thread since its previous request is subtracted later
    record_request = DecompositionGateway.record

    @functools.wraps(record_request)
    def traced_record(self, *, method, path, status, duration_seconds,
                      **kwargs):
        store_s = recorder.top_level_since_mark("store.")
        with recorder._lock:
            recorder.requests.append({
                "method": method,
                "path": path,
                "status": status,
                "duration_s": duration_seconds,
                "store_s": store_s,
            })
        return record_request(
            self, method=method, path=path, status=status,
            duration_seconds=duration_seconds, **kwargs,
        )

    DecompositionGateway.record = traced_record
