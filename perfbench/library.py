"""Library workloads: in-process ``IsingDecomposer.decompose`` calls.

``table1-n9``  the six Table-1 functions at n = m = 9, |A| = 4 (16 x 32
               core COPs), paper small-scale solver, separate and joint
               mode, P = 1, R = 2.
``fig4-n16``   four Fig-4 benchmarks at n = 16, |A| = 7 (128 x 512 core
               COPs), paper large-scale solver, joint mode, P = 1, R = 1.

Work is a deterministic sequence of *cycles*; a cycle decomposes every
(function, mode) pair once, each with its own seed.  The first cycle
uses fixed seeds (the quality guard); later ones draw from ``--seed``.
Decompositions run one at a time until the run's seconds are spent.
Each call builds its own truth table, as a caller with a new problem
would.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from calibrate import Calibrator, normalize
from stats import balanced_mean, balanced_percentile, geomean, ok_frac

TABLE1_FUNCTIONS = ("cos", "tan", "exp", "ln", "erf", "denoise")
FIG4_FUNCTIONS = ("cos", "ln", "forwardk2j", "multiplier")


@dataclass(frozen=True)
class LibrarySuite:
    name: str
    n_inputs: int
    functions: Tuple[str, ...]
    modes: Tuple[str, ...]
    n_partitions: int
    n_rounds: int
    large_scale: bool

    def config(self, mode: str, seed: int):
        from repro.core.config import CoreSolverConfig, FrameworkConfig

        solver = (
            CoreSolverConfig.paper_large_scale()
            if self.large_scale
            else CoreSolverConfig.paper_small_scale()
        )
        return FrameworkConfig(
            mode=mode,
            free_size=7 if self.large_scale else 4,
            n_partitions=self.n_partitions,
            n_rounds=self.n_rounds,
            seed=seed,
            solver=solver,
        )

    def build_tables(self) -> Dict[str, object]:
        from repro.workloads import build_workload

        return {
            name: build_workload(name, n_inputs=self.n_inputs).table
            for name in self.functions
        }

    def items(self, seed: int) -> Iterator[Tuple[str, str, int]]:
        """Endless ``(function, mode, config seed)`` cycles.

        The first cycle is the quality guard: its seeds are fixed, so
        its MED is exactly comparable between runs and commits.  Every
        later cycle draws its seeds from ``seed``.
        """
        guard = random.Random(f"{self.name}:guard")
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            for function in self.functions:
                for mode in self.modes:
                    yield function, mode, guard.randrange(2 ** 31)
            guard = rng

    @property
    def cycle_length(self) -> int:
        return len(self.functions) * len(self.modes)


SUITES = {
    "table1-n9": LibrarySuite(
        "table1-n9", 9, TABLE1_FUNCTIONS, ("separate", "joint"),
        n_partitions=1, n_rounds=2, large_scale=False,
    ),
    "fig4-n16": LibrarySuite(
        "fig4-n16", 16, FIG4_FUNCTIONS, ("joint",),
        n_partitions=1, n_rounds=1, large_scale=True,
    ),
}


def check_result(result) -> bool:
    """MED recomputed from the realized LUT cascade equals the reported
    MED, and every output component was decomposed.
    """
    from repro.boolean.metrics import mean_error_distance
    from repro.lut.cascade import build_cascade_design

    exact = result.exact
    if sorted(result.components) != list(range(exact.n_outputs)):
        return False
    realized = build_cascade_design(result).to_truth_table(
        exact.probabilities
    )
    return mean_error_distance(exact, realized) == result.med


def warm_up(suite: LibrarySuite) -> None:
    """One untimed, shortened pass per mode (lazy imports, first-call
    allocation and BLAS start-up happen here, not in the timed loop).
    """
    from repro.core.framework import IsingDecomposer

    table = suite.build_tables()[suite.functions[0]]
    for mode in suite.modes:
        config = suite.config(mode, seed=0).with_updates(
            n_partitions=1, n_rounds=1
        )
        IsingDecomposer(config).decompose(table)


def decompose_all(suite: LibrarySuite,
                  items: Iterator[Tuple[str, str, int]],
                  seconds: Optional[float] = None,
                  on_slice: Optional[Callable[[float], None]] = None
                  ) -> Dict:
    """Run ``items`` one call at a time, as a caller would: build the
    problem's truth table and decomposer ("submit"), then decompose.

    With ``seconds``, no new item starts once that much time has passed
    and the first cycle (the quality guard) is complete.

    Work is timed in this thread's CPU time, which leaves out time the
    hypervisor stole from the vCPU (the thread is never idle inside a
    call; BLAS helper threads are waited for by spinning).  The
    machine's speed is sampled in the same thread: a one-unit
    calibration slice runs before each call, after building its inputs,
    after every component (through the public ``progress`` hook) and at
    the end.  Each stretch of work between two slices is normalized by
    their mean; the slices themselves are not counted.  ``on_slice``
    receives each slice's wall seconds (the span recorder charges them
    as a leaf, so they stay out of the layers' self time).
    """
    from repro.core.framework import IsingDecomposer
    from repro.workloads import build_workload

    calibrator = Calibrator()
    submit, decompose, results, done = [], [], [], []
    start = time.perf_counter()

    def mark(marks: List) -> None:
        wall, begin = time.perf_counter(), time.thread_time()
        unit = calibrator.slice(size=1)
        marks.append((begin, time.thread_time(), unit))
        if on_slice is not None:
            on_slice(time.perf_counter() - wall)

    for item in items:
        function, mode, config_seed = item
        marks: List = []
        mark(marks)
        table = build_workload(function, n_inputs=suite.n_inputs).table
        decomposer = IsingDecomposer(suite.config(mode, config_seed))
        mark(marks)
        results.append(decomposer.decompose(
            table, progress=lambda event: mark(marks)
        ))
        mark(marks)
        stretches = [
            normalize(b[0] - a[1], (a[2] + b[2]) / 2.0)
            for a, b in zip(marks, marks[1:])
        ]
        submit.append(stretches[0])
        decompose.append(sum(stretches[1:]))
        done.append(item)
        if (seconds is not None and len(done) >= suite.cycle_length
                and time.perf_counter() - start >= seconds):
            break
    return {
        "submit": submit,
        "decompose": decompose,
        "results": results,
        "items": done,
    }


def e2e_metrics(run: Dict, setup_s: float) -> Tuple[Dict, int, int]:
    """Gated metrics plus ``(attempted, failed)`` of one timed run.

    A library call is due when the previous one returns (one caller,
    closed loop): ``submit`` is building its inputs, ``complete`` the
    whole call.  Times are normalized reference seconds, and every
    (function, mode) class weighs the same in them, however many of its
    items the run completed.  ``med_geomean`` covers the guard cycle.
    """
    results = run["results"]
    failed = sum(1 for result in results if not check_result(result))
    attempted = len(results)
    classes = [(function, mode) for function, mode, _ in run["items"]]
    n_guard = len(set(classes))
    submit, decompose = run["submit"], run["decompose"]
    complete = [s + d for s, d in zip(submit, decompose)]

    def pct(values, q, scale=1.0):
        return balanced_percentile(values, classes, q) * scale

    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (1.0 / balanced_mean(complete, classes), "1/s"),
        "decompose_s.p50": (pct(decompose, 50), "s"),
        "med_geomean": (geomean(r.med for r in results[:n_guard]), "MED"),
        "complete_ms.p50": (pct(complete, 50, 1e3), "ms"),
        "complete_ms.p90": (pct(complete, 90, 1e3), "ms"),
        "submit_ms.p50": (pct(submit, 50, 1e3), "ms"),
        "submit_ms.p90": (pct(submit, 90, 1e3), "ms"),
        "ok_frac": (ok_frac(attempted, failed), "ratio"),
    }
    return metrics, attempted, failed
