"""The bSB-based core-COP solver (formulation + search + decoding).

:class:`CoreCOPSolver` solves one instance of the column-based core COP:
given the exact function, the current approximation, a component index,
an input partition, and a mode, it

1. builds the bipartite Ising model (Eqs. 9/16),
2. runs ballistic SB with the configured stop criterion and the
   Theorem-3 intervention,
3. decodes the best spins into a :class:`ColumnSetting`, and
4. optionally polishes the setting with alternating refinement
   (an extension; off by default).

The returned objective is the *true* error value (ER in separate mode,
whole-word MED in joint mode) of the decoded setting, recomputed from
the model's exact offset — never the raw float trajectory energy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.boolean.decomposition import ColumnSetting
from repro.boolean.partition import InputPartition
from repro.boolean.truth_table import TruthTable
from repro.core.config import CoreSolverConfig
from repro.core.ising_formulation import (
    build_core_cop_model,
    setting_from_spins,
    spins_from_setting,
)
from repro.core.theorem3 import alternating_refinement, theorem3_intervention
from repro.ising.schedules import LinearPump
from repro.ising.solvers.base import IsingSolver, SolveResult
from repro.ising.solvers.registry import make_solver
from repro.ising.stop_criteria import EnergyVarianceStop, FixedIterations
from repro.ising.structured import BipartiteDecompositionModel
from repro.obs.tracing import get_tracer

__all__ = ["CoreCOPSolver", "CoreCOPSolution"]


@dataclass
class CoreCOPSolution:
    """Result of one core-COP solve.

    Attributes
    ----------
    setting:
        Decoded (and possibly polished) column-based setting.
    objective:
        True error of the setting: component ER (separate mode) or
        whole-word MED (joint mode).
    partition:
        The partition the COP was posed under.
    solve_result:
        The underlying bSB run (iterations, stop reason, trace).
    runtime_seconds:
        Total wall-clock time including model construction.
    """

    setting: ColumnSetting
    objective: float
    partition: InputPartition
    solve_result: SolveResult
    runtime_seconds: float


class CoreCOPSolver:
    """Solves column-based core COPs with ballistic SB.

    Parameters
    ----------
    config:
        Solver parameters; see :class:`~repro.core.config.CoreSolverConfig`.
    """

    def __init__(self, config: Optional[CoreSolverConfig] = None) -> None:
        self.config = config if config is not None else CoreSolverConfig()

    def _make_stop(self):
        cfg = self.config
        if cfg.use_dynamic_stop:
            return EnergyVarianceStop(
                sample_every=cfg.sample_every,
                window=cfg.window,
                threshold=cfg.variance_threshold,
                max_iterations=cfg.max_iterations,
                # never stop mid-ramp: pre-bifurcation states are flat
                # in energy but far from converged (see config docs)
                min_iterations=cfg.resolved_ramp_iterations,
            )
        return FixedIterations(
            cfg.max_iterations, sample_every=cfg.sample_every
        )

    @staticmethod
    def _antisymmetric_initializer(n_rows: int):
        """Break the core COP's V1/V2 exchange symmetry at start-up.

        The energy is invariant under swapping the two pattern blocks
        (with ``T`` complemented), and both blocks carry identical
        biases, so a symmetric start tends to lock ``V1 == V2`` before
        the bifurcation — a poor attractor whenever the optimum needs
        two distinct column patterns.  Mirroring the ``V2`` positions
        to ``-V1`` removes that degeneracy.
        """

        def initialize(rng, n_replicas, n_spins, amplitude):
            x = rng.uniform(-amplitude, amplitude, (n_replicas, n_spins))
            y = rng.uniform(-amplitude, amplitude, (n_replicas, n_spins))
            x[:, n_rows : 2 * n_rows] = -x[:, :n_rows]
            return x, y

        return initialize

    def build_solver(self, **overrides) -> IsingSolver:
        """Construct the configured core solver via the solver registry.

        This is the single config→solver construction path (the
        per-call-site ``BallisticSBSolver(...)`` blocks it replaced are
        gone); ``overrides`` lets callers swap individual parameters —
        the model-dependent ``intervention``/``initializer`` hooks are
        passed this way by :meth:`solve_model`.
        """
        cfg = self.config
        params = {
            "stop": self._make_stop(),
            "dt": cfg.dt,
            "a0": cfg.a0,
            "n_replicas": cfg.n_replicas,
            "pump": LinearPump(cfg.a0, cfg.resolved_ramp_iterations),
            "backend": cfg.backend,
            "trace_every": cfg.trace_every,
            "numeric_guard": cfg.numeric_guard,
        }
        params.update(overrides)
        return make_solver("bsb", **params)

    def solve_model(
        self,
        model: BipartiteDecompositionModel,
        rng: Optional[np.random.Generator] = None,
    ) -> CoreCOPSolution:
        """Solve a pre-built core-COP Ising model.

        The returned :attr:`CoreCOPSolution.partition` is ``None`` at
        this level; :meth:`solve` fills it.
        """
        start = time.perf_counter()
        cfg = self.config
        intervention = (
            theorem3_intervention(model) if cfg.use_intervention else None
        )
        initializer = (
            self._antisymmetric_initializer(model.n_rows)
            if cfg.symmetry_breaking_init
            else None
        )
        sb = self.build_solver(
            intervention=intervention, initializer=initializer
        )
        tracer = get_tracer()
        with tracer.span(
            "sb_solve",
            category="stage",
            n_spins=model.n_spins,
            n_replicas=cfg.n_replicas,
        ):
            result = sb.solve(model, rng)
        with tracer.span("decode", category="stage"):
            setting = setting_from_spins(
                result.spins, model.n_rows, model.n_cols
            )
            if cfg.polish:
                setting, _, _ = alternating_refinement(
                    model.weights, setting
                )
            objective = float(
                model.objective(spins_from_setting(setting))
            )
        runtime = time.perf_counter() - start
        return CoreCOPSolution(
            setting=setting,
            objective=objective,
            partition=None,
            solve_result=result,
            runtime_seconds=runtime,
        )

    def solve(
        self,
        exact_table: TruthTable,
        approx_table: TruthTable,
        component: int,
        partition: InputPartition,
        mode: str,
        rng: Optional[np.random.Generator] = None,
    ) -> CoreCOPSolution:
        """Formulate and solve one core COP instance (see module docstring)."""
        start = time.perf_counter()
        with get_tracer().span(
            "weight_build", category="stage", component=component
        ):
            model = build_core_cop_model(
                exact_table, approx_table, component, partition, mode
            )
        solution = self.solve_model(model, rng)
        solution.partition = partition
        solution.runtime_seconds = time.perf_counter() - start
        return solution

    def __repr__(self) -> str:
        return f"CoreCOPSolver(config={self.config!r})"
