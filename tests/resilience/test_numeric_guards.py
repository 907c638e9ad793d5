"""Numeric guards: injected NaN/overflow → dtype escalation or raise."""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.ising.stop_criteria import FixedIterations
from repro.ising.solvers.bsb import BallisticSBSolver
from repro.ising.structured import BipartiteDecompositionModel
from repro.obs.metrics import get_metrics
from repro.obs.probe import RecordingSolverProbe
from repro.resilience import FaultPlan, FaultRule, fault_injection


def _model(rng, r=4, t=3):
    return BipartiteDecompositionModel(rng.random((r, t)) * 2.0 - 1.0)


def _solver(backend, **kwargs):
    return BallisticSBSolver(
        stop=FixedIterations(300),
        n_replicas=2,
        backend=backend,
        sample_every_default=25,
        **kwargs,
    )


class TestEscalation:
    def test_nan_on_float32_escalates_and_converges(self, rng, chaos_seed):
        model = _model(rng)
        plan = FaultPlan(
            [FaultRule(site="kernel.nan", at_calls=(2,))], seed=chaos_seed
        )
        probe = RecordingSolverProbe()
        with fault_injection(plan):
            result = _solver("numpy32", probe=probe).solve(
                model, np.random.default_rng(5)
            )
        assert result.metadata["numeric_escalations"] == 1
        assert result.metadata["backend"] == "numpy64"
        assert np.isfinite(result.energy)
        assert len(plan.events()) == 1
        assert probe.numeric_escalations == [
            (probe.numeric_escalations[0][0], "numpy32", "numpy64")
        ]

    def test_escalated_result_matches_reference_backend(
        self, rng, chaos_seed
    ):
        """The escalated run restarts from the same initial state on
        numpy64, so its answer equals a clean numpy64 run bit-for-bit.
        """
        model = _model(rng)
        clean = _solver("numpy64").solve(model, np.random.default_rng(5))
        plan = FaultPlan(
            [FaultRule(site="kernel.nan", at_calls=(1,))], seed=chaos_seed
        )
        with fault_injection(plan):
            escalated = _solver("numpy32").solve(
                model, np.random.default_rng(5)
            )
        assert escalated.energy == clean.energy
        assert np.array_equal(escalated.spins, clean.spins)
        assert escalated.metadata["numeric_escalations"] == 1

    def test_overflow_on_float32_escalates(self, rng, chaos_seed):
        model = _model(rng)
        plan = FaultPlan(
            [FaultRule(site="kernel.overflow", at_calls=(1,))],
            seed=chaos_seed,
        )
        with fault_injection(plan):
            result = _solver("numpy32").solve(
                model, np.random.default_rng(5)
            )
        assert result.metadata["numeric_escalations"] == 1
        assert result.metadata["backend"] == "numpy64"

    def test_metric_counts_escalations(self, rng, chaos_seed):
        model = _model(rng)
        counter = get_metrics().counter(
            "solver_numeric_escalations_total",
            help="solver restarts forced by unhealthy kernel state",
        )
        before = counter.value
        plan = FaultPlan(
            [FaultRule(site="kernel.nan", at_calls=(1,))], seed=chaos_seed
        )
        with fault_injection(plan):
            _solver("numpy32").solve(model, np.random.default_rng(5))
        assert counter.value == before + 1


class TestFloat64Verdicts:
    def test_nonfinite_on_float64_raises(self, rng, chaos_seed):
        model = _model(rng)
        plan = FaultPlan(
            [FaultRule(site="kernel.nan", at_calls=(1,))], seed=chaos_seed
        )
        with fault_injection(plan):
            with pytest.raises(SolverError, match="non-finite"):
                _solver("numpy64").solve(model, np.random.default_rng(5))

    def test_overflow_on_float64_is_benign(self, rng, chaos_seed):
        """A huge-but-finite float64 momentum recovers through the
        walls; the guard must not raise or escalate.
        """
        model = _model(rng)
        plan = FaultPlan(
            [FaultRule(site="kernel.overflow", at_calls=(1,))],
            seed=chaos_seed,
        )
        with fault_injection(plan):
            result = _solver("numpy64").solve(
                model, np.random.default_rng(5)
            )
        assert result.metadata["numeric_escalations"] == 0
        assert np.isfinite(result.energy)


class TestGuardDisabled:
    def test_disabled_guard_does_not_escalate(self, rng, chaos_seed):
        model = _model(rng)
        plan = FaultPlan(
            [FaultRule(site="kernel.nan", at_calls=(1,))], seed=chaos_seed
        )
        with fault_injection(plan):
            result = _solver("numpy32", numeric_guard=False).solve(
                model, np.random.default_rng(5)
            )
        assert result.metadata["numeric_escalations"] == 0
        assert result.metadata["backend"] == "numpy32"

    def test_no_plan_results_unchanged(self, rng):
        """Guard on vs. off is bit-identical on healthy runs."""
        model = _model(rng)
        on = _solver("numpy64").solve(model, np.random.default_rng(5))
        off = _solver("numpy64", numeric_guard=False).solve(
            model, np.random.default_rng(5)
        )
        assert on.energy == off.energy
        assert np.array_equal(on.spins, off.spins)
        assert on.energy_trace == off.energy_trace
