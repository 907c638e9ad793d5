"""Solver registry, the SolveResult contract, and the bit/spin contract.

Three API guarantees introduced by the unified-registry redesign:

* ``make_solver(name, **params)`` is the single name→solver path, with
  capability flags answerable without construction and clear errors for
  unknown names/parameters;
* every registered solver returns a ``SolveResult`` honoring the
  documented contract — shared ``stop_reason`` vocabulary, populated
  ``runtime_seconds``, and uniform ``metadata`` keys;
* ``binary_to_spins``/``spins_to_binary`` round-trip exactly for every
  integer/bool dtype (the documented dtype asymmetry).
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.ising.model import DenseIsingModel
from repro.ising.solvers.base import (
    IsingSolver,
    binary_to_spins,
    spins_to_binary,
)
from repro.ising.solvers.bsb import BallisticSBSolver
from repro.ising.solvers.registry import (
    canonical_name,
    make_solver,
    solver_info,
    solver_names,
)

ALL_SOLVERS = (
    "asb",
    "brute_force",
    "bsb",
    "dsb",
    "mean_field",
    "parallel_tempering",
    "sa",
    "tabu",
)

#: the stop_reason vocabulary documented in solvers/base.py
STOP_REASONS = {
    "max_iterations",
    "variance_converged",
    "schedule_exhausted",
    "steps_exhausted",
    "exhausted",
}

#: metadata keys every solver must populate
METADATA_KEYS = ("solver", "backend", "dtype", "n_replicas")


def small_model(n=6, seed=0):
    rng = np.random.default_rng(seed)
    j = rng.normal(size=(n, n))
    j = (j + j.T) / 2
    np.fill_diagonal(j, 0.0)
    return DenseIsingModel(rng.normal(size=n), j)


class TestRegistry:
    def test_all_eight_solvers_registered(self):
        assert tuple(solver_names()) == ALL_SOLVERS

    def test_make_solver_constructs_the_registered_class(self):
        solver = make_solver("bsb", n_replicas=3)
        assert isinstance(solver, BallisticSBSolver)
        assert solver.n_replicas == 3

    def test_aliases_resolve_to_primary(self):
        assert canonical_name("pt") == "parallel_tempering"
        assert canonical_name("mfa") == "mean_field"
        assert solver_info("pt") is solver_info("parallel_tempering")

    def test_unknown_name_lists_known_solvers(self):
        with pytest.raises(ConfigurationError, match="bsb"):
            make_solver("quantum_annealer")

    def test_bad_parameters_name_the_solver(self):
        with pytest.raises(ConfigurationError, match="'sa'"):
            make_solver("sa", warp_factor=9)

    def test_capability_flags(self):
        assert solver_info("bsb").capabilities.supports_probes
        assert solver_info("bsb").capabilities.supports_stop_criteria
        assert not solver_info("sa").capabilities.supports_stop_criteria
        assert solver_info("brute_force").capabilities.exact
        assert not solver_info("brute_force").capabilities.supports_replicas

    def test_every_entry_constructs_an_ising_solver(self):
        for name in solver_names():
            assert isinstance(make_solver(name), IsingSolver)


class TestSolveResultContract:
    @pytest.mark.parametrize("name", ALL_SOLVERS)
    def test_contract_fields(self, name):
        model = small_model()
        result = make_solver(name).solve(
            model, np.random.default_rng(1)
        )
        assert result.spins.shape == (model.n_spins,)
        assert set(np.unique(result.spins)) <= {-1.0, 1.0}
        assert result.n_iterations > 0
        assert result.stop_reason in STOP_REASONS
        assert result.runtime_seconds > 0.0
        for key in METADATA_KEYS:
            assert key in result.metadata, f"{name} lacks {key!r}"
        assert result.metadata["solver"] == name
        assert result.metadata["n_replicas"] >= 1
        # energy/objective are exact re-evaluations of the spins
        assert result.energy == pytest.approx(model.energy(result.spins))
        assert result.objective == pytest.approx(
            result.energy + model.offset
        )

    def test_brute_force_metadata_is_exact_single_replica(self):
        result = make_solver("brute_force").solve(small_model())
        assert result.metadata["backend"] == "enumerate"
        assert result.metadata["n_replicas"] == 1
        assert result.stop_reason == "exhausted"


class TestBitSpinRoundTrip:
    INT_DTYPES = (
        np.bool_,
        np.int8, np.int16, np.int32, np.int64,
        np.uint8, np.uint16, np.uint32, np.uint64,
    )

    @pytest.mark.parametrize("dtype", INT_DTYPES)
    def test_bits_to_spins_to_bits_exact(self, dtype):
        bits = np.array([0, 1, 1, 0, 1, 0, 0, 1], dtype=dtype)
        spins = binary_to_spins(bits)
        assert spins.dtype == np.float64
        assert set(np.unique(spins)) == {-1.0, 1.0}
        back = spins_to_binary(spins)
        assert back.dtype == np.uint8
        np.testing.assert_array_equal(back, bits.astype(np.uint8))

    @pytest.mark.parametrize(
        "dtype", (np.float32, np.float64, np.int8, np.int64)
    )
    def test_spins_to_bits_to_spins_exact(self, dtype):
        spins = np.array([-1, 1, 1, -1], dtype=dtype)
        bits = spins_to_binary(spins)
        assert bits.dtype == np.uint8
        np.testing.assert_array_equal(
            binary_to_spins(bits), spins.astype(np.float64)
        )

    def test_solve_result_bits_property_is_uint8(self):
        result = make_solver("brute_force").solve(small_model(n=4))
        assert result.bits.dtype == np.uint8
        np.testing.assert_array_equal(
            binary_to_spins(result.bits), result.spins
        )
