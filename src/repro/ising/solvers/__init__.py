"""Ising solvers: simulated bifurcation variants, annealing, brute force.

All solvers share the :class:`~repro.ising.solvers.base.IsingSolver`
interface — ``solve(model, rng) -> SolveResult`` — so the decomposition
layer and the benchmarks can swap them freely.  Construction by name
goes through :mod:`repro.ising.solvers.registry`
(:func:`make_solver`), which also answers capability questions
(replicas / probes / stop criteria) without constructing anything.
"""

from repro.ising.solvers.asb import AdiabaticSBSolver
from repro.ising.solvers.base import IsingSolver, SolveResult
from repro.ising.solvers.brute_force import BruteForceSolver
from repro.ising.solvers.bsb import BallisticSBSolver, SBState
from repro.ising.solvers.dsb import DiscreteSBSolver
from repro.ising.solvers.mean_field import MeanFieldAnnealingSolver
from repro.ising.solvers.parallel_tempering import ParallelTemperingSolver
from repro.ising.solvers.registry import (
    SolverCapabilities,
    SolverInfo,
    make_solver,
    solver_info,
    solver_names,
)
from repro.ising.solvers.sa import SimulatedAnnealingSolver
from repro.ising.solvers.tabu import TabuSearchSolver

__all__ = [
    "AdiabaticSBSolver",
    "BallisticSBSolver",
    "BruteForceSolver",
    "DiscreteSBSolver",
    "IsingSolver",
    "MeanFieldAnnealingSolver",
    "ParallelTemperingSolver",
    "SBState",
    "SimulatedAnnealingSolver",
    "SolveResult",
    "SolverCapabilities",
    "SolverInfo",
    "TabuSearchSolver",
    "make_solver",
    "solver_info",
    "solver_names",
]
