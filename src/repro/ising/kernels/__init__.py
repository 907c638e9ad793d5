"""Fused simulated-bifurcation kernels.

See :mod:`repro.ising.kernels.base` for the backend contract.  The
backend is chosen by ``CoreSolverConfig.backend`` alone (``None`` means
``numpy64``); importing this package registers all three backends, and
an unknown name raises :class:`repro.errors.UnknownBackendError`.

Backends registered here:

========== ======= ==============================================
name       dtype   notes
========== ======= ==============================================
numpy64    float64 reference; bit-for-bit the historical loop
numpy32    float32 tolerance contract, float64 scoring
native32   float32 runtime-compiled C tile engine; numpy32
                   arithmetic where the engine cannot be built
========== ======= ==============================================

:mod:`repro.ising.kernels.blockbatch` packs compatible prepared sweeps
into batched kernel calls (the ``BlockBatch`` planner).
"""

from repro.ising.kernels.base import (
    DEFAULT_BACKEND,
    BackendInfo,
    BipartiteSBKernel,
    available_backends,
    backend_info,
    backend_infos,
    make_kernel,
    register_backend,
    resolve_backend,
)
from repro.ising.kernels.numpy_backend import NumPyBipartiteKernel
from repro.ising.kernels import native  # noqa: F401  (registration)
from repro.ising.kernels.blockbatch import Block, BlockBatch, BlockMember

__all__ = [
    "DEFAULT_BACKEND",
    "BackendInfo",
    "BipartiteSBKernel",
    "Block",
    "BlockBatch",
    "BlockMember",
    "NumPyBipartiteKernel",
    "available_backends",
    "backend_info",
    "backend_infos",
    "make_kernel",
    "register_backend",
    "resolve_backend",
]
