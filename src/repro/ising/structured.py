"""Structured Ising model for the column-based core COP.

The Ising energy of the column-based core COP (Eqs. 9 and 16) is

    E = sum_i a_i (v1_i + v2_i)
        - sum_ij K_ij v1_i t_j + sum_ij K_ij v2_i t_j,

with ``K = W / 4``, ``a_i = sum_j K_ij`` and the spin layout
``sigma = [v1 (r), v2 (r), t (c)]``.  ``W`` is the per-cell weight
matrix: ``p_kij (1 - 2 O_kij)`` in separate mode and ``p_kij q_kij`` in
joint mode.

Couplings only connect pattern spins (``v1``, ``v2``) to type spins
(``t``) — the graph is bipartite — so local fields cost two ``r x c``
mat-vecs instead of an ``(2r+c)^2`` one.  For the paper's large case
(``r=128, c=512``, ``N=768``) that is a ~4.5x flop reduction and, more
importantly, avoids materializing ``J``.

The class also records the additive offset that makes
``objective(spins)`` equal to the original error objective exactly
(property-tested against the direct metric computation).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import DimensionError
from repro.ising.model import DenseIsingModel, IsingModel

__all__ = ["BipartiteDecompositionModel"]


class BipartiteDecompositionModel(IsingModel):
    """Ising model of a column-based core COP with bipartite couplings.

    Parameters
    ----------
    weights:
        ``(r, c)`` weight matrix ``W`` (``p*(1-2O)`` or ``p*q``).
    offset:
        Constant such that ``objective(spins)`` equals the COP cost.

    Notes
    -----
    In the canonical form ``E = -h.sigma - (1/2) sigma^T J sigma`` this
    model has ``h_{v1_i} = h_{v2_i} = -a_i``, ``h_t = 0``,
    ``J[v1_i, t_j] = +K_ij`` and ``J[v2_i, t_j] = -K_ij``.
    """

    def __init__(self, weights: np.ndarray, offset: float = 0.0) -> None:
        w = np.asarray(weights, dtype=float)
        if w.ndim != 2:
            raise DimensionError(f"weights must be 2-D, got ndim={w.ndim}")
        self._k = np.ascontiguousarray(w / 4.0)
        self._k.setflags(write=False)
        self._a = self._k.sum(axis=1)
        self._a.setflags(write=False)
        self.offset = float(offset)
        self._reference_kernel = None

    # ------------------------------------------------------------------
    # Shape bookkeeping
    # ------------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        """Number of Boolean-matrix rows ``r`` (per-pattern spins)."""
        return int(self._k.shape[0])

    @property
    def n_cols(self) -> int:
        """Number of Boolean-matrix columns ``c`` (type spins)."""
        return int(self._k.shape[1])

    @property
    def n_spins(self) -> int:
        return 2 * self.n_rows + self.n_cols

    @property
    def weights(self) -> np.ndarray:
        """The original weight matrix ``W`` (``= 4 K``)."""
        return 4.0 * self._k

    def split(self, x: np.ndarray):
        """Split a ``(..., N)`` array into ``(v1, v2, t)`` views."""
        r = self.n_rows
        return x[..., :r], x[..., r : 2 * r], x[..., 2 * r :]

    @staticmethod
    def join(v1: np.ndarray, v2: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Concatenate ``(v1, v2, t)`` back into a spin/position array."""
        return np.concatenate([v1, v2, t], axis=-1)

    # ------------------------------------------------------------------
    # IsingModel interface (delegated to the reference compute kernel)
    # ------------------------------------------------------------------

    def make_kernel(self, backend: Optional[str] = None):
        """Build a fused SB kernel for this model's couplings.

        ``backend`` names a registered kernel backend (``None`` is
        ``numpy64``; see :func:`repro.ising.kernels.resolve_backend`).
        Solvers that find this method drive their dynamics through the
        kernel instead of calling :meth:`fields` per iteration.
        """
        from repro.ising.kernels import make_kernel

        return make_kernel(self.weights, backend=backend)

    @property
    def _kernel(self):
        """Lazily built ``numpy64`` reference kernel backing energy/fields."""
        if self._reference_kernel is None:
            self._reference_kernel = self.make_kernel("numpy64")
        return self._reference_kernel

    def energy(self, spins: np.ndarray) -> np.ndarray:
        sigma = np.asarray(spins, dtype=float)
        if sigma.shape[-1] != self.n_spins:
            raise DimensionError(
                f"spin array last axis must be {self.n_spins}, "
                f"got shape {sigma.shape}"
            )
        result = self._kernel.energy(sigma)
        if sigma.ndim == 1:
            return np.float64(result)
        return result

    def fields(self, x: np.ndarray) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        if arr.shape[-1] != self.n_spins:
            raise DimensionError(
                f"position array last axis must be {self.n_spins}, "
                f"got shape {arr.shape}"
            )
        return self._kernel.fields(arr)

    def to_dense(self) -> DenseIsingModel:
        r, c = self.n_rows, self.n_cols
        n = self.n_spins
        h = np.zeros(n)
        h[:r] = -self._a
        h[r : 2 * r] = -self._a
        j = np.zeros((n, n))
        j[:r, 2 * r :] = self._k
        j[r : 2 * r, 2 * r :] = -self._k
        j[2 * r :, :r] = self._k.T
        j[2 * r :, r : 2 * r] = -self._k.T
        return DenseIsingModel(h, j, self.offset)

    def coupling_rms(self) -> float:
        # closed form over the bipartite blocks — never densifies J
        # (the O(N^2) base-class default must stay unreachable here)
        n = self.n_spins
        if n < 2:
            return 0.0
        total = 4.0 * float((self._k**2).sum())  # both blocks, both triangles
        return float(np.sqrt(total / (n * (n - 1))))

    def __repr__(self) -> str:
        return (
            f"BipartiteDecompositionModel(r={self.n_rows}, c={self.n_cols}, "
            f"offset={self.offset})"
        )
