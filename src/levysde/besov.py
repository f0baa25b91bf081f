"""Littlewood-Paley dyadic blocks and Besov norms on the torus lattice.

The partition of unity is built from a raised-cosine radial profile
``rho(s)`` (1 for s <= 1, 0 for s >= 2) by telescoping:

    phi_0(xi) = rho(|xi|),   phi_j(xi) = rho(|xi| / 2^j) - rho(|xi| / 2^{j-1}),

so the blocks sum to one exactly at every lattice point and
``supp phi_j`` lies in the annulus ``2^{j-1} <= |xi| <= 2^{j+1}`` for j >= 1.
The outermost block absorbs the Nyquist row and is flagged.
"""

from __future__ import annotations

import math

import numpy as np

from .grids import GridFunction, TorusGrid

__all__ = ["raised_cosine_profile", "DyadicPartition"]


def raised_cosine_profile(s):
    """Radial bump: 1 on [0,1], raised-cosine decay on [1,2], 0 beyond."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    out[s <= 1.0] = 1.0
    mid = (s > 1.0) & (s < 2.0)
    out[mid] = np.cos(0.5 * np.pi * (s[mid] - 1.0)) ** 2
    return out


class DyadicPartition:
    """Dyadic frequency blocks ``phi_j`` on a torus grid's lattice."""

    def __init__(self, grid: TorusGrid):
        self.grid = grid
        mags = grid.xi_norm()
        xi_max = float(mags.max())
        # smallest J with 2^J >= xi_max: telescoping then sums to 1 exactly
        self.levels = max(1, math.ceil(math.log2(xi_max)))
        rho_prev = raised_cosine_profile(mags)  # rho(|xi| / 2^0) at j=0
        blocks = [rho_prev]
        for j in range(1, self.levels + 1):
            rho_j = raised_cosine_profile(mags / 2.0**j)
            blocks.append(rho_j - rho_prev)
            rho_prev = rho_j
        self.blocks = blocks
        self.nyquist_block = self.levels  # Nyquist rows live in the last block

    def __len__(self) -> int:
        return len(self.blocks)

    def lp_project(self, u: GridFunction, j: int) -> GridFunction:
        """Multiply the spectrum of ``u`` by the window ``phi_j``."""
        if not 0 <= j < len(self.blocks):
            raise ValueError(f"block index {j} outside partition range 0..{len(self) - 1}")
        return GridFunction.from_coeffs(u.grid, u.coeffs * self.blocks[j])

    def besov_norm(self, u: GridFunction, s: float, p: float, q: float) -> float:
        """``( sum_j 2^{j s q} |phi_j(D) u|_p^q )^{1/q}`` with discrete L^p norms.

        ``p`` and ``q`` may be ``numpy.inf``; the infinite cases use suprema.
        """
        if not (p >= 1 and q >= 1):
            raise ValueError("p and q must lie in [1, inf]")
        block_norms = np.array(
            [self.lp_project(u, j).norm_lp(p) for j in range(len(self.blocks))]
        )
        weights = 2.0 ** (np.arange(len(self.blocks)) * s)
        terms = weights * block_norms
        if np.isinf(q):
            return float(terms.max())
        return float((np.sum(terms**q)) ** (1.0 / q))
