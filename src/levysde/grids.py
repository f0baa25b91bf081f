"""Periodic torus grids and complex grid functions with cached spectra.

The torus is ``[0, 2 pi L)^d`` sampled at ``N`` points per axis; the induced
frequency lattice is ``k / L`` for integer ``k`` in ``[-N/2, N/2)``, stored in
FFT order.  The one spectral convention is that of ``GridFunction.coeffs``:
synthesis coefficients ``u_hat`` with ``u(x) = sum_k u_hat_k e^{i <x, xi_k>}``,
the natural input to Kohn-Nirenberg quantization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = ["TorusGrid", "GridFunction", "random_rough_function"]


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid on the d-torus of period ``2 pi L``.

    ``n`` points per axis (power of two, at least 16), dimension 1 or 2.
    """

    n: int
    dimension: int = 1
    length_factor: float = 4.0

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ConfigError("dimension must be 1 or 2", field="dimension")
        if self.n < 16 or (self.n & (self.n - 1)) != 0:
            raise ConfigError(f"points per axis must be a power of two >= 16, got {self.n}",
                              field="n")
        if self.length_factor <= 0:
            raise ConfigError("period factor must be positive", field="length_factor")

    @property
    def period(self) -> float:
        return 2.0 * np.pi * self.length_factor

    @property
    def x(self) -> np.ndarray:
        """Axis sample points, shape (n,)."""
        return np.arange(self.n) * (self.period / self.n)

    @property
    def xi(self) -> np.ndarray:
        """Axis frequency lattice k / L in FFT order, shape (n,)."""
        return np.fft.fftfreq(self.n, d=1.0) * self.n / self.length_factor

    @property
    def xi_nyquist(self) -> float:
        return self.n / (2.0 * self.length_factor)

    def x_mesh(self):
        if self.dimension == 1:
            return self.x
        return np.meshgrid(self.x, self.x, indexing="ij")

    def xi_mesh(self):
        if self.dimension == 1:
            return self.xi
        return np.meshgrid(self.xi, self.xi, indexing="ij")

    def xi_norm(self) -> np.ndarray:
        """|xi| on the full lattice (FFT order)."""
        if self.dimension == 1:
            return np.abs(self.xi)
        kx, ky = self.xi_mesh()
        return np.hypot(kx, ky)

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dimension

    @property
    def cell_volume(self) -> float:
        return (self.period / self.n) ** self.dimension

    # transforms over the last ``dimension`` axes (leading axes are a batch);
    # the 1-d transform is the same pocketfft pass without fftn's axis set-up
    def fft(self, values: np.ndarray) -> np.ndarray:
        if self.dimension == 1:
            return np.fft.fft(values)
        return np.fft.fft2(values)

    def ifft(self, values: np.ndarray) -> np.ndarray:
        if self.dimension == 1:
            return np.fft.ifft(values)
        return np.fft.ifft2(values)


class GridFunction:
    """Complex samples of a function on a :class:`TorusGrid`; the synthesis
    spectrum is computed lazily and cached."""

    def __init__(self, grid: TorusGrid, values: np.ndarray):
        values = np.asarray(values, dtype=complex)
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} does not match grid {grid.shape}")
        self.grid = grid
        self.values = values
        self._coeffs = None

    @classmethod
    def from_coeffs(cls, grid: TorusGrid, coeffs: np.ndarray) -> "GridFunction":
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != grid.shape:
            raise ValueError("coefficient shape does not match grid")
        out = cls(grid, grid.ifft(coeffs) * coeffs.size)
        out._coeffs = coeffs.copy()
        return out

    @classmethod
    def from_callable(cls, grid: TorusGrid, fn) -> "GridFunction":
        if grid.dimension == 1:
            return cls(grid, fn(grid.x))
        xx, yy = grid.x_mesh()
        return cls(grid, fn(xx, yy))

    @property
    def coeffs(self) -> np.ndarray:
        """Synthesis coefficients: u(x) = sum_k coeffs[k] e^{i <x, xi_k>}."""
        if self._coeffs is None:
            self._coeffs = self.grid.fft(self.values) / self.values.size
        return self._coeffs

    # --- norms -----------------------------------------------------------
    def norm_lp(self, p: float) -> float:
        """Discrete L^p norm (cell-volume weighted quadrature); p = inf -> sup."""
        if np.isinf(p):
            return float(np.abs(self.values).max())
        return float(
            (np.sum(np.abs(self.values) ** p) * self.grid.cell_volume) ** (1.0 / p)
        )

    def norm_l2(self) -> float:
        return self.norm_lp(2.0)

    # --- arithmetic ------------------------------------------------------
    def _binary(self, other, op):
        if isinstance(other, GridFunction):
            if other.grid != self.grid:
                raise ValueError("grid mismatch")
            return GridFunction(self.grid, op(self.values, other.values))
        return GridFunction(self.grid, op(self.values, other))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    def __rmul__(self, other):
        return GridFunction(self.grid, other * self.values)

    def __neg__(self):
        return GridFunction(self.grid, -self.values)


def random_rough_function(grid: TorusGrid, decay_exponent: float, seed: int) -> GridFunction:
    """Real-valued function with spectrum ``|u_hat(xi)| = <xi>^{-decay_exponent}``
    and reproducible random phases (Hermitian-symmetrized).

    The canonical rough test input: with ``decay_exponent = s + d/2 + 0.01``
    the function sits in smoothness class ``s`` but in nothing better.
    """
    rng = np.random.default_rng(seed)
    mags = grid.xi_norm()
    amp = (1.0 + mags**2) ** (-decay_exponent / 2.0)
    phases = rng.uniform(0.0, 2.0 * np.pi, grid.shape)
    # antisymmetrized phases give an exactly Hermitian spectrum with the
    # prescribed modulus at every mode (self-conjugate modes come out real)
    ii = np.mod(-np.arange(grid.n), grid.n)
    if grid.dimension == 1:
        flipped = phases[ii]
    else:
        flipped = phases[np.ix_(ii, ii)]
    coeffs = amp * np.exp(1j * 0.5 * (phases - flipped))
    return GridFunction.from_coeffs(grid, coeffs)
