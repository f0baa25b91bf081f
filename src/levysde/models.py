"""SDE coefficient models and their state symbols.

An ``SdeModel`` bundles periodic coefficients ``sigma(x)``, ``b(x)`` with a
Levy measure.  Its state symbol under the package convention is

    a(x, xi) = psi(sigma(x)^T xi) - i <b(x), xi>,

so that the semigroup multiplier is ``exp(-t a)`` and pure drift transports:
``P_t f(x) = f(x + b t)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .measures import levy_exponent

__all__ = [
    "coefficient_preset",
    "constant_value",
    "PRESETS",
    "SdeModel",
    "state_symbol",
]

# Closed set of named coefficient presets, each with its parameters and their
# defaults; selected by name plus parameters, no expression parsing.  All but
# "affine" are 2*pi-periodic, hence periodic on any torus of period 2*pi*L
# with integer L.
PRESETS = {
    "constant": {"value": 1.0},
    "2+sin": {"offset": 2.0, "amplitude": 1.0, "frequency": 1.0},
    "1+0.5cos": {"offset": 1.0, "amplitude": 0.5, "frequency": 1.0},
    "affine": {"intercept": 0.0, "slope": 1.0},
}

X_INDEPENDENT_RTOL = 1e-13  # of the largest magnitude, in every x-independence test


def coefficient_preset(name: str, **params):
    """Return a vectorized coefficient function ``x -> value`` by preset name.

    Presets
    -------
    constant : value
    2+sin    : offset + amplitude * sin(frequency * x)
    1+0.5cos : offset + amplitude * cos(frequency * x)
    affine   : intercept + slope * x (not torus-periodic; simulation only)

    The parameters and their defaults are declared in ``PRESETS``; an unknown
    name or a parameter the preset does not take raises ``ConfigError``.
    """
    if name not in PRESETS:
        raise ConfigError(f"unknown coefficient preset {name!r}; choose from {tuple(PRESETS)}")
    for key in params:
        if key not in PRESETS[name]:
            raise ConfigError(f"preset {name!r} takes {tuple(PRESETS[name])}, not {key!r}")
    p = {key: float(params.get(key, default)) for key, default in PRESETS[name].items()}
    if name == "constant":
        return lambda x: np.full_like(np.asarray(x, dtype=float), p["value"])
    if name == "affine":
        return lambda x: p["intercept"] + p["slope"] * np.asarray(x, dtype=float)
    wave = np.sin if name == "2+sin" else np.cos
    return lambda x: p["offset"] + p["amplitude"] * wave(p["frequency"] * np.asarray(x, float))


def constant_value(coefficient, x):
    """The value of ``coefficient`` at the first of the points ``x`` (a float
    in d = 1, a vector or matrix in d = 2) when its samples at every point
    agree to ``X_INDEPENDENT_RTOL`` of the largest magnitude, else None (also
    when a sample is not finite)."""
    samples = np.asarray(coefficient(x), dtype=float)
    if not np.abs(samples - samples[0]).max() <= X_INDEPENDENT_RTOL * np.abs(samples).max():
        return None
    return float(samples[0]) if samples.ndim == 1 else samples[0]


@dataclass(frozen=True)
class SdeModel:
    """Coefficients and driving measure of a jump SDE.

    ``sigma`` and ``drift`` are vectorized maps; in d=1 they return scalars,
    in d=2 ``sigma`` returns 2x2 matrices of shape (..., 2, 2) and ``drift``
    vectors of shape (..., 2).  ``sigma_lower_bound`` is the claimed uniform
    lower bound on |sigma|, verified on any grid the model is sampled on.
    """

    sigma: callable
    drift: callable
    measure: object
    sigma_lower_bound: float = 1e-3
    dimension: int = 1

    def __post_init__(self):
        # zero is allowed for degenerate (pure-drift) simulation models; the
        # symbol-calculus ellipticity gates require a strictly positive bound
        if self.sigma_lower_bound < 0:
            raise ConfigError("sigma_lower_bound must be nonnegative", field="sigma_lower_bound")
        if self.dimension not in (1, 2):
            raise ConfigError("dimension must be 1 or 2", field="dimension")
        if self.measure.dimension != self.dimension:
            raise ValueError("measure dimension does not match model dimension")

    def sigma_at(self, x):
        vals = np.asarray(self.sigma(x), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("sigma produced non-finite values")
        if self.dimension == 1:
            mags = np.abs(vals)
        else:
            # smallest singular value: the operative lower bound for sigma^T xi
            mags = np.linalg.svd(vals, compute_uv=False)[..., -1]
        if np.any(mags < self.sigma_lower_bound * (1 - 1e-12)):
            raise ValueError(
                f"sigma drops below its declared lower bound {self.sigma_lower_bound}"
            )
        return vals

    def drift_at(self, x):
        vals = np.asarray(self.drift(x), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("drift produced non-finite values")
        return vals


def state_symbol(model: SdeModel, x, xi):
    """State symbol ``a(x, xi) = psi(sigma(x)^T xi) - i <b(x), xi>``.

    ``x`` and ``xi`` broadcast against each other; in d=2 both carry a
    trailing coordinate axis of length 2.  A zero drift term is skipped: no
    measure's exponent has a real part of -0.0 or, where ``xi <= 0``, an
    imaginary part of -0.0, so ``psi - 0j`` would be ``psi`` bit for bit.
    """
    if model.dimension == 1:
        x_arr = np.asarray(x, dtype=float)
        xi_arr = np.asarray(xi, dtype=float)
        eta = model.sigma_at(x_arr) * xi_arr
        psi = levy_exponent(model.measure, eta)
        drift = model.drift_at(x_arr)
        shape = np.shape(psi)
        if drift.any() or np.broadcast_shapes(shape, drift.shape) != shape:
            psi = psi - 1j * drift * xi_arr
        return psi
    x_arr = np.asarray(x, dtype=float)
    xi_arr = np.asarray(xi, dtype=float)
    sig = model.sigma_at(x_arr)  # (..., 2, 2)
    drf = model.drift_at(x_arr)  # (..., 2)
    lead = np.broadcast_shapes(sig.shape[:-2], xi_arr.shape[:-1])
    sig_b = np.broadcast_to(sig, lead + (2, 2))
    drf_b = np.broadcast_to(drf, lead + (2,))
    xi_b = np.broadcast_to(xi_arr, lead + (2,))
    # (sigma^T xi)_j = sum_i sigma_ij xi_i
    eta = np.einsum("...ij,...i->...j", sig_b, xi_b)
    psi = levy_exponent(model.measure, eta)
    if drf.any():
        psi = psi - 1j * np.einsum("...i,...i->...", drf_b, xi_b)
    return psi
