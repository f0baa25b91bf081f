"""Levy measures, Levy exponents, truncation, compensation, and jump sampling.

Sign convention used throughout the package:

    E exp(i <xi, L(t)>) = exp(-t * psi(xi)),

so ``Re psi >= 0``, ``psi(0) = 0``, and the Markovian semigroup acts as the
Fourier multiplier ``exp(-t psi)`` in the constant-coefficient case.  Under
this convention the Levy-Khintchine representation reads

    psi(xi) = integral of (1 - e^{i<xi,z>} + i<xi,z> 1_{|z|<=1}) nu(dz).

Supported measure kinds:

* ``StableMeasure`` -- symmetric alpha-stable, density ``c |z|^{-1-alpha}``
  per side in d=1; axis-aligned products of 1-d components in d=2.
* ``AtomicMeasure`` -- finite compound-Poisson measure, atoms with rates.
* ``TabulatedMeasure`` -- symmetric radial density given by samples,
  log-log interpolated, exponent evaluated by a batched composite
  Gauss-Legendre rule with an embedded error test.
* ``TruncatedStableMeasure`` -- restriction of a stable measure to
  ``|z| > eps`` (returned by :func:`truncated_measure`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn, j0

from .errors import ConfigError, QuadratureError

__all__ = [
    "StableMeasure",
    "AtomicMeasure",
    "TabulatedMeasure",
    "TruncatedStableMeasure",
    "stable_cosine_constant",
    "stable_normalizer",
    "levy_exponent",
    "truncated_measure",
    "small_jump_variance",
    "compensator_drift",
    "sample_increment",
    "jump_stream",
    "path_sums",
    "small_jump_symbol_error",
    "bg_index",
]

# Relative tolerance of the 12-vs-6-point error test of tabulated measures.
_QUAD_RTOL = 1e-10
# The composite rule's Gauss-Legendre nodes: 12 per cell, and the 6-point
# companion that estimates its error.
_GAUSS_LEGENDRE = tuple(np.polynomial.legendre.leggauss(n) for n in (12, 6))
# Entries of one block of the (magnitudes x nodes) kernel matrix of a batched
# tabulated exponent: bounds its memory at any batch size.
_KERNEL_BLOCK = 1 << 15
# Jump signs drawn at once, and paths whose jump owners are built at once: a
# batch of jumps needs no temporary of one integer per jump.
_SIGN_BLOCK = 1 << 16
_OWNER_BLOCK = 1 << 12


def _verify(pieces, mags=None):
    """Raise :class:`QuadratureError` at the first value whose 12-point rule
    disagrees with its 6-point companion beyond the tolerance on any piece
    ``(lo, hi, values, residuals, tolerances)`` of an integral."""
    fails = [np.flatnonzero(res > tol) for _, _, _, res, tol in pieces]
    first = min((f[0] for f in fails if f.size), default=None)
    if first is None:
        return
    lo, hi, _, res, tol = next(p for p, f in zip(pieces, fails) if f.size and f[0] == first)
    at = "" if mags is None else f" at |xi| = {mags[first]:.17g}"
    raise QuadratureError(
        f"quadrature did not converge{at} on [{lo}, {hi}]: "
        f"residual {res[first]:.3g} > tolerance {tol[first]:.3g}",
        residual=float(res[first]),
        magnitude=None if mags is None else float(mags[first]),
        tolerance=float(tol[first]),
    )


def stable_cosine_constant(alpha: float) -> float:
    """Return ``C_alpha = int_0^inf (1 - cos u) u^{-1-alpha} du``.

    Closed form ``Gamma(2-alpha) cos(pi alpha / 2) / (alpha (1 - alpha))``
    for ``alpha != 1``; the limit ``pi/2`` at ``alpha = 1``.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"stability index must lie in (0,2), got {alpha}")
    if abs(alpha - 1.0) < 1e-12:
        return math.pi / 2.0
    return gamma_fn(2.0 - alpha) * math.cos(math.pi * alpha / 2.0) / (alpha * (1.0 - alpha))


def stable_normalizer(alpha: float) -> float:
    """Density coefficient ``c`` for which the 1-d symmetric stable
    exponent is exactly ``|xi|^alpha``."""
    return 1.0 / (2.0 * stable_cosine_constant(alpha))


def _as_xi_array(xi, dimension):
    """Coerce xi to an array of shape (..., d); remember if input was scalar-like."""
    arr = np.asarray(xi, dtype=float)
    if dimension == 1:
        scalar = arr.ndim == 0
        return arr.reshape(-1) if scalar else arr, scalar
    if arr.shape[-1] != dimension:
        raise ValueError(f"xi must have last dimension {dimension}, got shape {arr.shape}")
    scalar = arr.ndim == 1
    return (arr[None, :] if scalar else arr), scalar


@dataclass(frozen=True)
class StableMeasure:
    """Symmetric alpha-stable Levy measure.

    In d=1 the density is ``c |z|^{-1-alpha}`` on each half-line, giving the
    exponent ``psi(xi) = 2 c C_alpha |xi|^alpha``.  In d=2 the measure is the
    axis-aligned product of two independent 1-d components with coefficients
    ``axis_coeffs`` (spherically non-symmetric components are out of scope).

    Parameters
    ----------
    alpha : stability index in (0, 2)
    c : density coefficient (> 0); defaults to the normalizer making
        ``psi(xi) = |xi|^alpha`` in d=1 (and per axis in d=2)
    dimension : 1 or 2
    axis_coeffs : optional per-axis coefficients for d=2; defaults to (c, c)
    """

    alpha: float
    c: float = None  # type: ignore[assignment]
    dimension: int = 1
    axis_coeffs: tuple = None  # type: ignore[assignment]

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ConfigError(f"stability index must lie in (0,2), got {self.alpha}",
                              field="alpha")
        if self.dimension not in (1, 2):
            raise ConfigError("dimension must be 1 or 2", field="dimension")
        if self.c is None:
            object.__setattr__(self, "c", stable_normalizer(self.alpha))
        if self.c <= 0:
            raise ConfigError("density coefficient must be positive", field="c")
        if self.dimension == 2:
            coeffs = self.axis_coeffs if self.axis_coeffs is not None else (self.c, self.c)
            coeffs = tuple(float(w) for w in coeffs)
            if len(coeffs) != 2 or any(w <= 0 for w in coeffs):
                raise ValueError("axis_coeffs must be two positive numbers")
            object.__setattr__(self, "axis_coeffs", coeffs)
        else:
            object.__setattr__(self, "axis_coeffs", (float(self.c),))

    @classmethod
    def normalized(cls, alpha: float, dimension: int = 1) -> "StableMeasure":
        """Stable measure with exponent exactly ``|xi|^alpha`` per axis."""
        return cls(alpha=alpha, c=stable_normalizer(alpha), dimension=dimension)

    @property
    def is_symmetric(self) -> bool:
        return True

    @property
    def psi_scales(self) -> tuple:
        """Per-axis exponent scales s_i with psi(xi) = sum s_i |xi_i|^alpha."""
        C = stable_cosine_constant(self.alpha)
        return tuple(2.0 * w * C for w in self.axis_coeffs)

    def exponent(self, xi):
        xi_arr, scalar = _as_xi_array(xi, self.dimension)
        scales = self.psi_scales
        if self.dimension == 1:
            out = scales[0] * np.abs(xi_arr) ** self.alpha
        else:
            out = sum(s * np.abs(xi_arr[..., i]) ** self.alpha for i, s in enumerate(scales))
        out = np.asarray(out, dtype=complex)
        return out[0] if scalar else out

    def tail_mass(self, eps: float) -> float:
        """nu(|z| > eps), per-axis sum in d=2."""
        return sum(2.0 * w * eps ** (-self.alpha) / self.alpha for w in self.axis_coeffs)

    def small_jump_variance(self, eps: float) -> np.ndarray:
        s = [2.0 * w * eps ** (2.0 - self.alpha) / (2.0 - self.alpha) for w in self.axis_coeffs]
        return np.diag(s) if self.dimension == 2 else np.array([[s[0]]])

    def compensator_drift(self, eps: float) -> np.ndarray:
        # symmetric: odd integral vanishes identically
        return np.zeros(self.dimension)

    def sample_tail(self, eps: float, size: int, rng, out=None) -> np.ndarray:
        """Draw ``size`` jumps from nu restricted to |z| > eps, normalized.

        In d = 1 every measure's ``sample_tail`` writes the draws to the start
        of ``out`` (at least ``size`` floats) when given and returns that view.
        """
        if self.dimension == 1:
            # eps (1 - u)^(-1/alpha) (2 s - 1), computed in place in the output
            out = rng.random(size) if out is None else rng.random(out=out[:size])
            np.subtract(1.0, out, out=out)
            out **= -1.0 / self.alpha
            out *= eps
            # the signs a block at a time: the same stream as one draw
            for lo in range(0, size, _SIGN_BLOCK):
                part = out[lo : lo + _SIGN_BLOCK]
                np.negative(part, out=part, where=rng.integers(0, 2, part.size) == 0)
            return out
        masses = np.array([2.0 * w * eps ** (-self.alpha) / self.alpha for w in self.axis_coeffs])
        axis = rng.random(size) < masses[0] / masses.sum()
        u = rng.random(size)
        mag = eps * (1.0 - u) ** (-1.0 / self.alpha)
        signs = rng.integers(0, 2, size) * 2 - 1
        out = np.zeros((size, 2))
        out[axis, 0] = (mag * signs)[axis]
        out[~axis, 1] = (mag * signs)[~axis]
        return out

    def sample_exact(self, tau: float, size: int, rng) -> np.ndarray:
        """Exact marginal increment L(tau) via the Chambers-Mallows-Stuck transform."""
        cols = []
        for s in self.psi_scales:
            U = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size)
            E = rng.exponential(1.0, size)
            a = self.alpha
            x = (np.sin(a * U) / np.cos(U) ** (1.0 / a)) * (
                np.cos((1.0 - a) * U) / E
            ) ** ((1.0 - a) / a)
            cols.append((tau * s) ** (1.0 / a) * x)
        if self.dimension == 1:
            return cols[0]
        return np.stack(cols, axis=-1)


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite Levy measure: atoms ``z_j`` with rates ``r_j > 0``."""

    atoms: tuple  # tuple of (location, rate); location scalar (d=1) or 2-tuple (d=2)
    dimension: int = 1

    def __post_init__(self):
        norm = []
        for z, r in self.atoms:
            if r <= 0:
                raise ConfigError(f"atom rate must be positive, got {r}", field="atoms")
            zv = np.atleast_1d(np.asarray(z, dtype=float))
            if zv.size != self.dimension:
                raise ConfigError("atom location dimension mismatch", field="atoms")
            if not np.all(np.isfinite(zv)) or np.all(zv == 0):
                raise ConfigError("atom locations must be finite and nonzero", field="atoms")
            norm.append((tuple(zv), float(r)))
        object.__setattr__(self, "atoms", tuple(norm))

    @property
    def is_symmetric(self) -> bool:
        table = {(z, r) for z, r in self.atoms}
        return all((tuple(-c for c in z), r) in table for z, r in self.atoms)

    def _locs_rates(self):
        locs = np.array([z for z, _ in self.atoms])  # (m, d)
        rates = np.array([r for _, r in self.atoms])
        return locs, rates

    def exponent(self, xi):
        xi_arr, scalar = _as_xi_array(xi, self.dimension)
        locs, rates = self._locs_rates()
        if self.dimension == 1:
            phase = xi_arr[..., None] * locs[:, 0]
        else:
            phase = np.tensordot(xi_arr, locs.T, axes=1)
        small = np.linalg.norm(locs, axis=1) <= 1.0
        terms = 1.0 - np.exp(1j * phase) + 1j * phase * small
        out = np.tensordot(terms, rates, axes=([-1], [0]))
        return out[0] if scalar else out

    def tail_mass(self, eps: float = 0.0) -> float:
        locs, rates = self._locs_rates()
        return float(rates[np.linalg.norm(locs, axis=1) > eps].sum())

    def small_jump_variance(self, eps: float) -> np.ndarray:
        locs, rates = self._locs_rates()
        inside = np.all(np.abs(locs) <= eps, axis=1)
        sel, w = locs[inside], rates[inside]
        return np.einsum("m,mi,mj->ij", w, sel, sel) if sel.size else np.zeros(
            (self.dimension, self.dimension)
        )

    def compensator_drift(self, eps: float) -> np.ndarray:
        locs, rates = self._locs_rates()
        norms = np.linalg.norm(locs, axis=1)
        band = (norms > eps) & (norms <= 1.0)
        return locs[band].T @ rates[band] if band.any() else np.zeros(self.dimension)

    def sample_tail(self, eps: float = 0.0, size: int = 1, rng=None, out=None) -> np.ndarray:
        locs, rates = self._locs_rates()
        keep = np.linalg.norm(locs, axis=1) > eps
        locs, rates = locs[keep], rates[keep]
        if rates.size == 0:
            raise ValueError(f"no atoms beyond |z| = {eps}")
        idx = rng.choice(rates.size, size=size, p=rates / rates.sum())
        if self.dimension == 2:
            return locs[idx]
        return np.take(locs[:, 0], idx, out=None if out is None else out[:size])


def _loglog_density(radii, values):
    """Piecewise log-log linear density with power-law extension below the
    first node and zero beyond the last."""
    lr = np.log(radii)
    lv = np.log(values)
    slope0 = (lv[1] - lv[0]) / (lr[1] - lr[0]) if len(radii) > 1 else 0.0

    def g(r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        inside = (r >= radii[0]) & (r <= radii[-1])
        out[inside] = np.exp(np.interp(np.log(r[inside]), lr, lv))
        below = (r > 0) & (r < radii[0])
        out[below] = values[0] * (r[below] / radii[0]) ** slope0
        return out

    return g, slope0


@dataclass(frozen=True)
class TabulatedMeasure:
    """Symmetric radial Levy measure given by density samples ``g(r_i)``.

    The density is log-log interpolated between nodes, extended by the first
    segment's power law below ``radii[0]`` and by zero above ``radii[-1]``.
    So the Levy integrability condition holds exactly when the samples are
    finite and that power law is integrable against ``|z|^2`` at 0, which is
    checked on creation.
    """

    radii: tuple
    density: tuple
    dimension: int = 1
    support_min: float = 0.0  # density forced to zero below this radius

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        g = np.asarray(self.density, dtype=float)
        increasing = r.ndim == 1 and r.size >= 2 and np.all(np.diff(r) > 0)
        if not increasing or not 0 < r[0] < r[-1] < np.inf:
            raise ConfigError("radii must be a strictly increasing positive finite sequence",
                              field="radii")
        if not np.all((g > 0) & np.isfinite(g)):
            raise ConfigError("density samples must be positive and finite", field="density")
        object.__setattr__(self, "radii", tuple(r))
        object.__setattr__(self, "density", tuple(g))
        interp, slope0 = _loglog_density(r, g)
        if self.support_min <= 0.0 and slope0 <= -(2.0 + self.dimension):
            raise ConfigError(
                "density grows too fast at zero: integral of min(1,|z|^2) diverges",
                field="density",
            )
        if self.support_min > 0.0:
            cut = self.support_min

            def dens(rr, _interp=interp, _cut=cut):
                vals = _interp(rr)
                return np.where(np.asarray(rr) >= _cut, vals, 0.0)

        else:
            dens = interp
        object.__setattr__(self, "_dens", dens)
        object.__setattr__(self, "_slope0", slope0)
        object.__setattr__(self, "_surface", 2.0 if self.dimension == 1 else 2.0 * math.pi)

    @property
    def is_symmetric(self) -> bool:
        return True

    def _cells(self, lo: float, hi: float, osc_scale: float) -> np.ndarray:
        """Integration cell boundaries aligned with density breakpoints and
        refined so each cell sees at most a quarter oscillation."""
        pts = np.array([lo] + [r for r in self.radii if lo < r < hi] + [hi])
        # geometric refinement toward the (possibly singular) left endpoint
        if lo == 0.0:
            pts = np.concatenate([[0.0], pts[1] * 0.5 ** np.arange(46.0, 0.0, -1.0), pts[1:]])
        lefts, widths = pts[:-1], np.diff(pts)
        max_len = math.pi / (4.0 * max(osc_scale, 1.0))
        n_sub = np.clip(np.ceil(widths / max_len), 1, 4096).astype(int)
        cell = np.repeat(np.arange(lefts.size), n_sub)
        k = np.arange(1, cell.size + 1) - np.repeat(np.cumsum(n_sub) - n_sub, n_sub)
        return np.concatenate([pts[:1], lefts[cell] + widths[cell] * k / n_sub[cell]])

    def _rule(self, lo: float, hi: float, power: int, osc_scale: float = 0.0):
        """Composite Gauss-Legendre rule on the cells of ``[lo, hi]``.

        Returns the nodes of the 12-point rule followed by those of its
        6-point companion, their weights times ``surf g(r) r^power`` (``surf``
        = 2 in d=1, 2 pi in d=2), the count of 12-point nodes, and the edge
        ``e`` of the innermost cell ``[0, e]``, which is left out of the rule
        when ``lo = 0`` and integrated by :meth:`_moment` (``e = 0`` otherwise).
        """
        bounds = self._cells(lo, hi, osc_scale)
        edge = 0.0
        if lo == 0.0:
            edge, bounds = bounds[1], bounds[1:]
        half = 0.5 * np.diff(bounds)[:, None]
        mid = 0.5 * (bounds[1:] + bounds[:-1])[:, None]
        nodes = [(mid + half * x).ravel() for x, _ in _GAUSS_LEGENDRE]
        r = np.concatenate(nodes)
        w = np.concatenate([(half * wg).ravel() for _, wg in _GAUSS_LEGENDRE])
        return r, w * self._surface * self._dens(r) * r**power, nodes[0].size, edge

    def _moment(self, power: int, edge: float) -> float:
        """``surf int_0^edge g(r) r^power dr`` in closed form: below the first
        node ``g`` is the power law ``g0 (r / r0)^s`` (zero below
        ``support_min``).  Infinite when the integral diverges at 0."""
        lo = max(self.support_min, 0.0)
        if edge <= lo:
            return 0.0
        r0, q = self.radii[0], self._slope0 + power + 1.0
        scale = self._surface * self.density[0] * r0 ** (power + 1.0)
        if q == 0.0:
            return scale * math.log(edge / lo) if lo > 0.0 else math.inf
        if q < 0.0 and lo == 0.0:
            return math.inf
        return scale * ((edge / r0) ** q - (lo / r0) ** q) / q

    def _integrate(self, lo: float, hi: float, power: int, mags=None, osc_scale: float = 0.0):
        """``surf int_lo^hi k(m r) g(r) r^power dr`` for each magnitude ``m``
        of ``mags`` by the rule of :meth:`_rule`, with ``k(u) = 1 - cos u``
        (d=1) or ``1 - J0(u)`` (d=2); ``k = 1`` and one value when ``mags`` is
        None.  Returns ``(lo, hi, values, residuals, tolerances)``: the
        12-point values, their residuals against the 6-point companion and
        the tolerances of those, as :func:`_verify` reads them."""
        r, w, n12, edge = self._rule(lo, hi, power, osc_scale)
        if mags is None:
            fine, coarse = np.array([w[:n12].sum()]), np.array([w[n12:].sum()])
            inner = self._moment(power, edge)
        else:
            fine, coarse = np.empty(mags.size), np.empty(mags.size)
            rows = max(1, _KERNEL_BLOCK // r.size)
            for s in range(0, mags.size, rows):
                k = np.multiply.outer(mags[s : s + rows], r)
                if self.dimension == 1:
                    k *= 0.5
                    np.sin(k, out=k)
                    k *= k
                    k *= 2.0  # 1 - cos u = 2 sin^2(u/2), stable for small u
                else:
                    # 1 - J0(u) cancels for small u; below u = 0.1 its series
                    # t - t^2/4 + t^3/36 - t^4/576 (t = u^2/4) is exact to 3e-15
                    small = k < 0.1
                    t = 0.25 * k[small] ** 2
                    j0(k, out=k)
                    np.subtract(1.0, k, out=k)
                    k[small] = t * (1.0 - t / 4.0 * (1.0 - t / 9.0 * (1.0 - t / 16.0)))
                k *= w
                fine[s : s + rows] = k[:, :n12].sum(axis=1)
                coarse[s : s + rows] = k[:, n12:].sum(axis=1)
            # On the innermost cell [0, e] (e = radii[0] 2^-46 or less), with
            # u = m r: 1 - cos u = u^2/2 to a relative error of u^2/12 (d=1)
            # and 1 - J0(u) = u^2/4 to u^2/16 (d=2), i.e. k(u) = u^2 / (2d).
            # Gauss-Legendre cannot resolve the r^{s+2} endpoint singularity
            # there, the closed form has no such error.
            inner = mags**2 / (2.0 * self.dimension) * self._moment(power + 2, edge)
        residual = np.abs(fine - coarse)
        fine += inner
        return lo, hi, fine, residual, np.maximum(_QUAD_RTOL * np.abs(fine) * 10.0, 1e-11)

    def _octave_exponent(self, mags, edge: float) -> np.ndarray:
        """Exponent at positive magnitudes of one octave band, on the cells
        built for the band's upper ``edge``."""
        rmax = self.radii[-1]
        # split at |z| = 1: singular endpoint on the left, smooth tail right
        limits = [(0.0, min(1.0, rmax))] + ([(1.0, rmax)] if rmax > 1.0 else [])
        pieces = [self._integrate(lo, hi, self.dimension - 1, mags, edge) for lo, hi in limits]
        _verify(pieces, mags)
        return sum(fine for _, _, fine, _, _ in pieces)

    def exponent(self, xi):
        xi_arr, scalar = _as_xi_array(xi, self.dimension)
        if self.dimension == 1:
            mags = np.abs(xi_arr)
        else:
            mags = np.linalg.norm(xi_arr, axis=-1)
        uniq, inverse = np.unique(mags.ravel(), return_inverse=True)
        # Octave bands [2^j, 2^{j+1}), every |xi| <= 1 in one band: each band's
        # rule is built once from its upper edge, so a value depends only on
        # its own magnitude, never on the rest of the batch.
        edges = np.where(uniq <= 1.0, 1.0, np.ldexp(1.0, np.frexp(uniq)[1]))
        vals = np.zeros(uniq.size)
        for edge in np.unique(edges[uniq > 0.0]):
            band = (edges == edge) & (uniq > 0.0)
            vals[band] = self._octave_exponent(uniq[band], float(edge))
        out = vals[inverse].reshape(mags.shape).astype(complex)
        return out[0] if scalar else out

    def tail_mass(self, eps: float = 0.0) -> float:
        if eps >= self.radii[-1]:
            return 0.0
        piece = self._integrate(max(eps, self.support_min), self.radii[-1], self.dimension - 1)
        _verify([piece])
        return float(piece[2][0])

    def small_jump_variance(self, eps: float) -> np.ndarray:
        piece = self._integrate(0.0, min(eps, self.radii[-1]), self.dimension + 1)
        _verify([piece])
        val = float(piece[2][0])
        if self.dimension == 1:
            return np.array([[val]])
        # radial symmetry: second moment splits evenly across coordinates
        return np.diag([0.5 * val, 0.5 * val])

    def compensator_drift(self, eps: float) -> np.ndarray:
        return np.zeros(self.dimension)

    def sample_tail(self, eps: float = 0.0, size: int = 1, rng=None, out=None) -> np.ndarray:
        if self.dimension != 1:
            raise NotImplementedError("tail sampling of tabulated measures is 1-d only")
        dens = self._dens
        lo, hi = max(eps, self.support_min, 1e-12), self.radii[-1]
        grid = np.geomspace(lo, hi, 2048)
        pdf = dens(grid)
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid))])
        cdf /= cdf[-1]
        mag = np.interp(rng.random(size), cdf, grid)
        signs = rng.integers(0, 2, size) * 2 - 1
        return np.multiply(mag, signs, out=None if out is None else out[:size])


def _geometric_gl_rule(hi: float, n_panels: int = 48, n_per_panel: int = 10):
    """Gauss-Legendre nodes/weights on (0, hi] with geometric panels toward 0.

    Power-law singular integrands (stable-like densities) integrate to near
    machine accuracy on this rule; a single global panel loses 3-4 digits.
    """
    bounds = hi * 0.5 ** np.arange(n_panels, -1, -1.0)
    xg, wg = np.polynomial.legendre.leggauss(n_per_panel)
    lefts, rights = bounds[:-1], bounds[1:]
    half = 0.5 * (rights - lefts)
    mid = 0.5 * (rights + lefts)
    r = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    w = (half[:, None] * wg[None, :]).ravel()
    return r, w


@dataclass(frozen=True)
class TruncatedStableMeasure:
    """Stable measure restricted to ``|z| > eps`` (finite total mass)."""

    base: StableMeasure
    eps: float

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"truncation radius must lie in (0,1), got {self.eps}")

    @property
    def dimension(self) -> int:
        return self.base.dimension

    @property
    def is_symmetric(self) -> bool:
        return True

    def exponent(self, xi):
        # psi_eps = psi - (small-jump cosine integral on [0, eps])
        xi_arr, scalar = _as_xi_array(xi, self.dimension)
        r, w = _geometric_gl_rule(self.eps)
        a = self.base.alpha
        out = np.asarray(self.base.exponent(xi_arr), dtype=complex).copy()
        for i, c in enumerate(self.base.axis_coeffs):
            comp = xi_arr if self.dimension == 1 else xi_arr[..., i]
            phase = np.abs(comp)[..., None] * r
            small = 2.0 * c * np.sum(
                2.0 * np.sin(phase / 2.0) ** 2 * r ** (-1.0 - a) * w, axis=-1
            )
            out -= small
        return out[0] if scalar else out

    def tail_mass(self, eps: float = None) -> float:
        return self.base.tail_mass(self.eps if eps is None else max(eps, self.eps))

    def small_jump_variance(self, eps: float) -> np.ndarray:
        if eps <= self.eps:
            d = self.dimension
            return np.zeros((d, d))
        return self.base.small_jump_variance(eps) - self.base.small_jump_variance(self.eps)

    def compensator_drift(self, eps: float = None) -> np.ndarray:
        return np.zeros(self.dimension)

    def sample_tail(self, eps: float = None, size: int = 1, rng=None, out=None) -> np.ndarray:
        e = self.eps if eps is None else max(eps, self.eps)
        return self.base.sample_tail(e, size, rng, out)


def levy_exponent(spec, xi):
    """Levy exponent ``psi(xi)`` of a measure under the ``e^{-t psi}`` convention.

    Closed form for stable and atomic kinds.  Tabulated kinds evaluate the
    distinct magnitudes ``|xi|`` of the batch together, one octave band
    ``[2^j, 2^{j+1})`` at a time (every ``|xi| <= 1`` in one band): a
    composite 12-point Gauss-Legendre rule on cells at the density nodes,
    refined geometrically toward 0 and to a quarter oscillation at the band's
    upper edge, with the innermost cell ``[0, radii[0] 2^-46]`` in closed
    form.  Each value is checked against the 6-point companion rule on
    ``[0, 1]`` and ``[1, radii[-1]]`` separately and raises
    :class:`QuadratureError` (naming ``|xi|``, residual and tolerance) beyond
    ``max(1e-9 |psi|, 1e-11)``.  A value depends on its magnitude only, never
    on the rest of the batch.  ``xi`` may be a scalar (d=1), a vector (one d=2
    point), or an array of points.
    """
    return spec.exponent(xi)


def truncated_measure(spec, eps: float):
    """Restriction of ``spec`` to jumps ``|z| > eps``; total mass is finite."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"truncation radius must lie in (0,1), got {eps}")
    if isinstance(spec, StableMeasure):
        return TruncatedStableMeasure(base=spec, eps=eps)
    if isinstance(spec, TruncatedStableMeasure):
        return TruncatedStableMeasure(base=spec.base, eps=max(eps, spec.eps))
    if isinstance(spec, AtomicMeasure):
        kept = tuple(
            (z, r) for z, r in spec.atoms if np.linalg.norm(np.atleast_1d(z)) > eps
        )
        if not kept:
            raise ValueError(f"all atoms lie inside |z| <= {eps}")
        return AtomicMeasure(atoms=kept, dimension=spec.dimension)
    if isinstance(spec, TabulatedMeasure):
        r = np.asarray(spec.radii)
        g = np.asarray(spec.density)
        keep = r > eps
        if keep.sum() < 2:
            raise ValueError("truncation removes nearly all tabulated support")
        rr, gg = r[keep], g[keep]
        if rr[0] > eps * (1 + 1e-6):
            # pin a node just above the cut so the interpolant is anchored there
            edge = eps * (1 + 1e-9)
            val = spec._dens(np.array([edge]))[0]
            if val > 0:
                rr = np.concatenate([[edge], rr])
                gg = np.concatenate([[val], gg])
        return TabulatedMeasure(
            radii=tuple(rr),
            density=tuple(gg),
            dimension=spec.dimension,
            support_min=eps,
        )
    raise TypeError(f"unsupported measure kind: {type(spec).__name__}")


def small_jump_variance(spec, eps: float) -> np.ndarray:
    """Second-moment matrix of jumps inside the box ``[-eps, eps]^d``.

    Symmetric positive semidefinite; monotone nondecreasing in ``eps``.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0,1], got {eps}")
    return spec.small_jump_variance(eps)


def compensator_drift(spec, eps: float) -> np.ndarray:
    """Compensator ``z0 = int_{eps < |z| <= 1} z nu(dz)`` for truncated simulation.

    Identically zero for symmetric measures.
    """
    return spec.compensator_drift(eps)


def jump_stream(rate: float, n: int, draw, rng):
    """Jumps of ``n`` independent compound-Poisson paths.

    Draws the per-path Poisson counts with mean ``rate`` first, then the
    ``total`` jump sizes as ``draw(total)`` only when ``total > 0``.  Returns
    ``(counts, sizes)``: path ``i`` owns the next ``counts[i]`` sizes (empty
    when no path jumps).
    """
    counts = rng.poisson(rate, n)
    total = int(counts.sum())
    return counts, (draw(total) if total > 0 else np.empty(0))


def path_sums(counts, sizes, n: int, d: int = 1, cuts=()) -> np.ndarray:
    """Per-path sums of the jump ``sizes`` of a ``jump_stream``; shape ``(n,)``
    for ``d=1`` and ``(n, d)`` otherwise, zeros for an empty stream.

    With increasing ``cuts`` (d = 1) the sums are split by band, shape
    ``(n, len(cuts) + 1)``: band ``b`` holds the jumps whose magnitude
    exceeds exactly ``b`` cuts.  Every sum adds its jumps in stream order; the
    path index of each jump is built only for a block of paths at a time.
    """
    if d != 1:
        return np.stack([path_sums(counts, c, n) for c in np.reshape(sizes, (-1, d)).T], axis=-1)
    m = len(cuts) + 1
    out = np.empty(n * m)
    starts = np.cumsum(counts) - counts
    for lo in range(0, n, _OWNER_BLOCK):
        hi = min(lo + _OWNER_BLOCK, n)
        part = sizes[starts[lo] : starts[hi - 1] + counts[hi - 1]]
        key = np.repeat(np.arange(0, (hi - lo) * m, m), counts[lo:hi])
        for c in cuts:
            key += (part > c) | (part < -c)
        out[lo * m : hi * m] = np.bincount(key, weights=part, minlength=(hi - lo) * m)
    return out.reshape(n, m) if cuts else out


def sample_increment(spec, tau: float, mode: str, rng, eps: float = None, size: int = None):
    """Draw increments of the driving noise over a time step ``tau``.

    Modes
    -----
    ``"exact-stable"``
        Chambers-Mallows-Stuck exact marginal (stable measures only).
    ``"truncated"``
        compound Poisson from ``nu`` restricted to ``|z| > eps``, minus the
        compensator drift of jumps in ``eps < |z| <= 1``.
    ``"truncated+gaussian"``
        same, plus a centered normal with covariance ``Sigma(eps) tau``.

    Returns an array of shape ``(size,)`` (d=1) or ``(size, d)``; with
    ``size=None`` a single increment is returned.
    """
    if tau <= 0:
        raise ValueError("step must be positive")
    squeeze = size is None
    n = 1 if squeeze else int(size)
    d = spec.dimension if hasattr(spec, "dimension") else 1

    if mode == "exact-stable":
        if not isinstance(spec, StableMeasure):
            raise ValueError("exact-stable sampling requires a stable measure")
        out = spec.sample_exact(tau, n, rng)
    elif mode in ("truncated", "truncated+gaussian"):
        if eps is None or not 0.0 < eps < 1.0:
            raise ValueError(f"truncated modes need 0 < eps < 1, got {eps}")
        counts, sizes = jump_stream(
            spec.tail_mass(eps) * tau, n, lambda k: spec.sample_tail(eps, k, rng), rng
        )
        out = path_sums(counts, sizes, n, d) - tau * spec.compensator_drift(eps)
        if mode == "truncated+gaussian":
            cov = spec.small_jump_variance(eps) * tau
            if d == 1:
                out = out + math.sqrt(cov[0, 0]) * rng.standard_normal(n)
            else:
                chol = np.linalg.cholesky(cov + 1e-300 * np.eye(d))
                out = out + rng.standard_normal((n, d)) @ chol.T
    else:
        raise ValueError(f"unknown sampling mode: {mode!r}")
    return out[0] if squeeze else out


def small_jump_symbol_error(spec, eps: float, eta, compensated: bool = True):
    """Difference between the full exponent and the truncated one at frequency
    ``eta``, computed directly from the small-jump integral (no cancellation):

        psi(eta) - psi_eps(eta) [- (1/2) Sigma(eps) eta^2 if compensated].

    1-d symmetric measures only; ``eta`` may be an array.
    """
    if getattr(spec, "dimension", 1) != 1 or not getattr(spec, "is_symmetric", False):
        raise NotImplementedError("symbol differences are for 1-d symmetric measures")
    eta_arr = np.atleast_1d(np.asarray(eta, dtype=float))
    r, w = _geometric_gl_rule(eps)
    if isinstance(spec, StableMeasure):
        dens_vals = spec.c * r ** (-1.0 - spec.alpha)
    elif isinstance(spec, TabulatedMeasure):
        dens_vals = spec._dens(r)
    else:
        raise NotImplementedError(f"unsupported measure kind {type(spec).__name__}")
    phase = np.abs(eta_arr)[..., None] * r
    # 1 - cos u = 2 sin^2(u/2), stable for small u; compensation removes u^2/2
    integrand = 2.0 * np.sin(phase / 2.0) ** 2
    if compensated:
        integrand = integrand - phase**2 / 2.0
    out = 2.0 * np.sum(integrand * dens_vals * w, axis=-1)
    return out if np.asarray(eta).ndim else float(out[0])


_FD_STENCILS = {
    1: (np.array([-0.5, 0.0, 0.5]), 1),
    2: (np.array([1.0, -2.0, 1.0]), 1),
    3: (np.array([-0.5, 1.0, 0.0, -1.0, 0.5]), 2),
    4: (np.array([1.0, -4.0, 6.0, -4.0, 1.0]), 2),
}


def _fd_derivative(psi, x: float, order: int, h: float) -> complex:
    coeffs, reach = _FD_STENCILS[order]
    pts = x + h * np.arange(-reach, reach + 1)
    vals = np.array([psi(p) for p in pts], dtype=complex)
    return vals @ coeffs / h**order


def bg_index(spec, k: int, fit_range: tuple = (2.0, 512.0), samples_per_octave: int = 4) -> float:
    """Blumenthal-Getoor index of order ``k`` by log-log regression.

    For each dyadic bin ``[2^m, 2^{m+1})`` in the fit window, the quantity
    ``max_{o <= k} |psi^{(o)}(xi)| * |xi|^o`` is maximised over a few sample
    points (the maximum tames oscillatory exponents); the fitted slope of its
    log against ``log |xi|`` estimates the least admissible growth order.

    ``spec`` may be a measure or a plain callable ``xi -> psi(xi)`` (scalar).
    Drift never enters: the index is a property of the noise alone.
    """
    if k not in range(5):
        raise ValueError(f"derivative order must be an integer in [0, 4], got {k}")
    lo, hi = fit_range
    if not 0 < lo < hi:
        raise ValueError("fit window must satisfy 0 < lo < hi")
    m_lo = math.ceil(math.log2(lo))
    m_hi = math.floor(math.log2(hi)) - 1
    octaves = list(range(m_lo, m_hi + 1))
    if len(octaves) < 8:
        raise ValueError(
            f"fit window too small: {len(octaves)} dyadic samples, need at least 8"
        )

    if hasattr(spec, "exponent"):
        if getattr(spec, "dimension", 1) == 2:
            psi = lambda s: spec.exponent(np.array([s, 0.0]))
        else:
            psi = lambda s: spec.exponent(s)
    else:
        psi = spec

    logs = []
    for m in octaves:
        best = 0.0
        for j in range(samples_per_octave):
            x = 2.0**m * (1.0 + j / samples_per_octave)
            h = max(0.02 * x, 1e-3)
            val = abs(complex(psi(x)))
            for o in range(1, int(k) + 1):
                val = max(val, abs(_fd_derivative(psi, x, o, h)) * x**o)
            best = max(best, val)
        logs.append(math.log(max(best, 1e-300)))
    xs = np.array(octaves, dtype=float) * math.log(2.0)
    ys = np.array(logs)
    slope = np.polyfit(xs, ys, 1)[0]
    return float(slope)
