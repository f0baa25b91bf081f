"""Kohn-Nirenberg operator application, parametrix inversion, resolvent
application on the sector, contour-integral semigroup evaluation, and the
analyticity/smoothing gauges.

Quantization is Kohn-Nirenberg throughout:

    (s(x, D) u)(x_i) = sum_k e^{i <x_i, xi_k>} s(x_i, xi_k) u_hat[k],

with ``u_hat`` the synthesis coefficients of the grid function.  Under the
package's sign convention the semigroup generator is ``A = -a(x, D)``, the
resolvent is ``R(lambda, A) = (lambda + a(x, D))^{-1}``, and

    P_t u = (1 / 2 pi i) * contour integral of e^{lambda t} R(lambda, A) u.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .besov import DyadicPartition
from .errors import ConfigError, ContractionError, LevySdeError, SpectralDistanceError
from .grids import GridFunction
from .ratefit import RateFit, fit_rate
from .symbols import SymbolGrid, cutoff_split

__all__ = [
    "apply_symbol",
    "dense_symbol_matrix",
    "SolveReport",
    "parametrix_solve",
    "parametrix_probe_contraction",
    "resolvent_apply",
    "ContourSpec",
    "build_contour",
    "contour_for_time",
    "semigroup_apply",
    "analyticity_gauge",
    "smoothing_gauge",
    "SmoothingReport",
    "write_gauge_csv",
]


def apply_symbol(s: SymbolGrid, u: GridFunction) -> GridFunction:
    """Apply the Kohn-Nirenberg quantization of ``s`` to ``u`` through the
    table's factors ``s ~ sum_r f_r(x) g_r(xi)`` (:attr:`SymbolGrid.factors`,
    whose recorded ``error`` bounds every entry of the dropped remainder by
    1e-13 of max|s|; an incompressible table is split exactly at rank M).
    """
    if u.grid != s.grid:
        raise ValueError("grid mismatch between symbol and function")
    return GridFunction(s.grid, _apply_factors(s.factors.f, s.factors.g, u).reshape(s.grid.shape))


def _apply_factors(f: np.ndarray, g: np.ndarray, u: GridFunction) -> np.ndarray:
    """``sum_r f_r * IFFT(g_r u_hat)`` scaled by M: the quantization of
    ``sum_r f_r(x) g_r(xi)`` (rows of shape (M,)) applied to ``u``, as r
    inverse FFTs; returns the flattened values."""
    grid, (r, M) = u.grid, g.shape
    spectra = (g * u.coeffs.ravel()).reshape((r,) + grid.shape)
    return M * np.einsum("rk,rk->k", f, grid.ifft(spectra).reshape(r, M))


def dense_symbol_matrix(s: SymbolGrid) -> np.ndarray:
    """Dense matrix of ``s(x, D)`` acting on flattened value vectors (test
    oracle only): ``(P * S) @ P^H / M`` with ``P`` the synthesis phases
    ``exp(i <x_i, xi_k>)`` over the flattened lattice, the Kronecker power of
    the axis table.

    Cost and memory are quadratic in the total grid size; intended for
    cross-checks at N <= 256 in one dimension.
    """
    M = math.prod(s.grid.shape)
    if M > 4096:
        raise ValueError("dense operator matrices are a small-grid test oracle")
    axis = np.exp(1j * np.outer(s.grid.x, s.grid.xi))
    P = functools.reduce(np.kron, [axis] * s.grid.dimension)
    return (P * s.values.reshape(M, M)) @ P.conj().T / M


# ---------------------------------------------------------------------------
# parametrix inversion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    residual_history: tuple
    contraction_estimate: float


def _parametrix_iterates(split, f_high: GridFunction):
    """Iterates ``(u, r)`` of ``u <- u + q(x, D) r``, ``r = f_high - p(x, D) u``,
    starting from ``(0, f_high)``; each later iterate applies ``q`` and ``p`` once."""
    u = GridFunction(f_high.grid, np.zeros(f_high.grid.shape, dtype=complex))
    residual = f_high
    while True:
        yield u, residual
        u = u + apply_symbol(split.q, residual)
        residual = f_high - apply_symbol(split.p_high, u)


def parametrix_solve(
    a: SymbolGrid,
    f: GridFunction,
    R: float,
    tol: float = 1e-8,
    maxit: int = 40,
):
    """Invert the high-frequency part of ``a(x, D)`` by parametrix iteration.

    With the cutoff split ``p = a chi_R`` and parametrix ``q = chi_R / a``,
    iterate ``u <- u + q(x, D)(f_high - p(x, D) u)`` where ``f_high`` is the
    spectral restriction of ``f`` to ``supp chi_R``.  Equivalent to summing
    the alternating Neumann series of the composition defect; converges
    geometrically when the measured contraction is below one.

    Returns ``(u, SolveReport)``; raises :class:`ContractionError` when the
    measured ratio of successive residuals stays >= 1 after 5 iterations
    (choose a larger cutoff radius), and :class:`ConfigError` naming ``maxit``
    when the cap is below one.
    """
    grid = a.grid
    if f.grid != grid:
        raise ValueError("grid mismatch")
    _check_cap(maxit)
    split = cutoff_split(a, R)
    f_high = GridFunction.from_coeffs(grid, f.coeffs * (split.chi > 0.0))
    f_scale = max(f.norm_l2(), 1e-300)

    history, ratios = [], []
    for it, (u, residual) in zip(range(maxit + 1), _parametrix_iterates(split, f_high)):
        history.append(residual.norm_l2())
        if it:
            ratios.append(history[-1] / max(history[-2], 1e-300))
        if history[-1] <= tol * f_scale:
            return u, SolveReport(it, tuple(history), max(ratios, default=0.0))
        if it >= 5 and min(ratios[-3:]) >= 1.0:
            raise ContractionError(
                "parametrix iteration is not contracting; increase the cutoff "
                f"radius R (measured ratio {min(ratios[-3:]):.3f} at R={R})",
                contraction_estimate=max(ratios),
            )
    raise ContractionError(
        f"parametrix iteration did not reach tol={tol} within {maxit} iterations "
        f"(last residual {history[-1]:.3e}, contraction {max(ratios):.3f})",
        contraction_estimate=max(ratios),
    )


def parametrix_probe_contraction(a: SymbolGrid, R: float, iters: int = 4) -> float:
    """Measured contraction of the parametrix iteration on an in-range probe.

    The probe right-hand side is ``p_R(x, D) w`` for a fixed-seed random ``w``
    supported well inside the cutoff plateau, so the iteration's target is
    consistent; returns ``inf`` when the plateau is empty.
    """
    grid = a.grid
    try:
        split = cutoff_split(a, R)
    except LevySdeError:
        return float("inf")
    mags = grid.xi_norm()
    plateau = (mags >= 4.0 * R) & (mags <= 0.85 * float(mags.max()))
    if not plateau.any():
        return float("inf")
    rng = np.random.default_rng(20240915)
    coeffs = np.zeros(grid.shape, dtype=complex)
    coeffs[plateau] = rng.standard_normal(int(plateau.sum())) + 1j * rng.standard_normal(
        int(plateau.sum())
    )
    w = GridFunction.from_coeffs(grid, coeffs)
    f_full = apply_symbol(split.p_high, w)
    f_high = GridFunction.from_coeffs(grid, f_full.coeffs * (split.chi > 0.0))
    norms = []
    for it, (_, residual) in zip(range(iters + 1), _parametrix_iterates(split, f_high)):
        norms.append(residual.norm_l2())
        if it and norms[-1] <= 1e-14 * norms[0]:
            break
    ratios = [norms[i + 1] / max(norms[i], 1e-300) for i in range(len(norms) - 1)]
    return max(ratios[1:]) if len(ratios) > 1 else ratios[0]


# ---------------------------------------------------------------------------
# resolvent
# ---------------------------------------------------------------------------


def _check_cap(maxit: int):
    if maxit < 1:
        raise ConfigError(f"iteration cap maxit={maxit} must be at least 1", field="maxit")


def resolvent_apply(
    lam: complex,
    a: SymbolGrid,
    v: GridFunction,
    tol: float = 1e-10,
    maxit: int = 400,
    min_distance: float = 1e-8,
) -> GridFunction:
    """Apply ``(lambda + a(x, D))^{-1}`` by a preconditioned fixed point.

    The preconditioner is the frozen-coefficient Fourier multiplier
    ``(lambda + a_bar(xi))^{-1}``, ``a_bar`` the x-mean of the table
    (:attr:`SymbolGrid.x_mean`).  The iteration runs on the synthesis
    coefficients: ``u_hat <- u_hat + r_hat / (lambda + a_bar)`` with the
    residual ``r = v - (lambda + a(x, D)) u`` (one :func:`apply_symbol`), and a
    one-term Anderson mixing of the last two updates accelerates it.  The
    multiplier is exact for an x-independent symbol, so there the first
    residual check returns.  Stops at relative residual ``tol``.

    Raises :class:`SpectralDistanceError` carrying the lattice point when
    ``-lambda`` lies within ``min_distance`` of a table entry (or of
    ``a_bar``), :class:`ContractionError` when ``maxit`` steps do not reach
    ``tol``, and :class:`ConfigError` naming ``maxit`` when it is below one.
    """
    grid = a.grid
    if v.grid != grid:
        raise ValueError("grid mismatch")
    _check_cap(maxit)
    # a -lambda farther than min_distance from the range box along one axis is
    # that far from every entry: the exact pass over the table can be skipped
    lam = complex(lam)
    lo, hi = a.range_box
    gap = max(lo.real + lam.real, -lam.real - hi.real, lo.imag + lam.imag, -lam.imag - hi.imag)
    for table in (a.values, a.x_mean) if gap < min_distance else (a.x_mean,):
        dist = np.abs(table + lam)
        if dist.min() < min_distance:
            raise SpectralDistanceError(
                f"shift {lam} is within {dist.min():.2e} of the symbol range",
                point=np.unravel_index(int(np.argmin(dist)), dist.shape),
            )
    mult = 1.0 / (lam + a.x_mean)

    # relative residuals in coefficient space equal those of the values (Parseval)
    v_hat = v.coeffs
    v_norm = max(float(np.linalg.norm(v_hat)), 1e-300)
    u_hat = mult * v_hat
    res_prev = plain_prev = None
    for _ in range(maxit):
        u = GridFunction.from_coeffs(grid, u_hat)
        r_hat = v_hat - lam * u_hat - apply_symbol(a, u).coeffs
        rel = float(np.linalg.norm(r_hat)) / v_norm
        if rel <= tol:
            return u
        if not math.isfinite(rel):
            break  # diverged: the preconditioner does not contract here
        plain = u_hat + mult * r_hat
        u_next = plain
        if res_prev is not None:
            # Anderson(1): mix the last two plain updates to shrink the residual
            dr = r_hat - res_prev
            denom = float(np.vdot(dr, dr).real)
            if denom > 0:
                theta = complex(np.vdot(dr, r_hat)) / denom
                u_next = (1 - theta) * plain + theta * plain_prev
        res_prev, plain_prev, u_hat = r_hat, plain, u_next
    raise ContractionError(
        f"resolvent iteration did not reach tol={tol} within {maxit} iterations "
        f"(relative residual {rel:.2e} at lambda={lam}); the frozen-coefficient "
        "preconditioner contracts only while the symbol's x-variation stays below "
        "|lambda + its x-mean|: raise maxit or move lambda away from the symbol range"
    )


# ---------------------------------------------------------------------------
# sector contour and semigroup
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContourSpec:
    """Sector contour: two rays ``r e^{+-i(pi/2 + theta')}``, r in [rho0, M],
    joined by the arc of radius rho0, with quadrature nodes and weights.

    Nodes are Gauss-Legendre per piece (rays use the grading
    ``r = rho0 + sinh(s)``); weights absorb the prefactor ``1/(2 pi i)``.
    On construction the rule must reproduce ``e^{-t}`` from the integrand
    ``e^{lambda t} / (lambda + 1)`` to 1e-8 (residue self-test).
    """

    theta_prime: float
    rho0: float
    M: float
    n_ray: int
    n_arc: int
    nodes: np.ndarray
    weights: np.ndarray

    def quadrature(self, integrand) -> complex:
        """Sum ``weights * integrand(nodes)`` (integrand vectorized over nodes)."""
        return complex(np.sum(self.weights * integrand(self.nodes)))


def _contour_nodes(theta_prime: float, rho0: float, M: float, n_ray: int, n_arc: int):
    phi = math.pi / 2.0 + theta_prime
    smax = math.asinh(max(M - rho0, 1e-12))
    xg, wg = np.polynomial.legendre.leggauss(n_ray)
    s = 0.5 * smax * (xg + 1.0)
    ws = 0.5 * smax * wg
    r = rho0 + np.sinh(s)
    dr = np.cosh(s)
    lam_bot = r * np.exp(-1j * phi)
    w_bot = -np.exp(-1j * phi) * dr * ws  # traversed inward (M -> rho0)
    xa, wa = np.polynomial.legendre.leggauss(n_arc)
    beta = phi * xa
    lam_arc = rho0 * np.exp(1j * beta)
    w_arc = 1j * rho0 * np.exp(1j * beta) * (phi * wa)
    lam_top = r * np.exp(1j * phi)
    w_top = np.exp(1j * phi) * dr * ws
    nodes = np.concatenate([lam_bot[::-1], lam_arc, lam_top])
    weights = np.concatenate([w_bot[::-1], w_arc, w_top]) / (2j * math.pi)
    return nodes, weights


def build_contour(
    theta_prime: float,
    rho0: float,
    M: float,
    n_ray: int = 48,
    n_arc: int = 48,
    residue_tol: float = 1e-8,
    t_check: float = 1.0,
) -> ContourSpec:
    """Construct a sector contour, doubling node counts until the residue
    self-test ``quad(e^{lambda t}/(lambda+1)) = e^{-t}`` passes at ``t_check``."""
    if not 0.0 < theta_prime < math.pi / 2.0:
        raise ValueError("ray angle offset must lie in (0, pi/2)")
    if rho0 <= 0 or M <= rho0:
        raise ValueError("need 0 < rho0 < M")
    nr, na = n_ray, n_arc
    for _ in range(6):
        nodes, weights = _contour_nodes(theta_prime, rho0, M, nr, na)
        val = np.sum(weights * np.exp(nodes * t_check) / (nodes + 1.0))
        if abs(val - math.exp(-t_check)) <= residue_tol:
            return ContourSpec(theta_prime, rho0, M, nr, na, nodes, weights)
        nr *= 2
        na *= 2
    raise ContractionError(
        f"contour quadrature failed the residue self-test at tol {residue_tol}"
    )


def contour_for_time(t: float, theta_prime: float, decay_exponent: float = 40.0) -> ContourSpec:
    """Contour scaled for time ``t``: ``rho0 = 1/t`` and the ray truncation M
    chosen so the truncation term ``e^{-M t sin theta'}`` is below 1e-12."""
    if t <= 0:
        raise ValueError("time must be positive")
    rho0 = 1.0 / t
    M = max(2.0 * rho0, decay_exponent / (t * math.sin(theta_prime)))
    return build_contour(theta_prime, rho0, M, t_check=t)


def _default_theta_prime(a: SymbolGrid, fraction: float = 0.5) -> float:
    re = a.values.real
    im = a.values.imag
    ratio = float((np.abs(im) / np.maximum(re, 1e-300)).max())
    theta = math.atan(1.0 / max(ratio, 1e-12))
    return fraction * min(theta, 1.45)


def semigroup_apply(
    t: float,
    a: SymbolGrid,
    u: GridFunction,
    contour: ContourSpec = None,
    tol: float = 1e-8,
) -> GridFunction:
    """Evaluate ``P_t u`` by contour quadrature of the resolvent.

    ``P_t u = (1/2 pi i) int_Gamma e^{lambda t} (lambda + a(x,D))^{-1} u dlambda``
    over the sector contour, by default ``contour_for_time(t, theta')``.  A
    caller's contour must meet the same truncation ``M >= 40 / (t sin theta')``
    and scale ``|rho0 t - 1| <= 10``, else :class:`ConfigError` names
    ``contour.M`` or ``contour.rho0``.  Sectoriality of the symbol is required
    (negative real parts are rejected).
    """
    if t <= 0:
        raise ValueError("time must be positive")
    scale = max(float(np.abs(a.values).max()), 1.0)
    if float(a.values.real.min()) < -1e-10 * scale:
        raise ValueError("symbol has negative real part: not sectorial")
    if contour is None:
        contour = contour_for_time(t, _default_theta_prime(a))
    else:
        fix = f"use contour_for_time({float(t)!r}, {contour.theta_prime!r})"
        needed_M = 40.0 / (t * math.sin(contour.theta_prime))
        if contour.M < 0.99 * needed_M:
            raise ConfigError(
                f"contour truncation M={contour.M:.4g} is below {needed_M:.4g}, "
                f"the ray length needed at t={t:g}; {fix}",
                field="contour.M",
            )
        if abs(contour.rho0 * t - 1.0) > 10.0:
            raise ConfigError(
                f"contour arc radius rho0={contour.rho0:.4g} is off scale at t={t:g} "
                f"(need |rho0 t - 1| <= 10); {fix}",
                field="contour.rho0",
            )

    if a.x_independent:
        # diagonal fast path: exact multiplier on each lattice mode
        sym = a.values[(0,) * a.grid.dimension]
        mult = np.zeros_like(sym)
        for lam, w in zip(contour.nodes, contour.weights):
            mult += w * np.exp(lam * t) / (lam + sym)
        return GridFunction.from_coeffs(u.grid, mult * u.coeffs)

    acc = np.zeros(u.grid.shape, dtype=complex)
    for lam, w in zip(contour.nodes, contour.weights):
        try:
            r = resolvent_apply(lam, a, u, tol=tol)
        except (SpectralDistanceError, ContractionError) as exc:
            raise type(exc)(f"{exc} (contour node lambda={lam})") from exc
        acc += (w * np.exp(lam * t)) * r.values
    return GridFunction(u.grid, acc)


# ---------------------------------------------------------------------------
# gauges
# ---------------------------------------------------------------------------


def analyticity_gauge(a: SymbolGrid, u: GridFunction, t_list):
    """Gauge sequence ``(t, |t A P_t u|_2 / |u|_2)`` with ``A = -a(x, D)``.

    Uniform boundedness of the gauge over decades of ``t`` is the working
    signature of an analytic semigroup.
    """
    u_scale = max(u.norm_l2(), 1e-300)
    rows = []
    for t in t_list:
        pt = semigroup_apply(t, a, u)
        apu = apply_symbol(a, pt)
        rows.append((float(t), float(t) * apu.norm_l2() / u_scale))
    return rows


@dataclass(frozen=True)
class SmoothingReport:
    slope: float
    c_fit: float
    times: tuple
    norms: tuple
    fit: RateFit


def smoothing_gauge(
    a: SymbolGrid,
    u: GridFunction,
    gamma: float,
    delta: float,
    t_list,
    p: float = 2.0,
    q: float = 2.0,
    partition: DyadicPartition = None,
) -> SmoothingReport:
    """Fitted decay rate of ``|P_t u|_{B^gamma_{p,q}}`` against ``t``.

    For inputs that are rough at scale ``gamma - delta`` the smoothing bound
    caps the blow-up at one power of ``1/t``, so the fitted slope should not
    fall below -1.  Returns the slope and the fitted constant
    ``C = exp(intercept)``.
    """
    if len(list(t_list)) < 4:
        raise ValueError("smoothing fits need at least 4 time points")
    part = partition if partition is not None else DyadicPartition(u.grid)
    times, norms = [], []
    for t in t_list:
        pt = semigroup_apply(t, a, u)
        times.append(float(t))
        norms.append(part.besov_norm(pt, gamma, p, q))
    fit = fit_rate(list(zip(times, norms)))
    return SmoothingReport(
        slope=fit.slope,
        c_fit=math.exp(fit.intercept),
        times=tuple(times),
        norms=tuple(norms),
        fit=fit,
    )


def write_gauge_csv(path, rows, header_comment: str = None, columns=("t", "value", "residual")):
    """Write ``rows`` under ``columns`` as CSV: floats with 17 significant
    digits, short rows padded with empty cells.  Every harness CSV goes
    through here."""
    with open(path, "w") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            padded = tuple(row) + ("",) * (len(columns) - len(row))
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in padded) + "\n")
