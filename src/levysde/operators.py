"""Kohn-Nirenberg operator application, parametrix inversion, resolvent
application on the sector, the semigroup (exact multiplier, or the trapezoid
rule on a hyperbola, its nodes solved in batches), and the
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
from .models import X_INDEPENDENT_RTOL
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
    "contour_semigroup",
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
    A broadcast row and a table built from its factors (a d = 1 stable symbol
    with x-dependent coefficients, :func:`symbols.tabulate`, and the parts of
    its :func:`symbols.cutoff_split`) are applied through those factors at
    error 0, with no cross approximation and no table formed.
    """
    if u.grid != s.grid:
        raise ValueError("grid mismatch between symbol and function")
    f, g = s.factors.f, s.factors.g
    return GridFunction(s.grid, _apply_factors(s.grid, f, g, u.coeffs).reshape(s.grid.shape))


def _apply_factors(grid, f: np.ndarray, g: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """``sum_r f_r * IFFT(g_r u_hat)`` scaled by M: the quantization of
    ``sum_r f_r(x) g_r(xi)`` (rows of shape (M,)) applied to the synthesis
    coefficients ``coeffs`` of shape ``batch + grid.shape``, as r inverse FFTs
    per function of the batch; returns the values, shape ``batch + (M,)``."""
    (r, M), batch = g.shape, coeffs.shape[:coeffs.ndim - grid.dimension]
    spectra = (g * coeffs.reshape(batch + (1, M))).reshape(batch + (r,) + grid.shape)
    return M * np.einsum("rk,...rk->...k", f, grid.ifft(spectra).reshape(batch + (r, M)))


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


_PROBE_ITERS = 4  # parametrix steps measured by the contraction probe


def parametrix_probe_contraction(a: SymbolGrid, R: float) -> float:
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
    for it, (_, residual) in zip(range(_PROBE_ITERS + 1), _parametrix_iterates(split, f_high)):
        norms.append(residual.norm_l2())
        if it and norms[-1] <= 1e-14 * norms[0]:
            break
    ratios = [norms[i + 1] / max(norms[i], 1e-300) for i in range(len(norms) - 1)]
    return max(ratios[1:]) if len(ratios) > 1 else ratios[0]


# ---------------------------------------------------------------------------
# resolvent
# ---------------------------------------------------------------------------


_MIN_DISTANCE = 1e-8  # closest approach of -lambda to the symbol range a solve accepts
_ANDERSON_DEPTH = 20  # steps of history the resolvent iteration mixes
_ANDERSON_RIDGE = 1e-12  # ridge of the mixing least squares, relative to the Gram trace


def _check_cap(maxit: int):
    if maxit < 1:
        raise ConfigError(f"iteration cap maxit={maxit} must be at least 1", field="maxit")


def _keep_history(hist: np.ndarray, keep: np.ndarray, filled: int) -> np.ndarray:
    """Rows ``keep`` of an Anderson history ``(shifts, depth, M)``, copying only
    its ``filled`` slots: the slots not yet written are never touched."""
    kept = np.empty((int(keep.sum()),) + hist.shape[1:], dtype=hist.dtype)
    kept[:, :filled] = hist[keep, :filled]
    return kept


def resolvent_apply(
    lam: complex | np.ndarray,
    a: SymbolGrid,
    v: GridFunction,
    tol: float | np.ndarray = 1e-10,
    maxit: int = 400,
) -> GridFunction | list:
    """Apply ``(lambda + a(x, D))^{-1}`` by a preconditioned fixed point.

    The preconditioner is the frozen-coefficient Fourier multiplier
    ``(lambda + a_bar(xi))^{-1}``, ``a_bar`` the x-mean of the table
    (:attr:`SymbolGrid.x_mean`).  The iteration runs on the synthesis
    coefficients: ``u_hat <- u_hat + r_hat / (lambda + a_bar)`` with the
    residual ``r = v - (lambda + a(x, D)) u`` (one application of the table's
    factors, as in :func:`apply_symbol`), accelerated by Anderson mixing over
    the last ``_ANDERSON_DEPTH`` steps.  The plain step alone diverges where
    the symbol's x-variation exceeds ``|lambda + a_bar|``, as for ``-lambda``
    near a strongly x-dependent range; mixing over one step then takes
    hundreds of steps or diverges as well, the longer history converges
    there in about 200.  The multiplier is exact for an x-independent symbol,
    so there the first residual check returns.  Stops at relative residual
    ``tol``.

    ``lam`` may be a 1-d array of shifts, solved as one batch: each iteration
    applies the factors to every shift still running in one call, each shift
    keeps its own Anderson weights and stops at its own ``tol`` (a scalar or
    one per shift), and the result is a list with one function per shift.

    Raises :class:`SpectralDistanceError` carrying the lattice point when
    ``-lambda`` lies within ``_MIN_DISTANCE`` of a table entry (or of
    ``a_bar``), :class:`ContractionError` when ``maxit`` steps do not reach
    ``tol`` (both name the shift that failed), and :class:`ConfigError`
    naming ``maxit`` when it is below one.
    """
    grid = a.grid
    if v.grid != grid:
        raise ValueError("grid mismatch")
    _check_cap(maxit)
    lams = np.atleast_1d(np.asarray(lam, dtype=complex))
    tols = np.broadcast_to(np.asarray(tol, dtype=float), lams.shape)
    # a -lambda farther than _MIN_DISTANCE from the range box along one axis is
    # that far from every entry: the exact pass over the table can be skipped
    lo, hi = a.range_box
    gap = np.max([lo.real + lams.real, -lams.real - hi.real,
                  lo.imag + lams.imag, -lams.imag - hi.imag], axis=0)
    for shift, near in zip(lams, gap < _MIN_DISTANCE):
        for table in (a.values, a.x_mean) if near else (a.x_mean,):
            dist = np.abs(table + shift)
            if dist.min() < _MIN_DISTANCE:
                raise SpectralDistanceError(
                    f"shift {shift} is within {dist.min():.2e} of the symbol range",
                    point=np.unravel_index(int(np.argmin(dist)), dist.shape),
                )
    lam_col = lams.reshape((-1,) + (1,) * grid.dimension)
    mult = 1.0 / (lam_col + a.x_mean)

    # relative residuals in coefficient space equal those of the values (Parseval)
    axes = tuple(range(1, 1 + grid.dimension))
    v_hat = v.coeffs
    v_norm = max(float(np.linalg.norm(v_hat)), 1e-300)
    out = np.empty(lams.shape + grid.shape, dtype=complex)
    live = np.arange(lams.size)  # shifts still iterating
    u_hat = mult * v_hat
    f, g, M = a.factors.f, a.factors.g, math.prod(grid.shape)
    # Anderson history, a ring of the last _ANDERSON_DEPTH steps: differences of
    # consecutive residuals and of consecutive plain updates, and the Gram
    # matrix of the residual differences; all live shifts have taken as many steps
    d_res = d_plain = gram = None
    for it in range(maxit):
        applied = grid.fft(_apply_factors(grid, f, g, u_hat).reshape(u_hat.shape)) / M
        r_hat = v_hat - lam_col[live] * u_hat - applied
        rel = np.sqrt(np.sum(r_hat.real**2 + r_hat.imag**2, axis=axes)) / v_norm
        if not np.isfinite(rel).all():  # diverged: the preconditioner does not contract there
            live, rel = live[~np.isfinite(rel)], rel[~np.isfinite(rel)]
            break
        done = rel <= tols[live]
        out[live[done]] = u_hat[done]
        if done.any():
            keep = ~done
            live, u_hat, r_hat, rel = live[keep], u_hat[keep], r_hat[keep], rel[keep]
            if it > 1:
                filled = min(it - 1, _ANDERSON_DEPTH)
                d_res, d_plain = (_keep_history(d, keep, filled) for d in (d_res, d_plain))
                gram = gram[keep]
            if it:
                res_prev, plain_prev = res_prev[keep], plain_prev[keep]
        if not live.size:
            break
        plain = u_hat + mult[live] * r_hat
        u_next = plain
        if it:
            # Anderson mixing, one set of weights per shift: the plain update less
            # the combination of plain-update differences whose residual
            # differences come closest to r in least squares
            if d_res is None:
                d_res = np.empty((live.size, _ANDERSON_DEPTH, M), dtype=complex)
                d_plain = np.empty_like(d_res)
                gram = np.zeros((live.size, _ANDERSON_DEPTH, _ANDERSON_DEPTH), dtype=complex)
            k, slot = min(it, _ANDERSON_DEPTH), (it - 1) % _ANDERSON_DEPTH
            d_res[:, slot] = (r_hat - res_prev).reshape(live.size, M)
            d_plain[:, slot] = (plain - plain_prev).reshape(live.size, M)
            col = np.einsum("bjk,bk->bj", d_res[:, :k], d_res[:, slot].conj()).conj()
            gram[:, :k, slot], gram[:, slot, :k] = col, col.conj()
            rhs = np.einsum("bjk,bk->bj", d_res[:, :k], r_hat.reshape(live.size, M).conj())
            # a relative ridge keeps the nearly dependent differences of a long
            # history solvable; any weights give an iterate whose residual is exact
            ridge = _ANDERSON_RIDGE * np.trace(gram[:, :k, :k], axis1=1, axis2=2).real + 1e-300
            system = gram[:, :k, :k] + ridge[:, None, None] * np.eye(k)
            gamma = np.linalg.solve(system, rhs.conj()[..., None])[..., 0]
            mix = np.einsum("bj,bjk->bk", gamma, d_plain[:, :k])
            u_next = plain - mix.reshape(plain.shape)
        res_prev, plain_prev, u_hat = r_hat, plain, u_next
    if live.size:
        worst = int(np.argmax(rel))
        raise ContractionError(
            f"resolvent iteration did not reach tol={tols[live[worst]]:.3g} within {maxit} "
            f"iterations (relative residual {rel[worst]:.2e} at lambda={lams[live[worst]]}; "
            f"{live.size} of {lams.size} shifts unconverged); the frozen-coefficient "
            "preconditioner contracts only while the symbol's x-variation stays below "
            "|lambda + its x-mean|: raise maxit or move lambda away from the symbol range"
        )
    solved = [GridFunction(grid, v) for v in grid.ifft(out) * M]
    return solved[0] if np.ndim(lam) == 0 else solved


# ---------------------------------------------------------------------------
# hyperbolic contour and semigroup
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContourSpec:
    """Trapezoid rule on the hyperbola ``z(s) = mu (1 + sin(i s - alpha))``.

    The hyperbola crosses the real axis at ``mu (1 - sin alpha) > 0`` and
    opens to the left with asymptotes at angles ``+-(pi/2 + alpha)``, around
    the spectrum of ``A = -a(x, D)``.  ``nodes`` are ``z(k h)`` for
    ``k = -n..n`` in order of k, so node ``n + k`` is the conjugate of node
    ``n - k``, and ``weights`` are ``h z'(k h) / (2 pi i)``.  ``residue_error``
    is the residue self-test ``|quad(e^{lambda t} / (lambda + 1)) - e^{-t}|``
    at the time the rule was built for, which :func:`build_contour` keeps
    below its ``residue_tol``.
    """

    alpha: float
    mu: float
    h: float
    nodes: np.ndarray
    weights: np.ndarray
    residue_error: float

    def quadrature(self, integrand) -> complex:
        """Sum ``weights * integrand(nodes)`` (integrand vectorized over nodes)."""
        return complex(np.sum(self.weights * integrand(self.nodes)))


def build_contour(
    alpha: float,
    mu: float,
    h: float,
    n: int,
    residue_tol: float = 1e-8,
    t_check: float = 1.0,
) -> ContourSpec:
    """Trapezoid rule with step ``h`` on the hyperbola of angle ``alpha`` and
    scale ``mu``, nodes ``s = k h`` for ``|k| <= n``; raises
    :class:`ContractionError` when the residue self-test
    ``quad(e^{lambda t}/(lambda+1)) = e^{-t}`` misses ``residue_tol`` at
    ``t_check``."""
    if not 0.0 < alpha < math.pi / 2.0:
        raise ValueError("hyperbola angle alpha must lie in (0, pi/2)")
    if mu <= 0 or h <= 0 or n < 1:
        raise ValueError("need mu > 0, h > 0 and n >= 1")
    s = h * np.arange(-n, n + 1)
    nodes = mu * (1.0 + np.sin(1j * s - alpha))
    weights = (h * mu / (2.0 * math.pi)) * np.cos(1j * s - alpha)  # h z'(s) / (2 pi i)
    val = np.sum(weights * np.exp(nodes * t_check) / (nodes + 1.0))
    err = abs(val - math.exp(-t_check))
    if err > residue_tol:
        raise ContractionError(
            f"contour quadrature failed the residue self-test at tol {residue_tol} "
            f"(error {err:.2e} at t={t_check:g})"
        )
    return ContourSpec(alpha, mu, h, nodes, weights, err)


def _hyperbola_params(alpha, theta: float):
    """``(n h, mu t / n, rate)`` of the trapezoid rule on the hyperbola of angle
    ``alpha`` (``theta / 2 < alpha < theta``) for a resolvent analytic on
    ``|arg lambda| < pi/2 + theta`` (Weideman & Trefethen, Math. Comp. 76,
    2007; Lopez-Fernandez, Palencia & Schaedle, SIAM J. Numer. Anal. 44, 2006).

    The integrand is analytic in the strip ``-alpha < Im s < theta - alpha``.
    Its two edges and the truncation at ``|s| = n h`` bound the error by
    ``e^{-2 pi (theta - alpha) / h}``, ``e^{mu t - 2 pi alpha / h}`` and
    ``e^{mu t (1 - sin(alpha) cosh(n h))}``; making the three equal gives
    ``cosh(n h) = alpha / ((2 alpha - theta) sin alpha)``,
    ``mu t = 2 pi n (2 alpha - theta) / (n h)`` and the error ``e^{-rate n}``
    with ``rate = 2 pi (theta - alpha) / (n h)``.
    """
    L = np.maximum(np.arccosh(np.maximum(alpha / ((2 * alpha - theta) * np.sin(alpha)), 1)), 1e-300)
    return L, 2.0 * math.pi * (2.0 * alpha - theta) / L, 2.0 * math.pi * (theta - alpha) / L


def _hyperbola_optimum(theta: float):
    """``(alpha, n h, mu t / n, rate)`` of :func:`_hyperbola_params` at the
    angle of fastest convergence (alpha = 1.1721 for theta = pi/2)."""
    alpha = np.linspace(theta / 2.0, theta, 2001)[1:-1]
    L, mu_t, rate = _hyperbola_params(alpha, theta)
    k = int(np.argmax(rate))
    return float(alpha[k]), float(L[k]), float(mu_t[k]), float(rate[k])


_MAX_NODE_PAIRS = 1024  # reached below theta ~ 0.04 at residue_tol 1e-8: barely sectorial
_BATCH_BYTES = 2**25  # iteration arrays of one batch of contour nodes


def contour_for_time(
    t: float, theta: float = math.pi / 2.0, residue_tol: float = 1e-8
) -> ContourSpec:
    """Hyperbola for time ``t`` on a symbol of sector angle ``theta``
    (:attr:`SymbolGrid.sector_angle`): the optimal angle, ``mu = c n / t`` and
    ``h = L / n`` of :func:`_hyperbola_optimum`, with the node count ``2 n + 1``
    set once from ``residue_tol`` by the convergence rate.  The rate bounds
    the error only up to a constant factor, which exceeds one when the strip
    edge meets the spectrum at ``lambda = 0`` (``theta = pi/2``); one more
    node pair covers it, so the residue self-test passes at every ``t``."""
    if not 0.0 < t < math.inf:
        raise ValueError(f"time t={t} must be positive and finite")
    if not 0.0 < theta <= math.pi / 2.0:
        raise ValueError("sector angle must lie in (0, pi/2]")
    alpha, L, mu_t, rate = _hyperbola_optimum(theta)
    n = math.ceil(math.log(1.0 / residue_tol) / rate) + 1
    if n > _MAX_NODE_PAIRS:
        raise ContractionError(
            f"sector angle theta={theta:.3g} is too narrow for contour quadrature: the "
            f"hyperbola would need {2 * n + 1} nodes to reach residue_tol={residue_tol:g}"
        )
    return build_contour(alpha, mu_t * n / t, L / n, n, residue_tol, t_check=t)


def semigroup_apply(t: float, a: SymbolGrid, u: GridFunction, tol: float = 1e-8) -> GridFunction:
    """Evaluate ``P_t u``: an x-independent table (:attr:`SymbolGrid.x_independent`)
    is the multiplier ``m = exp(-t a(xi))`` on the lattice, real when ``u`` is
    and ``m(-xi) = conj m(xi)`` to rounding (so the imaginary part it drops
    is at most ``eps |u|_2``, not the ``X_INDEPENDENT_RTOL`` asymmetry
    :attr:`SymbolGrid.real_operator` allows); any other table goes to
    :func:`contour_semigroup` at ``tol``.  A table of either form that is not
    sectorial is refused by :attr:`SymbolGrid.sector_angle`
    (:class:`EllipticityError`), and ``t`` must be positive and finite."""
    if not 0.0 < t < math.inf:
        raise ValueError(f"time t={t} must be positive and finite")
    a.sector_angle  # refuses a table that is not sectorial, of either form
    if not a.x_independent:
        return contour_semigroup(t, a, u, tol)
    mult = np.exp(-t * a.x_mean)
    mirror = (-np.arange(u.grid.n)) % u.grid.n  # -xi on the lattice, along each axis
    skew = np.abs(mult - mult[np.ix_(*[mirror] * a.dimension)].conj()).max()
    values = GridFunction.from_coeffs(u.grid, mult * u.coeffs).values
    real = skew <= np.finfo(float).eps and _is_real(u)
    return GridFunction(u.grid, values.real if real else values)


def _is_real(u: GridFunction) -> bool:
    return np.abs(u.values.imag).max() <= X_INDEPENDENT_RTOL * np.abs(u.values).max()


def contour_semigroup(t: float, a: SymbolGrid, u: GridFunction, tol: float = 1e-8) -> GridFunction:
    """Evaluate ``P_t u`` by contour quadrature of the resolvent.

    ``P_t u = (1/2 pi i) int_Gamma e^{lambda t} (lambda + a(x,D))^{-1} u dlambda``
    over the hyperbola ``contour_for_time(t, a.sector_angle, min(tol, 1e-8))``.
    The nodes are solved in batches (:func:`resolvent_apply`) whose iteration
    arrays take at most ``_BATCH_BYTES``, so memory does not grow with the
    node count.  Node k of K, weighted ``c_k = w_k e^{lambda_k t}``, is solved
    to the relative residual ``tol d_k / (K |c_k|)`` with
    ``d_k = min |lambda_k + a_bar|``: ``1 / d_k`` is the norm of the
    preconditioner standing in for the resolvent's, so each node adds at most
    ``tol / K`` to the sum's error, and the heavy nodes near the real axis,
    far from the spectrum, carry the tight tolerances (an x-independent
    table's solves return at their first residual check).  When the operator
    is real (:attr:`SymbolGrid.real_operator`) and ``u`` is real, only the
    nodes on or above the real axis are solved: ``R(conj lambda) u = conj(R(lambda) u)``.

    Sectoriality of the symbol is required: :attr:`SymbolGrid.sector_angle`
    raises :class:`EllipticityError` for a table that is not sectorial.
    """
    contour = contour_for_time(t, a.sector_angle, min(tol, 1e-8))
    lams, c = contour.nodes, contour.weights * np.exp(contour.nodes * t)
    real = a.real_operator and _is_real(u)
    if real:
        # the nodes below the real axis mirror those above: R(conj l) u = conj(R(l) u)
        n = len(lams) // 2
        lams, c = lams[n:], np.concatenate([c[n:n + 1], 2.0 * c[n + 1:]])
    # each shift of a batch holds about 2 r + 12 arrays of M complex values,
    # and its Anderson history two more per step kept
    per_shift = 16 * u.values.size * (2 * a.factors.g.shape[0] + 12 + 2 * _ANDERSON_DEPTH)
    step = max(1, _BATCH_BYTES // per_shift)
    values, a_bar = 0, a.x_mean.ravel()
    for k in range(0, lams.size, step):
        lam, ck = lams[k:k + step], c[k:k + step]
        dist = np.abs(lam[:, None] + a_bar).min(axis=1)
        solved = resolvent_apply(lam, a, u, tol=tol * dist / (lams.size * np.abs(ck)))
        values = values + np.tensordot(ck, [r.values for r in solved], axes=1)
    return GridFunction(u.grid, values.real if real else values)


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
    t_list = list(t_list)
    if len(t_list) < 4:
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
    pad = ("",) * len(columns)
    formats = {}  # the line format of each tuple of cell types
    with open(path, "w") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            cells = tuple(row) + pad[len(row) :]
            kinds = tuple(map(type, cells))
            line = formats.get(kinds)
            if line is None:
                cell = ("%.17g" if issubclass(k, float) else "%s" for k in kinds)
                line = formats[kinds] = ",".join(cell) + "\n"
            fh.write(line % cells)
