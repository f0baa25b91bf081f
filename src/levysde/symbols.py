"""Tabulated symbols, growth/hypoellipticity seminorms, cutoff splitting,
and the composition-defect probe.

A :class:`SymbolGrid` stores complex samples ``a(x_i, xi_k)`` on the product
of a torus grid and its frequency lattice, with axes ordered
``x-axes then xi-axes`` and frequencies in FFT order.  ``<xi>`` denotes the
bracket ``sqrt(1 + |xi|^2)`` throughout.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractionError, EllipticityError
from .grids import GridFunction, TorusGrid
from .measures import _FD_STENCILS
from .models import SdeModel, state_symbol
from .besov import raised_cosine_profile

__all__ = [
    "SymbolGrid",
    "LowRank",
    "tabulate",
    "AClass",
    "HypClass",
    "SeminormReport",
    "seminorm",
    "recompute_witness",
    "choose_R",
    "CutoffSplit",
    "cutoff_split",
    "composition_defect",
    "DefectReport",
]

X_INDEPENDENT_RTOL = 1e-13
FACTOR_RTOL = 1e-13  # max-norm truncation error of SymbolGrid.factors, relative to max|a|
_FACTOR_BLOCK = 1 << 16  # table entries per block of a residual pass (1 MB of complex)


@dataclass(frozen=True)
class LowRank:
    """Factors ``a(x, xi) ~ sum_r f[r](x) g[r](xi)`` over the flattened lattice
    (``f`` and ``g`` of shape (rank, M), M = n^d), with ``error`` the largest
    entry of ``|a - sum_r f[r] g[r]|`` over the whole table, relative to max|a|."""

    f: np.ndarray
    g: np.ndarray
    error: float

    @property
    def rank(self) -> int:
        return len(self.f)


def _cross_factors(table: np.ndarray, max_rank: int):
    """Adaptive cross approximation of an (M, M) table with full pivoting.

    Each step scans the whole residual ``table - F G`` for its largest entry,
    so the stopping test ``max|residual| <= FACTOR_RTOL * max|a|`` is exact,
    not sampled.  The residual is formed a block of rows at a time and never
    stored, so no table-sized array is allocated.  Returns a
    :class:`LowRank`, or None when ``max_rank`` crosses do not reach the
    tolerance.
    """
    M = len(table)
    rows = max(1, _FACTOR_BLOCK // M)
    f = np.zeros((0, M), dtype=complex)  # x-factors, one row per cross
    g = np.zeros((0, M), dtype=complex)  # xi-factors
    while True:
        peak, at = -1.0, (0, 0)
        for lo in range(0, M, rows):
            block = table[lo:lo + rows]
            if len(f):
                block = block - f[:, lo:lo + rows].T @ g
            mag = block.real**2 + block.imag**2
            k = int(np.argmax(mag))
            if mag.flat[k] > peak:
                peak, at = float(mag.flat[k]), (lo + k // M, k % M)
        err = math.sqrt(peak)
        if not len(f):
            scale = err
        if err <= FACTOR_RTOL * scale:
            return LowRank(f, g, err / scale if scale else 0.0)
        if len(f) == max_rank:
            return None
        i, j = at
        row = table[i] - f[:, i] @ g
        col = table[:, j] - f.T @ g[:, j]
        f = np.vstack([f, col / row[j]])
        g = np.vstack([g, row])


@dataclass(frozen=True)
class SymbolGrid:
    """Complex symbol samples on (space grid) x (frequency lattice).

    ``values`` has shape ``grid.shape + grid.shape`` (x-axes first), with
    xi-axes in FFT order.  ``order`` is the declared growth exponent.
    ``x_independent``, ``factors``, ``x_mean`` and ``range_box`` are derived
    from ``values`` on first use and cached.
    """

    grid: TorusGrid
    values: np.ndarray
    order: float

    CSV_COLUMNS = ("x_index", "xi_index", "re", "im")

    def __post_init__(self):
        expected = self.grid.shape + self.grid.shape
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != expected:
            raise ValueError(f"symbol values must have shape {expected}, got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("symbol values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def dimension(self) -> int:
        return self.grid.dimension

    @functools.cached_property
    def x_independent(self) -> bool:
        """True when every x-row equals the first to ``X_INDEPENDENT_RTOL`` of
        the largest magnitude: ``s(x, D)`` is then a Fourier multiplier."""
        ref = self.values[(0,) * self.dimension]
        scale = max(float(np.abs(self.values).max()), 1e-300)
        return bool(np.abs(self.values - ref).max() <= X_INDEPENDENT_RTOL * scale)

    @functools.cached_property
    def factors(self):
        """Low-rank factors of the table (:class:`LowRank`, built on first use
        by :func:`_cross_factors`), or None when the table does not compress
        to ``FACTOR_RTOL`` below the break-even rank ``M / (2 log2 M)``, where
        r inverse FFTs of size M cost about one dense (M x M) apply.

        A derived view: ``values`` stays the table every other reader uses.
        """
        M = math.prod(self.grid.shape)
        return _cross_factors(self.values.reshape(M, M), int(M / (2 * math.log2(M))))

    @functools.cached_property
    def x_mean(self) -> np.ndarray:
        """The frozen-coefficient symbol: the table's mean over x, shape ``grid.shape``."""
        return self.values.mean(axis=tuple(range(self.dimension)))

    @functools.cached_property
    def range_box(self) -> tuple:
        """Corners ``(lo, hi)`` of the smallest axis-parallel rectangle of the
        complex plane holding every table entry."""
        re, im = self.values.real, self.values.imag
        return complex(re.min(), im.min()), complex(re.max(), im.max())

    def shifted(self, lam: complex) -> "SymbolGrid":
        return SymbolGrid(self.grid, self.values + lam, self.order)

    def csv_rows(self):
        """(x-index, xi-index, Re, Im) rows over the flattened lattice."""
        m = int(np.prod(self.grid.shape))
        for i, row in enumerate(self.values.reshape(m, m)):
            yield from zip(itertools.repeat(i), range(m), row.real.tolist(), row.imag.tolist())

    def to_csv(self, path, header_comment: str = None):
        """Write :meth:`csv_rows` under ``CSV_COLUMNS`` with 17 significant digits."""
        from .operators import write_gauge_csv  # operators imports this module

        write_gauge_csv(path, self.csv_rows(), header_comment, self.CSV_COLUMNS)


def tabulate(model: SdeModel, grid: TorusGrid, shift: complex = 0.0) -> SymbolGrid:
    """Tabulate ``shift + a(x_i, xi_k)`` on the grid's product lattice."""
    if model.dimension != grid.dimension:
        raise ValueError("model and grid dimensions differ")
    if grid.dimension == 1:
        x = grid.x[:, None]
        xi = grid.xi[None, :]
        vals = state_symbol(model, x, xi)
    else:
        if grid.n > 32:
            raise ValueError("2-d symbol grids are capped at 32 points per axis")
        xx, yy = grid.x_mesh()
        kx, ky = grid.xi_mesh()
        xpts = np.stack([xx, yy], axis=-1).reshape(-1, 2)  # (Nx, 2)
        kpts = np.stack([kx, ky], axis=-1).reshape(-1, 2)  # (Nk, 2)
        vals = state_symbol(model, xpts[:, None, :], kpts[None, :, :])
        vals = vals.reshape(grid.shape + grid.shape)
    return SymbolGrid(grid, np.asarray(vals, dtype=complex) + shift, order=_declared_order(model))


def _declared_order(model: SdeModel) -> float:
    alpha = getattr(model.measure, "alpha", None)
    if alpha is None:
        alpha = getattr(getattr(model.measure, "base", None), "alpha", None)
    return float(alpha) if alpha is not None else 0.0


# ---------------------------------------------------------------------------
# finite differences on the product lattice
# ---------------------------------------------------------------------------

MAX_FD_ORDER = 4  # higher-order centered differences drown in rounding noise


def _fd_axis(values: np.ndarray, axis: int, order: int, h: float, periodic: bool):
    """Centered finite difference along one axis; returns (array, edge_reach).

    Periodic axes wrap; non-periodic axes are valid only ``edge_reach`` cells
    away from both ends (the caller masks them out).
    """
    if order == 0:
        return values, 0
    if order > MAX_FD_ORDER:
        raise ValueError(f"finite differences are limited to order {MAX_FD_ORDER}")
    coeffs, reach = _FD_STENCILS[order]
    out = np.zeros_like(values)
    src, dst = np.moveaxis(values, axis, 0), np.moveaxis(out, axis, 0)
    n = len(src)
    for c, off in zip(coeffs, range(-reach, reach + 1)):
        if c != 0.0:
            # dst[i] += c * src[(i + off) % n], in two slices instead of a rolled copy
            k = off % n
            dst[: n - k] += c * src[k:]
            dst[n - k:] += c * src[:k]
    out /= h**order
    return out, (0 if periodic else reach)


def _permute_xi(values: np.ndarray, order: np.ndarray) -> np.ndarray:
    """A symbol table with every xi-axis (the second half) permuted by ``order``."""
    d = values.ndim // 2
    for ax in range(d, 2 * d):
        values = np.take(values, order, axis=ax)
    return values


def _seminorm_table(sym: SymbolGrid, spec):
    """The table a seminorm differentiates, xi-axes sorted ascending.

    For :class:`AClass` the symbol itself; for :class:`HypClass` its
    reciprocal, NaN where ``|s| < spec.floor``.  Returns (table, sub-floor
    mask or None).
    """
    base = _permute_xi(sym.values, np.argsort(sym.grid.xi))
    if not isinstance(spec, HypClass):
        return base, None
    low = np.abs(base) < spec.floor
    table = 1.0 / np.where(low, 1.0, base)
    table[low] = np.nan
    return table, low


def _weight_exponent(spec, n_alpha: int) -> float:
    """Power of ``<xi>`` weighting a derivative of total xi-order ``n_alpha``."""
    m = spec.m if isinstance(spec, HypClass) else -spec.m
    return spec.rho * n_alpha + m


def _mixed_derivative(grid: TorusGrid, table: np.ndarray, alpha: tuple, beta: tuple):
    """FD derivative d_xi^alpha d_x^beta of a table with xi-axes sorted ascending.

    Returns (derivative array in xi-sorted order, validity mask over xi-axes).
    """
    d = grid.dimension
    hx = grid.period / grid.n
    hxi = 1.0 / grid.length_factor
    out = table
    edge = [0] * d
    for ax in range(d):
        out, _ = _fd_axis(out, ax, beta[ax], hx, periodic=True)
    for ax in range(d):
        out, reach = _fd_axis(out, d + ax, alpha[ax], hxi, periodic=False)
        edge[ax] = reach
    mask = np.ones(grid.shape, dtype=bool)
    for ax in range(d):
        idx = [slice(None)] * d
        if edge[ax] > 0:
            idx[ax] = slice(0, edge[ax])
            mask[tuple(idx)] = False
            idx[ax] = slice(-edge[ax], None)
            mask[tuple(idx)] = False
    return out, mask


def _multi_indices(total_max: int, d: int):
    """All multi-indices of dimension d with |alpha| <= total_max."""
    if d == 1:
        return [(o,) for o in range(total_max + 1)]
    return [
        (i, j) for i in range(total_max + 1) for j in range(total_max + 1 - i)
    ]


# ---------------------------------------------------------------------------
# seminorms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AClass:
    """Growth class A(m, k1, k2; rho, delta): weights <xi>^{rho |alpha| - m}.

    ``min_alpha = 1`` gives the shift-robust variant whose value ignores the
    zeroth xi-derivative (and hence any constant added to the symbol).
    """

    m: float
    k1: int
    k2: int
    rho: float = 1.0
    delta: float = 0.0
    min_alpha: int = 0


@dataclass(frozen=True)
class HypClass:
    """Hypoellipticity class Hyp(m, k1, k2; rho): derivatives of 1/a weighted
    by <xi>^{m + rho |alpha|}, restricted to |xi| >= radius."""

    m: float
    k1: int
    k2: int
    rho: float = 1.0
    radius: float = 4.0
    floor: float = 1e-12
    min_alpha: int = 0  # set to 1 for the lambda-robust (first-derivative) variant


@dataclass(frozen=True)
class SeminormReport:
    spec: object
    value: float
    witness: tuple  # (x_multi_index, xi_multi_index, alpha, beta)

    def to_dict(self) -> dict:
        x_idx, xi_idx, alpha, beta = self.witness
        return {
            "class": type(self.spec).__name__,
            "spec": {k: getattr(self.spec, k) for k in self.spec.__dataclass_fields__},
            "value": self.value,
            "witness": {
                "x_index": [int(i) for i in x_idx],
                "xi_index": [int(i) for i in xi_idx],
                "alpha": [int(a) for a in alpha],
                "beta": [int(b) for b in beta],
            },
        }


def seminorm(sym: SymbolGrid, spec) -> SeminormReport:
    """Supremum seminorm of a tabulated symbol with FD derivatives.

    For :class:`AClass` the supremum runs over ``|d_xi^a d_x^b s| <xi>^{rho|a|-m}``;
    for :class:`HypClass` over ``|d_xi^a d_x^b (1/s)| <xi>^{m+rho|a|}`` on the
    region ``|xi| >= radius``.  Torus x-weights are unsupported (delta = 0).
    """
    grid = sym.grid
    d = grid.dimension
    if isinstance(spec, AClass) and spec.delta != 0.0:
        raise ValueError("x-weights (delta != 0) are not meaningful on the torus")

    order_xi = np.argsort(grid.xi)
    work, low = _seminorm_table(sym, spec)
    radius = spec.radius if isinstance(spec, HypClass) else 0.0
    region, bracket = _hyp_region(grid, order_xi, radius)
    if low is not None and np.any(low & region):
        flat = int(np.argmax((low & region).ravel()))
        raise EllipticityError(
            "symbol magnitude below floor inside the hypoelliptic region: "
            "ellipticity violated",
            point=np.unravel_index(flat, low.shape),
        )
    alphas = [a for a in _multi_indices(spec.k1, d) if sum(a) >= spec.min_alpha]

    best = -1.0
    best_witness = None
    for alpha in alphas:
        for beta in _multi_indices(spec.k2, d):
            deriv, valid = _mixed_derivative(grid, work, alpha, beta)
            w = bracket ** _weight_exponent(spec, sum(alpha))
            field = np.abs(deriv) * w
            field = np.where(region & valid & np.isfinite(field), field, -np.inf)
            val = float(field.ravel()[np.argmax(field)])
            if val > best:
                best = val
                idx = np.unravel_index(int(np.argmax(field)), field.shape)
                x_idx = idx[:d]
                xi_idx_sorted = idx[d:]
                xi_idx = tuple(int(order_xi[i]) for i in xi_idx_sorted)
                best_witness = (x_idx, xi_idx, alpha, beta)
    return SeminormReport(spec=spec, value=best, witness=best_witness)


def _hyp_region(grid: TorusGrid, order_xi, radius: float):
    """(region mask, bracket array) over the product lattice, xi-sorted axes."""
    d = grid.dimension
    xi_sorted = grid.xi[order_xi]
    if d == 1:
        mags = np.abs(xi_sorted)[None, :]
    else:
        kx, ky = np.meshgrid(xi_sorted, xi_sorted, indexing="ij")
        mags = np.hypot(kx, ky)[None, None, :, :]
    region = np.broadcast_to(mags >= radius, grid.shape + grid.shape)
    bracket = np.sqrt(1.0 + mags**2)
    return region, np.broadcast_to(bracket, grid.shape + grid.shape)


def recompute_witness(sym: SymbolGrid, report: SeminormReport) -> float:
    """Re-evaluate the reported witness derivative; must reproduce the value."""
    x_idx, xi_idx, alpha, beta = report.witness
    spec = report.spec
    grid = sym.grid
    d = grid.dimension
    inv_order = np.argsort(np.argsort(grid.xi))
    weight_exp = _weight_exponent(spec, sum(alpha))
    deriv, _ = _mixed_derivative(grid, _seminorm_table(sym, spec)[0], alpha, beta)
    xi_idx_sorted = tuple(int(inv_order[i]) for i in xi_idx)
    loc = tuple(x_idx) + xi_idx_sorted
    if d == 1:
        mag = abs(grid.xi[xi_idx[0]])
    else:
        mag = math.hypot(grid.xi[xi_idx[0]], grid.xi[xi_idx[1]])
    return float(abs(deriv[loc]) * (1.0 + mag**2) ** (weight_exp / 2.0))


# ---------------------------------------------------------------------------
# cutoff radius selection and splitting
# ---------------------------------------------------------------------------


def choose_R(
    a: SymbolGrid,
    kappa: float,
    hyp_radius: float = 4.0,
    probe_contraction: bool = True,
    contraction_cap: float = 5.0 / 6.0,
) -> float:
    """Select the dyadic cutoff radius for the parametrix splitting.

    Three gates, in order:

    1. *ellipticity of declared order*: the normalized profile
       ``min_x |a| <xi>^{-kappa}`` over the outer dyadic rings must stay flat
       within a factor ``2^kappa`` (a bounded symbol declared order kappa > 0
       decays by ``2^kappa`` per ring and fails);
    2. *seminorm floor*: R at least the product of the first-derivative
       growth seminorm and the first-derivative hypoellipticity seminorm
       (both computed from the lattice; constants of the underlying theory
       are not representable at desk scale, so first-order norms set the
       floor and gate 3 guarantees the operative property);
    3. *measured contraction*: the parametrix fixed point on a band-limited
       probe must contract with factor < ``contraction_cap``; R doubles until
       it does.

    Raises :class:`EllipticityError` when gate 1 fails and
    :class:`ContractionError` when no admissible R below the Nyquist bound
    satisfies gate 3 (grid too coarse for this symbol).
    """
    grid = a.grid
    xi_max = float(grid.xi_norm().max())
    mags = grid.xi_norm()
    absa = np.abs(a.values)
    d = grid.dimension
    # gate 1: ring-wise ellipticity profile on the outer three octaves
    # (a bounded symbol declared order kappa decays by 2^kappa per ring)
    profiles = []
    ring_hi = xi_max
    while ring_hi > xi_max / 8.0:
        ring_lo = ring_hi / 2.0
        ring = (mags > ring_lo) & (mags <= ring_hi)
        if ring.any():
            sel = absa[(slice(None),) * d + (ring,)]
            brk = np.sqrt(1.0 + mags[ring] ** 2)
            profiles.append(float((sel / brk**kappa).min()))
        ring_hi = ring_lo
    if not profiles or min(profiles) <= 0:
        raise EllipticityError("symbol vanishes on the outer lattice")
    if max(profiles) / min(profiles) > 2.0**kappa:
        raise EllipticityError(
            f"symbol is not elliptic of order {kappa} on the outer lattice: "
            f"ring profile varies by {max(profiles) / min(profiles):.3g}"
        )

    na1 = seminorm(a, AClass(m=kappa, k1=1, k2=1, min_alpha=1)).value
    nh1 = seminorm(
        a, HypClass(m=kappa, k1=1, k2=0, radius=min(hyp_radius, xi_max / 4.0))
    ).value
    floor = na1 * nh1
    r_cand = 1.0
    while r_cand < floor:
        r_cand *= 2.0
    r_limit = xi_max / 4.0  # leave a plateau {chi=1} below Nyquist
    if r_cand > r_limit:
        raise ContractionError(
            f"no admissible cutoff radius below the Nyquist bound "
            f"(need R >= {floor:.3g}, limit {r_limit:.3g}): grid too coarse"
        )
    if not probe_contraction:
        return r_cand

    from .operators import parametrix_probe_contraction  # local import; no cycle

    while r_cand <= r_limit:
        rate = parametrix_probe_contraction(a, r_cand)
        if rate < contraction_cap:
            return r_cand
        r_cand *= 2.0
    raise ContractionError(
        "parametrix iteration does not contract for any dyadic R below the "
        "Nyquist bound: grid too coarse for this symbol"
    )


@dataclass(frozen=True)
class CutoffSplit:
    """High/low frequency splitting of a symbol at cutoff radius R.

    ``p_high + b_low = a`` pointwise; ``q * a = chi`` wherever ``chi > 0``;
    ``b_low`` is supported in ``{|xi| <= 2R}``.
    """

    R: float
    chi: np.ndarray  # cutoff window on the frequency lattice
    p_high: SymbolGrid
    b_low: SymbolGrid
    q: SymbolGrid


def cutoff_split(a: SymbolGrid, R: float) -> CutoffSplit:
    """Split ``a`` as ``a chi_R + a (1 - chi_R)`` with the parametrix ``chi_R / a``.

    ``chi_R`` vanishes for ``|xi| <= R``, equals one for ``|xi| >= 2R``, with a
    raised-cosine transition (the same profile as the dyadic blocks).
    """
    grid = a.grid
    mags = grid.xi_norm()
    chi = 1.0 - raised_cosine_profile(mags / R)
    supported = chi > 0.0
    bad = supported & (np.min(np.abs(a.values), axis=tuple(range(grid.dimension))) == 0.0)
    if np.any(bad):
        flat = int(np.argmax(bad))
        raise EllipticityError(
            "symbol vanishes inside the cutoff support; parametrix undefined",
            point=np.unravel_index(flat, bad.shape),
        )
    p_high = SymbolGrid(grid, a.values * chi, a.order)
    b_low = SymbolGrid(grid, a.values * (1.0 - chi), a.order)
    qvals = np.where(supported, chi / np.where(supported, a.values, 1.0), 0.0)
    q = SymbolGrid(grid, qvals, -a.order)
    return CutoffSplit(R=float(R), chi=chi, p_high=p_high, b_low=b_low, q=q)


# ---------------------------------------------------------------------------
# composition defect
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DefectReport:
    defect_l2: float
    input_l2: float
    mode_frequency: float  # dominant |xi| of single-mode inputs, else nan

    @property
    def relative(self) -> float:
        return self.defect_l2 / max(self.input_l2, 1e-300)


def _x_spectral_derivative(sym_vals: np.ndarray, grid: TorusGrid, beta: tuple):
    """D_x^beta = (-i d_x)^beta of a symbol table, exact via FFT along x-axes.

    With the synthesis convention, D_x^beta multiplies the x-spectrum by
    ``k^beta`` (real), so smooth periodic coefficients differentiate exactly.
    """
    d = grid.dimension
    out = sym_vals
    for ax in range(d):
        if beta[ax] == 0:
            continue
        spec = np.fft.fft(out, axis=ax)
        shape = [1] * out.ndim
        shape[ax] = grid.n
        k = grid.xi.reshape(shape)
        spec = spec * k**beta[ax]
        out = np.fft.ifft(spec, axis=ax)
    return out


def _xi_fd_derivative(sym_vals: np.ndarray, grid: TorusGrid, alpha: tuple):
    """Centered FD d_xi^alpha of a symbol table along the xi-axes (FFT order)."""
    if not any(alpha):
        return sym_vals
    d = grid.dimension
    order_xi = np.argsort(grid.xi)
    out = _permute_xi(sym_vals, order_xi)
    h = 1.0 / grid.length_factor
    for ax in range(d):
        out, _ = _fd_axis(out, d + ax, alpha[ax], h, periodic=False)
    return _permute_xi(out, np.argsort(order_xi))


def composition_defect(a1: SymbolGrid, a2: SymbolGrid, u: GridFunction, order: int):
    """Defect of the asymptotic composition expansion at the given order.

        defect = a1(x,D) a2(x,D) u  -  op( sum_{|alpha| <= order}
                 (1/alpha!) d_xi^alpha a1 * D_x^alpha a2 ) u

    ``u`` must be band-limited below a quarter of the Nyquist frequency so
    the FD symbol derivatives are clean where the input lives.
    """
    from .operators import apply_symbol  # local import; no cycle

    grid = a1.grid
    if a2.grid != grid or u.grid != grid:
        raise ValueError("grid mismatch")
    mags = grid.xi_norm()
    tail = np.abs(u.coeffs)[mags > grid.xi_nyquist / 4.0]
    if tail.size and tail.max() > 1e-10 * max(np.abs(u.coeffs).max(), 1e-300):
        raise ValueError("input must be band-limited below Nyquist/4")

    lhs = apply_symbol(a1, apply_symbol(a2, u))
    d = grid.dimension
    comp = None
    for alpha in _multi_indices(order, d):
        term = _xi_fd_derivative(a1.values, grid, alpha) * _x_spectral_derivative(
            a2.values, grid, alpha
        )
        term /= math.prod(math.factorial(o) for o in alpha)
        if comp is None:
            comp = term
        else:
            comp += term
    rhs = apply_symbol(SymbolGrid(grid, comp, a1.order + a2.order), u)
    defect = lhs - rhs

    coeffs = np.abs(u.coeffs)
    dom = float(mags.ravel()[int(np.argmax(coeffs.ravel()))])
    single = coeffs.max() > 0 and (np.sort(coeffs.ravel())[-2] <= 1e-9 * coeffs.max())
    report = DefectReport(
        defect_l2=defect.norm_l2(),
        input_l2=u.norm_l2(),
        mode_frequency=dom if single else float("nan"),
    )
    return defect, report
