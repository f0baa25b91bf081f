"""Tabulated symbols, growth/hypoellipticity seminorms, cutoff splitting,
and the composition-defect probe.

A :class:`SymbolGrid` stores complex samples ``a(x_i, xi_k)`` on the product
of a torus grid and its frequency lattice, with axes ordered
``x-axes then xi-axes`` and frequencies in FFT order.  ``<xi>`` denotes the
bracket ``sqrt(1 + |xi|^2)`` throughout.  Every finite difference, seminorm
and witness works in that stored order: the periodic xi-stencils wrap across
the Nyquist seam, whose neighbourhood the seminorms mask, and a witness tie
goes to the first maximizer in ascending-xi order.
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
from .models import X_INDEPENDENT_RTOL, SdeModel, state_symbol
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


def _fd_axis(values: np.ndarray, axis: int, order: int, h: float) -> np.ndarray:
    """Centered periodic finite difference along one axis (the stencil wraps)."""
    if order == 0:
        return values
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
    return out


def _seminorm_table(sym: SymbolGrid, spec):
    """The table a seminorm differentiates, in stored order.

    For :class:`AClass` the symbol itself; for :class:`HypClass` its
    reciprocal, NaN where ``|s| < spec.floor``.  Raises
    :class:`EllipticityError` at the first stored lattice point where that
    happens inside the region ``|xi| >= spec.radius``.
    """
    if not isinstance(spec, HypClass):
        return sym.values
    low = np.abs(sym.values) < spec.floor
    bad = low & (sym.grid.xi_norm() >= spec.radius)
    if np.any(bad):
        raise EllipticityError(
            "symbol magnitude below floor inside the hypoelliptic region: "
            "ellipticity violated",
            point=np.unravel_index(int(np.argmax(bad)), bad.shape),
        )
    table = 1.0 / np.where(low, 1.0, sym.values)
    table[low] = np.nan
    return table


def _mixed_derivative(grid: TorusGrid, table: np.ndarray, alpha: tuple, beta: tuple):
    """FD derivative d_xi^alpha d_x^beta of a table in stored (FFT) order.

    Returns (derivative, validity mask over the xi-axes).  The xi-stencils
    wrap across the Nyquist seam (indices n/2 - 1, n/2), so each
    differentiated xi-axis masks the entries within a stencil's reach of it.
    """
    d = grid.dimension
    hx = grid.period / grid.n
    hxi = 1.0 / grid.length_factor
    half = grid.n // 2
    out = table
    for ax in range(d):
        out = _fd_axis(out, ax, beta[ax], hx)
    mask = np.ones(grid.shape, dtype=bool)
    for ax in range(d):
        out = _fd_axis(out, d + ax, alpha[ax], hxi)
        if alpha[ax]:
            reach = _FD_STENCILS[alpha[ax]][1]
            idx = [slice(None)] * d
            idx[ax] = slice(half - reach, half + reach)
            mask[tuple(idx)] = False
    return out, mask


def _seminorm_field(grid: TorusGrid, table: np.ndarray, spec, alpha: tuple, beta: tuple):
    """``|d_xi^alpha d_x^beta table| <xi>^w`` in stored order, -inf at the
    masked seam, outside ``|xi| >= radius`` and where not finite: the one
    array both :func:`seminorm` and :func:`recompute_witness` read."""
    deriv, valid = _mixed_derivative(grid, table, alpha, beta)
    mags = grid.xi_norm()
    m = spec.m if isinstance(spec, HypClass) else -spec.m
    field = np.abs(deriv) * np.sqrt(1.0 + mags**2) ** (spec.rho * sum(alpha) + m)
    keep = (mags >= getattr(spec, "radius", 0.0)) & valid & np.isfinite(field)
    return np.where(keep, field, -np.inf)


def _multi_indices(total_max: int, d: int):
    """All multi-indices of dimension d with |alpha| <= total_max, in
    lexicographic order."""
    return [a for a in itertools.product(range(total_max + 1), repeat=d) if sum(a) <= total_max]


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

    Derivatives act on the stored (FFT-order) table with the Nyquist seam
    masked.  The witness is the first (alpha, beta) attaining the supremum
    and its first maximizer in ascending-xi order, given (as the point of an
    :class:`EllipticityError`) in stored lattice indices.
    """
    grid = sym.grid
    d = grid.dimension
    if isinstance(spec, AClass) and spec.delta != 0.0:
        raise ValueError("x-weights (delta != 0) are not meaningful on the torus")

    work = _seminorm_table(sym, spec)
    alphas = [a for a in _multi_indices(spec.k1, d) if sum(a) >= spec.min_alpha]
    half = grid.n // 2

    best = -1.0
    best_witness = None
    for alpha in alphas:
        for beta in _multi_indices(spec.k2, d):
            field = _seminorm_field(grid, work, spec, alpha, beta)
            val = float(field.max())
            if val > best:
                best = val
                # ascending xi is the stored order rolled by n/2: the first
                # maximizer there keeps the tie rule of an ascending lattice
                rolled = np.roll(field, half, axis=tuple(range(d, 2 * d)))
                idx = np.unravel_index(int(np.argmax(rolled)), field.shape)
                xi_idx = tuple(int(i + half) % grid.n for i in idx[d:])
                best_witness = (idx[:d], xi_idx, alpha, beta)
    return SeminormReport(spec=spec, value=best, witness=best_witness)


def recompute_witness(sym: SymbolGrid, report: SeminormReport) -> float:
    """Re-evaluate the reported witness derivative at its stored lattice
    indices; reproduces ``report.value`` exactly, because it indexes the same
    weighted array :func:`seminorm` maximizes."""
    x_idx, xi_idx, alpha, beta = report.witness
    table = _seminorm_table(sym, report.spec)
    field = _seminorm_field(sym.grid, table, report.spec, alpha, beta)
    return float(field[tuple(x_idx) + tuple(xi_idx)])


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
    """Centered FD d_xi^alpha of a symbol table in stored order; the wrapped
    entries at the Nyquist seam lie far above the band the probe admits."""
    return _mixed_derivative(grid, sym_vals, alpha, (0,) * grid.dimension)[0]


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
