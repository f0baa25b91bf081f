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
from .measures import _FD_STENCILS, StableMeasure, levy_exponent
from .models import X_INDEPENDENT_RTOL, SdeModel, constant_value, state_symbol
from .besov import raised_cosine_profile

__all__ = [
    "SymbolGrid",
    "SectorReport",
    "LowRank",
    "tabulate",
    "AClass",
    "HypClass",
    "SeminormReport",
    "seminorm",
    "choose_R",
    "CutoffSplit",
    "cutoff_split",
    "composition_defect",
    "DefectReport",
]

FACTOR_RTOL = 1e-13  # max-norm truncation error of SymbolGrid.factors, relative to max|a|
_FINITE_BOUND = np.finfo(float).max / 16  # factor-product bound that keeps a formed table finite
_FACTOR_BLOCK = 1 << 16  # table entries per block of a residual pass (1 MB of complex)


@dataclass(frozen=True)
class LowRank:
    """Factors ``a(x, xi) ~ sum_r f[r](x) g[r](xi)`` over the flattened lattice
    (``f`` and ``g`` of shape (rank, M), M = n^d), with ``error`` the largest
    entry of ``|a - sum_r f[r] g[r]|`` over the whole table, relative to max|a|.

    ``error`` is 0 for a table built from its factors (a broadcast row, and
    :meth:`SymbolGrid.from_factors`, which :func:`tabulate` uses for a d = 1
    stable symbol with x-dependent coefficients and :func:`cutoff_split` for
    the parts of such a symbol): such a table is by construction the rounded
    sum of its factors' products, and is kept as these rows until a reader
    asks for its entries."""

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
    stored, so no table-sized array is allocated.  When ``max_rank`` crosses
    do not reach the tolerance, the result is the exact trivial split: unit
    rows ``f = I`` and the table's rows ``g``, rank M and error 0.
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
            return LowRank(np.eye(M), table, 0.0)
        i, j = at
        row = table[i] - f[:, i] @ g
        col = table[:, j] - f.T @ g[:, j]
        f = np.vstack([f, col / row[j]])
        g = np.vstack([g, row])


@dataclass(frozen=True)
class SectorReport:
    """The sector decision :attr:`SymbolGrid.sector`; ``witness`` holds stored
    lattice indices, x-axes then xi-axes."""

    ratio_sup: float
    is_sectorial: bool
    witness: tuple

    @property
    def theta(self) -> float:
        """Half-angle of the symbol's spectral sector, arctan(1 / ratio_sup)."""
        return math.atan(1.0 / max(self.ratio_sup, 1e-300))


class SymbolGrid:
    """Complex symbol samples on (space grid) x (frequency lattice).

    ``values`` has shape ``grid.shape + grid.shape`` (x-axes first), with
    xi-axes in FFT order.  ``order`` is the declared growth exponent.
    ``values`` may be a read-only broadcast row, whose x-axes have stride 0:
    :func:`tabulate` builds that form from constant coefficients, and
    :attr:`x_independent` reads it off the strides.  A table built by
    :meth:`from_factors` keeps its factor rows and forms ``values`` on the
    first read.  ``factors``, ``x_mean``, ``range_box``, ``sector``,
    ``sector_angle`` and ``real_operator`` are derived from the distinct
    entries on first use and cached.
    """

    CSV_COLUMNS = ("x_index", "xi_index", "re", "im")

    def __init__(self, grid: TorusGrid, values: np.ndarray, order: float):
        expected = grid.shape + grid.shape
        vals = np.asarray(values, dtype=complex)
        if vals.shape != expected:
            raise ValueError(f"symbol values must have shape {expected}, got {vals.shape}")
        self.grid, self.order, self._split = grid, order, None
        self.values = vals  # shadows the cached property: a given table is never formed
        if not np.all(np.isfinite(self._distinct)):
            raise ValueError("symbol values must be finite")

    @classmethod
    def from_factors(cls, grid: TorusGrid, f: np.ndarray, g: np.ndarray, order: float):
        """The table ``sum_r f[r](x) g[r](xi)`` of the complex factor rows ``f``
        and ``g`` (shape (rank, M), M = n^d), kept as these rows: ``factors``
        are them at error 0, since the table is their rounded product by
        construction, so no cross approximation runs on it, and ``values`` is
        formed on its first read.  The table is finite when
        ``sum_r max|f[r]| max|g[r]|`` lies below ``_FINITE_BOUND`` (NaN or inf
        rows fail that); otherwise it is formed and checked entry by entry."""
        sym = cls.__new__(cls)
        sym.grid, sym.order, sym._split = grid, order, LowRank(f, g, 0.0)
        bound = float(np.sum(np.abs(f).max(axis=1) * np.abs(g).max(axis=1)))
        if not bound < _FINITE_BOUND and not np.all(np.isfinite(sym.values)):
            raise ValueError("symbol values must be finite")
        return sym

    @functools.cached_property
    def values(self) -> np.ndarray:
        """The table of a :meth:`from_factors` symbol, formed entry by entry
        from its factor rows (one ``einsum``, no other table-sized array)."""
        split = self._split
        return np.einsum("ri,rk->ik", split.f, split.g).reshape(self.grid.shape + self.grid.shape)

    @property
    def dimension(self) -> int:
        return self.grid.dimension

    @property
    def _distinct(self) -> np.ndarray:
        """The distinct entries: the one row of a broadcast table (its x-axes
        cut to length 1), else the table itself.  They are the table's
        entries in stored order, so every whole-table pass reads this view
        and finds the same extremes and the same first witness."""
        return self.values[(slice(None, 1),) * self.dimension] if self.x_independent else self.values

    @property
    def x_independent(self) -> bool:
        """True when ``values`` is a broadcast row (every x-stride is 0), so
        ``s(x, D)`` is the Fourier multiplier of that row by construction.
        A table kept as factor rows is not one, and is not formed to say so."""
        return self._split is None and not any(self.values.strides[:self.dimension])

    @functools.cached_property
    def factors(self) -> LowRank:
        """Low-rank factors of the table (:class:`LowRank`, built on first use).
        A table built by :meth:`from_factors` returns its factor rows, at
        error 0.  A broadcast row takes the exact rank-1 split ``f = 1``,
        ``g = row`` (rank 0 when the row is zero); any other table goes to
        :func:`_cross_factors`.  A table that does not compress to
        ``FACTOR_RTOL`` below the break-even rank ``M / (2 log2 M)``, where r
        inverse FFTs of size M cost about one dense (M x M) apply, gets the
        exact trivial split (unit rows times table rows, rank M).

        A derived view: ``values`` stays the table every other reader uses.
        """
        if self._split is not None:
            return self._split
        M = math.prod(self.grid.shape)
        if self.x_independent:
            row = self._distinct.reshape(1, M)
            rank = int(np.any(row))
            return LowRank(np.ones((rank, M), dtype=complex), row[:rank], 0.0)
        return _cross_factors(self.values.reshape(M, M), int(M / (2 * math.log2(M))))

    @functools.cached_property
    def x_mean(self) -> np.ndarray:
        """The frozen-coefficient symbol: the table's mean over x, shape
        ``grid.shape`` (the row itself for a broadcast table)."""
        return self._distinct.mean(axis=tuple(range(self.dimension)))

    @functools.cached_property
    def range_box(self) -> tuple:
        """Corners ``(lo, hi)`` of the smallest axis-parallel rectangle of the
        complex plane holding every table entry."""
        re, im = self._distinct.real, self._distinct.imag
        return complex(re.min(), im.min()), complex(re.max(), im.max())

    @functools.cached_property
    def sector(self) -> SectorReport:
        """The sector decision on the table, the only one in the package.

        With ``tol = 1e-10 max(max|a|, 1)``, an entry violates the sector
        condition when ``Re a < -tol``, or when ``Re a <= tol`` while
        ``|Im a| > tol``.  ``ratio_sup`` is the largest
        ``|Im a| / max(Re a, 1e-300)``; the witness is the first violating
        entry in stored order, else the ratio maximiser.  A violation with
        ``Re a >= -tol`` has a ratio above 1, so the mask is built only when
        ``ratio_sup > 1`` or the smallest real part lies below ``-tol``."""
        vals = self._distinct
        re, im = vals.real, vals.imag
        tol = 1e-10 * max(float(np.abs(vals).max()), 1.0)
        ratio = np.abs(im) / np.maximum(re, 1e-300)
        at = int(np.argmax(ratio))
        ratio_sup, ok = float(ratio.flat[at]), True
        if ratio_sup > 1.0 or float(re.min()) < -tol:
            bad = (re < -tol) | ((re <= tol) & (np.abs(im) > tol))
            if bad.any():
                at, ok = int(np.argmax(bad)), False
        witness = tuple(int(i) for i in np.unravel_index(at, vals.shape))
        return SectorReport(ratio_sup, ok, witness)

    @functools.cached_property
    def sector_angle(self) -> float:
        """Sector angle ``theta = arctan(1 / ratio_sup)`` of the table
        (:attr:`sector`): every entry lies in ``|arg z| <= pi/2 - theta``, so
        ``-lambda`` avoids them all on ``|arg lambda| < pi/2 + theta``.
        Raises :class:`EllipticityError` at the witness when the table is not
        sectorial."""
        rep = self.sector
        if not rep.is_sectorial:
            negative = self.values[rep.witness].real < 0
            why = "negative real part" if negative else "an entry on the imaginary axis"
            raise EllipticityError(f"symbol has {why}: not sectorial", point=rep.witness)
        return rep.theta

    @functools.cached_property
    def real_operator(self) -> bool:
        """True when ``s(x, D)`` maps real functions to real functions:
        ``a(x, -xi) = conj a(x, xi)`` to ``X_INDEPENDENT_RTOL`` of max|a|, with
        ``-xi`` taken on the lattice, so the unpaired Nyquist entries must be
        real (a drift ``-i b xi`` is not).

        Compared by slices, no mirrored copy: along each xi-axis index 0 pairs
        with itself and ``1:`` with ``:0:-1``; along the last one the pairs
        ``(k, n - k)`` with ``k <= n/2`` suffice, since both orders of a pair
        give the same ``|a - conj b|``."""
        vals = self._distinct
        h = self.grid.n // 2
        whole = ((0, 0), (slice(1, None), slice(None, 0, -1)))
        half = ((0, 0), (slice(1, h + 1), slice(None, h - 1, -1)))
        blocks = itertools.product(*[whole] * (self.dimension - 1), half)
        err = max(
            float(np.abs(vals[(Ellipsis,) + a] - vals[(Ellipsis,) + b].conj()).max())
            for a, b in (zip(*c) for c in blocks)
        )
        scale = max(float(np.abs(vals).max()), 1e-300)
        return err <= X_INDEPENDENT_RTOL * scale

    def csv_rows(self):
        """(x-index, xi-index, Re, Im) rows over the flattened lattice."""
        m = int(np.prod(self.grid.shape))
        for i, row in enumerate(self.values.reshape(m, m)):
            yield from zip(itertools.repeat(i), range(m), row.real.tolist(), row.imag.tolist())

    def to_csv(self, path, header_comment: str = None):
        """Write :meth:`csv_rows` under ``CSV_COLUMNS`` with 17 significant digits."""
        from .operators import write_gauge_csv  # operators imports this module

        write_gauge_csv(path, self.csv_rows(), header_comment, self.CSV_COLUMNS)


def tabulate(model: SdeModel, grid: TorusGrid) -> SymbolGrid:
    """Tabulate ``a(x_i, xi_k)`` on the grid's product lattice.

    When ``sigma`` and ``b`` are constant on the grid
    (:func:`models.constant_value`), the symbol is evaluated at the first
    grid point only and ``values`` is that row broadcast over x, a read-only
    view (:attr:`SymbolGrid.x_independent`).  Otherwise a d = 1 stable
    symbol is built from its exact split
    ``psi(sigma(x) xi) - i b(x) xi = |sigma(x)|^alpha psi(xi) - i b(x) xi``
    (:meth:`SymbolGrid.from_factors`: rank 1, or 2 with a drift, error 0);
    its imaginary part is ``-b xi`` as :func:`models.state_symbol` rounds it,
    its real part within a few ulps of ``psi`` at ``sigma xi``.  Every other
    symbol is :func:`models.state_symbol` at every lattice point."""
    if model.dimension != grid.dimension:
        raise ValueError("model and grid dimensions differ")
    if grid.dimension == 1:
        x, xi = grid.x, grid.xi
    else:
        if grid.n > 32:
            raise ValueError("2-d symbol grids are capped at 32 points per axis")
        x = np.stack(grid.x_mesh(), axis=-1).reshape(-1, 2)  # (M, 2)
        xi = np.stack(grid.xi_mesh(), axis=-1).reshape(-1, 2)
    shape, order = grid.shape + grid.shape, _declared_order(model)
    if constant_value(model.sigma, x) is not None and constant_value(model.drift, x) is not None:
        # complex before broadcasting, so that SymbolGrid keeps the view
        row = np.asarray(state_symbol(model, x[:1], xi), dtype=complex)
        return SymbolGrid(grid, np.broadcast_to(row.reshape(grid.shape), shape), order)
    if grid.dimension == 1 and isinstance(model.measure, StableMeasure):
        # psi(s xi) = |s|^alpha psi(xi) for the symmetric stable exponent
        f = [np.abs(model.sigma_at(x)) ** model.measure.alpha]
        g = [levy_exponent(model.measure, xi)]
        drift = np.broadcast_to(model.drift_at(x), x.shape)
        if drift.any():
            f.append(drift)
            g.append(-1j * xi)
        return SymbolGrid.from_factors(grid, np.array(f, dtype=complex),
                                       np.array(g, dtype=complex), order)
    return SymbolGrid(grid, state_symbol(model, x[:, None], xi[None]).reshape(shape), order)


def _declared_order(model: SdeModel) -> float:
    return float(model.measure.alpha) if isinstance(model.measure, StableMeasure) else 0.0


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
    masked seam, outside ``|xi| >= radius`` and where not finite: the array
    :func:`seminorm` maximizes, so its reported value is this array at the
    witness."""
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


# ---------------------------------------------------------------------------
# cutoff radius selection and splitting
# ---------------------------------------------------------------------------


_HYP_RADIUS = 4.0  # inner radius of the hypoellipticity seminorm behind the floor
_CONTRACTION_CAP = 5.0 / 6.0  # largest parametrix contraction choose_R accepts


def choose_R(a: SymbolGrid, kappa: float) -> float:
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
       probe must contract with factor < ``_CONTRACTION_CAP``; R doubles until
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
        a, HypClass(m=kappa, k1=1, k2=0, radius=min(_HYP_RADIUS, xi_max / 4.0))
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

    from .operators import parametrix_probe_contraction  # local import; no cycle

    while r_cand <= r_limit:
        rate = parametrix_probe_contraction(a, r_cand)
        if rate < _CONTRACTION_CAP:
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
    ``b_low`` is supported in ``{|xi| <= 2R}``.  For a symbol whose factors
    its form gives exactly, ``p_high`` and ``b_low`` are kept as factor rows
    (:meth:`SymbolGrid.from_factors`), and so is ``q`` at rank 1.
    """

    R: float
    chi: np.ndarray  # cutoff window on the frequency lattice
    p_high: SymbolGrid
    b_low: SymbolGrid
    q: SymbolGrid


def cutoff_split(a: SymbolGrid, R: float) -> CutoffSplit:
    """Split ``a`` as ``a chi_R + a (1 - chi_R)`` with the parametrix ``chi_R / a``.

    ``chi_R`` vanishes for ``|xi| <= R``, equals one for ``|xi| >= 2R``, with a
    raised-cosine transition (the same profile as the dyadic blocks).  Raises
    :class:`EllipticityError` at the first lattice point inside the support
    of ``chi_R`` where ``a`` vanishes for some x.

    The form of ``a`` decides how the parts are built, and no factors are
    computed to decide it.  When ``a`` is kept as factor rows
    ``sum_r f_r(x) g_r(xi)`` (:meth:`SymbolGrid.from_factors`) or is a
    broadcast row (``f = 1``), ``p_high = f (x) g chi`` and
    ``b_low = f (x) g (1 - chi)`` are built from the factors at any rank, and
    ``q = (1 / f) (x) (chi / g)``, 0 off the support, at rank 1.  Every
    other part is the table ``a chi``, ``a (1 - chi)`` or ``chi / a``.
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
    exact = a._split is not None or a.x_independent  # the form gives the factors
    if exact:
        f, g = a.factors.f, a.factors.g
        p_high, b_low = (SymbolGrid.from_factors(grid, f, g * w.ravel(), a.order)
                         for w in (chi, 1.0 - chi))
    else:
        p_high, b_low = (SymbolGrid(grid, a.values * w, a.order) for w in (chi, 1.0 - chi))
    if exact and len(f) == 1:
        inv = np.where(supported, chi / np.where(supported, g[0].reshape(grid.shape), 1.0), 0.0)
        q = SymbolGrid.from_factors(grid, 1.0 / f, inv.reshape(1, -1), -a.order)
    else:
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


def composition_defect(a1: SymbolGrid, a2: SymbolGrid, u: GridFunction, order: int):
    """Defect of the asymptotic composition expansion at the given order.

        defect = a1(x,D) a2(x,D) u  -  op( sum_{|alpha| <= order}
                 (1/alpha!) d_xi^alpha a1 * D_x^alpha a2 ) u

    The expansion runs on the factors ``a1 ~ sum_r f_r(x) g_r(xi)`` and
    ``a2 ~ sum_s p_s(x) q_s(xi)`` (:attr:`SymbolGrid.factors`), so no
    composite table is formed: term alpha is
    ``sum_r f_r * op(D_x^alpha p, d_xi^alpha g_r * q / alpha!) u``, with the
    periodic xi-stencils on the ``g_r`` and ``D_x^alpha = (-i d_x)^alpha``
    exact by FFT on the ``p_s``.  ``u`` must be band-limited below a quarter
    of the Nyquist frequency so the FD symbol derivatives are clean where the
    input lives; the wrapped stencil entries at the Nyquist seam lie far
    above that band.
    """
    from .operators import _apply_factors, apply_symbol  # local import; no cycle

    grid = a1.grid
    if a2.grid != grid or u.grid != grid:
        raise ValueError("grid mismatch")
    mags = grid.xi_norm()
    tail = np.abs(u.coeffs)[mags > grid.xi_nyquist / 4.0]
    if tail.size and tail.max() > 1e-10 * max(np.abs(u.coeffs).max(), 1e-300):
        raise ValueError("input must be band-limited below Nyquist/4")

    lhs = apply_symbol(a1, apply_symbol(a2, u))
    d = grid.dimension
    f, g = a1.factors.f, a1.factors.g.reshape((-1,) + grid.shape)
    p, q = a2.factors.f, a2.factors.g
    rhs = np.zeros(p.shape[1], dtype=complex)
    for alpha in _multi_indices(order, d):
        dg = g
        for ax in range(d):
            dg = _fd_axis(dg, 1 + ax, alpha[ax], 1.0 / grid.length_factor)
        dp = p
        if any(alpha):
            # with the synthesis convention D_x^alpha multiplies the x-spectrum by k^alpha
            k = math.prod(axis**o for axis, o in zip(np.ix_(*[grid.xi] * d), alpha))
            dp = grid.ifft(grid.fft(p.reshape((-1,) + grid.shape)) * k).reshape(p.shape)
        q_alpha = q / math.prod(math.factorial(o) for o in alpha)
        for f_r, g_r in zip(f, dg.reshape(len(dg), -1)):
            rhs += f_r * _apply_factors(grid, dp, g_r * q_alpha, u.coeffs)
    defect = lhs - GridFunction(grid, rhs.reshape(grid.shape))

    coeffs = np.abs(u.coeffs)
    dom = float(mags.ravel()[int(np.argmax(coeffs.ravel()))])
    single = coeffs.max() > 0 and (np.sort(coeffs.ravel())[-2] <= 1e-9 * coeffs.max())
    report = DefectReport(
        defect_l2=defect.norm_l2(),
        input_l2=u.norm_l2(),
        mode_frequency=dom if single else float("nan"),
    )
    return defect, report
