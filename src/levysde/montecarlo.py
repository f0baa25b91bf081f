"""Path simulation, Monte Carlo semigroup estimation, weak-error tables,
strong-Feller and density probes, and the big/small-jump split cross-check.

Time stepping: jump contributions are binned into their Euler step and applied
with the coefficient frozen at the step's left limit; the step grid drives the
drift, the compensator, and the Gaussian compensation.  With x-independent
coefficients a single step is distribution-exact, which isolates the
truncation-level error from any time-step bias.

Reproducibility: ``_batches`` is the only seeding rule.  Paths are simulated
in fixed-size batches; the generator of batch ``i`` is seeded from
``(seed, stream, i)``, and batch reductions happen in index order, so results
are bit-identical for a given scheme regardless of the thread count
(``LEVYSDE_THREADS``, a positive integer).  ``_map_batches`` runs the batches
of ``terminal_samples`` and of the constant-coefficient ``weak_error_table`` on
that many threads; ``jump_split_check`` (see its docstring) and
``strong_feller_profile`` (one cheap Euler step in the shipped profiles, each
batch holding every step's increments) stay serial.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .grids import GridFunction, TorusGrid
from .measures import (
    compensator_drift,
    jump_stream,
    path_sums,
    sample_increment,
    small_jump_variance,
    truncated_measure,
)
from .models import SdeModel, constant_value, state_symbol
from .ratefit import RateFit, fit_rate

__all__ = [
    "SimScheme",
    "McEstimate",
    "simulate_path",
    "terminal_samples",
    "mc_semigroup",
    "spectral_reference",
    "WeakErrorTable",
    "weak_error_table",
    "FellerProfile",
    "strong_feller_profile",
    "strong_feller_growth",
    "DensityReport",
    "density_probe",
    "JumpSplitReport",
    "jump_split_check",
    "bump_payoff",
    "hat_payoff",
    "indicator_payoff",
    "payoff_from_grid",
]

_BATCH = 1 << 16
# Kernel-density window half-width in bandwidths.  A dropped term has
# exp(-c^2/2) <= 2^-52 of the kernel's peak, below its double rounding, which
# needs c >= sqrt(104 ln 2) ~= 8.49.
_KDE_CUT = 8.5
# Kernel pairs gathered at once (2 MB per float array): for light-tailed samples
# a third of all (grid point, sample) pairs can lie inside the window.
_KDE_PAIRS = 1 << 18


@dataclass(frozen=True)
class SimScheme:
    """Jump-truncation simulation scheme.

    ``eps`` is the truncation level, ``tau`` the Euler step for drift and
    Gaussian parts, ``paths`` the sample count (use at least 1000 for any
    statistical claim), ``seed`` the base of all derived generators.
    """

    eps: float
    tau: float
    gaussian_compensation: bool
    paths: int
    seed: int

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ConfigError(f"truncation level must lie in (0,1), got {self.eps}", field="eps")
        if self.tau <= 0:
            raise ConfigError("step must be positive", field="tau")
        if self.paths < 1:
            raise ConfigError("path count must be positive", field="paths")

    @property
    def mode(self) -> str:
        return "truncated+gaussian" if self.gaussian_compensation else "truncated"


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    paths_used: int


def _euler_steps(t: float, tau: float) -> int:
    return max(1, int(round(t / tau)))


def _advance(model: SdeModel, X, dt: float, dL):
    if model.dimension == 1:
        return X + model.drift_at(X) * dt + model.sigma_at(X) * dL
    sig = model.sigma_at(X)  # (n, 2, 2)
    return X + model.drift_at(X) * dt + np.einsum("nij,nj->ni", sig, dL)


def _evolve(model: SdeModel, X, t: float, scheme: SimScheme, mode: str, rng):
    """Euler-advance the states ``X`` (one per path) from time 0 to ``t``."""
    if t <= 0:
        raise ValueError("horizon must be positive")
    mode = mode or scheme.mode
    n_steps = _euler_steps(t, scheme.tau)
    dt = t / n_steps
    for _ in range(n_steps):
        dL = sample_increment(model.measure, dt, mode, rng, eps=scheme.eps, size=X.shape[0])
        X = _advance(model, X, dt, dL)
    return X


def simulate_path(model: SdeModel, x0, t: float, scheme: SimScheme, rng, mode: str = None):
    """Terminal state of one explicit Euler path driven by the scheme's noise.

    ``mode`` overrides the scheme-derived sampling mode (e.g. "exact-stable").
    """
    d = model.dimension
    X = np.asarray(x0, dtype=float).reshape(1, -1) if d == 2 else np.array([float(x0)])
    X = _evolve(model, X, t, scheme, mode, rng)
    return X[0] if d == 2 else float(X[0])


def _batches(n: int, seed: int, *streams):
    """Yield ``(size, rng...)`` per batch of ``n`` paths, one generator per stream.

    The generator of batch ``i`` in stream ``s`` is seeded from ``(seed, s, i)``.
    """
    for i, lo in enumerate(range(0, n, _BATCH)):
        rngs = (np.random.default_rng(np.random.SeedSequence((seed, s, i))) for s in streams)
        yield (min(_BATCH, n - lo), *rngs)


def _map_batches(fn, n: int, seed: int, *streams) -> list:
    """``fn(size, rng...)`` for every ``_batches`` batch, in batch order.

    The batches run on ``LEVYSDE_THREADS`` threads; a single batch runs on the
    calling thread.
    """
    jobs = list(_batches(n, seed, *streams))
    threads = _thread_count()
    if threads == 1 or len(jobs) == 1:
        return [fn(*job) for job in jobs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda job: fn(*job), jobs))


def _thread_count() -> int:
    raw = os.environ.get("LEVYSDE_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ConfigError(
            f"LEVYSDE_THREADS must be a positive integer, got {raw!r}", field="LEVYSDE_THREADS"
        )
    return threads


def _mean_var(s1, s2, n: int):
    """Mean and variance (clipped at zero) from sums of values and of squares."""
    mean = s1 / n
    return mean, np.maximum(s2 / n - mean**2, 0.0)


def terminal_samples(
    model: SdeModel,
    x0,
    t: float,
    scheme: SimScheme,
    mode: str = None,
    stream: int = 0,
) -> np.ndarray:
    """Vectorized terminal states of ``scheme.paths`` independent paths.

    Batch ``i`` draws from a generator seeded by ``(seed, stream, i)``; the
    batches are concatenated in index order.
    """

    def run(nb, rng):
        if model.dimension == 1:
            X = np.full(nb, float(x0))
        else:
            X = np.tile(np.asarray(x0, dtype=float), (nb, 1))
        return _evolve(model, X, t, scheme, mode, rng)

    return np.concatenate(_map_batches(run, scheme.paths, scheme.seed, stream))


def payoff_from_grid(gf: GridFunction):
    """Periodic linear interpolant of a real grid function, usable as a payoff."""
    grid = gf.grid
    if grid.dimension != 1:
        raise NotImplementedError("grid payoffs are 1-d")
    xs = np.concatenate([grid.x, [grid.period]])
    ys = np.concatenate([gf.values.real, [gf.values.real[0]]])

    def f(X):
        return np.interp(np.asarray(X, dtype=float) % grid.period, xs, ys)

    return f


def mc_semigroup(
    f,
    model: SdeModel,
    x0,
    t: float,
    scheme: SimScheme,
    mode: str = None,
    stream: int = 0,
) -> McEstimate:
    """Monte Carlo estimate of ``P_t f(x0) = E f(X(t))``.

    ``f`` is a bounded payoff: a vectorized callable or a grid function
    (interpreted periodically).
    """
    if isinstance(f, GridFunction):
        f = payoff_from_grid(f)
    X = terminal_samples(model, x0, t, scheme, mode=mode, stream=stream)
    vals = np.asarray(f(X), dtype=float)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
    return McEstimate(mean=mean, stderr=stderr, paths_used=int(vals.size))


def spectral_reference(model: SdeModel, f, x0, t: float, n: int = 4096, length_factor: float = 4.0):
    """Exact ``P_t f(x0)`` for x-independent coefficients via the Fourier
    multiplier ``exp(-t a(xi))`` of the periodized payoff."""
    grid = TorusGrid(n=n, dimension=1, length_factor=length_factor)
    if constant_value(model.sigma, grid.x) is None or constant_value(model.drift, grid.x) is None:
        raise ValueError("spectral reference requires x-independent coefficients")
    gf = GridFunction(grid, f(grid.x))
    coeffs = gf.coeffs * np.exp(-t * state_symbol(model, 0.0, grid.xi))
    return float(np.real(np.sum(coeffs * np.exp(1j * grid.xi * (x0 % grid.period)))))


# ---------------------------------------------------------------------------
# weak error
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeakErrorTable:
    rows: tuple  # (eps, error, stderr)
    reference: float
    fit: RateFit  # None when noise-dominated
    noise_dominated: bool


def weak_error_table(
    model: SdeModel,
    f,
    x0,
    t: float,
    eps_list,
    scheme_base: SimScheme,
    reference: str = "spectral",
) -> WeakErrorTable:
    """Weak errors ``|P_t f(x0) - P^eps_t f(x0)|`` over a truncation sweep.

    With x-independent coefficients all truncation levels are driven by one
    master jump stream at the smallest level (a run at level ``eps`` keeps
    exactly the jumps with ``|z| > eps``) plus one shared normal per path, so
    the errors are coupled by common random numbers and decrease
    monotonically in the truncation level up to noise.

    ``reference`` is ``"spectral"`` (exact multiplier; x-independent
    coefficients) or ``"exact-stable"`` (CMS simulation with the base seed).
    When every error falls below four standard errors the table is flagged
    noise-dominated and no rate is fitted.
    """
    eps_list = sorted(float(e) for e in eps_list)
    if model.dimension != 1:
        raise NotImplementedError("weak-error tables are 1-d")
    if reference == "spectral":
        ref = spectral_reference(model, f, x0, t)
    elif reference == "exact-stable":
        ref_scheme = replace(scheme_base, gaussian_compensation=False)
        ref = mc_semigroup(f, model, x0, t, ref_scheme, mode="exact-stable", stream=999).mean
    else:
        raise ValueError("reference must be 'spectral' or 'exact-stable'")

    # sampled where spectral_reference samples: one period of its default torus
    x = TorusGrid(n=4096, length_factor=4.0).x
    sig0, drf0 = constant_value(model.sigma, x), constant_value(model.drift, x)

    n_total = scheme_base.paths
    if sig0 is not None and drf0 is not None:
        n_levels = len(eps_list)
        trunc_min = truncated_measure(model.measure, eps_list[0])
        rate = trunc_min.tail_mass() * t
        shifts = [compensator_drift(model.measure, e)[0] * t for e in eps_list]
        scales = None
        if scheme_base.gaussian_compensation:
            scales = [math.sqrt(small_jump_variance(model.measure, e)[0, 0] * t) for e in eps_list]
        # every batch draws its jumps into a block of one size (the mean count
        # plus eight standard deviations), so the block a batch frees fits the
        # next one and the memory peak does not depend on the thread timing
        room = int(rate * _BATCH + 8.0 * math.sqrt(rate * _BATCH)) + 1

        def batch(nb, rng):
            """Payoff sums and sums of squares, shape ``(2, levels)``."""
            buf = np.empty(room)
            draw = lambda k: trunc_min.sample_tail(size=k, rng=rng, out=buf if k <= room else None)
            counts, jumps = jump_stream(rate, nb, draw, rng)
            z = rng.standard_normal(nb)
            # a jump's band counts the higher levels it clears, so level k
            # keeps exactly the bands >= k
            per_band = path_sums(counts, jumps, nb, cuts=eps_list[1:])
            del counts, jumps, buf
            levels = per_band[:, ::-1].cumsum(axis=1)[:, ::-1]
            out = np.empty((2, n_levels))
            for k in range(n_levels):
                dL = levels[:, k] - shifts[k]
                if scales:
                    dL = dL + scales[k] * z
                X = x0 + drf0 * t + sig0 * dL
                vals = np.asarray(f(X), dtype=float)
                out[:, k] = vals.sum(), (vals**2).sum()
            return out

        sums, sums2 = sum(_map_batches(batch, n_total, scheme_base.seed, 7))
    else:
        sums = np.zeros(len(eps_list))
        sums2 = np.zeros(len(eps_list))
        for k, e in enumerate(eps_list):
            scheme = replace(scheme_base, eps=e)
            X = terminal_samples(model, x0, t, scheme, stream=7)
            vals = np.asarray(f(X), dtype=float)
            sums[k] = vals.sum()
            sums2[k] = (vals**2).sum()

    means, variances = _mean_var(sums, sums2, n_total)
    rows = [
        (e, float(abs(mean - ref)), math.sqrt(var / n_total))
        for e, mean, var in zip(eps_list, means, variances)
    ]
    noise = all(err <= 4.0 * se for _, err, se in rows)
    fit = None
    if not noise and len(rows) >= 4:
        fit = fit_rate([(e, err) for e, err, _ in rows])
    return WeakErrorTable(rows=tuple(rows), reference=ref, fit=fit, noise_dominated=noise)


# ---------------------------------------------------------------------------
# strong Feller / density probes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FellerProfile:
    x_grid: tuple
    profile: tuple
    stderr: tuple
    lipschitz: float  # max |delta profile| / |delta x|
    max_jump_ratio: float  # max adjacent jump over neighborhood median jump


def strong_feller_profile(
    model: SdeModel,
    t: float,
    threshold: float,
    x_grid,
    scheme: SimScheme,
    mode: str = None,
) -> FellerProfile:
    """MC profile ``x -> P_t 1_{[threshold, inf)}(x)`` on an x-grid.

    All grid points share the same driver increments (common random numbers),
    so for monotone-coupling coefficient presets the estimated profile is
    monotone in the starting point up to ties.
    """
    if model.dimension != 1:
        raise NotImplementedError("profiles are 1-d")
    xs = np.asarray(x_grid, dtype=float)
    mode = mode or scheme.mode
    n_steps = _euler_steps(t, scheme.tau)
    dt = t / n_steps
    hits = np.zeros(xs.size)
    n_total = scheme.paths
    for nb, rng in _batches(n_total, scheme.seed, 11):
        increments = [
            sample_increment(model.measure, dt, mode, rng, eps=scheme.eps, size=nb)
            for _ in range(n_steps)
        ]
        for j, x in enumerate(xs):
            X = np.full(nb, x)
            for dL in increments:
                X = _advance(model, X, dt, dL)
            hits[j] += float((X >= threshold).sum())
    profile = hits / n_total
    se = np.sqrt(np.maximum(profile * (1 - profile), 0.0) / n_total)
    dx = np.diff(xs)
    jumps = np.abs(np.diff(profile))
    lipschitz = float((jumps / dx).max()) if jumps.size else 0.0
    med = float(np.median(jumps)) if jumps.size else 0.0
    ratio = float(jumps.max() / max(med, 1e-300)) if jumps.size else 0.0
    return FellerProfile(
        x_grid=tuple(xs),
        profile=tuple(profile),
        stderr=tuple(se),
        lipschitz=lipschitz,
        max_jump_ratio=ratio,
    )


def strong_feller_growth(
    model: SdeModel,
    t_list,
    threshold: float,
    x_grid,
    scheme: SimScheme,
    mode: str = None,
):
    """Lipschitz constants of the indicator profile over a dyadic t-list and
    the fitted growth exponent of ``L(t) ~ t^{-beta}``."""
    rows = []
    for t in t_list:
        prof = strong_feller_profile(model, t, threshold, x_grid, scheme, mode=mode)
        rows.append((float(t), prof.lipschitz))
    fit = fit_rate(rows)
    return rows, -fit.slope, fit


@dataclass(frozen=True)
class DensityReport:
    rows: tuple  # (t, bandwidth, sup_abs_density_slope, integral, flagged)
    growth_exponent: float
    fit: RateFit


def density_probe(
    model: SdeModel,
    x0,
    t_list,
    paths: int,
    scheme: SimScheme = None,
    mode: str = "exact-stable",
    grid_points: int = 401,
) -> DensityReport:
    """Kernel density estimates of the transition density and the growth of
    ``sup |d/dy p_t|`` as ``t`` decreases.

    Gaussian kernel with the robust bandwidth
    ``0.9 min(std, IQR/1.34) paths^{-1/5}`` (heavy tails: the IQR dominates);
    a time point is flagged when fewer than 30 samples fall within one
    bandwidth of the density mode.  Each grid point sums only the samples
    within ``8.5 h`` of it: every dropped kernel term is at most ``2^-52`` of
    the kernel's peak, so the estimates equal the full pairwise sums to
    rounding.
    """
    if model.dimension != 1:
        raise NotImplementedError("density derivative estimates are 1-d")
    base = scheme or SimScheme(eps=0.1, tau=1.0, gaussian_compensation=True, paths=paths, seed=1234)
    run = replace(base, paths=paths)
    rows = []
    for t in t_list:
        X = terminal_samples(model, x0, float(t), run, mode=mode, stream=13)
        q1, q3 = np.quantile(X, [0.25, 0.75])
        iqr = q3 - q1
        spread = min(float(np.std(X)), iqr / 1.34) if iqr > 0 else float(np.std(X))
        h = 0.9 * spread * paths ** (-0.2)
        # window wide enough that the kernel mass outside stays within 1%
        lo, hi = np.quantile(X, [0.001, 0.999])
        ys = np.linspace(lo - 6 * h, hi + 6 * h, grid_points)
        dens, slope = _kde(X, ys, h)
        integral = float(np.trapezoid(dens, ys))
        mode_y = ys[int(np.argmax(dens))]
        effective = int(np.sum(np.abs(X - mode_y) <= h))
        rows.append((float(t), float(h), float(np.abs(slope).max()), integral, effective < 30))
    if len(rows) >= 4:
        fit = fit_rate([(t, s) for t, _, s, _, _ in rows])
        return DensityReport(rows=tuple(rows), growth_exponent=-fit.slope, fit=fit)
    return DensityReport(rows=tuple(rows), growth_exponent=float("nan"), fit=None)


def _kde(X, ys, h):
    """Gaussian kernel density and its derivative at the grid ``ys`` from the
    samples ``X`` with bandwidth ``h``, summing only the (grid point, sample)
    pairs within ``_KDE_CUT * h`` of each other; returns ``(dens, slope)``."""
    xs = np.sort(X)
    first = np.searchsorted(xs, ys - _KDE_CUT * h, side="left")
    counts = np.searchsorted(xs, ys + _KDE_CUT * h, side="right") - first
    ends = np.cumsum(counts)
    offset = first - (ends - counts)  # pair j of grid point i gathers sample j + offset[i]
    dens = np.empty(ys.size)
    slope = np.empty(ys.size)
    start = 0
    while start < ys.size:
        # grid runs of at most _KDE_PAIRS pairs (or one grid point) bound the memory
        done = ends[start] - counts[start]
        stop = max(start + 1, int(np.searchsorted(ends, done + _KDE_PAIRS, side="right")))
        run = slice(start, stop)
        # ragged gather: pair j of the run joins grid point start + owner[j] and sample idx[j]
        owner = np.repeat(np.arange(stop - start), counts[run])
        idx = np.arange(done, ends[stop - 1]) + np.repeat(offset[run], counts[run])
        z = (ys[run][owner] - xs[idx]) / h
        k = np.exp(-0.5 * z**2) / math.sqrt(2 * math.pi)
        dens[run] = np.bincount(owner, weights=k, minlength=stop - start)
        slope[run] = np.bincount(owner, weights=-z * k, minlength=stop - start)
        start = stop
    return dens / (X.size * h), slope / (X.size * h * h)


# ---------------------------------------------------------------------------
# big/small jump split
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JumpSplitReport:
    payoff_rows: tuple  # (index, unsplit mean, split mean, |diff|, stderr of diff)
    all_within_4se: bool
    failures: tuple  # indices outside 6 stderr
    mean_large_jumps: float
    expected_large_jumps: float
    large_jump_se: float


def _default_battery(period: float):
    return (
        lambda X: np.ones_like(np.asarray(X, dtype=float)),
        lambda X: np.sin(2 * np.pi * np.asarray(X) / period),
        bump_payoff(center=0.0, width=2.0, period=period),
        hat_payoff(center=0.0, width=2.0, period=period),
        indicator_payoff(threshold=0.0),
    )


def jump_split_check(
    model: SdeModel,
    x0,
    t: float,
    paths: int,
    eps: float = None,
    seed: int = 202,
    payoffs=None,
) -> JumpSplitReport:
    """Simulate once with the unsplit truncated driver and once with
    independent small-jump / large-jump drivers recombined; the two laws
    coincide, so every payoff mean must agree within Monte Carlo error.

    The split is at ``|z| = 1``: jumps in ``(eps, 1]`` stay compensated, jumps
    beyond one are a plain compound Poisson.  Also verifies the expected
    number of large jumps ``E N(t) = nu(|z| > 1) t``.

    The batches run serially: on threads the check ran slower, and the
    threads' malloc arenas raised the process's peak memory.
    """
    if model.dimension != 1:
        raise NotImplementedError("the split check is 1-d")
    eps = eps if eps is not None else 0.05
    measure = model.measure
    trunc = truncated_measure(measure, eps)
    mass_all = trunc.tail_mass()
    mass_large = measure.tail_mass(1.0)
    keep_rate = (mass_all - mass_large) / mass_all  # share of the jumps in (eps, 1]
    z0 = compensator_drift(measure, eps)[0]
    payoffs = payoffs or _default_battery(2 * np.pi * 4.0)

    # row 0: unsplit driver, row 1: split driver
    sums = np.zeros((2, len(payoffs)))
    sums2 = np.zeros((2, len(payoffs)))
    n_large_total = 0.0

    for nb, rng_u, rng_s in _batches(paths, seed, 0, 1):
        # unsplit: one compound Poisson stream from nu restricted to |z| > eps
        draw = lambda k: trunc.sample_tail(size=k, rng=rng_u)
        counts, jumps = jump_stream(mass_all * t, nb, draw, rng_u)
        dL_u = path_sums(counts, jumps, nb) - z0 * t
        del counts, jumps  # free each stream before the next one draws

        # split: independent small-jump (eps < |z| <= 1, compensated) and
        # large-jump (|z| > 1, plain compound Poisson) drivers
        draw = lambda k: _sample_band(trunc, eps, 1.0, k, rng_s, keep_rate)
        counts, small = jump_stream((mass_all - mass_large) * t, nb, draw, rng_s)
        dL_s = path_sums(counts, small, nb) - z0 * t
        del counts, small
        draw = lambda k: trunc.sample_tail(eps=1.0, size=k, rng=rng_s)
        counts, large = jump_stream(mass_large * t, nb, draw, rng_s)
        n_large_total += float(large.size)
        dL_s = dL_s + path_sums(counts, large, nb)
        del counts, large

        sig0 = model.sigma_at(np.full(nb, float(x0)))
        drf0 = model.drift_at(np.full(nb, float(x0)))
        for row, dL in enumerate((dL_u, dL_s)):
            X = x0 + drf0 * t + sig0 * dL
            for j, fp in enumerate(payoffs):
                v = np.asarray(fp(X), dtype=float)
                sums[row, j] += v.sum()
                sums2[row, j] += (v**2).sum()

    (mean_u, mean_s), (var_u, var_s) = _mean_var(sums, sums2, paths)
    rows = []
    failures = []
    ok = True
    for j in range(len(payoffs)):
        mu, ms = mean_u[j], mean_s[j]
        se = math.sqrt((var_u[j] + var_s[j]) / paths)
        diff = abs(mu - ms)
        rows.append((j, mu, ms, diff, se))
        if diff > 4.0 * se + 1e-15:
            ok = False
        if diff > 6.0 * se + 1e-15:
            failures.append(j)
    mean_large = n_large_total / paths
    se_large = math.sqrt(mass_large * t / paths)  # Poisson variance = mean
    return JumpSplitReport(
        payoff_rows=tuple(rows),
        all_within_4se=ok,
        failures=tuple(failures),
        mean_large_jumps=mean_large,
        expected_large_jumps=mass_large * t,
        large_jump_se=se_large,
    )


def _sample_band(trunc, lo: float, hi: float, size: int, rng, keep_rate: float) -> np.ndarray:
    """Jump sizes from the truncated measure conditioned on lo < |z| <= hi.

    ``keep_rate`` is the share of the band in the mass beyond ``lo``; each
    round draws about 1% more candidates than it expects to need and moves the
    kept ones to the front of its draw, a block at a time.  A single round's
    kept values are returned as that view, so no second array of jumps is
    held.
    """
    if not keep_rate > 0.0:
        raise ConfigError(f"the jump band ({lo}, {hi}] carries no mass", field="eps")
    parts, need = [], size
    while need > 0:
        draw = trunc.sample_tail(eps=lo, size=int(need / keep_rate * 1.01) + 16, rng=rng)
        kept = 0
        for start in range(0, draw.size, _BATCH):
            block = draw[start : start + _BATCH]
            block = block[(block <= hi) & (block >= -hi)]
            draw[kept : kept + block.size] = block
            kept += block.size
        parts.append(draw[: min(kept, need)])
        need -= parts[-1].size
    return parts[0] if len(parts) == 1 else np.concatenate([np.empty(0), *parts])


# ---------------------------------------------------------------------------
# payoff battery
# ---------------------------------------------------------------------------


def _wrap_centered(X, center: float, period: float):
    return (np.asarray(X, dtype=float) - center + period / 2) % period - period / 2


def bump_payoff(center: float = 0.0, width: float = 1.0, period: float = 8 * np.pi):
    """Smooth compactly supported bump exp(1 - 1/(1 - (x/w)^2)), periodized."""

    def f(X):
        z = _wrap_centered(X, center, period) / width
        out = np.zeros_like(z)
        inside = np.abs(z) < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - z[inside] ** 2))
        return out

    return f


def hat_payoff(center: float = 0.0, width: float = 1.0, period: float = 8 * np.pi):
    """Lipschitz hat max(0, 1 - |x - center| / width), periodized."""

    def f(X):
        z = np.abs(_wrap_centered(X, center, period)) / width
        return np.maximum(0.0, 1.0 - z)

    return f


def indicator_payoff(threshold: float):
    def f(X):
        return (np.asarray(X, dtype=float) >= threshold).astype(float)

    return f
