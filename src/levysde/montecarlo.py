"""Path simulation, Monte Carlo semigroup estimation, weak-error tables,
strong-Feller and density probes, and the big/small-jump split cross-check.

Time stepping: jump contributions are binned into their Euler step and applied
with the coefficient frozen at the step's left limit; the step grid drives the
drift, the compensator, and the Gaussian compensation.  With x-independent
coefficients a single step is distribution-exact, which isolates the
truncation-level error from any time-step bias.

Reproducibility: ``_seeded_batches`` is the only seeding rule and
``_pool_map`` the only thread pool; ``LEVYSDE_THREADS`` (a positive integer)
sets how many of its jobs run at once.  Three kinds of job run on it, and each
result is bit-identical at any thread count:

* batches of paths (``_map_batches``): the generators of batch ``i`` are
  seeded from ``(seed, stream, i)``, whatever thread runs it, and the caller
  adds the batch results in index order;
* ``jump_split_check``'s two drivers of each batch, the split one (stream 1)
  and the unsplit one (stream 0), as separate jobs: each returns its own
  payoff sums, which the caller adds per driver in batch order;
* the kernel density estimate's grid runs (``_kde``): each job writes its own
  grid points, and each point's sums are one ``bincount`` over its own pairs
  in sample order, whichever run holds it.

Jump signs: every tail sampler takes a jump's sign from bit 31 of one 32-bit
draw read from the bit generator's raw words (``measures._set_signs``), the
same stream and generator state as ``rng.integers(0, 2, n)``; so a seeded
result does not depend on how the signs are read.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .grids import GridFunction, TorusGrid
from .measures import jump_stream, path_sums, sample_increment
from .models import SdeModel, constant_value
from .operators import semigroup_apply
from .ratefit import RateFit, fit_rate
from .symbols import tabulate

__all__ = [
    "SimScheme",
    "McEstimate",
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
]

_BATCH = 1 << 16
# Floats one batch of _BATCH paths may hold (512 MiB of float64): its jump
# block, or its increments over the Euler steps; validate_config refuses a
# scheme experiment beyond.
JUMP_BLOCK_CAP = 1 << 26
# Kernel-density window half-width in bandwidths.  A dropped term has
# exp(-c^2/2) <= 2^-52 of the kernel's peak, below its double rounding, which
# needs c >= sqrt(104 ln 2) ~= 8.49.
_KDE_CUT = 8.5
# Kernel pairs formed at once (2 MB per float array): for light-tailed samples
# a third of all (grid point, sample) pairs can lie inside the window.
_KDE_PAIRS = 1 << 18
# The torus on which spectral_reference periodizes its payoff.
SPECTRAL_GRID = TorusGrid(n=4096, length_factor=4.0)


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
        if not 0.0 < self.tau < math.inf:
            raise ConfigError(f"step must be positive and finite, got {self.tau}", field="tau")
        if self.paths < 1:
            raise ConfigError("path count must be positive", field="paths")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}", field="seed")

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


def _map_batches(fn, n: int, seed: int, *streams) -> list:
    """``fn(size, rng...)`` for every batch of ``n`` paths, in batch order, on
    the pool (:func:`_pool_map`)."""
    return _pool_map(fn, _seeded_batches(n, seed, *streams))


def _seeded_batches(n: int, seed: int, *streams) -> list:
    """``(size, rng...)`` for every batch of ``n`` paths, in batch order.

    Batch ``i`` holds the paths ``i _BATCH`` up to ``min((i + 1) _BATCH, n)``
    and one generator per stream, that of stream ``s`` seeded from
    ``(seed, s, i)``.
    """
    return [
        (min(_BATCH, n - lo), *(np.random.default_rng(np.random.SeedSequence((seed, s, i)))
                                for s in streams))
        for i, lo in enumerate(range(0, n, _BATCH))
    ]


def _pool_map(fn, jobs) -> list:
    """``fn(*job)`` for every job, in job order, run on ``LEVYSDE_THREADS``
    threads; one thread or one job runs on the calling thread.  This is the
    package's one thread pool."""
    threads = _thread_count()
    if threads == 1 or len(jobs) <= 1:
        return [fn(*job) for job in jobs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda job: fn(*job), jobs))


def jump_block(rate: float) -> float:
    """Jumps in the block of a batch of ``_BATCH`` paths that expect ``rate``
    jumps each: the mean count plus eight standard deviations."""
    return rate * _BATCH + 8.0 * math.sqrt(rate * _BATCH)


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


def mc_semigroup(
    f,
    model: SdeModel,
    x0,
    t: float,
    scheme: SimScheme,
    mode: str = None,
    stream: int = 0,
) -> McEstimate:
    """Monte Carlo estimate of ``P_t f(x0) = E f(X(t))`` for a bounded vectorized payoff ``f``."""
    X = terminal_samples(model, x0, t, scheme, mode=mode, stream=stream)
    vals = np.asarray(f(X), dtype=float)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
    return McEstimate(mean=mean, stderr=stderr, paths_used=int(vals.size))


def spectral_reference(model: SdeModel, f, x0, t: float):
    """Exact ``P_t f(x0)``: :func:`semigroup_apply` on the payoff periodized on
    ``SPECTRAL_GRID``, for coefficients checked x-independent before tabulating."""
    grid = SPECTRAL_GRID
    if constant_value(model.sigma, grid.x) is None or constant_value(model.drift, grid.x) is None:
        raise ValueError("spectral reference requires x-independent coefficients")
    pt = semigroup_apply(t, tabulate(model, grid), GridFunction(grid, f(grid.x)))
    return float(np.real(np.sum(pt.coeffs * np.exp(1j * grid.xi * (x0 % grid.period)))))


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
    if not 0.0 < eps_list[0] <= eps_list[-1] < 1.0:
        raise ConfigError(f"truncation levels must lie in (0,1), got {eps_list}", field="eps_list")
    if model.dimension != 1:
        raise NotImplementedError("weak-error tables are 1-d")
    if reference == "spectral":
        ref = spectral_reference(model, f, x0, t)
    elif reference == "exact-stable":
        ref = mc_semigroup(f, model, x0, t, scheme_base, mode="exact-stable", stream=999).mean
    else:
        raise ValueError("reference must be 'spectral' or 'exact-stable'")

    x = SPECTRAL_GRID.x  # sampled where spectral_reference samples
    sig0, drf0 = constant_value(model.sigma, x), constant_value(model.drift, x)

    n_total = scheme_base.paths
    if sig0 is not None and drf0 is not None:
        n_levels = len(eps_list)
        measure = model.measure
        rate = measure.tail_mass(eps_list[0]) * t
        shifts = [measure.compensator_drift(e)[0] * t for e in eps_list]
        scales = None
        if scheme_base.gaussian_compensation:
            scales = [math.sqrt(measure.small_jump_variance(e)[0, 0] * t) for e in eps_list]
        # every batch draws its jumps into a block of one size, so the block a
        # batch frees fits the next one and the memory peak does not depend on
        # the thread timing
        room = int(jump_block(rate)) + 1

        def batch(nb, rng):
            """Payoff sums and sums of squares, shape ``(2, levels)``."""
            buf = np.empty(room)
            draw = lambda k: measure.sample_tail(eps_list[0], k, rng, buf if k <= room else None)
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
) -> FellerProfile:
    """MC profile ``x -> P_t 1_{[threshold, inf)}(x)`` on an x-grid.

    All grid points share the same driver increments (common random numbers),
    so for monotone-coupling coefficient presets the estimated profile is
    monotone in the starting point up to ties.
    """
    if model.dimension != 1:
        raise NotImplementedError("profiles are 1-d")
    xs = np.asarray(x_grid, dtype=float)
    n_steps = _euler_steps(t, scheme.tau)
    dt = t / n_steps
    n_total = scheme.paths

    def batch(nb, rng):
        """Paths ending at or above ``threshold``, per grid point."""
        increments = [
            sample_increment(model.measure, dt, scheme.mode, rng, eps=scheme.eps, size=nb)
            for _ in range(n_steps)
        ]
        hits = np.empty(xs.size)
        for j, x in enumerate(xs):
            X = np.full(nb, x)
            for dL in increments:
                X = _advance(model, X, dt, dL)
            hits[j] = np.count_nonzero(X >= threshold)
        return hits

    profile = sum(_map_batches(batch, n_total, scheme.seed, 11)) / n_total
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


def strong_feller_growth(model: SdeModel, t_list, threshold: float, x_grid, scheme: SimScheme):
    """Lipschitz constants of the indicator profile over a dyadic t-list and
    the fitted growth exponent of ``L(t) ~ t^{-beta}``."""
    rows = []
    for t in t_list:
        prof = strong_feller_profile(model, t, threshold, x_grid, scheme)
        rows.append((float(t), prof.lipschitz))
    fit = fit_rate(rows)
    return rows, -fit.slope, fit


@dataclass(frozen=True)
class DensityReport:
    rows: tuple  # (t, bandwidth, sup_abs_density_slope, integral, flagged)
    growth_exponent: float
    fit: RateFit


def density_probe(
    model: SdeModel, x0, t_list, scheme: SimScheme, mode: str = "exact-stable"
) -> DensityReport:
    """Kernel density estimates of the transition density, on 401 points
    from ``scheme.paths`` terminal samples per time, and the growth of
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
    rows = []
    for t in t_list:
        X = terminal_samples(model, x0, float(t), scheme, mode=mode, stream=13)
        xs = np.sort(X)  # the quantiles' order statistics, and _kde's input
        # the window spans the 0.1% and 99.9% quantiles, wide enough that the
        # kernel mass outside stays within 1%
        q1, q3, lo, hi = np.quantile(xs, [0.25, 0.75, 0.001, 0.999])
        iqr = q3 - q1
        spread = min(float(np.std(X)), iqr / 1.34) if iqr > 0 else float(np.std(X))
        h = 0.9 * spread * scheme.paths ** (-0.2)
        ys = np.linspace(lo - 6 * h, hi + 6 * h, 401)
        dens, slope = _kde(xs, ys, h)
        integral = float(np.trapezoid(dens, ys))
        mode_y = ys[int(np.argmax(dens))]
        effective = int(np.sum(np.abs(xs - mode_y) <= h))
        rows.append((float(t), float(h), float(np.abs(slope).max()), integral, effective < 30))
    if len(rows) >= 4:
        fit = fit_rate([(t, s) for t, _, s, _, _ in rows])
        return DensityReport(rows=tuple(rows), growth_exponent=-fit.slope, fit=fit)
    return DensityReport(rows=tuple(rows), growth_exponent=float("nan"), fit=None)


def _kde(xs, ys, h):
    """Gaussian kernel density and its derivative at the grid ``ys`` from the
    samples ``xs``, sorted ascending, with bandwidth ``h``, summing only the
    (grid point, sample) pairs within ``_KDE_CUT * h`` of each other; returns
    ``(dens, slope)``.

    The grid is cut into runs of at most ``_KDE_PAIRS`` pairs (or one grid
    point), which bound the memory and run as jobs on the pool; each grid
    point's sums are one ``bincount`` over its own pairs in sample order, so
    the values do not depend on the runs or the thread count.
    """
    first = np.searchsorted(xs, ys - _KDE_CUT * h, side="left")
    counts = np.searchsorted(xs, ys + _KDE_CUT * h, side="right") - first
    ends = np.cumsum(counts)
    runs, start = [], 0
    while start < ys.size:
        done = ends[start] - counts[start]
        stop = max(start + 1, int(np.searchsorted(ends, done + _KDE_PAIRS, side="right")))
        runs.append((start, stop))
        start = stop
    dens = np.empty(ys.size)
    slope = np.empty(ys.size)

    def run(start, stop):
        # grid point i pairs with its window xs[first[i] : first[i] + counts[i]],
        # in order; pair j of the run belongs to grid point start + owner[j]
        cut = slice(start, stop)
        owner = np.repeat(np.arange(stop - start), counts[cut])
        z = np.repeat(ys[cut], counts[cut])
        windows = zip(first[cut].tolist(), counts[cut].tolist())
        z -= np.concatenate([xs[f : f + c] for f, c in windows])
        z /= h
        k = np.square(z)
        k *= -0.5
        np.exp(k, out=k)
        k /= math.sqrt(2 * math.pi)
        dens[cut] = np.bincount(owner, weights=k, minlength=stop - start)
        np.negative(z, out=z)
        z *= k
        slope[cut] = np.bincount(owner, weights=z, minlength=stop - start)

    _pool_map(run, runs)
    return dens / (xs.size * h), slope / (xs.size * h * h)


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
    eps: float,
    seed: int,
    payoffs=None,
) -> JumpSplitReport:
    """Simulate once with the unsplit truncated driver and once with
    independent small-jump / large-jump drivers recombined; the two laws
    coincide, so every payoff mean must agree within Monte Carlo error.

    The split is at ``|z| = 1``: jumps in ``(eps, 1]`` stay compensated, jumps
    beyond one are a plain compound Poisson.  Also verifies the expected
    number of large jumps ``E N(t) = nu(|z| > 1) t``.
    """
    if model.dimension != 1:
        raise NotImplementedError("the split check is 1-d")
    measure = model.measure
    mass_all = measure.tail_mass(eps) if 0.0 < eps < 1.0 else 0.0
    if not mass_all > 0.0:
        raise ConfigError(f"the split check needs jumps beyond eps in (0,1), got {eps}", field="eps")
    mass_large = measure.tail_mass(1.0)
    keep_rate = (mass_all - mass_large) / mass_all  # share of the jumps in (eps, 1]
    z0 = measure.compensator_drift(eps)[0]
    payoffs = payoffs or _default_battery(2 * np.pi * 4.0)

    def payoff_sums(nb, dL):
        """Payoff sums and sums of squares of one driver, shape ``(2, payoffs)``."""
        sig0 = model.sigma_at(np.full(nb, float(x0)))
        drf0 = model.drift_at(np.full(nb, float(x0)))
        X = x0 + drf0 * t + sig0 * dL
        out = np.empty((2, len(payoffs)))
        for j, fp in enumerate(payoffs):
            v = np.asarray(fp(X), dtype=float)
            out[:, j] = v.sum(), (v**2).sum()
        return out

    def unsplit(nb, rng):
        """One compound Poisson stream from nu restricted to |z| > eps; the
        payoff sums and no large-jump count."""
        draw = lambda k: measure.sample_tail(eps, k, rng)
        counts, jumps = jump_stream(mass_all * t, nb, draw, rng)
        dL = path_sums(counts, jumps, nb) - z0 * t
        del counts, jumps
        return payoff_sums(nb, dL), 0

    def split(nb, rng):
        """Independent small-jump (eps < |z| <= 1, compensated) and large-jump
        (|z| > 1, plain compound Poisson) drivers; the payoff sums and the
        count of large jumps."""
        draw = lambda k: _sample_band(measure, eps, 1.0, k, rng, keep_rate)
        counts, small = jump_stream((mass_all - mass_large) * t, nb, draw, rng)
        dL = path_sums(counts, small, nb) - z0 * t
        del counts, small  # free each stream before the next one draws
        draw = lambda k: measure.sample_tail(1.0, k, rng)
        counts, large = jump_stream(mass_large * t, nb, draw, rng)
        n_large = large.size
        dL = dL + path_sums(counts, large, nb)
        del counts, large
        return payoff_sums(nb, dL), n_large

    # each batch's two drivers are separate jobs, the larger split ones first;
    # each driver's sums are added in batch order
    batches = _seeded_batches(paths, seed, 0, 1)
    jobs = [(split, nb, rng_s) for nb, _, rng_s in batches]
    jobs += [(unsplit, nb, rng_u) for nb, rng_u, _ in batches]
    results = _pool_map(lambda driver, nb, rng: driver(nb, rng), jobs)
    sums_s = sum(out for out, _ in results[: len(batches)])
    sums_u = sum(out for out, _ in results[len(batches) :])
    sums, sums2 = np.stack([sums_u, sums_s], axis=1)
    n_large_total = float(sum(n for _, n in results))

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


def _sample_band(measure, lo: float, hi: float, size: int, rng, keep_rate: float) -> np.ndarray:
    """Jump sizes from ``measure`` conditioned on lo < |z| <= hi.

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
        draw = measure.sample_tail(lo, int(need / keep_rate * 1.01) + 16, rng)
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
    """``(X - center + period/2) % period - period/2``, bit for bit: ``%`` is
    the identity on ``[0, period)``, so only the entries outside it take it."""
    y = np.array(X, dtype=float)
    y -= center
    y += period / 2
    outside = y < 0
    outside |= ~(y < period)  # NaN lands outside
    if outside.any():
        y[outside] %= period
    y -= period / 2
    return y[()]


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
