"""Levy exponents, truncation, variance bookkeeping, sampling, and the
activity-index estimator."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

import levysde as lv
from levysde import measures
from levysde.harness.config import build_grid
from levysde.measures import jump_stream, path_sums


def lk_integrand_oracle(atoms, xi):
    """Direct Levy-Khintchine sum for a finite atomic measure (test oracle)."""
    total = 0.0 + 0.0j
    for z, r in atoms:
        z = z[0]
        comp = 1j * xi * z if abs(z) <= 1.0 else 0.0
        total += r * (1.0 - np.exp(1j * xi * z) + comp)
    return total


def seeded_after_bits(seed, lead, bit_generator=np.random.PCG64):
    """A generator on ``bit_generator(seed)`` that has drawn ``lead`` fair
    bits: after an odd count a generator that buffers 32-bit halves (all but
    MT19937) holds one, and the next integer draw takes it first."""
    rng = np.random.Generator(bit_generator(seed))
    rng.integers(0, 2, lead)
    return rng


def assert_same_stream_after(rng, literal_rng):
    """Both generators go on with the same integer and float draws."""
    assert np.array_equal(rng.integers(0, 2, 5), literal_rng.integers(0, 2, 5))
    assert rng.random() == literal_rng.random()


class TestLevyExponent:
    def test_normalized_stable_closed_form(self, stable_measure):
        # symmetric 1-d stable, c normalized, alpha = 1.5
        assert lv.levy_exponent(stable_measure, 2.0) == pytest.approx(2.0**1.5, rel=1e-12)
        assert lv.levy_exponent(stable_measure, -2.0) == pytest.approx(2.0**1.5, rel=1e-12)

    @pytest.mark.parametrize(
        "spec",
        [
            lv.StableMeasure.normalized(1.2),
            lv.AtomicMeasure(atoms=(((2.0,), 1.0), ((-0.3,), 0.5))),
        ],
    )
    def test_zero_frequency(self, spec):
        assert lv.levy_exponent(spec, 0.0) == 0.0

    def test_atomic_closed_form_vs_integrand(self):
        atoms = (((2.0,), 1.0),)
        spec = lv.AtomicMeasure(atoms=atoms)
        for xi in (0.3, 0.7, 2.5, -1.1):
            got = lv.levy_exponent(spec, xi)
            assert got == pytest.approx(1.0 - np.exp(2j * xi), abs=1e-14)
            assert got == pytest.approx(lk_integrand_oracle(atoms, xi), abs=1e-14)

    def test_atom_inside_unit_ball_compensated(self):
        atoms = (((0.5,), 2.0),)
        spec = lv.AtomicMeasure(atoms=atoms)
        for xi in (0.4, 1.7):
            assert lv.levy_exponent(spec, xi) == pytest.approx(
                lk_integrand_oracle(atoms, xi), abs=1e-14
            )

    def test_tabulated_quadrature_matches_stable(self):
        # the quadrature path against the stable closed form, same support
        alpha, c = 1.5, lv.stable_normalizer(1.5)
        r = np.geomspace(1e-7, 400.0, 600)
        tab = lv.TabulatedMeasure(radii=tuple(r), density=tuple(c * r ** (-1 - alpha)))
        for xi in (0.5, 2.0, 16.0):
            closed = xi**alpha
            # missing tail mass beyond the tabulated support bounds the error
            tail = 2 * c * r[-1] ** (-alpha) / alpha
            assert abs(lv.levy_exponent(tab, xi) - closed) <= 2 * tail + 1e-8 * closed

    @settings(max_examples=15, deadline=None)
    @given(alpha=st.floats(0.3, 1.9), log_xi=st.floats(-2.0, 3.0), sign=st.sampled_from([-1, 1]))
    def test_tabulated_quadrature_sweep(self, alpha, log_xi, sign):
        # the stable closed form across alpha and five decades of |xi|, with
        # the error bound of test_tabulated_quadrature_matches_stable
        c = lv.stable_normalizer(alpha)
        r = np.geomspace(1e-7, 400.0, 600)
        tab = lv.TabulatedMeasure(radii=tuple(r), density=tuple(c * r ** (-1 - alpha)))
        xi = sign * 10.0**log_xi
        closed = abs(xi) ** alpha
        tail = 2 * c * r[-1] ** (-alpha) / alpha
        assert abs(lv.levy_exponent(tab, xi) - closed) <= 2 * tail + 1e-8 * closed

    def test_divergent_tabulated_density_rejected(self):
        r = np.geomspace(1e-4, 10.0, 50)
        with pytest.raises(ValueError):
            lv.TabulatedMeasure(radii=tuple(r), density=tuple(r**-3.2))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nonfinite_tabulated_samples_rejected(self, bad):
        r = np.geomspace(1e-2, 10.0, 5)
        with pytest.raises(ValueError):
            lv.TabulatedMeasure(radii=tuple(r), density=(1.0, 1.0, bad, 1.0, 1.0))
        with pytest.raises(ValueError):
            lv.TabulatedMeasure(radii=(0.1, 1.0, bad), density=(1.0, 1.0, 1.0))


def segmentwise_quad_exponent(radii, density, m):
    """psi(m) = 2 int (1 - cos m r) g(r) dr for a 1-d tabulated density, by
    QUADPACK on each log-log segment (the first segment's power law below the
    first node, zero beyond the last), as ``TabulatedMeasure`` defines it."""
    nodes = [0.0] + list(radii)
    total = 0.0
    for i in range(len(radii)):
        j = max(i - 1, 0)
        slope = math.log(density[j + 1] / density[j]) / math.log(radii[j + 1] / radii[j])

        def f(x, g0=density[j], r0=radii[j], slope=slope):
            return 4.0 * math.sin(0.5 * m * x) ** 2 * g0 * (x / r0) ** slope

        total += integrate.quad(f, nodes[i], nodes[i + 1], limit=400, epsabs=0.0, epsrel=1e-12)[0]
    return total


def oscillatory_quad_exponent(radii, density, m):
    """psi(m) of a 1-d tabulated density for large m (test oracle).  Below the
    first node the power law ``r^-(1 + a)`` gives ``m^a`` times the whole-line
    integral ``pi / (2 Gamma(1 + a) sin(pi a / 2))`` less its tail beyond
    ``m radii[0]``; each segment is its closed-form mass less QUADPACK's
    cosine-weighted (QAWO/QAWF) integral, which resolves any number of
    oscillations."""
    a = -1.0 - math.log(density[1] / density[0]) / math.log(radii[1] / radii[0])
    whole = math.pi / (2.0 * math.gamma(1.0 + a) * math.sin(0.5 * math.pi * a))
    edge = m * radii[0]
    tail = edge**-a / a - integrate.quad(lambda u: u ** (-1.0 - a), edge, np.inf,
                                         weight="cos", wvar=1.0)[0]
    total = density[0] * radii[0] ** (1.0 + a) * m**a * (whole - tail)
    for r0, r1, g0, g1 in zip(radii[:-1], radii[1:], density[:-1], density[1:]):
        s = math.log(g1 / g0) / math.log(r1 / r0)
        total += power_mass(g0, r0, s, r0, r1) - integrate.quad(
            lambda x, g0=g0, r0=r0, s=s: g0 * (x / r0) ** s, r0, r1, weight="cos", wvar=m)[0]
    return 2.0 * total


def power_mass(g0, r0, s, lo, hi):
    """``int_lo^hi g0 (r / r0)^s dr`` (s != -1)."""
    return g0 * r0 * ((hi / r0) ** (s + 1.0) - (lo / r0) ** (s + 1.0)) / (s + 1.0)


class TestTabulatedExponent:
    R25 = np.geomspace(0.01, 10.0, 30)

    @pytest.mark.parametrize("m", [32.0, 64.0, 128.0])
    def test_steep_density_converges_inside_default_lattice(self, m):
        # r^-2.5: the r^{s+2} endpoint singularity of the innermost cell used
        # to trip the embedded error test at these frequencies
        tab = lv.TabulatedMeasure(radii=tuple(self.R25), density=tuple(self.R25**-2.5))
        ref = segmentwise_quad_exponent(self.R25, self.R25**-2.5, m)
        assert lv.levy_exponent(tab, m) == pytest.approx(ref, rel=1e-8)

    def test_failure_names_magnitude_residual_and_tolerance(self):
        # 4,096 subdivisions of a geometric cell cannot resolve a quarter oscillation here
        r = np.geomspace(0.5, 10.0, 5)
        tab = lv.TabulatedMeasure(radii=tuple(r), density=tuple(r**-2.5))
        with pytest.raises(lv.QuadratureError) as info:
            tab.exponent(np.array([1.2e5, 1.0, 1e5]))
        err = info.value
        assert err.magnitude == 1e5  # the smallest failing magnitude of its band
        assert err.residual > err.tolerance > 0.0
        assert "|xi| = 100000" in str(err)

    def test_sparse_radii_resolve_high_frequency(self):
        # the radius ratio 2.1 of this table is cut into geometric cells, so
        # |xi| = 1e4 stays inside the cell cap
        r = np.geomspace(0.5, 10.0, 5)
        tab = lv.TabulatedMeasure(radii=tuple(r), density=tuple(r**-2.5))
        ref = oscillatory_quad_exponent(r, r**-2.5, 1e4)
        assert tab.exponent(1e4).real == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("m", [0.01, 0.03, 0.1, 0.3, 1.0, 2.0])
    def test_steep_density_drop(self, m):
        # a 300x drop over one decade: one Gauss-Legendre cell per decade
        # missed its own error test at every |xi| up to 2
        r, g = (0.1, 1.0, 10.0), (300.0, 1.0, 0.01)
        tab = lv.TabulatedMeasure(radii=r, density=g)
        ref = segmentwise_quad_exponent(np.array(r), np.array(g), m)
        assert tab.exponent(m).real == pytest.approx(ref, rel=1e-13)

    def test_steep_density_tail_mass(self):
        # 2 int_0.05^10 g: each segment's power law integrates in closed form,
        # the first segment's below 0.1
        r, g = (0.1, 1.0, 10.0), (300.0, 1.0, 0.01)
        tab = lv.TabulatedMeasure(radii=r, density=g)
        s = [math.log(g1 / g0) / math.log(r1 / r0) for r0, r1, g0, g1 in zip(r, r[1:], g, g[1:])]
        ref = 2.0 * (power_mass(g[0], r[0], s[0], 0.05, 1.0) + power_mass(g[1], r[1], s[1], 1.0, 10.0))
        assert tab.tail_mass(0.05) == pytest.approx(ref, rel=1e-13)

    @settings(max_examples=25, deadline=None)
    @given(
        d=st.sampled_from([1, 2]),
        coords=st.lists(
            st.sampled_from([0.0, 1.0, -1.0, 2.0, 7.5]) | st.floats(-40.0, 40.0),
            min_size=2,
            max_size=12,
        ),
        order=st.randoms(use_true_random=False),
    )
    def test_batch_invariance(self, d, coords, order):
        # a value depends on its own magnitude only: duplicates, zeros, order
        # and batch-mates change no bit
        r = np.geomspace(0.01, 10.0, 30)
        tab = lv.TabulatedMeasure(radii=tuple(r), density=tuple(r**-2.2), dimension=d)
        batch = np.array(coords[: len(coords) // d * d]).reshape((-1,) if d == 1 else (-1, 2))
        perm = list(range(len(batch)))
        order.shuffle(perm)
        vals = tab.exponent(batch)
        assert np.array_equal(tab.exponent(batch[perm]), vals[perm])
        for point, val in zip(batch, vals):
            assert tab.exponent(point).tobytes() == val.tobytes()

    def test_radial_stable_in_two_dimensions(self):
        # isotropic density c |z|^{-2-alpha}: psi = 2 pi c K_alpha |xi|^alpha
        # with K_alpha = int_0^inf (1 - J0(u)) u^{-1-alpha} du in closed form
        alpha, c = 1.5, 0.3
        r = np.geomspace(1e-7, 400.0, 600)
        tab = lv.TabulatedMeasure(
            radii=tuple(r), density=tuple(c * r ** (-2 - alpha)), dimension=2
        )
        k_alpha = 2**-alpha * math.gamma(1 - alpha / 2) / (alpha * math.gamma(1 + alpha / 2))
        xi = np.array([[0.5, 0.0], [1.2, -1.6], [0.0, 16.0]])
        closed = 2 * math.pi * c * k_alpha * np.linalg.norm(xi, axis=-1) ** alpha
        # missing tail mass beyond the tabulated support bounds the error
        tail = 2 * math.pi * c * r[-1] ** (-alpha) / alpha
        assert np.all(np.abs(tab.exponent(xi) - closed) <= 2 * tail + 1e-8 * closed)

    def test_octave_rules_built_once_per_measure(self, monkeypatch):
        builds, cells = [], lv.TabulatedMeasure._cells

        def counted(tab, lo, hi, osc_scale):
            builds.append((lo, hi, osc_scale))
            return cells(tab, lo, hi, osc_scale)

        monkeypatch.setattr(lv.TabulatedMeasure, "_cells", counted)
        tab = lv.TabulatedMeasure(radii=tuple(self.R25), density=tuple(self.R25**-2.5))
        mags = np.unique(np.abs(build_grid({"n": 256, "length_factor": 4}).xi))
        assert mags.size == 129
        edges = {max(1.0, 2.0 ** math.frexp(m)[1]) for m in mags[1:]}
        first = [tab.exponent(float(m)) for m in mags]
        # two pieces per octave, [0, 1] and [1, radii[-1]], each built once
        pieces = [(lo, hi, e) for e in edges for lo, hi in ((0.0, 1.0), (1.0, 10.0))]
        assert sorted(builds) == sorted(pieces)
        builds.clear()
        assert [tab.exponent(float(m)) for m in mags] == first
        assert builds == []

    def test_kept_nodes_stay_within_cap(self):
        tab = lv.TabulatedMeasure(radii=tuple(self.R25), density=tuple(self.R25**-2.5))
        # edges 2^10 to 2^14: the last octave's two rules hold 1.1e6 nodes
        for m in (1000.0, 3000.0, 12288.0, 3000.0):
            val = tab.exponent(m)
            kept = sum(r.size for r, *_ in tab._rules.values())
            assert 0 < kept <= measures._RULE_CACHE_NODES
            fresh = lv.TabulatedMeasure(radii=tab.radii, density=tab.density)
            assert val.tobytes() == fresh.exponent(m).tobytes()

    def test_octave_over_the_cap_keeps_the_others(self):
        # the two pieces of the 2^14 octave hold 376,488 and 728,190 nodes:
        # together over the cap, so the octave is used without being kept and
        # neither piece evicts the other octaves' rules
        tab = lv.TabulatedMeasure(radii=tuple(self.R25), density=tuple(self.R25**-2.5))
        low = [tab.exponent(m) for m in (0.5, 3.0, 40.0, 700.0)]
        warm = dict(tab._rules)
        assert len(warm) == 8
        high = tab.exponent(12288.0)
        assert tab._rules.keys() == warm.keys()
        assert all(tab._rules[key] is rule for key, rule in warm.items())
        fresh = lv.TabulatedMeasure(radii=tab.radii, density=tab.density)
        assert high.tobytes() == fresh.exponent(12288.0).tobytes()
        assert [tab.exponent(m).tobytes() for m in (0.5, 3.0, 40.0, 700.0)] == [
            v.tobytes() for v in low
        ]

    def test_concurrent_callers_share_one_measure(self, monkeypatch):
        # more threads than cores, a short switch interval and a cap that
        # forces evictions: every value is a fresh measure's, the cap holds
        monkeypatch.setattr(measures, "_RULE_CACHE_NODES", 20_000)
        make = lambda: lv.TabulatedMeasure(radii=tuple(self.R25), density=tuple(self.R25**-2.2))
        mags = [1.5 * 2.0**k for k in range(-1, 9)]
        expected = make().exponent(mags)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for tab in [make() for _ in range(6)]:
                    calls = [pool.submit(lambda: [tab.exponent(m) for m in mags]) for _ in range(16)]
                    assert all(np.array_equal(f.result(timeout=120), expected) for f in calls)
                    assert sum(r.size for r, *_ in tab._rules.values()) <= 20_000
        finally:
            sys.setswitchinterval(interval)

    def test_failure_is_raised_on_every_call(self):
        r = np.geomspace(0.5, 10.0, 5)
        tab = lv.TabulatedMeasure(radii=tuple(r), density=tuple(r**-2.5))
        errors = []
        for _ in range(2):
            with pytest.raises(lv.QuadratureError) as info:
                tab.exponent(1e5)
            errors.append(info.value)
        first, second = [(e.magnitude, e.residual, e.tolerance) for e in errors]
        assert first == second and first[0] == 1e5


# Exact octave edges 2^k, |xi| <= 1 and general magnitudes.
MAGNITUDES = (st.sampled_from([2.0**k for k in range(-3, 9)]) | st.floats(0.0, 1.0)
              | st.floats(0.0, 300.0))
SIX_ATOMS = {
    1: tuple(((z,), w) for z, w in zip((-2.7, -0.8, -0.3, 0.45, 1.1, 2.9),
                                       (0.4, 1.3, 2.0, 0.7, 1.6, 0.9))),
    2: tuple((z, w) for z, w in zip(((-2.7, 0.4), (-0.8, -0.1), (0.0, -0.3), (0.45, 0.6),
                                     (1.1, 0.0), (2.9, -1.4)),
                                    (0.4, 1.3, 2.0, 0.7, 1.6, 0.9))),
}
R22 = np.geomspace(0.01, 10.0, 30)
MEASURE_KINDS = {
    "stable": lambda d: lv.StableMeasure.normalized(1.3, dimension=d),
    "atomic": lambda d: lv.AtomicMeasure(atoms=SIX_ATOMS[d], dimension=d),
    "tabulated": lambda d: lv.TabulatedMeasure(radii=tuple(R22), density=tuple(R22**-2.2),
                                               dimension=d),
}


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(sorted(MEASURE_KINDS)),
    d=st.sampled_from([1, 2]),
    mags=st.lists(MAGNITUDES, min_size=1, max_size=10),
    pick=st.randoms(use_true_random=False),
)
def test_values_are_fresh_batch_values(kind, d, mags, pick):
    # a fresh measure's batch, then scalar and batch calls on the same (warm)
    # measure: every value bit-identical, the truncation moments unchanged
    if d == 1:
        batch = np.array([pick.choice((m, -m)) for m in mags])
    else:
        batch = np.array([pick.choice(((m, 0.0), (0.0, -m), (0.6 * m, 0.8 * m))) for m in mags])
    spec = MEASURE_KINDS[kind](d)
    fresh = spec.exponent(batch)
    warm_points = np.array([spec.exponent(p) for p in batch])
    assert np.array_equal(warm_points, fresh)
    assert np.array_equal(spec.exponent(batch), fresh)
    other = MEASURE_KINDS[kind](d)
    for eps in (0.05, 0.5):
        assert spec.tail_mass(eps) == other.tail_mass(eps)
        assert np.array_equal(spec.small_jump_variance(eps), other.small_jump_variance(eps))


class TestExponentInvariants:
    LATTICE = np.linspace(-60.0, 60.0, 241)

    @pytest.mark.parametrize(
        "spec",
        [
            lv.StableMeasure.normalized(1.2),
            lv.StableMeasure(alpha=1.8, c=0.7),
            lv.AtomicMeasure(atoms=(((2.0,), 1.0),)),
            lv.AtomicMeasure(atoms=(((0.5,), 3.0), ((-0.5,), 3.0))),
        ],
    )
    def test_conjugacy_and_nonnegative_real_part(self, spec):
        vals = lv.levy_exponent(spec, self.LATTICE)
        flipped = lv.levy_exponent(spec, -self.LATTICE)
        assert np.allclose(vals, np.conj(flipped), atol=1e-12)
        assert vals.real.min() >= -1e-12
        assert abs(lv.levy_exponent(spec, 0.0)) == 0.0

    @pytest.mark.parametrize(
        "spec",
        [
            lv.StableMeasure.normalized(1.5),
            lv.AtomicMeasure(atoms=(((0.7,), 2.0), ((-0.7,), 2.0))),
        ],
    )
    def test_symmetric_specs_have_real_exponent(self, spec):
        assert spec.is_symmetric
        vals = lv.levy_exponent(spec, self.LATTICE)
        assert np.abs(vals.imag).max() <= 1e-12


class TestTruncation:
    def test_stable_tail_mass_closed_form_vs_quadrature(self):
        alpha, c = 1.5, lv.stable_normalizer(1.5)
        spec = lv.StableMeasure(alpha=alpha, c=c)
        closed = 2 * c * 0.1 ** (-alpha) / alpha
        quad = 2 * c * integrate.quad(lambda z: z ** (-1 - alpha), 0.1, np.inf)[0]
        assert spec.tail_mass(0.1) == pytest.approx(closed, rel=1e-12)
        assert spec.tail_mass(0.1) == pytest.approx(quad, rel=1e-9)

    def test_atoms_beyond_radius_unchanged(self):
        # the tail beyond eps keeps exactly the atoms beyond eps, at their rates
        spec = lv.AtomicMeasure(atoms=(((2.0,), 1.0), ((-1.5,), 0.5)))
        assert spec.tail_mass(0.3) == 1.5
        assert spec.tail_mass(1.7) == 1.0
        assert np.all(spec.sample_tail(1.7, 100, np.random.default_rng(3)) == 2.0)

    def test_mass_monotone_in_radius(self):
        spec = lv.StableMeasure.normalized(1.5)
        masses = [spec.tail_mass(e) for e in (0.1, 0.3, 0.6, 0.99)]
        assert all(m1 >= m2 for m1, m2 in zip(masses, masses[1:]))
        # at eps -> 1 the mass approaches nu(|z| > 1)
        assert masses[-1] == pytest.approx(spec.tail_mass(1.0), rel=0.05)


class TestSmallJumpVariance:
    def test_antiderivative_vs_quadrature(self):
        spec = lv.StableMeasure(alpha=1.5, c=1.0)
        got = spec.small_jump_variance(0.1)[0, 0]
        closed = 2 * 0.1**0.5 / 0.5
        quad = 2 * integrate.quad(lambda z: z * z * z**-2.5, 0.0, 0.1)[0]
        assert got == pytest.approx(closed, rel=1e-12)
        assert got == pytest.approx(quad, rel=1e-9)

    def test_vanishes_as_radius_shrinks(self):
        spec = lv.StableMeasure.normalized(1.5)
        vals = [spec.small_jump_variance(e)[0, 0] for e in (0.2, 0.02, 0.002)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-1 * vals[0]

    def test_power_scaling_is_exact(self):
        # Sigma(eps) / eps^{2 - alpha} constant across the sweep
        spec = lv.StableMeasure(alpha=1.5, c=1.0)
        ratios = [
            spec.small_jump_variance(e)[0, 0] / e**0.5 for e in (0.2, 0.1, 0.05)
        ]
        assert max(ratios) / min(ratios) == pytest.approx(1.0, rel=1e-12)

    def test_monotone_psd_order(self):
        spec = lv.StableMeasure.normalized(1.3, dimension=2)
        prev = np.zeros((2, 2))
        for e in (0.05, 0.1, 0.4, 1.0):
            cur = spec.small_jump_variance(e)
            diff_eigs = np.linalg.eigvalsh(cur - prev)
            assert diff_eigs.min() >= -1e-14
            prev = cur


class TestSampling:
    def test_symmetric_mean_near_zero(self, stable_measure):
        rng = np.random.default_rng(42)
        draws = lv.sample_increment(stable_measure, 0.5, "truncated", rng, eps=0.1, size=10**6)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean()) <= 4 * se

    def test_truncated_jump_count_poisson_mean(self):
        # single-atom measure: every jump has size 2, so the per-increment
        # jump count is recoverable by brute force and its mean must equal
        # the truncated total mass (Poisson mean identity)
        rate, tau, n = 0.8, 1.0, 200_000
        spec = lv.AtomicMeasure(atoms=(((2.0,), rate),))
        draws = lv.sample_increment(
            spec, tau, "truncated", np.random.default_rng(7), eps=0.1, size=n
        )
        counts = draws / 2.0
        assert np.allclose(counts, np.round(counts))  # pure multiples of the atom
        mass = spec.tail_mass(0.1)
        assert mass == rate
        se = math.sqrt(mass * tau / n)
        assert abs(counts.mean() - mass * tau) <= 4 * se

    def test_compensation_adds_matched_variance(self, stable_measure):
        # identical generator state couples the jump draws, so the difference
        # of the two modes is exactly the added centered normal
        eps, tau, n = 0.3, 0.5, 400_000
        var_add = stable_measure.small_jump_variance(eps)[0, 0] * tau
        d1 = lv.sample_increment(
            stable_measure, tau, "truncated", np.random.default_rng(1), eps=eps, size=n
        )
        d2 = lv.sample_increment(
            stable_measure, tau, "truncated+gaussian", np.random.default_rng(1), eps=eps, size=n
        )
        diff_var = (d2 - d1).var(ddof=1)
        se = math.sqrt(2.0 / n) * diff_var
        assert abs(diff_var - var_add) <= 4 * se

    # The literal formulas draw the signs as int64 and multiply by +-1: the
    # samplers must give the same floats, sign bits included, and leave the
    # generator where the literal draws leave it.
    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(0.05, 1.99) | st.sampled_from([0.5, 1.0, 1.5]),
        eps=st.floats(1e-3, 1.0),
        size=st.integers(0, 3000) | st.just(150_001),  # signs span three blocks
        seed=st.integers(0, 2**32 - 1),
        lead=st.integers(0, 3),
    )
    @example(alpha=1.5, eps=0.05, size=150_001, seed=11, lead=1)
    def test_stable_tail_draws_match_literal_formula(self, alpha, eps, size, seed, lead):
        measure = lv.StableMeasure.normalized(alpha)
        rng = seeded_after_bits(seed, lead)
        draws = measure.sample_tail(eps, size, rng)
        literal_rng = seeded_after_bits(seed, lead)
        u = literal_rng.random(size)
        literal = eps * (1.0 - u) ** (-1.0 / alpha) * (literal_rng.integers(0, 2, size) * 2 - 1)
        assert np.array_equal(draws.view(np.int64), literal.view(np.int64))
        assert_same_stream_after(rng, literal_rng)

    # The raw-word reading of the sign bits, on each numpy bit generator and
    # around the block edges, against the literal uint32 draws.
    @pytest.mark.parametrize(
        "bit_generator",
        [np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64, np.random.Philox,
         np.random.MT19937],
    )
    @pytest.mark.parametrize("lead", [0, 1, 2, 3])
    def test_signs_match_literal_rule_on_every_bit_generator(self, bit_generator, lead):
        for size in (0, 1, 2, 3, 65535, 65536, 65537, 131073, 150_001):
            jumps = np.random.default_rng(size).random(size) + 0.5
            literal_rng = seeded_after_bits(29, lead, bit_generator)
            heads = literal_rng.integers(0, 2, size, dtype=np.uint32)
            literal = np.where(heads == 1, jumps, -jumps)
            rng = seeded_after_bits(29, lead, bit_generator)
            measures._set_signs(jumps, rng)
            assert np.array_equal(jumps.view(np.int64), literal.view(np.int64)), size
            assert_same_stream_after(rng, literal_rng)

    @pytest.mark.parametrize("size", [0, 1, 2999, 150_001])
    @pytest.mark.parametrize("lead", [0, 1])
    def test_stable_2d_tail_draws_match_literal_formula(self, size, lead):
        alpha, eps = 1.3, 0.07
        measure = lv.StableMeasure.normalized(alpha, dimension=2)
        rng = seeded_after_bits(17, lead)
        draws = measure.sample_tail(eps, size, rng)
        literal_rng = seeded_after_bits(17, lead)
        masses = [2.0 * w * eps ** (-alpha) / alpha for w in measure.axis_coeffs]
        axis = literal_rng.random(size) < masses[0] / sum(masses)
        u = literal_rng.random(size)
        jumps = eps * (1.0 - u) ** (-1.0 / alpha) * (literal_rng.integers(0, 2, size) * 2 - 1)
        literal = np.zeros((size, 2))
        literal[axis, 0] = jumps[axis]
        literal[~axis, 1] = jumps[~axis]
        assert np.array_equal(draws.view(np.int64), literal.view(np.int64))
        assert_same_stream_after(rng, literal_rng)

    @pytest.mark.parametrize("size", [0, 1, 2999, 150_001])
    @pytest.mark.parametrize("lead", [0, 1])
    def test_tabulated_tail_signs_match_literal_formula(self, size, lead):
        radii = np.geomspace(0.01, 10, 30)
        measure = lv.TabulatedMeasure(radii=tuple(radii), density=tuple(radii**-2.2))
        rng = seeded_after_bits(23, lead)
        draws = measure.sample_tail(0.1, size, rng)
        literal_rng = seeded_after_bits(23, lead)
        literal_rng.random(size)  # the magnitudes' uniforms
        literal = np.abs(draws) * (literal_rng.integers(0, 2, size) * 2 - 1)
        assert np.all(np.abs(draws) >= 0.1)
        assert np.array_equal(draws.view(np.int64), literal.view(np.int64))
        assert_same_stream_after(rng, literal_rng)

    @pytest.mark.parametrize(
        "measure",
        [
            lv.StableMeasure.normalized(1.5),
            lv.AtomicMeasure(atoms=(((0.5,), 2.0), ((-2.0,), 1.0))),
            lv.TabulatedMeasure(radii=tuple(np.geomspace(0.01, 10, 30)),
                                density=tuple(np.geomspace(0.01, 10, 30) ** -2.2)),
        ],
        ids=["stable", "atomic", "tabulated"],
    )
    def test_tail_draws_into_buffer_match_fresh_draws(self, measure):
        # 70,000 draws span two blocks of stable sign draws
        size = 70_000
        fresh_rng, buf_rng = np.random.default_rng(5), np.random.default_rng(5)
        fresh = measure.sample_tail(0.1, size, fresh_rng)
        buf = np.full(size + 9, np.nan)
        drawn = measure.sample_tail(0.1, size, buf_rng, out=buf)
        assert np.shares_memory(drawn, buf) and drawn.size == size
        assert np.array_equal(drawn.view(np.int64), fresh.view(np.int64))
        assert fresh_rng.random() == buf_rng.random()  # same stream consumed

    def test_exact_stable_requires_stable(self):
        rng = np.random.default_rng(0)
        atom = lv.AtomicMeasure(atoms=(((2.0,), 1.0),))
        with pytest.raises(ValueError):
            lv.sample_increment(atom, 1.0, "exact-stable", rng, size=1)

    def test_invalid_mode_and_eps(self, stable_measure):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            lv.sample_increment(stable_measure, 1.0, "bogus", rng, size=1)
        with pytest.raises(ValueError):
            lv.sample_increment(stable_measure, 1.0, "truncated", rng, eps=1.2, size=1)

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("mode", ["truncated", "exact-stable"])
    def test_step_not_positive_and_finite_refused(self, stable_measure, tau, mode):
        rng = np.random.default_rng(0)
        with pytest.raises(lv.ConfigError, match="positive and finite") as info:
            lv.sample_increment(stable_measure, tau, mode, rng, eps=0.1, size=4)
        assert info.value.field == "tau"
        assert rng.random() == np.random.default_rng(0).random()  # nothing drawn

    def test_compensator_drift_symmetric_zero(self, stable_measure):
        assert stable_measure.compensator_drift(0.1)[0] == 0.0

    def test_compensator_drift_one_sided(self):
        spec = lv.AtomicMeasure(atoms=(((0.5,), 2.0), ((2.0,), 1.0)))
        # only the atom in (eps, 1] contributes
        assert spec.compensator_drift(0.1)[0] == pytest.approx(1.0)


class TestJumpStream:
    @staticmethod
    def draw_sizes(rng, d):
        return lambda k: rng.standard_normal(k) if d == 1 else rng.standard_normal((k, d))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 12),
        rate=st.sampled_from([0.0, 1e-3, 0.5, 2.5]),
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([1, 2]),
    )
    def test_matches_per_path_loop(self, n, rate, seed, d):
        rng = np.random.default_rng(seed)
        got_counts, sizes = jump_stream(rate, n, self.draw_sizes(rng, d), rng)
        sums = path_sums(got_counts, sizes, n, d)
        # reference: counts first, then all sizes, then one plain loop per path
        ref_rng = np.random.default_rng(seed)
        counts = ref_rng.poisson(rate, n)
        total = int(counts.sum())
        ref_sizes = self.draw_sizes(ref_rng, d)(total) if total else np.empty((0, d))
        expected = np.zeros((n, d))
        start = 0
        for p in range(n):
            for jump in np.reshape(ref_sizes, (-1, d))[start : start + counts[p]]:
                expected[p] += jump
            start += counts[p]
        assert sums.shape == ((n,) if d == 1 else (n, d))
        assert np.array_equal(np.reshape(sums, (n, d)), expected)
        assert np.array_equal(got_counts, counts)
        assert rng.random() == ref_rng.random()  # same number of draws consumed

    @pytest.mark.parametrize("d", [1, 2])
    def test_empty_stream_gives_zeros_without_drawing(self, d):
        def no_draw(k):
            raise AssertionError("sizes drawn for an empty stream")

        counts, sizes = jump_stream(0.0, 7, no_draw, np.random.default_rng(0))
        sums = path_sums(counts, sizes, 7, d)
        assert counts.shape == (7,) and not counts.any()
        assert sums.shape == ((7,) if d == 1 else (7, d))
        assert not sums.any()

    @pytest.mark.parametrize("cuts", [(), (0.5,), (0.25, 1.0, 2.0)])
    def test_band_sums_match_one_bincount(self, cuts):
        # three blocks of owners and a partial one, with paths that never jump
        n = 3 * 4096 + 5
        rng = np.random.default_rng(4)
        counts, sizes = jump_stream(1.5, n, self.draw_sizes(rng, 1), rng)
        owner = np.repeat(np.arange(n), counts)
        band = sum(((sizes > c) | (sizes < -c)).astype(int) for c in cuts)
        m = len(cuts) + 1
        expected = np.bincount(owner * m + band, weights=sizes, minlength=n * m)
        got = path_sums(counts, sizes, n, cuts=cuts)
        assert got.shape == ((n, m) if cuts else (n,))
        assert np.array_equal(got.ravel(), expected)

    @pytest.mark.parametrize("n_cuts", [1, 3, 255, 300])
    def test_band_keys_match_two_comparisons(self, n_cuts):
        # sizes on the cuts themselves and signed zeros; 255 cuts fill a
        # uint8 band count, 300 need a wider one
        cuts = tuple(np.linspace(0.0, 2.0, n_cuts + 1)[1:])
        n = 4096 + 7
        rng = np.random.default_rng(n_cuts)
        counts, sizes = jump_stream(2.0, n, self.draw_sizes(rng, 1), rng)
        edge = np.array(cuts + (0.0, -0.0))
        sizes[::3] = rng.choice(edge, sizes[::3].size) * rng.choice([-1.0, 1.0], sizes[::3].size)
        key = np.repeat(np.arange(n) * (n_cuts + 1), counts)
        for c in cuts:
            key += (sizes > c) | (sizes < -c)
        expected = np.bincount(key, weights=sizes, minlength=n * (n_cuts + 1))
        got = path_sums(counts, sizes, n, cuts=cuts)
        assert np.array_equal(got.ravel(), expected)


class TestBgIndex:
    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    def test_stable_recovers_alpha(self, alpha):
        est = lv.bg_index(lv.StableMeasure.normalized(alpha), 2)
        assert abs(est - alpha) <= 0.05

    def test_finite_atomic_measure_is_zero(self):
        spec = lv.AtomicMeasure(atoms=(((2.0,), 1.0),))
        est = lv.bg_index(spec, 0, fit_range=(1.0, 512.0))
        assert abs(est) <= 0.05

    def test_small_window_rejected(self):
        with pytest.raises(ValueError):
            lv.bg_index(lv.StableMeasure.normalized(1.5), 2, fit_range=(2.0, 64.0))


class TestTruncatedExponent:
    # psi_eps = psi - small_jump_symbol_error(..., compensated=False)
    def test_against_small_jump_quadrature(self, stable_measure):
        # independent oracle: closed-form full exponent minus the adaptive
        # quadrature of the removed small-jump cosine integral on [0, eps]
        eps = 0.1
        c, alpha = stable_measure.c, stable_measure.alpha
        for xi in (0.5, 2.0, 10.0):
            small = 2 * c * integrate.quad(
                lambda r: (1 - np.cos(xi * r)) * r ** (-1 - alpha),
                0.0,
                eps,
                limit=400,
            )[0]
            oracle = abs(xi) ** alpha - small
            got = lv.levy_exponent(stable_measure, xi) - lv.small_jump_symbol_error(
                stable_measure, eps, xi, compensated=False
            )
            assert got.real == pytest.approx(oracle, rel=1e-6)
            assert abs(got.imag) <= 1e-12

    def test_truncation_reduces_exponent(self, stable_measure):
        xi = np.linspace(0.5, 30.0, 60)
        full = lv.levy_exponent(stable_measure, xi).real
        trunc = full - lv.small_jump_symbol_error(stable_measure, 0.2, xi, compensated=False)
        assert np.all(trunc <= full + 1e-12)
        assert np.all(trunc >= 0.0)


class TestSymbolError:
    def test_uncompensated_leading_order(self, stable_measure):
        # psi - psi_eps ~ eta^2 * Sigma(eps) / 2 for small eta * eps
        eps, eta = 0.05, 1.0
        got = lv.small_jump_symbol_error(stable_measure, eps, eta, compensated=False)
        lead = 0.5 * eta**2 * stable_measure.small_jump_variance(eps)[0, 0]
        assert got == pytest.approx(lead, rel=0.01)

    def test_compensated_is_higher_order(self, stable_measure):
        eps, eta = 0.05, 1.0
        comp = abs(lv.small_jump_symbol_error(stable_measure, eps, eta, compensated=True))
        uncomp = abs(lv.small_jump_symbol_error(stable_measure, eps, eta, compensated=False))
        assert comp <= 1e-2 * uncomp

    @pytest.mark.parametrize("compensated", [False, True])
    def test_tabulated_against_quadrature(self, compensated):
        # independent oracle: adaptive quadrature of 2 int_0^eps k(eta r) g(r) dr,
        # k(u) = 1 - cos u [- u^2/2], for a density whose slope changes at the
        # node 0.03, inside (0, eps)
        kink = 0.03
        radii = np.union1d(np.geomspace(0.001, 10.0, 41), [kink])
        g = lambda r: np.where(r <= kink, r**-2.2, kink**-2.2 * (r / kink) ** -1.4)
        measure = lv.TabulatedMeasure(radii=tuple(radii), density=tuple(g(radii)))
        eps, etas = 0.1, np.array([0.5, 3.0, 40.0])
        got = lv.small_jump_symbol_error(measure, eps, etas, compensated=compensated)
        for eta, value in zip(etas, got):
            k = lambda r: 2.0 * np.sin(eta * r / 2.0) ** 2 - compensated * (eta * r) ** 2 / 2.0
            oracle = 2.0 * integrate.quad(lambda r: k(r) * g(r), 0.0, eps, points=radii[radii < eps],
                                          limit=400, epsabs=0.0, epsrel=1e-13)[0]
            assert value == pytest.approx(oracle, rel=1e-10)
