"""Levy exponents, truncation, variance bookkeeping, sampling, and the
activity-index estimator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

import levysde as lv
from levysde.measures import jump_stream, path_sums


def lk_integrand_oracle(atoms, xi):
    """Direct Levy-Khintchine sum for a finite atomic measure (test oracle)."""
    total = 0.0 + 0.0j
    for z, r in atoms:
        z = z[0]
        comp = 1j * xi * z if abs(z) <= 1.0 else 0.0
        total += r * (1.0 - np.exp(1j * xi * z) + comp)
    return total


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
        # 4,096 cells per segment cannot resolve a quarter oscillation here
        r = np.geomspace(0.5, 10.0, 5)
        tab = lv.TabulatedMeasure(radii=tuple(r), density=tuple(r**-2.5))
        with pytest.raises(lv.QuadratureError) as info:
            tab.exponent(np.array([1.2e4, 1.0, 1e4]))
        err = info.value
        assert err.magnitude == 1e4  # the smallest failing magnitude of its band
        assert err.residual > err.tolerance > 0.0
        assert "|xi| = 10000" in str(err)

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
        trunc = lv.truncated_measure(spec, 0.1)
        closed = 2 * c * 0.1 ** (-alpha) / alpha
        quad = 2 * c * integrate.quad(lambda z: z ** (-1 - alpha), 0.1, np.inf)[0]
        assert trunc.tail_mass() == pytest.approx(closed, rel=1e-12)
        assert trunc.tail_mass() == pytest.approx(quad, rel=1e-9)

    def test_atoms_beyond_radius_unchanged(self):
        spec = lv.AtomicMeasure(atoms=(((2.0,), 1.0), ((-1.5,), 0.5)))
        assert lv.truncated_measure(spec, 0.3).atoms == spec.atoms

    def test_mass_monotone_in_radius(self):
        spec = lv.StableMeasure.normalized(1.5)
        masses = [lv.truncated_measure(spec, e).tail_mass() for e in (0.1, 0.3, 0.6, 0.99)]
        assert all(m1 >= m2 for m1, m2 in zip(masses, masses[1:]))
        # at eps -> 1 the mass approaches nu(|z| > 1)
        assert masses[-1] == pytest.approx(spec.tail_mass(1.0), rel=0.05)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            lv.truncated_measure(lv.StableMeasure.normalized(1.5), 1.5)


class TestSmallJumpVariance:
    def test_antiderivative_vs_quadrature(self):
        spec = lv.StableMeasure(alpha=1.5, c=1.0)
        got = lv.small_jump_variance(spec, 0.1)[0, 0]
        closed = 2 * 0.1**0.5 / 0.5
        quad = 2 * integrate.quad(lambda z: z * z * z**-2.5, 0.0, 0.1)[0]
        assert got == pytest.approx(closed, rel=1e-12)
        assert got == pytest.approx(quad, rel=1e-9)

    def test_vanishes_as_radius_shrinks(self):
        spec = lv.StableMeasure.normalized(1.5)
        vals = [lv.small_jump_variance(spec, e)[0, 0] for e in (0.2, 0.02, 0.002)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-1 * vals[0]

    def test_power_scaling_is_exact(self):
        # Sigma(eps) / eps^{2 - alpha} constant across the sweep
        spec = lv.StableMeasure(alpha=1.5, c=1.0)
        ratios = [
            lv.small_jump_variance(spec, e)[0, 0] / e**0.5 for e in (0.2, 0.1, 0.05)
        ]
        assert max(ratios) / min(ratios) == pytest.approx(1.0, rel=1e-12)

    def test_monotone_psd_order(self):
        spec = lv.StableMeasure.normalized(1.3, dimension=2)
        prev = np.zeros((2, 2))
        for e in (0.05, 0.1, 0.4, 1.0):
            cur = lv.small_jump_variance(spec, e)
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
        mass = lv.truncated_measure(spec, 0.1).tail_mass()
        assert mass == rate
        se = math.sqrt(mass * tau / n)
        assert abs(counts.mean() - mass * tau) <= 4 * se

    def test_compensation_adds_matched_variance(self, stable_measure):
        # identical generator state couples the jump draws, so the difference
        # of the two modes is exactly the added centered normal
        eps, tau, n = 0.3, 0.5, 400_000
        var_add = lv.small_jump_variance(stable_measure, eps)[0, 0] * tau
        d1 = lv.sample_increment(
            stable_measure, tau, "truncated", np.random.default_rng(1), eps=eps, size=n
        )
        d2 = lv.sample_increment(
            stable_measure, tau, "truncated+gaussian", np.random.default_rng(1), eps=eps, size=n
        )
        diff_var = (d2 - d1).var(ddof=1)
        se = math.sqrt(2.0 / n) * diff_var
        assert abs(diff_var - var_add) <= 4 * se

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(0.05, 1.99) | st.sampled_from([0.5, 1.0, 1.5]),
        eps=st.floats(1e-3, 1.0),
        size=st.integers(0, 3000) | st.just(150_001),  # signs span three blocks
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stable_tail_draws_match_literal_formula(self, alpha, eps, size, seed):
        measure = lv.StableMeasure.normalized(alpha)
        draws = measure.sample_tail(eps, size, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        u = rng.random(size)
        literal = eps * (1.0 - u) ** (-1.0 / alpha) * (rng.integers(0, 2, size) * 2 - 1)
        # bitwise, sign bits included
        assert np.array_equal(draws.view(np.int64), literal.view(np.int64))

    @pytest.mark.parametrize(
        "measure",
        [
            lv.StableMeasure.normalized(1.5),
            lv.truncated_measure(lv.StableMeasure.normalized(1.2), 0.3),
            lv.AtomicMeasure(atoms=(((0.5,), 2.0), ((-2.0,), 1.0))),
            lv.TabulatedMeasure(radii=tuple(np.geomspace(0.01, 10, 30)),
                                density=tuple(np.geomspace(0.01, 10, 30) ** -2.2)),
        ],
        ids=["stable", "truncated", "atomic", "tabulated"],
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
            lv.sample_increment(atom, 1.0, "exact-stable", rng)

    def test_invalid_mode_and_eps(self, stable_measure):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            lv.sample_increment(stable_measure, 1.0, "bogus", rng)
        with pytest.raises(ValueError):
            lv.sample_increment(stable_measure, 1.0, "truncated", rng, eps=1.2)

    def test_compensator_drift_symmetric_zero(self, stable_measure):
        assert lv.compensator_drift(stable_measure, 0.1)[0] == 0.0

    def test_compensator_drift_one_sided(self):
        spec = lv.AtomicMeasure(atoms=(((0.5,), 2.0), ((2.0,), 1.0)))
        # only the atom in (eps, 1] contributes
        assert lv.compensator_drift(spec, 0.1)[0] == pytest.approx(1.0)


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


class TestBgIndex:
    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    def test_stable_recovers_alpha(self, alpha):
        est = lv.bg_index(lv.StableMeasure.normalized(alpha), 2)
        assert abs(est - alpha) <= 0.05

    def test_finite_atomic_measure_is_zero(self):
        spec = lv.AtomicMeasure(atoms=(((2.0,), 1.0),))
        est = lv.bg_index(spec, 0, fit_range=(1.0, 512.0))
        assert abs(est) <= 0.05

    def test_gaussian_hook(self):
        est = lv.bg_index(lambda s: abs(s) ** 2, 2)
        assert abs(est - 2.0) <= 0.05

    def test_small_window_rejected(self):
        with pytest.raises(ValueError):
            lv.bg_index(lv.StableMeasure.normalized(1.5), 2, fit_range=(2.0, 64.0))


class TestTruncatedExponent:
    def test_against_small_jump_quadrature(self, stable_measure):
        # independent oracle: closed-form full exponent minus the adaptive
        # quadrature of the removed small-jump cosine integral on [0, eps]
        eps = 0.1
        trunc = lv.truncated_measure(stable_measure, eps)
        c, alpha = stable_measure.c, stable_measure.alpha
        for xi in (0.5, 2.0, 10.0):
            small = 2 * c * integrate.quad(
                lambda r: (1 - np.cos(xi * r)) * r ** (-1 - alpha),
                0.0,
                eps,
                limit=400,
            )[0]
            oracle = abs(xi) ** alpha - small
            got = lv.levy_exponent(trunc, xi)
            assert got.real == pytest.approx(oracle, rel=1e-6)
            assert abs(got.imag) <= 1e-12

    def test_truncation_reduces_exponent(self, stable_measure):
        xi = np.linspace(0.5, 30.0, 60)
        full = lv.levy_exponent(stable_measure, xi).real
        trunc = lv.levy_exponent(lv.truncated_measure(stable_measure, 0.2), xi).real
        assert np.all(trunc <= full + 1e-12)
        assert np.all(trunc >= 0.0)


class TestSymbolError:
    def test_uncompensated_leading_order(self, stable_measure):
        # psi - psi_eps ~ eta^2 * Sigma(eps) / 2 for small eta * eps
        eps, eta = 0.05, 1.0
        got = lv.small_jump_symbol_error(stable_measure, eps, eta, compensated=False)
        lead = 0.5 * eta**2 * lv.small_jump_variance(stable_measure, eps)[0, 0]
        assert got == pytest.approx(lead, rel=0.01)

    def test_compensated_is_higher_order(self, stable_measure):
        eps, eta = 0.05, 1.0
        comp = abs(lv.small_jump_symbol_error(stable_measure, eps, eta, compensated=True))
        uncomp = abs(lv.small_jump_symbol_error(stable_measure, eps, eta, compensated=False))
        assert comp <= 1e-2 * uncomp
