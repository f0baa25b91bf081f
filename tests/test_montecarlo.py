"""Path simulation, Monte Carlo semigroup estimates, weak-error tables,
strong-Feller and density probes, and the jump-split cross-check."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import levysde as lv
from levysde import montecarlo
from levysde.measures import jump_stream, path_sums
from levysde.montecarlo import _kde

PERIOD = 8 * np.pi


@pytest.fixture(scope="module")
def scheme_small():
    return lv.SimScheme(eps=0.1, tau=1.0, gaussian_compensation=True, paths=60_000, seed=7)


class TestSimulatePath:
    def test_deterministic_transport(self, stable_measure):
        model = lv.SdeModel(
            sigma=lv.coefficient_preset("constant", value=0.0),
            drift=lv.coefficient_preset("constant", value=1.0),
            measure=stable_measure,
            sigma_lower_bound=0.0,
        )
        scheme = lv.SimScheme(eps=0.1, tau=0.25, gaussian_compensation=False, paths=1, seed=1)
        X = lv.simulate_path(model, 0.0, 1.0, scheme, np.random.default_rng(0), mode="truncated")
        assert X == pytest.approx(1.0, abs=1e-14)

    def test_stable_marginal_kolmogorov_smirnov(self, constant_model):
        # X(t) - x0 is alpha-stable with scale t^{1/alpha}; KS at level 0.01
        scheme = lv.SimScheme(
            eps=0.1, tau=1.0, gaussian_compensation=False, paths=100_000, seed=3
        )
        X = lv.terminal_samples(constant_model, 0.0, 1.0, scheme, mode="exact-stable")
        qgrid = np.linspace(np.quantile(X, 0.0005), np.quantile(X, 0.9995), 3001)
        cdf = stats.levy_stable.cdf(qgrid, 1.5, 0.0, scale=1.0)  # psi = |xi|^1.5, t = 1
        emp = np.interp(np.sort(X), qgrid, cdf, left=0.0, right=1.0)
        n = X.size
        ks = np.max(
            np.maximum(
                np.abs(emp - np.arange(1, n + 1) / n), np.abs(emp - np.arange(n) / n)
            )
        )
        assert ks <= stats.kstwobign.ppf(0.99) / math.sqrt(n)

    def test_self_similarity_scale(self, constant_model):
        # interquartile range scales like t^{1/alpha}
        out = {}
        for t in (0.25, 1.0):
            scheme = lv.SimScheme(
                eps=0.1, tau=1.0, gaussian_compensation=False, paths=200_000, seed=4
            )
            X = lv.terminal_samples(constant_model, 0.0, t, scheme, mode="exact-stable")
            q25, q75 = np.quantile(X, [0.25, 0.75])
            out[t] = q75 - q25
        assert out[1.0] / out[0.25] == pytest.approx(4.0 ** (1 / 1.5), rel=0.02)

    def test_compensation_changes_second_moment(self, constant_model, stable_measure):
        # same seed couples the jump parts exactly, so the terminal second
        # moments differ by the added Gaussian variance Sigma(eps) * t
        t, eps, n = 1.0, 0.3, 400_000
        sig_add = lv.small_jump_variance(stable_measure, eps)[0, 0] * t
        s1 = lv.SimScheme(eps=eps, tau=1.0, gaussian_compensation=False, paths=n, seed=9)
        s2 = lv.SimScheme(eps=eps, tau=1.0, gaussian_compensation=True, paths=n, seed=9)
        X1 = lv.terminal_samples(constant_model, 0.0, t, s1)
        X2 = lv.terminal_samples(constant_model, 0.0, t, s2)
        diff_var = (X2 - X1).var(ddof=1)
        se = math.sqrt(2.0 / n) * diff_var  # Gaussian difference: chi2 stderr
        assert abs(diff_var - sig_add) <= 4 * se


class TestMcSemigroup:
    def test_constant_payoff(self, constant_model, scheme_small):
        est = lv.mc_semigroup(lambda X: np.ones_like(X), constant_model, 0.0, 1.0, scheme_small)
        assert est.mean == 1.0
        assert est.stderr == 0.0
        assert est.paths_used == scheme_small.paths

    def test_indicator_symmetry(self, constant_model, scheme_small):
        est = lv.mc_semigroup(
            lv.indicator_payoff(0.0), constant_model, 0.0, 1.0, scheme_small,
            mode="exact-stable",
        )
        assert abs(est.mean - 0.5) <= 4 * est.stderr

    @pytest.mark.parametrize("t", [0.25, 1.0, 2.0])
    @pytest.mark.parametrize(
        "payoff",
        [
            lv.bump_payoff(center=0.0, width=2.0, period=PERIOD),
            lv.hat_payoff(center=0.0, width=2.0, period=PERIOD),
            # half-torus indicator: periodic, so MC and multiplier sides agree
            lambda X: ((np.asarray(X) % PERIOD) >= PERIOD / 2).astype(float),
        ],
        ids=["bump", "hat", "indicator"],
    )
    def test_spectral_cross_validation(self, constant_model, t, payoff):
        # 3 payoffs x 3 times against the exact multiplier semigroup
        scheme = lv.SimScheme(
            eps=0.1, tau=1.0, gaussian_compensation=False, paths=200_000, seed=21
        )
        est = lv.mc_semigroup(payoff, constant_model, 0.0, t, scheme, mode="exact-stable")
        ref = lv.spectral_reference(constant_model, payoff, 0.0, t)
        assert abs(est.mean - ref) <= 4 * max(est.stderr, 1e-6)

    def test_mc_matches_contour_semigroup(self, constant_model):
        # the spectral semigroup evaluated at the start node vs Monte Carlo
        grid = lv.TorusGrid(n=1024, dimension=1, length_factor=4.0)
        sym = lv.tabulate(constant_model, grid)
        gf = lv.GridFunction.from_callable(
            grid, lv.bump_payoff(center=0.0, width=2.0, period=grid.period)
        )
        t = 1.0
        pt = lv.semigroup_apply(t, sym, gf)
        ref = float(pt.values[0].real)  # x0 = 0 is grid node 0
        scheme = lv.SimScheme(
            eps=0.1, tau=1.0, gaussian_compensation=False, paths=200_000, seed=31
        )
        est = lv.mc_semigroup(gf, constant_model, 0.0, t, scheme, mode="exact-stable")
        assert abs(est.mean - ref) <= 4 * est.stderr

    def test_grid_payoff_interpolant(self, constant_model):
        grid = lv.TorusGrid(n=512, dimension=1, length_factor=4.0)
        fn = lv.hat_payoff(center=2.0, width=1.5, period=grid.period)
        gf = lv.GridFunction.from_callable(grid, fn)
        interp = lv.payoff_from_grid(gf)
        probe = np.linspace(-30.0, 30.0, 501)
        assert np.abs(interp(probe) - fn(probe)).max() <= 0.01

    def test_reproducibility_bit_identical(self, constant_model, scheme_small):
        payoff = lv.bump_payoff(center=0.0, width=2.0, period=PERIOD)
        a = lv.mc_semigroup(payoff, constant_model, 0.0, 1.0, scheme_small)
        b = lv.mc_semigroup(payoff, constant_model, 0.0, 1.0, scheme_small)
        assert a.mean == b.mean and a.stderr == b.stderr

    def test_reproducibility_across_thread_counts(self, constant_model, monkeypatch):
        payoff = lv.hat_payoff(center=0.0, width=2.0, period=PERIOD)
        scheme = lv.SimScheme(
            eps=0.1, tau=1.0, gaussian_compensation=True, paths=200_000, seed=13
        )
        monkeypatch.setenv("LEVYSDE_THREADS", "1")
        a = lv.mc_semigroup(payoff, constant_model, 0.0, 1.0, scheme)
        monkeypatch.setenv("LEVYSDE_THREADS", "4")
        b = lv.mc_semigroup(payoff, constant_model, 0.0, 1.0, scheme)
        assert a.mean == b.mean and a.stderr == b.stderr

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_invalid_thread_count_is_config_error(self, constant_model, monkeypatch, value):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr("levysde.montecarlo.ThreadPoolExecutor", no_pool)
        monkeypatch.setenv("LEVYSDE_THREADS", value)
        scheme = lv.SimScheme(eps=0.1, tau=1.0, gaussian_compensation=True, paths=100, seed=1)
        payoff = lv.hat_payoff(center=0.0, width=2.0, period=PERIOD)
        ops = (
            lambda: lv.terminal_samples(constant_model, 0.0, 1.0, scheme),
            lambda: lv.weak_error_table(constant_model, payoff, 0.0, 1.0, [0.4, 0.1], scheme),
        )
        for op in ops:
            with pytest.raises(lv.ConfigError, match="LEVYSDE_THREADS") as info:
                op()
            assert info.value.field == "LEVYSDE_THREADS"


class TestWeakError:
    def test_constant_payoff_all_zero(self, constant_model):
        scheme = lv.SimScheme(eps=0.4, tau=1.0, gaussian_compensation=False, paths=4000, seed=2)
        table = lv.weak_error_table(
            constant_model, lambda X: np.ones_like(X), 0.0, 1.0, [0.4, 0.2], scheme
        )
        assert all(err == 0.0 for _, err, _ in table.rows)
        assert table.noise_dominated  # zero errors: no rate to fit

    def test_uncompensated_matches_spectral_oracle(self, constant_model, stable_measure):
        # independent oracle: exact multiplier difference of the truncated law
        payoff = lv.bump_payoff(center=0.0, width=2.0, period=PERIOD)
        scheme = lv.SimScheme(
            eps=0.4, tau=1.0, gaussian_compensation=False, paths=200_000, seed=17
        )
        eps_list = [0.4, 0.2, 0.1, 0.05]
        table = lv.weak_error_table(constant_model, payoff, 0.0, 1.0, eps_list, scheme)
        grid = lv.TorusGrid(n=4096, dimension=1, length_factor=4.0)
        gf = lv.GridFunction(grid, payoff(grid.x))
        psi = lv.levy_exponent(stable_measure, grid.xi)
        for e, err, se in table.rows:
            diff = lv.small_jump_symbol_error(stable_measure, e, grid.xi, compensated=False)
            oracle = abs(
                np.real(np.sum(gf.coeffs * (np.exp(-psi) - np.exp(-(psi - diff)))))
            )
            assert abs(err - oracle) <= 4 * se

    def test_common_random_numbers_monotone(self, constant_model):
        payoff = lv.bump_payoff(center=0.0, width=2.0, period=PERIOD)
        scheme = lv.SimScheme(
            eps=0.4, tau=1.0, gaussian_compensation=False, paths=150_000, seed=29
        )
        table = lv.weak_error_table(
            constant_model, payoff, 0.0, 1.0, [0.4, 0.2, 0.1, 0.05], scheme
        )
        rows = sorted(table.rows)
        for (e1, err1, se1), (e2, err2, se2) in zip(rows, rows[1:]):
            assert err1 <= err2 + 2.0 * math.hypot(se1, se2)

    def test_exact_stable_reference_consistent(self, constant_model):
        # the simulation-based reference lands on the spectral one
        payoff = lv.bump_payoff(center=0.0, width=2.0, period=PERIOD)
        scheme = lv.SimScheme(
            eps=0.4, tau=1.0, gaussian_compensation=False, paths=150_000, seed=29
        )
        t_spec = lv.weak_error_table(
            constant_model, payoff, 0.0, 1.0, [0.4, 0.2], scheme, reference="spectral"
        )
        t_mc = lv.weak_error_table(
            constant_model, payoff, 0.0, 1.0, [0.4, 0.2], scheme, reference="exact-stable"
        )
        assert abs(t_mc.reference - t_spec.reference) <= 0.005
        for (_, e1, s1), (_, e2, s2) in zip(sorted(t_spec.rows), sorted(t_mc.rows)):
            assert abs(e1 - e2) <= 4 * math.hypot(s1, s2) + 0.005

    def test_variable_sigma_runs_fall_back_to_stepping(self):
        # x-dependent coefficients: per-level runs share the seed instead of
        # the single-step master-stream coupling
        model = lv.SdeModel(
            sigma=lv.coefficient_preset("2+sin", offset=2.0, amplitude=0.2),
            drift=lv.coefficient_preset("constant", value=0.0),
            measure=lv.StableMeasure.normalized(1.5),
            sigma_lower_bound=1.5,
        )
        payoff = lv.bump_payoff(center=0.0, width=2.0, period=PERIOD)
        scheme = lv.SimScheme(
            eps=0.4, tau=0.25, gaussian_compensation=True, paths=20_000, seed=3
        )
        table = lv.weak_error_table(
            model, payoff, 0.0, 1.0, [0.4, 0.1], scheme, reference="exact-stable"
        )
        assert len(table.rows) == 2
        assert all(np.isfinite(err) for _, err, _ in table.rows)

    def test_coefficients_sampled_over_the_torus(self, monkeypatch):
        # sin(pi x) vanishes at the integers but not on the torus: the table
        # must step the SDE per level, not reuse the constant-sigma coupling
        model = lv.SdeModel(
            sigma=lv.coefficient_preset("2+sin", offset=2.0, amplitude=0.2, frequency=math.pi),
            drift=lv.coefficient_preset("constant", value=0.0),
            measure=lv.StableMeasure.normalized(1.5),
            sigma_lower_bound=1.5,
        )
        streams = []
        real = lv.montecarlo.terminal_samples

        def spy(*args, **kwargs):
            streams.append(kwargs.get("stream"))
            return real(*args, **kwargs)

        monkeypatch.setattr(lv.montecarlo, "terminal_samples", spy)
        payoff = lv.bump_payoff(center=0.0, width=2.0, period=PERIOD)
        scheme = lv.SimScheme(eps=0.4, tau=1.0, gaussian_compensation=True, paths=2000, seed=3)
        lv.weak_error_table(model, payoff, 0.0, 1.0, [0.4, 0.2], scheme, reference="exact-stable")
        assert streams.count(7) == 2  # one stepped run per truncation level

    def test_compensated_smooth_payoff_noise_dominated(self, constant_model):
        # Gaussian compensation wipes out the smooth-payoff truncation bias;
        # the table must flag itself rather than fit a spurious rate
        payoff = lv.bump_payoff(center=0.0, width=2.0, period=PERIOD)
        scheme = lv.SimScheme(
            eps=0.4, tau=1.0, gaussian_compensation=True, paths=150_000, seed=17
        )
        table = lv.weak_error_table(
            constant_model, payoff, 0.0, 1.0, [0.4, 0.2, 0.1, 0.05], scheme
        )
        assert table.noise_dominated
        assert table.fit is None


    @pytest.mark.parametrize("compensation", [False, True])
    def test_rows_bit_identical_across_thread_counts(self, constant_model, monkeypatch,
                                                     compensation):
        payoff = lv.bump_payoff(center=0.0, width=2.0, period=PERIOD)
        # three batches, the last one partial
        scheme = lv.SimScheme(
            eps=0.4, tau=1.0, gaussian_compensation=compensation, paths=140_000, seed=5
        )
        tables = []
        for threads in ("1", "2", "4"):
            monkeypatch.setenv("LEVYSDE_THREADS", threads)
            tables.append(
                lv.weak_error_table(constant_model, payoff, 0.0, 1.0, [0.4, 0.2, 0.1], scheme)
            )
        assert tables[0].rows == tables[1].rows == tables[2].rows

    @pytest.mark.parametrize("compensation", [False, True])
    def test_rows_match_per_level_oracle(self, constant_model, stable_measure, compensation):
        # literal per-level filter on the same batch streams: a run at level e
        # keeps the jumps with |z| > e; the duplicated level must repeat its row
        payoff = lv.bump_payoff(center=0.0, width=2.0, period=PERIOD)
        eps_list = [0.3, 0.1, 0.1, 0.05]
        scheme = lv.SimScheme(
            eps=0.4, tau=1.0, gaussian_compensation=compensation, paths=140_000, seed=23
        )
        table = lv.weak_error_table(constant_model, payoff, 0.0, 1.0, eps_list, scheme)
        levels = sorted(eps_list)
        trunc = lv.truncated_measure(stable_measure, levels[0])
        sums = np.zeros((2, len(levels)))
        for nb, rng in montecarlo._batches(scheme.paths, scheme.seed, 7):
            draw = lambda k: trunc.sample_tail(size=k, rng=rng)
            counts, jumps = jump_stream(trunc.tail_mass(), nb, draw, rng)
            z = rng.standard_normal(nb)
            for k, e in enumerate(levels):
                dL = path_sums(counts, np.where(np.abs(jumps) > e, jumps, 0.0), nb)
                dL -= lv.compensator_drift(stable_measure, e)[0]
                if compensation:
                    dL += math.sqrt(lv.small_jump_variance(stable_measure, e)[0, 0]) * z
                vals = payoff(dL)
                sums[:, k] += vals.sum(), (vals**2).sum()
        means = sums[0] / scheme.paths
        stderrs = np.sqrt(np.maximum(sums[1] / scheme.paths - means**2, 0.0) / scheme.paths)
        assert [e for e, _, _ in table.rows] == levels
        assert table.rows[1][1:] == table.rows[2][1:]
        # the levels are summed in another order: the estimated means agree to
        # 1e-12 relative, so an error (a difference of means) to 1e-12 of the mean
        for (_, err, se), mean, oracle_se in zip(table.rows, means, stderrs):
            assert abs(err - abs(mean - table.reference)) <= 1e-12 * abs(mean)
            assert se == pytest.approx(oracle_se, rel=1e-12)


class TestStrongFeller:
    def test_profile_monotone_and_limits(self, constant_model):
        scheme = lv.SimScheme(
            eps=0.1, tau=1.0, gaussian_compensation=True, paths=50_000, seed=5
        )
        xs = np.linspace(-4.0, 4.0, 33)
        prof = lv.strong_feller_profile(constant_model, 1.0, 0.0, xs, scheme)
        vals = np.array(prof.profile)
        assert np.all(np.diff(vals) >= -1e-12)  # coupled paths: monotone profile
        assert math.isfinite(prof.lipschitz)

    def test_short_time_degenerate_limits(self, constant_model):
        scheme = lv.SimScheme(
            eps=0.1, tau=0.001, gaussian_compensation=True, paths=20_000, seed=6
        )
        xs = np.array([-4.0, 4.0])
        prof = lv.strong_feller_profile(constant_model, 0.001, 0.0, xs, scheme)
        se = max(prof.stderr)
        assert prof.profile[0] <= 4 * se  # far left: essentially 0
        assert prof.profile[1] >= 1.0 - 4 * se  # far right: essentially 1

    def test_variable_sigma_profile(self):
        model = lv.SdeModel(
            sigma=lv.coefficient_preset("2+sin", offset=2.0, amplitude=0.2),
            drift=lv.coefficient_preset("constant", value=0.0),
            measure=lv.StableMeasure.normalized(1.5),
            sigma_lower_bound=1.5,
        )
        scheme = lv.SimScheme(
            eps=0.1, tau=0.25, gaussian_compensation=True, paths=20_000, seed=5
        )
        xs = np.linspace(-4.0, 4.0, 17)
        prof = lv.strong_feller_profile(model, 1.0, 0.0, xs, scheme)
        vals = np.array(prof.profile)
        assert math.isfinite(prof.lipschitz)
        assert vals[0] < 0.5 < vals[-1]  # transitions through the threshold

    def test_lipschitz_growth_exponent(self, constant_model):
        scheme = lv.SimScheme(
            eps=0.1, tau=1.0, gaussian_compensation=True, paths=40_000, seed=5
        )
        xs = np.linspace(-4.0, 4.0, 33)
        rows, beta, fit = lv.strong_feller_growth(
            constant_model, [1.0, 0.5, 0.25, 0.125], 0.0, xs, scheme
        )
        assert beta <= 1.0 / 1.5 + 0.5


class TestDensityProbe:
    def test_normalization_symmetry_and_growth(self, constant_model):
        rep = lv.density_probe(
            constant_model, 0.0, [1.0, 0.5, 0.25, 0.125, 0.0625], paths=30_000
        )
        for t, h, sup_slope, integral, flagged in rep.rows:
            assert abs(integral - 1.0) <= 0.01
            assert not flagged
        assert rep.growth_exponent <= 2.0 / 1.5 + 0.5
        # self-similar oracle: sup |p_t'| ~ t^{-2/alpha}
        assert rep.growth_exponent == pytest.approx(2.0 / 1.5, abs=0.25)

    def test_symmetric_density(self, constant_model):
        # median of exact-stable terminal samples sits at the start point
        scheme = lv.SimScheme(
            eps=0.1, tau=1.0, gaussian_compensation=True, paths=50_000, seed=1234
        )
        X = lv.terminal_samples(constant_model, 2.0, 1.0, scheme, mode="exact-stable")
        se = 1.25 / math.sqrt(X.size)  # asymptotic median stderr ~ 1/(2 f(m) sqrt(n))
        assert abs(np.median(X) - 2.0) <= 6 * se

    def test_bandwidth_flagging(self, constant_model):
        rep = lv.density_probe(constant_model, 0.0, [1.0], paths=40)
        assert rep.rows[0][-1]  # under-resolved: flagged

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 5000),
        df=st.sampled_from([0.7, 1.0, 1.5, 3.0]),
        copies=st.integers(1, 6),
        far=st.integers(0, 4),
        log_h=st.floats(-2.0, 2.0),
        grid_points=st.integers(1, 41),
        pairs=st.sampled_from([1, 1000, 1 << 18]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_windowed_sum_matches_full_sum(self, n, df, copies, far, log_h, grid_points, pairs,
                                           seed):
        rng = np.random.default_rng(seed)
        # heavy-tailed Student-t samples, each repeated `copies` times, plus a few far outliers
        X = np.repeat(rng.standard_t(df, size=-(-n // copies)), copies)[:n]
        far = min(far, n)
        X[:far] = rng.choice([-1.0, 1.0], far) * 10.0 ** rng.uniform(3.0, 8.0, far)
        rng.shuffle(X)
        h = 10.0**log_h
        lo, hi = np.quantile(X, [0.001, 0.999])
        ys = np.linspace(lo - 6 * h, hi + 6 * h, grid_points)
        with mock.patch.object(montecarlo, "_KDE_PAIRS", pairs):  # also gather in several runs
            dens, slope = _kde(X, ys, h)
        z = (ys[:, None] - X[None, :]) / h
        k = np.exp(-0.5 * z**2) / math.sqrt(2 * math.pi)
        full_dens = k.sum(axis=1) / (n * h)
        full_slope = (-z * k).sum(axis=1) / (n * h * h)
        # relative to the largest value an estimate with bandwidth h can take:
        # K(0)/h for the density and |K'(1)|/h^2 for its slope
        assert np.abs(dens - full_dens).max() <= 1e-13 * stats.norm.pdf(0.0) / h
        assert np.abs(slope - full_slope).max() <= 1e-13 * stats.norm.pdf(1.0) / h**2


class TestJumpSplit:
    def test_stable_split_consistency(self, constant_model, stable_measure):
        rep = lv.jump_split_check(constant_model, 0.0, 1.0, paths=100_000, eps=0.05, seed=11)
        assert rep.all_within_4se
        assert rep.failures == ()
        se = rep.large_jump_se
        assert abs(rep.mean_large_jumps - rep.expected_large_jumps) <= 4 * se
        assert rep.expected_large_jumps == pytest.approx(stable_measure.tail_mass(1.0))

    def test_atomic_split_consistency(self):
        model = lv.SdeModel(
            sigma=lv.coefficient_preset("constant", value=1.0),
            drift=lv.coefficient_preset("constant", value=0.0),
            measure=lv.AtomicMeasure(
                atoms=(((0.5,), 3.0), ((-0.5,), 3.0), ((2.0,), 1.0), ((-1.5,), 0.7))
            ),
            sigma_lower_bound=0.5,
        )
        rep = lv.jump_split_check(model, 0.0, 1.0, paths=100_000, eps=0.05, seed=11)
        assert rep.all_within_4se
        assert rep.mean_large_jumps == pytest.approx(1.7, abs=4 * rep.large_jump_se)

    def test_constant_payoff_exact_zero(self, constant_model):
        payoffs = (lambda X: np.ones_like(np.asarray(X, dtype=float)),)
        rep = lv.jump_split_check(
            constant_model, 0.0, 1.0, paths=20_000, eps=0.1, seed=3, payoffs=payoffs
        )
        assert rep.payoff_rows[0][3] == 0.0

    @pytest.mark.parametrize("hi, overstated", [(1.0, False), (0.1, True)])
    def test_band_sampler_fills_the_band(self, stable_measure, hi, overstated):
        # an overstated keep rate makes the sampler draw again for the rest
        trunc = lv.truncated_measure(stable_measure, 0.05)
        keep_rate = 1.0 if overstated else 1.0 - stable_measure.tail_mass(hi) / trunc.tail_mass()
        rng = np.random.default_rng(4)
        for size in (0, 1, 17, 50_000):
            band = montecarlo._sample_band(trunc, 0.05, hi, size, rng, keep_rate)
            assert band.shape == (size,)
            assert np.all((np.abs(band) > 0.05) & (np.abs(band) <= hi))

    def test_band_sampler_refuses_an_empty_band(self):
        measure = lv.AtomicMeasure(atoms=(((0.5,), 3.0), ((2.0,), 1.0)))
        trunc = lv.truncated_measure(measure, 0.6)
        keep_rate = 1.0 - measure.tail_mass(1.0) / trunc.tail_mass()
        assert keep_rate == 0.0
        with pytest.raises(lv.ConfigError, match="no mass") as info:
            montecarlo._sample_band(trunc, 0.6, 1.0, 10, np.random.default_rng(1), keep_rate)
        assert info.value.field == "eps"

    def test_odd_payoff_near_zero(self, constant_model):
        payoffs = (lambda X: np.tanh(np.asarray(X, dtype=float)),)
        rep = lv.jump_split_check(
            constant_model, 0.0, 1.0, paths=100_000, eps=0.1, seed=3, payoffs=payoffs
        )
        _, mu_u, mu_s, diff, se = rep.payoff_rows[0]
        scale = math.sqrt(2.0 / 100_000)
        assert abs(mu_u) <= 4 * scale and abs(mu_s) <= 4 * scale
