"""Path simulation, Monte Carlo semigroup estimates, weak-error tables,
strong-Feller and density probes, and the jump-split cross-check."""

import ast
import inspect
import math
from dataclasses import replace
from pathlib import Path
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
        X = lv.terminal_samples(model, 0.0, 1.0, scheme, mode="truncated")
        assert X.shape == (1,)
        assert X[0] == pytest.approx(1.0, abs=1e-14)

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
        sig_add = stable_measure.small_jump_variance(eps)[0, 0] * t
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

    def test_mc_matches_multiplier_semigroup_at_start_node(self, constant_model):
        # the exact multiplier semigroup evaluated at the start node vs Monte Carlo
        grid = lv.TorusGrid(n=1024, dimension=1, length_factor=4.0)
        sym = lv.tabulate(constant_model, grid)
        payoff = lv.bump_payoff(center=0.0, width=2.0, period=grid.period)
        t = 1.0
        pt = lv.semigroup_apply(t, sym, lv.GridFunction.from_callable(grid, payoff))
        ref = float(pt.values[0].real)  # x0 = 0 is grid node 0
        scheme = lv.SimScheme(
            eps=0.1, tau=1.0, gaussian_compensation=False, paths=200_000, seed=31
        )
        est = lv.mc_semigroup(payoff, constant_model, 0.0, t, scheme, mode="exact-stable")
        assert abs(est.mean - ref) <= 4 * est.stderr

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
            lambda: lv.jump_split_check(constant_model, 0.0, 1.0, paths=100, eps=0.1, seed=1),
            lambda: lv.strong_feller_profile(constant_model, 1.0, 0.0, [-1.0, 1.0], scheme),
            lambda: lv.density_probe(constant_model, 0.0, [1.0], scheme),
        )
        for op in ops:
            with pytest.raises(lv.ConfigError, match="LEVYSDE_THREADS") as info:
                op()
            assert info.value.field == "LEVYSDE_THREADS"


def test_one_thread_pool():
    # the package's only thread pool is the one _pool_map starts
    tree = ast.parse(inspect.getsource(montecarlo))
    helpers = [node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "_pool_map"]
    inside = {id(node) for node in ast.walk(helpers[0])}
    used = [node for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "ThreadPoolExecutor"]
    assert used and all(id(node) in inside for node in used)
    for path in sorted(Path(montecarlo.__file__).parent.rglob("*.py")):
        if path.name != "montecarlo.py":
            assert "ThreadPoolExecutor" not in path.read_text(), path.name


def literal_wrap(X, center, period):
    return (np.asarray(X, dtype=float) - center + period / 2) % period - period / 2


def literal_bump(X, center, width, period):
    z = literal_wrap(X, center, period) / width
    out = np.zeros_like(z)
    inside = np.abs(z) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - z[inside] ** 2))
    return out


def literal_hat(X, center, width, period):
    return np.maximum(0.0, 1.0 - np.abs(literal_wrap(X, center, period)) / width)


class TestPeriodicWrap:
    """The wrap and the periodized payoffs give the bits of the literal
    ``(X - c + P/2) % P - P/2`` on every input."""

    def assert_same_bits(self, X, center, width=2.0, period=PERIOD):
        with np.errstate(invalid="ignore"):  # % of an infinity is NaN, as literally
            pairs = [
                (montecarlo._wrap_centered(X, center, period), literal_wrap(X, center, period)),
                (lv.bump_payoff(center, width, period)(X), literal_bump(X, center, width, period)),
                (lv.hat_payoff(center, width, period)(X), literal_hat(X, center, width, period)),
            ]
        for got, literal in pairs:
            assert type(got) is type(literal)
            assert got.tobytes() == literal.tobytes()

    @pytest.mark.parametrize("center", [0.0, -0.0, 1.3, -2.0, PERIOD / 2, 1e300])
    def test_special_values(self, center):
        P = PERIOD
        X = np.array([-0.0, 0.0, P / 2, -P / 2, P, -3.2 * P, 1e300, -1e-300,
                      np.nan, np.inf, -np.inf])
        self.assert_same_bits(X, center)
        for x in X:
            self.assert_same_bits(np.array(x), center)  # 0-d
            self.assert_same_bits(float(x), center)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(1e-3, 1e3),
        center=st.floats(-1e3, 1e3),
        width=st.floats(0.1, 10.0),
        size=st.integers(0, 5000),
    )
    def test_heavy_tailed_samples(self, seed, scale, center, width, size):
        X = scale * np.random.default_rng(seed).standard_cauchy(size)
        self.assert_same_bits(X, center, width)


def spy_advance(monkeypatch):
    """The step ``dt`` of every ``montecarlo._advance`` call, in call order."""
    steps = []
    real = montecarlo._advance

    def spy(model, X, dt, dL):
        steps.append(dt)
        return real(model, X, dt, dL)

    monkeypatch.setattr(montecarlo, "_advance", spy)
    return steps


class TestWeakError:
    def test_constant_payoff_all_zero(self, constant_model):
        scheme = lv.SimScheme(eps=0.4, tau=1.0, gaussian_compensation=False, paths=4000, seed=2)
        table = lv.weak_error_table(
            constant_model, lambda X: np.ones_like(X), 0.0, 1.0, [0.4, 0.2], scheme
        )
        assert all(err == 0.0 for _, err, _ in table.rows)
        assert table.noise_dominated  # zero errors: no rate to fit

    @pytest.mark.parametrize("levels", [[0.4, 0.0], [1.5, 0.2], [0.4, -0.1]])
    def test_levels_outside_unit_interval_refused(self, constant_model, levels):
        scheme = lv.SimScheme(eps=0.4, tau=1.0, gaussian_compensation=False, paths=100, seed=2)
        with pytest.raises(lv.ConfigError, match="truncation levels") as info:
            lv.weak_error_table(constant_model, lambda X: X, 0.0, 1.0, levels, scheme)
        assert info.value.field == "eps_list"

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
        # the CMS simulation that variable coefficients take as their
        # reference lands on the exact multiplier
        payoff = lv.bump_payoff(center=0.0, width=2.0, period=PERIOD)
        scheme = lv.SimScheme(
            eps=0.4, tau=1.0, gaussian_compensation=False, paths=150_000, seed=29
        )
        exact = lv.spectral_reference(constant_model, payoff, 0.0, 1.0)
        est = lv.mc_semigroup(payoff, constant_model, 0.0, 1.0, scheme, mode="exact-stable",
                              stream=999)
        assert abs(est.mean - exact) <= 4 * est.stderr

    def test_variable_sigma_runs_fall_back_to_stepping(self, variable_model, monkeypatch):
        # x-dependent coefficients: every level takes the scheme's Euler steps
        # through _advance, against the exact-stable reference of the base scheme
        payoff = lv.bump_payoff(center=0.0, width=2.0, period=PERIOD)
        scheme = lv.SimScheme(
            eps=0.4, tau=0.25, gaussian_compensation=True, paths=20_000, seed=3
        )
        steps = spy_advance(monkeypatch)
        table = lv.weak_error_table(variable_model, payoff, 0.0, 1.0, [0.4, 0.1], scheme)
        # two levels and the reference, four steps each
        assert steps == [0.25] * 12
        ref = lv.mc_semigroup(payoff, variable_model, 0.0, 1.0, scheme, mode="exact-stable",
                              stream=999)
        assert table.reference == ref.mean
        assert len(table.rows) == 2
        assert all(np.isfinite(err) for _, err, _ in table.rows)

    def test_coefficients_sampled_over_the_torus(self, monkeypatch):
        # sin(pi x) vanishes at the integers but not on the torus: the table
        # must step the SDE, not take the frozen one-step rule
        model = lv.SdeModel(
            sigma=lv.coefficient_preset("2+sin", offset=2.0, amplitude=0.2, frequency=math.pi),
            drift=lv.coefficient_preset("constant", value=0.0),
            measure=lv.StableMeasure.normalized(1.5),
            sigma_lower_bound=1.5,
        )
        steps = spy_advance(monkeypatch)
        payoff = lv.bump_payoff(center=0.0, width=2.0, period=PERIOD)
        scheme = lv.SimScheme(eps=0.4, tau=0.5, gaussian_compensation=True, paths=2000, seed=3)
        lv.weak_error_table(model, payoff, 0.0, 1.0, [0.4, 0.2], scheme)
        assert steps == [0.5] * 6  # two levels and the reference, two steps each

    def test_variable_sigma_without_stable_measure_refused(self):
        # x-dependent coefficients take the exact-stable reference
        model = lv.SdeModel(
            sigma=lv.coefficient_preset("2+sin", offset=2.0, amplitude=0.2),
            drift=lv.coefficient_preset("constant", value=0.0),
            measure=lv.AtomicMeasure(atoms=((0.5, 1.0), (-0.5, 1.0))),
            sigma_lower_bound=1.5,
        )
        scheme = lv.SimScheme(eps=0.4, tau=1.0, gaussian_compensation=False, paths=100, seed=2)
        with pytest.raises(lv.ConfigError, match="stable measure") as info:
            lv.weak_error_table(model, lambda X: X, 0.0, 1.0, [0.4, 0.2], scheme)
        assert info.value.field == "model"

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
    def test_rows_bit_identical_across_thread_counts(self, constant_model, variable_model,
                                                     monkeypatch, compensation):
        payoff = lv.bump_payoff(center=0.0, width=2.0, period=PERIOD)
        # three batches, the last one partial; the variable model takes four
        # Euler steps
        scheme = lv.SimScheme(
            eps=0.4, tau=1.0, gaussian_compensation=compensation, paths=140_000, seed=5
        )
        for model, tau in ((constant_model, 1.0), (variable_model, 0.25)):
            tables = []
            for threads in ("1", "2", "4"):
                monkeypatch.setenv("LEVYSDE_THREADS", threads)
                tables.append(lv.weak_error_table(model, payoff, 0.0, 1.0, [0.4, 0.2, 0.1],
                                                  replace(scheme, tau=tau)))
            assert tables[0] == tables[1] == tables[2]

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

        def batch(nb, rng):
            sums = np.empty((2, len(levels)))
            draw = lambda k: stable_measure.sample_tail(levels[0], k, rng)
            counts, jumps = jump_stream(stable_measure.tail_mass(levels[0]), nb, draw, rng)
            z = rng.standard_normal(nb)
            for k, e in enumerate(levels):
                dL = path_sums(counts, np.where(np.abs(jumps) > e, jumps, 0.0), nb)
                dL -= stable_measure.compensator_drift(e)[0]
                if compensation:
                    dL += math.sqrt(stable_measure.small_jump_variance(e)[0, 0]) * z
                vals = payoff(dL)
                sums[:, k] = vals.sum(), (vals**2).sum()
            return sums

        sums = sum(montecarlo._map_batches(batch, scheme.paths, scheme.seed, 7))
        means = sums[0] / scheme.paths
        stderrs = np.sqrt(np.maximum(sums[1] / scheme.paths - means**2, 0.0) / scheme.paths)
        assert [e for e, _, _ in table.rows] == levels
        assert table.rows[1][1:] == table.rows[2][1:]
        # the levels are summed in another order: the estimated means agree to
        # 1e-12 relative, so an error (a difference of means) to 1e-12 of the mean
        for (_, err, se), mean, oracle_se in zip(table.rows, means, stderrs):
            assert abs(err - abs(mean - table.reference)) <= 1e-12 * abs(mean)
            assert se == pytest.approx(oracle_se, rel=1e-12)


    @pytest.mark.parametrize("compensation", [False, True])
    def test_stepped_rows_match_per_level_oracle(self, variable_model, stable_measure,
                                                 compensation):
        # literal per-level Euler runs on the same batch streams: each step
        # draws its jumps once, at the smallest level, and level k keeps the
        # jumps that clear it; they are summed band by band (band b clears
        # exactly b of the higher levels), from the top band down
        payoff = lv.bump_payoff(center=0.5, width=2.0, period=PERIOD)
        levels = [0.05, 0.1, 0.3]
        n_steps, dt = 4, 0.25
        scheme = lv.SimScheme(
            eps=0.4, tau=dt, gaussian_compensation=compensation, paths=70_000, seed=23
        )
        table = lv.weak_error_table(variable_model, payoff, 0.5, 1.0, levels[::-1], scheme)

        def batch(nb, rng):
            X = [0.5] * len(levels)
            for _ in range(n_steps):
                draw = lambda k: stable_measure.sample_tail(levels[0], k, rng)
                counts, jumps = jump_stream(stable_measure.tail_mass(levels[0]) * dt, nb, draw,
                                            rng)
                z = rng.standard_normal(nb) if compensation else None
                band = sum(np.abs(jumps) > e for e in levels[1:])
                bands = [path_sums(counts, np.where(band == b, jumps, 0.0), nb)
                         for b in range(len(levels))]
                for k, e in enumerate(levels):
                    dL = bands[-1]
                    for b in range(len(levels) - 2, k - 1, -1):
                        dL = dL + bands[b]
                    dL = dL - stable_measure.compensator_drift(e)[0] * dt
                    if compensation:
                        dL = dL + math.sqrt(stable_measure.small_jump_variance(e)[0, 0] * dt) * z
                    X[k] = montecarlo._advance(variable_model, X[k], dt, dL)
            vals = [payoff(x) for x in X]
            return np.array([[v.sum() for v in vals], [(v**2).sum() for v in vals]])

        sums = sum(montecarlo._map_batches(batch, scheme.paths, scheme.seed, 7))
        means = sums[0] / scheme.paths
        variances = np.maximum(sums[1] / scheme.paths - means**2, 0.0)
        ref = lv.mc_semigroup(payoff, variable_model, 0.5, 1.0, scheme, mode="exact-stable",
                              stream=999).mean
        assert table.reference == ref
        assert table.rows == tuple(
            (e, float(abs(mean - ref)), math.sqrt(var / scheme.paths))
            for e, mean, var in zip(levels, means, variances)
        )


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

    def test_profile_bit_identical_across_thread_counts(self, monkeypatch):
        model = lv.SdeModel(
            sigma=lv.coefficient_preset("2+sin", offset=2.0, amplitude=0.2),
            drift=lv.coefficient_preset("constant", value=0.3),
            measure=lv.StableMeasure.normalized(1.5),
            sigma_lower_bound=1.5,
        )
        # three batches, the last one partial, two Euler steps each
        scheme = lv.SimScheme(
            eps=0.1, tau=0.5, gaussian_compensation=True, paths=140_000, seed=9
        )
        profiles = []
        for threads in ("1", "2", "4"):
            monkeypatch.setenv("LEVYSDE_THREADS", threads)
            profiles.append(lv.strong_feller_profile(model, 1.0, 0.0, [-1.0, 0.0, 0.5], scheme))
        assert profiles[0] == profiles[1] == profiles[2]

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
        scheme = lv.SimScheme(
            eps=0.1, tau=1.0, gaussian_compensation=True, paths=30_000, seed=1234
        )
        rep = lv.density_probe(constant_model, 0.0, [1.0, 0.5, 0.25, 0.125, 0.0625], scheme)
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

    def test_report_bit_identical_across_thread_counts(self, constant_model, monkeypatch):
        scheme = lv.SimScheme(
            eps=0.1, tau=1.0, gaussian_compensation=True, paths=140_000, seed=8
        )
        reports = []
        for threads in ("1", "2", "4"):
            monkeypatch.setenv("LEVYSDE_THREADS", threads)
            reports.append(lv.density_probe(constant_model, 0.0, [1.0, 0.5, 0.25, 0.125], scheme))
        assert reports[0] == reports[1] == reports[2]

    def test_samples_without_spread_refused(self):
        # two atoms of rate 1e-9 beyond the level: no path jumps, every sample
        # is the start point and the bandwidth is 0
        model = lv.SdeModel(
            sigma=lv.coefficient_preset("constant", value=1.0),
            drift=lv.coefficient_preset("constant", value=0.0),
            measure=lv.AtomicMeasure(atoms=((1.0, 1e-9), (-1.0, 1e-9))),
            sigma_lower_bound=0.5,
        )
        scheme = lv.SimScheme(eps=0.5, tau=1.0, gaussian_compensation=False, paths=2000, seed=3)
        with pytest.raises(lv.ConfigError, match="t = 0.5 ") as info:
            lv.density_probe(model, 0.0, [0.5, 0.25, 0.125, 0.0625], scheme, mode="truncated")
        assert info.value.field == "times"

    def test_bandwidth_flagging(self, constant_model):
        scheme = lv.SimScheme(
            eps=0.1, tau=1.0, gaussian_compensation=True, paths=40, seed=1234
        )
        rep = lv.density_probe(constant_model, 0.0, [1.0], scheme)
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
        X, ys, h = kde_case(n, df, copies, far, log_h, grid_points, seed)
        with mock.patch.object(montecarlo, "_KDE_PAIRS", pairs):  # also gather in several runs
            dens, slope = _kde(np.sort(X), ys, h)
        z = (ys[:, None] - X[None, :]) / h
        k = np.exp(-0.5 * z**2) / math.sqrt(2 * math.pi)
        full_dens = k.sum(axis=1) / (n * h)
        full_slope = (-z * k).sum(axis=1) / (n * h * h)
        # relative to the largest value an estimate with bandwidth h can take:
        # K(0)/h for the density and |K'(1)|/h^2 for its slope
        assert np.abs(dens - full_dens).max() <= 1e-13 * stats.norm.pdf(0.0) / h
        assert np.abs(slope - full_slope).max() <= 1e-13 * stats.norm.pdf(1.0) / h**2

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(1, 5000),
        df=st.sampled_from([0.7, 1.0, 1.5, 3.0]),
        copies=st.integers(1, 6),
        far=st.integers(0, 4),
        log_h=st.floats(-2.0, 2.0),
        grid_points=st.integers(1, 41),
        pairs=st.sampled_from([1, 200, 1000, 1 << 18]),
        threads=st.sampled_from(["1", "2", "4"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_windowed_sum_matches_gather_formula(self, n, df, copies, far, log_h, grid_points,
                                                 pairs, threads, seed):
        X, ys, h = kde_case(n, df, copies, far, log_h, grid_points, seed)
        pool = mock.Mock(wraps=montecarlo.ThreadPoolExecutor)
        with mock.patch.object(montecarlo, "_KDE_PAIRS", pairs), \
                mock.patch.object(montecarlo, "ThreadPoolExecutor", pool), \
                mock.patch.dict("os.environ", {"LEVYSDE_THREADS": threads}):
            got = _kde(np.sort(X), ys, h)
        *expected, runs = gathered_kde(X, ys, h, pairs)
        assert pool.called == (runs > 1 and threads != "1")  # the runs are jobs on the pool
        for a, b in zip(got, expected):
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))


def kde_case(n, df, copies, far, log_h, grid_points, seed):
    """Heavy-tailed Student-t samples, each repeated ``copies`` times, plus a few
    far outliers, in random order; a bandwidth and the density probe's grid."""
    rng = np.random.default_rng(seed)
    X = np.repeat(rng.standard_t(df, size=-(-n // copies)), copies)[:n]
    far = min(far, n)
    X[:far] = rng.choice([-1.0, 1.0], far) * 10.0 ** rng.uniform(3.0, 8.0, far)
    rng.shuffle(X)
    h = 10.0**log_h
    lo, hi = np.quantile(X, [0.001, 0.999])
    return X, np.linspace(lo - 6 * h, hi + 6 * h, grid_points), h


def gathered_kde(X, ys, h, pairs):
    """Oracle of ``_kde``: each run's pairs gathered by index, the kernel formed
    by the same operations in the same order, the runs one after another;
    returns ``(dens, slope, runs)``."""
    xs = np.sort(X)
    first = np.searchsorted(xs, ys - montecarlo._KDE_CUT * h, side="left")
    counts = np.searchsorted(xs, ys + montecarlo._KDE_CUT * h, side="right") - first
    ends = np.cumsum(counts)
    offset = first - (ends - counts)
    dens, slope = np.empty(ys.size), np.empty(ys.size)
    start = runs = 0
    while start < ys.size:
        done = ends[start] - counts[start]
        stop = max(start + 1, int(np.searchsorted(ends, done + pairs, side="right")))
        run = slice(start, stop)
        owner = np.repeat(np.arange(stop - start), counts[run])
        idx = np.arange(done, ends[stop - 1]) + np.repeat(offset[run], counts[run])
        z = (ys[run][owner] - xs[idx]) / h
        k = np.exp(-0.5 * z**2) / math.sqrt(2 * math.pi)
        dens[run] = np.bincount(owner, weights=k, minlength=stop - start)
        slope[run] = np.bincount(owner, weights=-z * k, minlength=stop - start)
        start = stop
        runs += 1
    return dens / (X.size * h), slope / (X.size * h * h), runs


class TestJumpSplit:
    def test_report_bit_identical_across_thread_counts(self, constant_model, monkeypatch):
        # three batches, the last one partial: six driver jobs on the pool
        atomic = lv.AtomicMeasure(
            atoms=(((0.5,), 3.0), ((-0.25,), 2.0), ((2.0,), 1.0), ((-1.5,), 0.7))
        )
        for model in (constant_model, replace(constant_model, measure=atomic)):
            reports = []
            for threads in ("1", "2", "4"):
                monkeypatch.setenv("LEVYSDE_THREADS", threads)
                reports.append(
                    lv.jump_split_check(model, 0.0, 1.0, paths=140_000, eps=0.05, seed=2)
                )
            assert reports[0] == reports[1] == reports[2]

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
        mass = stable_measure.tail_mass(0.05)
        keep_rate = 1.0 if overstated else 1.0 - stable_measure.tail_mass(hi) / mass
        rng = np.random.default_rng(4)
        for size in (0, 1, 17, 50_000):
            band = montecarlo._sample_band(stable_measure, 0.05, hi, size, rng, keep_rate)
            assert band.shape == (size,)
            assert np.all((np.abs(band) > 0.05) & (np.abs(band) <= hi))

    def test_band_sampler_refuses_an_empty_band(self):
        measure = lv.AtomicMeasure(atoms=(((0.5,), 3.0), ((2.0,), 1.0)))
        keep_rate = 1.0 - measure.tail_mass(1.0) / measure.tail_mass(0.6)
        assert keep_rate == 0.0
        with pytest.raises(lv.ConfigError, match="no mass") as info:
            montecarlo._sample_band(measure, 0.6, 1.0, 10, np.random.default_rng(1), keep_rate)
        assert info.value.field == "eps"

    @pytest.mark.parametrize("atoms, eps", [((((0.5,), 3.0), ((-0.5,), 3.0)), 0.6),
                                            ((((2.0,), 1.0),), 1.5), ((((2.0,), 1.0),), 0.0)])
    def test_refuses_a_level_without_jumps_beyond(self, atoms, eps):
        model = lv.SdeModel(
            sigma=lv.coefficient_preset("constant", value=1.0),
            drift=lv.coefficient_preset("constant", value=0.0),
            measure=lv.AtomicMeasure(atoms=atoms),
            sigma_lower_bound=0.5,
        )
        with pytest.raises(lv.ConfigError, match="jumps beyond eps") as info:
            lv.jump_split_check(model, 0.0, 1.0, paths=100, eps=eps, seed=1)
        assert info.value.field == "eps"

    def test_odd_payoff_near_zero(self, constant_model):
        payoffs = (lambda X: np.tanh(np.asarray(X, dtype=float)),)
        rep = lv.jump_split_check(
            constant_model, 0.0, 1.0, paths=100_000, eps=0.1, seed=3, payoffs=payoffs
        )
        _, mu_u, mu_s, diff, se = rep.payoff_rows[0]
        scale = math.sqrt(2.0 / 100_000)
        assert abs(mu_u) <= 4 * scale and abs(mu_s) <= 4 * scale
