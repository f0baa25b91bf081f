"""Two-dimensional path: axis-product measures, 2-d grids, symbols,
quantization, semigroup, and sampling."""

from dataclasses import replace

import numpy as np
import pytest

import levysde as lv
from levysde.besov import DyadicPartition


@pytest.fixture(scope="module")
def measure2():
    return lv.StableMeasure.normalized(1.5, dimension=2)


@pytest.fixture(scope="module")
def grid2():
    return lv.TorusGrid(n=32, dimension=2, length_factor=1.0)


def identity_sigma(x):
    x = np.asarray(x, dtype=float)
    return np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2)).copy()


def zero_drift(x):
    x = np.asarray(x, dtype=float)
    return np.zeros(x.shape[:-1] + (2,))


@pytest.fixture(scope="module")
def model2(measure2):
    return lv.SdeModel(
        sigma=identity_sigma,
        drift=zero_drift,
        measure=measure2,
        sigma_lower_bound=0.5,
        dimension=2,
    )


class TestMeasures2d:
    def test_axis_product_exponent(self, measure2):
        got = lv.levy_exponent(measure2, np.array([1.0, 2.0]))
        assert got == pytest.approx(1.0 + 2.0**1.5)

    def test_axis_weights(self):
        spec = lv.StableMeasure(alpha=1.5, c=lv.stable_normalizer(1.5), dimension=2,
                                axis_coeffs=(lv.stable_normalizer(1.5), 2 * lv.stable_normalizer(1.5)))
        got = lv.levy_exponent(spec, np.array([1.0, 1.0]))
        assert got == pytest.approx(3.0)

    def test_variance_diagonal_and_monotone(self, measure2):
        s1 = measure2.small_jump_variance(0.1)
        s2 = measure2.small_jump_variance(0.2)
        assert s1.shape == (2, 2)
        assert s1[0, 1] == 0.0
        assert np.linalg.eigvalsh(s2 - s1).min() >= -1e-14

    def test_atomic_2d(self):
        spec = lv.AtomicMeasure(atoms=(((2.0, 0.0), 1.0), ((-2.0, 0.0), 1.0)), dimension=2)
        assert spec.is_symmetric
        vals = lv.levy_exponent(spec, np.array([[0.5, 0.0], [0.0, 0.5]]))
        assert vals[0] == pytest.approx(2.0 * (1.0 - np.cos(1.0)))
        assert vals[1] == pytest.approx(0.0)

    def test_sampling_shapes_and_symmetry(self, measure2):
        rng = np.random.default_rng(0)
        inc = lv.sample_increment(measure2, 0.5, "truncated+gaussian", rng, eps=0.1, size=200_000)
        assert inc.shape == (200_000, 2)
        se = inc.std(axis=0, ddof=1) / np.sqrt(inc.shape[0])
        assert np.all(np.abs(inc.mean(axis=0)) <= 5 * se)
        exact = lv.sample_increment(measure2, 0.5, "exact-stable", rng, size=16)
        assert exact.shape == (16, 2)


class TestSymbols2d:
    def test_tabulate_and_multiplier(self, model2, grid2):
        sym = lv.tabulate(model2, grid2)
        assert sym.values.shape == (32, 32, 32, 32)
        u = lv.random_rough_function(grid2, 1.2, seed=2)
        out = lv.apply_symbol(sym, u)
        ref = lv.GridFunction.from_coeffs(grid2, sym.values[0, 0] * u.coeffs)
        assert (out - ref).norm_l2() <= 1e-12 * ref.norm_l2()

    def test_size_cap(self, model2):
        big = lv.TorusGrid(n=64, dimension=2, length_factor=1.0)
        with pytest.raises(ValueError):
            lv.tabulate(model2, big)

    def test_seminorm_2d_constant(self, grid2):
        s = lv.SymbolGrid(grid2, np.full((32, 32, 32, 32), 2.0 + 0.0j), 0.0)
        rep = lv.seminorm(s, lv.AClass(m=0.0, k1=1, k2=1))
        assert rep.value == pytest.approx(2.0, abs=1e-12)

    def test_cutoff_split_2d(self, model2, grid2):
        sym = lv.tabulate(model2, grid2)
        split = lv.cutoff_split(sym, 4.0)
        recon = split.p_high.values + split.b_low.values
        assert np.abs(recon - sym.values).max() <= 1e-12 * np.abs(sym.values).max()


class TestOperators2d:
    def test_semigroup_multiplier(self, model2, grid2):
        sym = lv.tabulate(model2, grid2)
        u = lv.random_rough_function(grid2, 1.2, seed=3)
        pt = lv.semigroup_apply(0.5, sym, u)
        exact = lv.GridFunction.from_coeffs(grid2, np.exp(-0.5 * sym.values[0, 0]) * u.coeffs)
        assert (pt - exact).norm_l2() <= 1e-6 * exact.norm_l2()

    def test_besov_partition_2d(self, grid2):
        part = DyadicPartition(grid2)
        total = sum(part.blocks)
        assert np.abs(total - 1.0).max() <= 1e-12
        u = lv.random_rough_function(grid2, 1.2, seed=4)
        norms = [part.besov_norm(u, s, 2.0, 2.0) for s in (0.0, 1.0)]
        assert norms[0] <= norms[1]

    def test_dense_matrix_small(self, model2):
        grid = lv.TorusGrid(n=16, dimension=2, length_factor=1.0)
        sym = lv.tabulate(model2, grid)
        A = lv.dense_symbol_matrix(sym)
        u = lv.random_rough_function(grid, 1.2, seed=5)
        direct = lv.apply_symbol(sym, u).values.ravel()
        assert np.abs(A @ u.values.ravel() - direct).max() <= 1e-9 * np.abs(direct).max()


class TestSimulation2d:
    def test_path_and_estimate(self, model2):
        scheme = lv.SimScheme(eps=0.1, tau=0.5, gaussian_compensation=True, paths=20_000, seed=3)
        X = lv.terminal_samples(model2, np.array([0.0, 0.0]), 1.0, scheme)
        assert X.shape == (20_000, 2)
        one = lv.terminal_samples(model2, np.array([0.5, -0.5]), 1.0, replace(scheme, paths=1))
        assert one.shape == (1, 2)
        est = lv.mc_semigroup(
            lambda X: np.cos(X[:, 0] / 1.0), model2, np.array([0.0, 0.0]), 1.0, scheme
        )
        # E cos(X_1(t)) = Re E e^{i X_1} = e^{-t psi_1(1)} = e^{-1}
        assert abs(est.mean - np.exp(-1.0)) <= 5 * est.stderr
