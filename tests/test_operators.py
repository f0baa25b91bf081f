"""Quantization, parametrix inversion, resolvent, contour semigroup, gauges."""

import functools
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

import levysde as lv
from levysde.operators import (
    _ANDERSON_DEPTH,
    _hyperbola_optimum,
    _hyperbola_params,
    build_contour,
    contour_for_time,
    parametrix_probe_contraction,
    write_gauge_csv,
)

from conftest import (
    constant_coefficient_model, counting_solves, make_mode, swept_model, swept_symbols,
)


def random_function(grid, seed):
    rng = np.random.default_rng(seed)
    return lv.GridFunction(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))


def extended_residual(sym, lam, u, rhs):
    """Relative residual of ``(lam + sym(x, D)) u = rhs`` by the sum of
    ``dense_symbol_matrix``, ``(P * S) @ (P^H u) / M``, in long double on exact
    lattice phases ``exp(2 pi i (j k mod N) / N)``.  The float64 matrix carries
    a rounding of order eps max|S| in every entry, which a ``u`` of large low
    modes (``|lam|`` small next to ``max|S|``) turns into a residual above
    the stopping test."""
    grid = sym.grid
    n = grid.shape[0]
    jk = np.outer(np.arange(n), np.rint(grid.xi * grid.length_factor).astype(int)) % n
    angle = 2 * np.arccos(np.longdouble(-1)) * jk / n
    P = functools.reduce(np.kron, [np.cos(angle) + 1j * np.sin(angle)] * grid.dimension)
    M = P.shape[0]
    u, rhs = u.astype(np.clongdouble), rhs.astype(np.clongdouble)
    r = lam * u + (P * sym.values.reshape(M, M)) @ (P.conj().T @ u) / M - rhs
    return float(np.linalg.norm(r) / np.linalg.norm(rhs))


def direct_quantization_oracle(sym, u, nodes):
    """Literal Kohn-Nirenberg sum at a few x-nodes (test oracle).

    ``(s(x, D) u)(x_i) = sum_k e^{i <x_i, xi_k>} s(x_i, xi_k) u_hat[k]``, one
    explicit term per frequency multi-index ``k``; ``nodes`` holds x-indices
    (integers in 1-d, pairs in 2-d).
    """
    grid = sym.grid
    out = []
    for node in nodes:
        node = tuple(int(i) for i in np.atleast_1d(node))
        total = 0j
        for k in itertools.product(range(grid.n), repeat=grid.dimension):
            phase = sum(grid.x[i] * grid.xi[j] for i, j in zip(node, k))
            total += np.exp(1j * phase) * sym.values[node + k] * u.coeffs[k]
        out.append(total)
    return np.array(out)


class TestApplySymbol:
    def test_identity_symbol(self, grid256):
        s = lv.SymbolGrid(grid256, np.ones((256, 256), dtype=complex), 0.0)
        rng = np.random.default_rng(1)
        u = lv.GridFunction(grid256, rng.standard_normal(256) + 1j * rng.standard_normal(256))
        out = lv.apply_symbol(s, u)
        assert np.abs(out.values - u.values).max() <= 1e-12 * np.abs(u.values).max()

    def test_fourier_multiplier(self, grid256):
        s = lv.SymbolGrid(grid256, np.tile(1j * grid256.xi, (256, 1)), 1.0)
        u = make_mode(grid256, 5.0)
        out = lv.apply_symbol(s, u)
        assert np.abs(out.values - 5j * u.values).max() <= 1e-11

    def test_variable_coefficient_against_direct_sum(self, grid256):
        sig = lv.coefficient_preset("2+sin")(grid256.x)[:, None]
        s = lv.SymbolGrid(grid256, sig * 1j * grid256.xi[None, :], 1.0)
        u = make_mode(grid256, 5.0)
        out = lv.apply_symbol(s, u)
        nodes = np.arange(0, 256, 32)  # 8 sample nodes
        oracle = direct_quantization_oracle(s, u, nodes)
        assert np.abs(out.values[nodes] - oracle).max() <= 1e-12 * np.abs(oracle).max()
        # pointwise closed form: i 5 sigma(x) e^{i 5 x}
        expected = 5j * sig[:, 0] * np.exp(5j * grid256.x)
        assert np.abs(out.values - expected).max() <= 1e-10 * np.abs(expected).max()

    @settings(max_examples=16, deadline=None)
    @given(
        d=st.sampled_from([1, 2]),
        n=st.sampled_from([16, 32]),
        L=st.sampled_from([1.0, 4.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_x_dependent_symbol_against_literal_sum(self, d, n, L, seed):
        # a random table is x-dependent on every row; the literal sum shares
        # no phase table, reshape or einsum with apply_symbol
        grid = lv.TorusGrid(n=n, dimension=d, length_factor=L)
        rng = np.random.default_rng(seed)
        shape = grid.shape + grid.shape
        s = lv.SymbolGrid(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape), 0.0)
        u = lv.GridFunction(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
        nodes = rng.integers(0, n, size=(3, d))
        oracle = direct_quantization_oracle(s, u, nodes)
        out = lv.apply_symbol(s, u).values
        got = np.array([out[tuple(node)] for node in nodes])
        assert np.abs(got - oracle).max() <= 1e-12 * np.abs(oracle).max()

    @settings(max_examples=20, deadline=None)
    @given(s=swept_symbols(), seed=st.integers(0, 2**32 - 1))
    def test_factored_apply_against_dense_matrix(self, s, seed):
        # state symbols compress (rank 1 without drift, one more per drift
        # component) below the trivial split; the dense matrix is built from
        # the phases and the stored values
        lr = s.factors
        assert lr.rank < math.prod(s.grid.shape) and lr.error <= 1e-13
        u = random_function(s.grid, seed)
        got = lv.apply_symbol(s, u).values.ravel()
        want = lv.dense_symbol_matrix(s) @ u.values.ravel()
        # an entrywise table error e moves each output by at most e * sum|u_hat|;
        # the same again is left for the oracle's own rounding
        bound = 2e-13 * np.abs(s.values).max() * np.abs(u.coeffs).sum()
        assert np.abs(got - want).max() <= bound

    def test_incompressible_table_keeps_dense_sum(self, grid256):
        rng = np.random.default_rng(4)
        shape = grid256.shape * 2
        s = lv.SymbolGrid(grid256, rng.standard_normal(shape) + 1j * rng.standard_normal(shape), 0.0)
        # no compression below the break-even rank: the exact trivial split
        assert s.factors.rank == 256 and s.factors.error == 0.0
        u = random_function(grid256, 5)
        want = lv.dense_symbol_matrix(s) @ u.values
        assert np.abs(lv.apply_symbol(s, u).values - want).max() <= 1e-12 * np.abs(want).max()

    def test_grid_mismatch(self, grid256, grid1024, symbol_const_256):
        u = lv.GridFunction(grid1024, np.zeros(1024, dtype=complex))
        with pytest.raises(ValueError):
            lv.apply_symbol(symbol_const_256, u)

    def test_dense_matrix_agrees(self, symbol_var_256, grid256):
        rng = np.random.default_rng(2)
        u = lv.GridFunction(grid256, rng.standard_normal(256).astype(complex))
        A = lv.dense_symbol_matrix(symbol_var_256)
        assert np.abs(A @ u.values - lv.apply_symbol(symbol_var_256, u).values).max() <= 1e-8


class TestParametrixSolve:
    def test_constant_coefficients_one_iteration(self, symbol_const_256, grid256):
        split = lv.cutoff_split(symbol_const_256, 4.0)
        w = make_mode(grid256, 20.0)
        f = lv.apply_symbol(split.p_high, w)
        u, rep = lv.parametrix_solve(symbol_const_256, f, 4.0)
        assert rep.iterations == 1
        assert rep.residual_history[-1] <= 1e-10 * f.norm_l2()

    def test_variable_model_contracts(self, symbol_var_256, grid256):
        R = lv.choose_R(symbol_var_256, 1.5)
        split = lv.cutoff_split(symbol_var_256, R)
        rng = np.random.default_rng(5)
        mags = grid256.xi_norm()
        band = (mags >= 4 * R) & (mags <= 0.75 * mags.max())
        coeffs = np.zeros(grid256.shape, dtype=complex)
        coeffs[band] = rng.standard_normal(band.sum()) + 1j * rng.standard_normal(band.sum())
        f = lv.apply_symbol(split.p_high, lv.GridFunction.from_coeffs(grid256, coeffs))
        u, rep = lv.parametrix_solve(symbol_var_256, f, R, tol=1e-8, maxit=40)
        assert rep.contraction_estimate < 5.0 / 6.0
        assert rep.iterations <= 40
        assert rep.residual_history[-1] <= 1e-8 * f.norm_l2()
        # residual history strictly decreasing while contracting
        hist = rep.residual_history
        assert all(a > b for a, b in zip(hist, hist[1:]))
        # dense direct solve oracle
        A = lv.dense_symbol_matrix(split.p_high)
        f_high = lv.GridFunction.from_coeffs(grid256, f.coeffs * (split.chi > 0))
        u_dense, *_ = np.linalg.lstsq(A, f_high.values, rcond=None)
        rel = np.linalg.norm(u.values - u_dense) / np.linalg.norm(u_dense)
        assert rel <= 1e-6

    def test_low_frequency_input_returns_zero(self, symbol_var_256, grid256):
        f = make_mode(grid256, 2.0)  # inside |xi| <= R = 4
        u, rep = lv.parametrix_solve(symbol_var_256, f, 4.0)
        assert rep.iterations == 0
        assert np.abs(u.values).max() == 0.0
        assert rep.residual_history[-1] == 0.0

    def test_probe_matches_solve(self, symbol_var_256):
        rate = parametrix_probe_contraction(symbol_var_256, 4.0)
        assert rate < 5.0 / 6.0

    def test_probe_vanishing_symbol_is_inf_other_errors_propagate(self, symbol_var_256, grid256):
        vals = symbol_var_256.values.copy()
        vals[:, int(np.argmax(grid256.xi >= 16.0))] = 0.0  # inside the cutoff support of R=4
        vanishing = lv.SymbolGrid(grid256, vals, symbol_var_256.order)
        assert parametrix_probe_contraction(vanishing, 4.0) == math.inf
        with pytest.raises(TypeError):
            parametrix_probe_contraction(symbol_var_256, None)

    def test_zero_iteration_cap_refused(self, symbol_var_256, grid256):
        f = make_mode(grid256, 20.0)
        with pytest.raises(lv.ConfigError) as err:
            lv.parametrix_solve(symbol_var_256, f, 4.0, maxit=0)
        assert err.value.field == "maxit"

    def test_divergence_advises_larger_radius(self, grid256):
        # strongly varying sigma at an undersized cutoff radius diverges
        wild = lv.SdeModel(
            sigma=lv.coefficient_preset("2+sin", offset=2.0, amplitude=1.9),
            drift=lv.coefficient_preset("constant", value=0.0),
            measure=lv.StableMeasure.normalized(1.5),
            sigma_lower_bound=0.05,
        )
        sym = lv.tabulate(wild, grid256)
        split = lv.cutoff_split(sym, 1.0)
        mags = grid256.xi_norm()
        band = (mags >= 4.0) & (mags <= 24.0)
        rng = np.random.default_rng(5)
        coeffs = np.zeros(grid256.shape, dtype=complex)
        coeffs[band] = rng.standard_normal(band.sum())
        f = lv.apply_symbol(split.p_high, lv.GridFunction.from_coeffs(grid256, coeffs))
        with pytest.raises(lv.ContractionError, match="increase the cutoff"):
            lv.parametrix_solve(sym, f, 1.0, maxit=40)


class TestResolvent:
    def test_constant_coefficients_exact(self, symbol_const_256, grid256):
        rng = np.random.default_rng(3)
        v = lv.GridFunction(grid256, rng.standard_normal(256).astype(complex))
        lam = 2.0 + 1.0j
        u = lv.resolvent_apply(lam, symbol_const_256, v)
        expected = lv.GridFunction.from_coeffs(
            grid256, v.coeffs / (lam + symbol_const_256.values[0])
        )
        assert (u - expected).norm_l2() <= 1e-12 * expected.norm_l2()

    def test_zero_input(self, symbol_var_256, grid256):
        v = lv.GridFunction(grid256, np.zeros(256, dtype=complex))
        u = lv.resolvent_apply(1.0 + 1.0j, symbol_var_256, v)
        assert u.norm_l2() == 0.0

    def test_sector_ray_bound(self, symbol_var_256, grid256):
        # |lambda| |R(lambda) v| / |v| stays within a factor 2 over 3 decades
        theta_p = 0.5 * min(symbol_var_256.sector_angle, 1.45)
        v = lv.GridFunction.from_callable(
            grid256, lv.bump_payoff(center=grid256.period / 2, width=2.0, period=grid256.period)
        )
        products = []
        for mag in (10.0, 100.0, 1000.0):
            lam = mag * np.exp(1j * (np.pi / 2.0 + theta_p))
            u = lv.resolvent_apply(lam, symbol_var_256, v)
            products.append(mag * u.norm_l2() / v.norm_l2())
        assert max(products) / min(products) <= 2.0

    def test_resolvent_identity(self, symbol_var_256, grid256):
        # R(l1) - R(l2) = (l2 - l1) R(l1) R(l2) on a fixed v
        rng = np.random.default_rng(8)
        v = lv.GridFunction(grid256, rng.standard_normal(256).astype(complex))
        l1 = 5.0 * np.exp(1j * 2.0)
        l2 = 40.0 * np.exp(1j * 2.2)
        r1 = lv.resolvent_apply(l1, symbol_var_256, v, tol=1e-12)
        r2 = lv.resolvent_apply(l2, symbol_var_256, v, tol=1e-12)
        lhs = r1 - r2
        rhs = (l2 - l1) * lv.resolvent_apply(l1, symbol_var_256, r2, tol=1e-12)
        assert (lhs - rhs).norm_l2() <= 1e-5 * max(lhs.norm_l2(), 1e-300)

    def test_spectral_distance_guard(self, symbol_const_256):
        v = lv.GridFunction(symbol_const_256.grid, np.ones(256, dtype=complex))
        with pytest.raises(lv.SpectralDistanceError) as err:
            lv.resolvent_apply(0.0, symbol_const_256, v)  # 0 is in the range closure
        assert err.value.point is not None

    def test_zero_iteration_cap_refused(self, symbol_var_256, grid256):
        v = make_mode(grid256, 3.0)
        with pytest.raises(lv.ConfigError) as err:
            lv.resolvent_apply(1.0 + 1.0j, symbol_var_256, v, maxit=0)
        assert err.value.field == "maxit"

    @settings(max_examples=20, deadline=None)
    @given(
        s=swept_symbols(alpha=(1.2, 1.9), amp=(0.0, 0.8)),
        seed=st.integers(0, 2**32 - 1),
        magnitude=st.floats(0.1, 1e4),
        side=st.sampled_from([1.0, -1.0]),
    )
    # edges of the sweep where the plain step diverges: one-step mixing took
    # over 400 steps on the first and diverged on the second
    @example(
        s=lv.tabulate(swept_model(2, 1.4375, 0.796875, 0.0),
                      lv.TorusGrid(n=16, dimension=2, length_factor=1.0)),
        seed=0, magnitude=11.0, side=1.0,
    )
    @example(
        s=lv.tabulate(swept_model(2, 1.9, 0.8, 0.0),
                      lv.TorusGrid(n=32, dimension=2, length_factor=1.0)),
        seed=1, magnitude=300.0, side=1.0,
    )
    def test_against_dense_solve(self, s, seed, magnitude, side):
        # lambda on an asymptote of the default hyperbola: angle pi/2 + alpha
        # off the sector of the symbol, the direction semigroup_apply's far
        # nodes approach.  The sweep keeps the jump part dominant (alpha >
        # 1.2, sigma varying by at most a factor 3.5): where the x-variation
        # dominates, the frozen-coefficient preconditioner need not contract
        # and the solve raises ContractionError
        angle = _hyperbola_optimum(s.sector_angle)[0]
        lam = magnitude * np.exp(1j * side * (np.pi / 2.0 + angle))
        v = random_function(s.grid, seed)
        u = lv.resolvent_apply(lam, s, v).values.ravel()
        shifted = lam * np.eye(v.values.size) + lv.dense_symbol_matrix(s)
        rhs = v.values.ravel()
        residual = extended_residual(s, lam, u, rhs)
        assert residual <= 1.01e-10  # the stopping test, up to the oracle's rounding
        exact = np.linalg.solve(shifted, rhs)
        error = np.linalg.norm(u - exact) / np.linalg.norm(exact)
        assert error <= np.linalg.cond(shifted) * 1.01e-10

    @settings(max_examples=10, deadline=None)
    @given(
        alpha=st.floats(0.3, 1.9),
        sigma=st.floats(0.5, 3.0),
        drift=st.floats(-3.0, 3.0),
        lam=st.complex_numbers(max_magnitude=1e3).filter(lambda z: z.real > 0.1),
    )
    def test_x_independent_returns_after_one_check(self, alpha, sigma, drift, lam):
        model = lv.SdeModel(
            sigma=lv.coefficient_preset("constant", value=sigma),
            drift=lv.coefficient_preset("constant", value=drift),
            measure=lv.StableMeasure.normalized(alpha),
            sigma_lower_bound=0.5 * sigma,
        )
        grid = lv.TorusGrid(n=64, dimension=1, length_factor=4.0)
        s = lv.tabulate(model, grid)
        v = random_function(grid, 6)
        applies, apply_factors = [], lv.operators._apply_factors
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lv.operators, "_apply_factors",
                       lambda *args: applies.append(args) or apply_factors(*args))
            u = lv.resolvent_apply(lam, s, v)
        assert len(applies) == 1  # the multiplier is exact: one residual check
        expected = lv.GridFunction.from_coeffs(grid, v.coeffs / (lam + s.values[0]))
        assert (u - expected).norm_l2() <= 1e-12 * expected.norm_l2()

    def test_batch_matches_single_solves(self, symbol_var_256, grid256):
        # one batch, one Anderson weight and one tolerance per shift
        v = random_function(grid256, 9)
        lams = np.array([5.0 * np.exp(2.0j), 40.0 * np.exp(-2.2j), 300.0 + 0.0j])
        tols = np.array([1e-12, 1e-10, 1e-8])
        batch = lv.resolvent_apply(lams, symbol_var_256, v, tol=tols)
        assert len(batch) == 3
        for lam, tol, got in zip(lams, tols, batch):
            single = lv.resolvent_apply(lam, symbol_var_256, v, tol=tol)
            assert (got - single).norm_l2() <= 1e-13 * single.norm_l2()

    def test_batch_failure_names_shift(self, symbol_var_256, grid256):
        v = make_mode(grid256, 3.0)
        lams = np.array([1.0 + 1.0j, -symbol_var_256.values[3, 7]])
        with pytest.raises(lv.SpectralDistanceError, match=re.escape(str(lams[1]))) as err:
            lv.resolvent_apply(lams, symbol_var_256, v)
        assert tuple(err.value.point) == (3, 7)
        with pytest.raises(lv.ContractionError, match=r"lambda=\(1\+1j\); 1 of 2 shifts"):
            lv.resolvent_apply(np.array([1.0 + 1.0j, 1e3]), symbol_var_256, v,
                               tol=np.array([1e-14, 1e-3]), maxit=3)

    @settings(max_examples=15, deadline=None)
    @given(s=swept_symbols(), where=st.floats(0.0, 1.0, exclude_max=True))
    def test_shift_on_symbol_range_names_point(self, s, where):
        flat = s.values.ravel()
        k = int(where * flat.size)
        v = random_function(s.grid, 7)
        with pytest.raises(lv.SpectralDistanceError) as err:
            lv.resolvent_apply(-flat[k], s, v)
        point = err.value.point
        assert len(point) == 2 * s.dimension
        assert abs(s.values[tuple(point)] - flat[k]) < 1e-8


class TestContour:
    def test_residue_self_check(self):
        # the self-test is an invariant: every default contour records it below 1e-8
        spec = contour_for_time(1.0)
        val = spec.quadrature(lambda lam: np.exp(lam) / (lam + 1.0))
        assert abs(val - math.exp(-1.0)) <= 1e-8
        assert spec.residue_error == pytest.approx(abs(val - math.exp(-1.0)), rel=1e-6, abs=1e-15)
        for t in (2.0**-10, 2.0**-5, 1.0, 8.0):
            for theta in (math.pi / 2.0, 1.2, 0.8, 0.5):
                assert contour_for_time(t, theta).residue_error <= 1e-8

    def test_second_pole(self):
        spec = contour_for_time(0.5)
        val = spec.quadrature(lambda lam: np.exp(lam * 0.5) / (lam + 7.0))
        assert abs(val - math.exp(-3.5)) <= 1e-8

    def test_bad_angles(self):
        with pytest.raises(ValueError):
            build_contour(alpha=2.0, mu=10.0, h=0.1, n=10)
        with pytest.raises(ValueError):
            build_contour(alpha=1.0, mu=-1.0, h=0.1, n=10)
        with pytest.raises(ValueError):
            contour_for_time(1.0, theta=2.0)

    def test_node_count_from_rate(self):
        # 2 n + 1 nodes, n set once by the convergence rate: the smaller the
        # sector angle (a drift spreads the symbol's range), the more nodes
        counts = []
        for theta in (math.pi / 2.0, 1.0, 0.5):
            rate = _hyperbola_optimum(theta)[3]
            n = math.ceil(math.log(1e8) / rate) + 1
            counts.append(contour_for_time(0.25, theta).nodes.size)
            assert counts[-1] == 2 * n + 1
        assert counts[0] == 19 and counts[0] < counts[1] < counts[2]

    def test_nodes_mirror_across_real_axis(self):
        spec = contour_for_time(0.1, 1.0)
        assert np.allclose(spec.nodes[::-1], spec.nodes.conj(), rtol=1e-15, atol=0)
        assert np.allclose(spec.weights[::-1], spec.weights.conj(), rtol=1e-15, atol=0)
        assert spec.nodes.real.max() == pytest.approx(spec.mu * (1.0 - math.sin(spec.alpha)))

    def test_barely_sectorial_symbol_refused(self):
        with pytest.raises(lv.ContractionError, match="too narrow"):
            contour_for_time(1.0, theta=0.01)

    def test_failed_self_test_raises(self):
        with pytest.raises(lv.ContractionError, match="residue self-test"):
            build_contour(alpha=1.17, mu=4.49 * 3, h=1.08 / 3, n=3)


class TestSemigroup:
    def test_multiplier_oracle_constant(self, symbol_const_1024, grid1024):
        # the contour, through the resolvent solves of variable tables, against
        # the exact multiplier of a constant-coefficient table
        u = lv.random_rough_function(grid1024, 0.51, seed=3)
        for t in (0.1, 1.0):
            sizes = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(lv.operators, "resolvent_apply", counting_solves(sizes))
                pt = lv.contour_semigroup(t, symbol_const_1024, u)
            nodes = contour_for_time(t, symbol_const_1024.sector_angle).nodes.size
            assert sum(sizes) == nodes // 2 + 1
            exact = lv.GridFunction.from_coeffs(
                grid1024, np.exp(-t * symbol_const_1024.values[0]) * u.coeffs
            )
            assert (pt - exact).norm_l2() <= 1e-6 * exact.norm_l2()

    @pytest.mark.parametrize("d,n", [(1, 1024), (2, 32)])
    def test_x_independent_table_is_the_multiplier(self, d, n):
        # exp(-t a) to rounding, with no contour and no resolvent solve; real
        # when the operator and u are, complex with a drift
        grid = lv.TorusGrid(n=n, dimension=d, length_factor=4.0)
        u = lv.random_rough_function(grid, 0.51, seed=3)
        for drift in (0.0, 1.5):
            sym = lv.tabulate(constant_coefficient_model(d, 1.5, 1.0, drift), grid)
            assert sym.x_independent and sym.real_operator == (drift == 0.0)
            for t in (2.0**-10, 0.1, 1.0):
                sizes = []
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(lv.operators, "resolvent_apply", counting_solves(sizes))
                    mp.setattr(lv.operators, "build_contour", None)
                    pt = lv.semigroup_apply(t, sym, u)
                assert sizes == []
                exact = lv.GridFunction.from_coeffs(grid, np.exp(-t * sym.x_mean) * u.coeffs)
                assert (pt - exact).norm_l2() <= 1e-15 * exact.norm_l2()
                assert np.array_equal(pt.values.real, exact.values.real)

    @pytest.mark.parametrize("t", [0.1, 1.0])
    def test_narrow_sector_constant_table(self, t):
        # alpha = 0.3 with drift 3: sectorial, but at theta = 0.011 too narrow
        # for a contour; the x-independent table still has its multiplier
        grid = lv.TorusGrid(n=256, dimension=1, length_factor=1.0)
        sym = lv.tabulate(constant_coefficient_model(1, 0.3, 1.0, 3.0), grid)
        u = lv.random_rough_function(grid, 0.51, seed=3)
        with pytest.raises(lv.ContractionError, match="too narrow"):
            lv.contour_semigroup(t, sym, u)
        pt = lv.semigroup_apply(t, sym, u)
        exact = lv.GridFunction.from_coeffs(grid, np.exp(-t * sym.values[0]) * u.coeffs)
        assert np.array_equal(pt.values, exact.values)

    def test_constant_symbol_stays_one_row(self, constant_model, grid1024):
        # regression guard: a constant-coefficient symbol at N = 1024 is one
        # broadcast row, and tabulating and evaluating it never forms the
        # (N, N) table, which would take 16 MB
        u = lv.random_rough_function(grid1024, 0.51, seed=3)
        tracemalloc.start()
        try:
            sym = lv.tabulate(constant_model, grid1024)
            for t in (0.1, 1.0):
                lv.semigroup_apply(t, sym, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sym.values.strides[0] == 0
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_matrix_exponential_oracle_variable(self, variable_model):
        grid = lv.TorusGrid(n=128, dimension=1, length_factor=4.0)
        sym = lv.tabulate(variable_model, grid)
        u = lv.random_rough_function(grid, 0.51, seed=3)
        A = lv.dense_symbol_matrix(sym)
        for t in (0.1, 1.0):
            pt = lv.semigroup_apply(t, sym, u)
            truth = expm(-t * A) @ u.values
            rel = np.linalg.norm(pt.values - truth) / np.linalg.norm(truth)
            assert rel <= 1e-6

    def test_composition_law_variable(self, variable_model):
        grid = lv.TorusGrid(n=128, dimension=1, length_factor=4.0)
        sym = lv.tabulate(variable_model, grid)
        u = lv.random_rough_function(grid, 0.51, seed=4)
        two_step = lv.semigroup_apply(0.6, sym, lv.semigroup_apply(0.4, sym, u))
        one_step = lv.semigroup_apply(1.0, sym, u)
        assert (two_step - one_step).norm_l2() <= 1e-5 * one_step.norm_l2()

    def test_strong_continuity(self, symbol_const_1024, grid1024):
        u = lv.GridFunction.from_callable(
            grid1024,
            lv.bump_payoff(center=grid1024.period / 2, width=2.0, period=grid1024.period),
        )
        errs = []
        for t in (0.1, 0.01, 0.001):
            pt = lv.semigroup_apply(t, symbol_const_1024, u)
            errs.append((pt - u).norm_l2())
        assert errs[0] > errs[1] > errs[2]

    def test_contour_invariance(self):
        # off-optimum hyperbolas (angle alpha, scale mu) admissible for a
        # drifted symbol's sector resolve e^{-a t} at the corners of its range
        sym = lv.tabulate(swept_model(1, 1.5, 0.2, 0.2), lv.TorusGrid(n=128, dimension=1))
        (lo, hi), t, n = sym.range_box, 0.5, 24
        corners = [complex(re, im) for re in (lo.real, hi.real) for im in (lo.imag, hi.imag)]
        for alpha in (0.95, 1.05, 1.17):
            L, mu_t, _ = _hyperbola_params(alpha, sym.sector_angle)
            for mu_scale in (0.85, 1.0, 1.15):
                spec = build_contour(alpha, mu_scale * mu_t * n / t, L / n, n, t_check=t)
                for a in corners:
                    quad = spec.quadrature(lambda lam: np.exp(lam * t) / (lam + a))
                    assert abs(quad - np.exp(-a * t)) <= 1e-8

    @pytest.mark.parametrize("alpha,amp,drift,n", [
        *itertools.product([0.7, 1.1, 1.5, 1.9], [0.0, 0.2, 0.8], ["none", "1+0.5cos"], [64, 128]),
        # sigma varying by a factor 7 with a drift at t = 1: the narrow sector's
        # hyperbola weighs its real-axis node by about e^9, and one tolerance
        # tol / sum|c_k| for every node fell below the solves' rounding floor
        (1.9, 1.5, "cos", 256),
        (1.9, 1.5, "3cos", 256),
    ])
    def test_hyperbola_against_expm(self, alpha, amp, drift, n):
        # sigma = 2 + amp sin x and no drift, 1 + 0.5 cos x, cos x or 3 cos x:
        # a real operator solves the nodes on or above the real axis, a drift
        # the full contour
        offset, scale = {"none": (0.0, 0.0), "1+0.5cos": (1.0, 0.5),
                         "cos": (0.0, 1.0), "3cos": (0.0, 3.0)}[drift]
        model = lv.SdeModel(
            sigma=lv.coefficient_preset("2+sin", offset=2.0, amplitude=amp),
            drift=lv.coefficient_preset("1+0.5cos", offset=offset, amplitude=scale),
            measure=lv.StableMeasure.normalized(alpha),
            sigma_lower_bound=2.0 - amp,
        )
        sym = lv.tabulate(model, lv.TorusGrid(n=n, dimension=1, length_factor=4.0))
        assert sym.real_operator == (drift == "none")
        u = lv.random_rough_function(sym.grid, 0.51, seed=3)
        A = lv.dense_symbol_matrix(sym)
        # a constant sigma without drift is an x-independent table, whose own
        # semigroup is the exact multiplier: the contour is called directly
        evaluate = lv.contour_semigroup if amp == 0.0 else lv.semigroup_apply
        for t in (2.0**-10, 2.0**-5, 1.0):
            sizes = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(lv.operators, "resolvent_apply", counting_solves(sizes))
                pt = evaluate(t, sym, u)
            nodes = contour_for_time(t, sym.sector_angle).nodes.size
            assert sum(sizes) == (nodes // 2 + 1 if sym.real_operator else nodes)
            truth = expm(-t * A) @ u.values
            assert np.linalg.norm(pt.values - truth) <= 1e-8 * np.linalg.norm(truth)

    def test_tolerance_below_default_sizes_the_contour(self, variable_model):
        grid = lv.TorusGrid(n=128, dimension=1, length_factor=4.0)
        sym = lv.tabulate(variable_model, grid)
        u = lv.random_rough_function(grid, 0.51, seed=3)
        A = lv.dense_symbol_matrix(sym)
        for t in (2.0**-10, 1.0):
            truth = expm(-t * A) @ u.values
            pt = lv.semigroup_apply(t, sym, u, tol=1e-10)
            assert np.linalg.norm(pt.values - truth) <= 1e-10 * np.linalg.norm(truth)

    def test_node_batches_bounded_in_memory(self, grid256):
        # a drift takes the full contour; the nodes are split into batches of
        # bounded memory, and the split does not change P_t u
        sym = lv.tabulate(swept_model(1, 1.5, 0.2, 1.0), grid256)
        u = lv.random_rough_function(grid256, 0.51, seed=3)
        nodes = contour_for_time(0.5, sym.sector_angle).nodes.size
        runs = {}
        for budget in (2**25, 2**19):
            sizes = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(lv.operators, "_BATCH_BYTES", budget)
                mp.setattr(lv.operators, "resolvent_apply", counting_solves(sizes))
                runs[budget] = lv.semigroup_apply(0.5, sym, u).values
            assert sum(sizes) == nodes
            per_shift = 16 * grid256.n * (2 * sym.factors.g.shape[0] + 12 + 2 * _ANDERSON_DEPTH)
            assert max(sizes) == min(nodes, budget // per_shift)
        assert len(sizes) > 1
        rel = np.linalg.norm(runs[2**19] - runs[2**25]) / np.linalg.norm(runs[2**25])
        assert rel <= 1e-13

    def test_analyticity_solve_count(self, symbol_var_256, grid256):
        # the N = 256 var-sigma gauge over 11 dyadic times: one batch per time
        # of at most 300 node solves in all
        u = lv.random_rough_function(grid256, 0.5, seed=4)
        sizes = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lv.operators, "resolvent_apply", counting_solves(sizes))
            lv.analyticity_gauge(symbol_var_256, u, [2.0**-k for k in range(11)])
        assert len(sizes) == 11 and sum(sizes) <= 300

    def test_markovian_sup_norm_contraction(self, symbol_const_1024, variable_model):
        # real u with sup norm one stays below 1 + 1e-4 under P_t
        grid128 = lv.TorusGrid(n=128, dimension=1, length_factor=4.0)
        sym_v = lv.tabulate(variable_model, grid128)
        for sym in (symbol_const_1024, sym_v):
            grid = sym.grid
            raw = np.cos(0.5 * grid.x) + 0.3 * np.sin(grid.x)
            u = lv.GridFunction(grid, (raw / np.abs(raw).max()).astype(complex))
            for t in (0.05, 0.5, 2.0):
                pt = lv.semigroup_apply(t, sym, u)
                assert np.abs(pt.values.real).max() <= 1.0 + 1e-4

    def test_negative_time_rejected(self, symbol_const_256, symbol_var_256):
        # a NaN time would otherwise pass through the multiplier silently
        u = lv.GridFunction(symbol_const_256.grid, np.ones(256, dtype=complex))
        for t in (-1.0, 0.0, math.nan, math.inf):
            for sym in (symbol_const_256, symbol_var_256):
                for evaluate in (lv.semigroup_apply, lv.contour_semigroup):
                    with pytest.raises(ValueError, match="positive and finite"):
                        evaluate(t, sym, u)

    def test_non_sectorial_rejected(self, grid256):
        # refused at the witness in either form: a full table and a broadcast row
        row = -np.abs(grid256.xi).astype(complex) ** 1.5
        u = lv.GridFunction(grid256, np.ones(256, dtype=complex))
        for vals in (np.tile(row, (256, 1)), np.broadcast_to(row, (256, 256))):
            s = lv.SymbolGrid(grid256, vals, 1.5)
            assert s.x_independent == (vals.strides[0] == 0)
            for evaluate in (lv.semigroup_apply, lv.contour_semigroup):
                with pytest.raises(lv.EllipticityError, match="negative real part: not sectorial"):
                    evaluate(1.0, s, u)


class TestGauges:
    def test_constant_gauge_bounded_by_multiplier_envelope(self, symbol_const_1024, grid1024):
        # closed form: |t psi e^{-t psi}| <= sup_s s e^{-s} = 1/e per mode
        u = lv.random_rough_function(grid1024, 0.5, seed=4)
        rows = lv.analyticity_gauge(symbol_const_1024, u, [0.001, 0.01, 0.1, 1.0])
        for t, val in rows:
            sym = symbol_const_1024.values[0]
            oracle = np.sqrt(
                np.sum(np.abs(t * sym * np.exp(-t * sym) * u.coeffs) ** 2)
                / np.sum(np.abs(u.coeffs) ** 2)
            )
            assert val == pytest.approx(oracle, rel=1e-6)
            assert val <= math.exp(-1.0) + 1e-9

    def test_constant_input_gauge_zero(self, symbol_const_256, grid256):
        u = lv.GridFunction(grid256, np.ones(256, dtype=complex))
        rows = lv.analyticity_gauge(symbol_const_256, u, [0.5])
        assert rows[0][1] == 0.0

    def test_variable_gauge_uniformly_bounded(self, symbol_var_256, grid256):
        u = lv.random_rough_function(grid256, 0.5, seed=4)
        rows = lv.analyticity_gauge(symbol_var_256, u, [2.0**-k for k in range(0, 11)])
        vals = [v for _, v in rows]
        assert max(vals) / min(vals) <= 10.0

    def test_smoothing_slope_windows(self, symbol_const_1024, grid1024):
        rough = lv.random_rough_function(grid1024, 0.51, seed=11)
        times = [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125]
        rep = lv.smoothing_gauge(symbol_const_1024, rough, 1.5, 1.5, times)
        assert -1.0 <= rep.slope <= -0.7
        doubled = lv.smoothing_gauge(symbol_const_1024, rough, 3.0, 1.5, times)
        assert -2.0 <= doubled.slope <= -1.4

    def test_smooth_input_no_blowup(self, symbol_const_1024, grid1024):
        smooth = lv.GridFunction.from_callable(
            grid1024,
            lv.bump_payoff(center=grid1024.period / 2, width=2.0, period=grid1024.period),
        )
        rep = lv.smoothing_gauge(
            symbol_const_1024, smooth, 1.5, 1.5, [1.0, 0.5, 0.25, 0.125]
        )
        assert abs(rep.slope) <= 0.3

    def test_generator_times_match_list(self, symbol_const_256, grid256):
        u = lv.random_rough_function(grid256, 0.51, seed=1)
        times = [2.0**-k for k in range(6)]
        from_gen = lv.smoothing_gauge(symbol_const_256, u, 1, 1, (t for t in times))
        assert from_gen == lv.smoothing_gauge(symbol_const_256, u, 1, 1, times)
        assert from_gen.times == tuple(times)

    def test_too_few_times_rejected(self, symbol_const_256, grid256):
        u = lv.random_rough_function(grid256, 0.51, seed=1)
        with pytest.raises(ValueError):
            lv.smoothing_gauge(symbol_const_256, u, 1.5, 1.5, [1.0, 0.5])


class TestGaugeCsv:
    def test_cells_formatted_as_by_type(self, tmp_path):
        # oracle: the per-cell rule, 17 significant digits for every float
        # (np.float64 included) and str() for everything else
        def literal(rows, columns):
            lines = [",".join(columns)]
            for row in rows:
                padded = tuple(row) + ("",) * (len(columns) - len(row))
                lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                                      for v in padded))
            return "# note\n" + "\n".join(lines) + "\n"

        columns = ("a", "b", "c", "d")
        rows = [
            (0, 1, 0.1, -0.0),
            (math.nan, math.inf, -math.inf, np.float64(1) / 3),
            (True, False, np.int64(7), np.float32(0.1)),
            (np.bool_(True), "text", None, 2**70),
            (1e-300, 5e-324, 1.7976931348623157e308, np.float64(-0.0)),
            (3,),
            (),
            (1.5, 2, 3.25),
            (1, 2, 3, 4, 5.5),  # a long row is written whole
            (0, 1, 0.1, -0.0),
        ]
        path = tmp_path / "rows.csv"
        write_gauge_csv(path, iter(rows), "note", columns)
        assert path.read_text() == literal(rows, columns)
