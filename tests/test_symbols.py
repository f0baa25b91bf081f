"""Symbol tabulation, seminorms, cutoff splitting, and composition defects."""

import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import levysde as lv
from levysde.harness import load_config, run_experiment, validate_config
from levysde.models import X_INDEPENDENT_RTOL
from levysde.symbols import (FACTOR_RTOL, AClass, HypClass, _mixed_derivative, _multi_indices,
                             _seminorm_field, _seminorm_table)

from conftest import constant_coefficient_model, make_mode, swept_model, swept_symbols


# The ascending-xi algorithm, written out as an oracle for the stored-order
# one: sort the xi-axes, take wrapped stencil sums, mask ``reach`` entries at
# both ends of each differentiated xi-axis, and map the witness back.
ASCENDING_STENCILS = {
    1: (-0.5, 0.0, 0.5),
    2: (1.0, -2.0, 1.0),
    3: (-0.5, 1.0, 0.0, -1.0, 0.5),
    4: (1.0, -4.0, 6.0, -4.0, 1.0),
}


def stencil_sum(values, axis, order, h):
    """``sum_j c_j values[i + j] / h^order`` along ``axis``, wrapping at the ends."""
    if order == 0:
        return values
    coeffs = ASCENDING_STENCILS[order]
    reach = len(coeffs) // 2
    out = np.zeros_like(values)
    for c, off in zip(coeffs, range(-reach, reach + 1)):
        if c != 0.0:
            out += c * np.roll(values, -off, axis=axis)
    out /= h**order
    return out


def expansion_terms(a1, a2, order):
    """The tables ``d_xi^alpha a1 * D_x^alpha a2 / alpha!`` of the composition
    expansion, built whole: stored-order stencils along xi, and
    ``D_x = -i d_x`` by FFT along each x-axis."""
    grid, d = a1.grid, a1.dimension
    terms = []
    for alpha in _multi_indices(order, d):
        dxi = _mixed_derivative(grid, a1.values, alpha, (0,) * d)[0]
        dx = a2.values
        for ax in range(d):
            k = grid.xi.reshape([-1 if i == ax else 1 for i in range(2 * d)])
            dx = np.fft.ifft(np.fft.fft(dx, axis=ax) * k ** alpha[ax], axis=ax)
        terms.append(dxi * dx / math.prod(math.factorial(o) for o in alpha))
    return terms


def band_limited_input(grid, seed):
    """Random synthesis coefficients on ``|xi| <= Nyquist / 4``."""
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    coeffs[grid.xi_norm() > grid.xi_nyquist / 4.0] = 0.0
    return lv.GridFunction.from_coeffs(grid, coeffs)


@pytest.fixture(scope="module")
def composition_cases():
    """(a1, a2, u) triples: var-sigma with drift sin x (rank 2) at N = 256,
    a d = 2 symbol at n = 16, and a random table (the trivial split) on
    either side of the var-sigma symbol."""
    grid = lv.TorusGrid(n=256, dimension=1, length_factor=4.0)
    model = lv.SdeModel(
        sigma=lv.coefficient_preset("2+sin", offset=2.0, amplitude=0.2),
        drift=lv.coefficient_preset("2+sin", offset=0.0, amplitude=1.0),
        measure=lv.StableMeasure.normalized(1.5),
        sigma_lower_bound=1.5,
    )
    sym = lv.tabulate(model, grid)
    u = band_limited_input(grid, 1)
    grid2 = lv.TorusGrid(n=16, dimension=2, length_factor=1.0)
    sym2 = lv.tabulate(swept_model(2, 1.5, 0.2, 1.0), grid2)
    rng = np.random.default_rng(3)
    table = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    rand = lv.SymbolGrid(grid, table, 0.0)
    return {
        "var-sigma-drift": (sym, sym, u),
        "d2-n16": (sym2, sym2, band_limited_input(grid2, 2)),
        "random-first": (rand, sym, u),
        "random-second": (sym, rand, u),
    }


def witness_value(sym, rep):
    """The weighted derivative array :func:`lv.seminorm` maximizes, read at
    the reported witness's stored lattice indices."""
    x_idx, xi_idx, alpha, beta = rep.witness
    field = _seminorm_field(sym.grid, _seminorm_table(sym, rep.spec), rep.spec, alpha, beta)
    return float(field[tuple(x_idx) + tuple(xi_idx)])


def gathered_real_operator(sym):
    """``SymbolGrid.real_operator`` by the mirrored table ``a(x, -xi)`` (test
    oracle): one fancy-index gather of the whole table."""
    neg = np.mod(-np.arange(sym.grid.n), sym.grid.n)
    mirrored = sym.values[(Ellipsis,) + np.ix_(*[neg] * sym.dimension)]
    scale = max(float(np.abs(sym.values).max()), 1e-300)
    return bool(np.abs(mirrored - sym.values.conj()).max() <= X_INDEPENDENT_RTOL * scale)


def ascending_multi_indices(total_max, d):
    if d == 1:
        return [(o,) for o in range(total_max + 1)]
    return [(i, j) for i in range(total_max + 1) for j in range(total_max + 1 - i)]


def sort_xi(values, grid, order):
    for ax in range(grid.dimension, 2 * grid.dimension):
        values = np.take(values, order, axis=ax)
    return values


def ascending_seminorm(sym, spec):
    """(value, witness) of :func:`lv.seminorm` by the ascending-xi algorithm."""
    grid = sym.grid
    d = grid.dimension
    order = np.argsort(grid.xi)
    table = sort_xi(sym.values, grid, order)
    if isinstance(spec, HypClass):
        low = np.abs(table) < spec.floor
        table = 1.0 / np.where(low, 1.0, table)
        table[low] = np.nan
        m, radius = spec.m, spec.radius
    else:
        m, radius = -spec.m, 0.0
    xs = grid.xi[order]
    mags = np.abs(xs) if d == 1 else np.hypot(*np.meshgrid(xs, xs, indexing="ij"))
    bracket = np.sqrt(1.0 + mags**2)
    best, witness = -1.0, None
    for alpha in ascending_multi_indices(spec.k1, d):
        if sum(alpha) < spec.min_alpha:
            continue
        for beta in ascending_multi_indices(spec.k2, d):
            deriv = table
            for ax in range(d):
                deriv = stencil_sum(deriv, ax, beta[ax], grid.period / grid.n)
            valid = mags >= radius
            for ax in range(d):
                deriv = stencil_sum(deriv, d + ax, alpha[ax], 1.0 / grid.length_factor)
                reach = len(ASCENDING_STENCILS.get(alpha[ax], ())) // 2
                if reach:
                    ends = [slice(None)] * d
                    ends[ax] = np.r_[0:reach, grid.n - reach:grid.n]
                    valid[tuple(ends)] = False
            field = np.abs(deriv) * bracket ** (spec.rho * sum(alpha) + m)
            field = np.where(valid & np.isfinite(field), field, -np.inf)
            k = int(np.argmax(field))
            if field.flat[k] > best:
                best = float(field.flat[k])
                idx = np.unravel_index(k, field.shape)
                witness = (idx[:d], tuple(int(order[i]) for i in idx[d:]), alpha, beta)
    return best, witness


@st.composite
def seminorm_cases(draw):
    """A swept symbol (2-d at N = 16) with an A or Hyp spec of its declared
    order, k1 <= 4, k2 <= 2; a Hyp radius is a fraction of the Nyquist
    frequency, so the region always holds lattice points."""
    s = draw(swept_symbols(n2=(16,)))
    min_alpha = draw(st.integers(0, 1))
    k1, k2 = draw(st.integers(min_alpha, 4)), draw(st.integers(0, 2))
    if draw(st.booleans()):
        radius = draw(st.floats(0.1, 0.5)) * s.grid.xi_nyquist
        return s, HypClass(m=s.order, k1=k1, k2=k2, radius=radius, min_alpha=min_alpha)
    return s, AClass(m=s.order, k1=k1, k2=k2, min_alpha=min_alpha)


class TestTabulate:
    def test_constant_coefficient_row_constant(self, symbol_const_256, grid256):
        vals = symbol_const_256.values
        assert np.abs(vals - vals[0]).max() <= 1e-12 * np.abs(vals).max()
        assert np.allclose(vals[0], np.abs(grid256.xi) ** 1.5, atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2])
    def test_x_independent_exact_rows_only(self, d):
        # x-independence is the table's form: a broadcast row is x-independent,
        # a materialized table is not, even with every row equal
        grid = lv.TorusGrid(n=16, dimension=d, length_factor=1.0)
        row = (1.0 + grid.xi_norm() ** 2) ** 0.75 + 0.5j
        vals = np.broadcast_to(row, grid.shape + grid.shape)
        assert lv.SymbolGrid(grid, vals, 1.5).x_independent
        assert not lv.SymbolGrid(grid, vals.copy(), 1.5).x_independent
        if d == 2:  # broadcast along x_2 only
            part = np.broadcast_to(vals[:, :1].copy(), vals.shape)
            assert not lv.SymbolGrid(grid, part, 1.5).x_independent

    def test_non_finite_coefficient_refused_past_the_first_point(self, grid256):
        # the constant test reads every sample, so a NaN after x_0 is not
        # taken for a constant and the full tabulation refuses it
        def sigma(x):
            return np.where(np.asarray(x) == grid256.x[5], np.nan, 1.0)

        model = lv.SdeModel(sigma=sigma, drift=lv.coefficient_preset("constant", value=0.0),
                            measure=lv.StableMeasure.normalized(1.5), sigma_lower_bound=0.5)
        with pytest.raises(ValueError, match="sigma produced non-finite values"):
            lv.tabulate(model, grid256)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("drift", [0.0, 1.0])
    def test_real_operator_matches_gathered_mirror(self, d, drift):
        # a real symbol, and a drift -i b xi that is not real
        sym = lv.tabulate(swept_model(d, 1.5, 0.8, drift), lv.TorusGrid(n=16, dimension=d))
        assert sym.real_operator == gathered_real_operator(sym) == (drift == 0.0)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("k", [0, 1, 7, 8, 9, 15])  # 8 is the Nyquist index
    @pytest.mark.parametrize("size", [0.4, 2.0])  # in units of the tolerance
    def test_real_operator_sees_every_lattice_pair(self, d, k, size):
        # one entry of a real symbol's table moved by i * size * tol * max|a|:
        # a self-paired entry (xi = 0, Nyquist) breaks the symmetry by twice
        # that, any other entry by that much; an imaginary Nyquist entry is
        # the case k = 8
        sym = lv.tabulate(swept_model(d, 1.5, 0.8, 0.0), lv.TorusGrid(n=16, dimension=d))
        scale = np.abs(sym.values).max()
        for xi in {(k,) * d, (k, 0)[:d], (0, k)[:d], (3, k)[:d]}:
            vals = sym.values.copy()
            vals[(2,) * d + xi] += 1j * size * X_INDEPENDENT_RTOL * scale
            moved = lv.SymbolGrid(sym.grid, vals, sym.order)
            assert moved.real_operator == gathered_real_operator(moved) == (size < 1.0), xi

    def test_sector_angle_refuses_negative_real_part(self):
        # entries may dip below zero by 1e-10 of max(max|a|, 1), no further
        grid = lv.TorusGrid(n=16, dimension=1, length_factor=1.0)
        vals = np.tile(np.abs(grid.xi) ** 1.5, (16, 1)).astype(complex)
        scale = np.abs(vals).max()
        vals[3, 0] = -0.5e-10 * scale
        assert lv.SymbolGrid(grid, vals, 1.5).sector_angle == pytest.approx(math.pi / 2)
        vals[3, 0] = -2e-10 * scale
        sym = lv.SymbolGrid(grid, vals, 1.5)
        for _ in range(2):  # a refusal is not cached as an angle
            with pytest.raises(lv.EllipticityError, match="negative real part: not sectorial"):
                sym.sector_angle

    def test_sector_angle_refuses_imaginary_axis_entry(self):
        # Re a <= tol while |Im a| > tol: off every sector, though Re a > 0
        grid = lv.TorusGrid(n=16, dimension=1, length_factor=1.0)
        vals = np.tile(np.abs(grid.xi) ** 1.5, (16, 1)).astype(complex)
        vals[3, 5] = 1e-14 + 0.5j
        sym = lv.SymbolGrid(grid, vals, 1.5)
        with pytest.raises(lv.EllipticityError, match="not sectorial") as err:
            sym.sector_angle
        assert err.value.point == (3, 5)
        assert not sym.sector.is_sectorial and sym.sector.witness == (3, 5)

    def test_variable_sigma_range(self, symbol_var_256, grid256):
        # values at fixed xi vary between |1.8 xi|^{1.5} and |2.2 xi|^{1.5}
        k = int(np.argmin(np.abs(grid256.xi - 8.0)))
        col = symbol_var_256.values[:, k].real
        assert col.min() == pytest.approx((1.8 * 8.0) ** 1.5, rel=1e-3)
        assert col.max() == pytest.approx((2.2 * 8.0) ** 1.5, rel=1e-3)

    def test_csv_emission(self, tmp_path, grid256):
        grid = lv.TorusGrid(n=16, dimension=1, length_factor=1.0)
        model = lv.SdeModel(
            sigma=lv.coefficient_preset("constant", value=1.0),
            drift=lv.coefficient_preset("constant", value=0.0),
            measure=lv.StableMeasure.normalized(1.5),
            sigma_lower_bound=0.5,
        )
        sym = lv.tabulate(model, grid)
        path = tmp_path / "sym.csv"
        sym.to_csv(path, header_comment="x")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "x_index,xi_index,re,im"
        assert len(lines) == 2 + 16 * 16


class TestBroadcastRow:
    @settings(max_examples=25, deadline=None)
    @given(
        dn=st.sampled_from([(1, 16), (1, 64), (1, 256), (2, 16), (2, 32)]),
        L=st.sampled_from([1.0, 4.0]),
        alpha=st.floats(0.3, 1.9),  # down to sectors too narrow for a contour
        sigma=st.floats(0.5, 3.0),
        drift=st.floats(-3.0, 3.0),
        t=st.sampled_from([2.0**-10, 0.1, 1.0]),
    )
    def test_reads_like_the_materialized_table(self, dn, L, alpha, sigma, drift, t):
        d, n = dn
        model = constant_coefficient_model(d, alpha, sigma, drift)
        grid = lv.TorusGrid(n=n, dimension=d, length_factor=L)
        sym = lv.tabulate(model, grid)
        assert sym.x_independent and not sym.values.flags.writeable
        x, xi = grid.x, grid.xi
        if d == 2:
            x = np.stack(grid.x_mesh(), axis=-1).reshape(-1, 2)
            xi = np.stack(grid.xi_mesh(), axis=-1).reshape(-1, 2)
        table = lv.state_symbol(model, x[:, None], xi[None]).reshape(sym.values.shape)
        assert np.array_equal(sym.values, table)

        full = lv.SymbolGrid(grid, table, sym.order)
        assert not full.x_independent
        for name in ("sector", "sector_angle", "range_box", "real_operator"):
            assert getattr(sym, name) == getattr(full, name), name
        fast, slow = sym.factors, full.factors
        assert fast.rank == slow.rank == 1
        assert np.array_equal(fast.g, slow.g)
        # the cross's x-factor is a / a at its pivot: one up to complex division
        eps = np.finfo(float).eps
        np.testing.assert_allclose(fast.f, slow.f, rtol=0.0, atol=2 * eps)
        assert fast.error == 0.0 and slow.error <= 4 * eps

        u = lv.random_rough_function(grid, 0.51, seed=3)
        exact = lv.GridFunction.from_coeffs(grid, np.exp(-t * table[(0,) * d]) * u.coeffs)
        pt = lv.semigroup_apply(t, sym, u)
        assert (pt - exact).norm_l2() <= 1e-15 * exact.norm_l2()


def _refuse_cross(*args):
    raise AssertionError("the cross approximation ran")


REPO = Path(__file__).resolve().parent.parent


def composition_config(tmp_path):
    """The composition experiment at N = 1024 on sigma = 2 + 0.2 sin x."""
    model = {"dimension": 1, "kind": "stable", "alpha": 1.5, "scale": "normalized",
             "sigma_expr": {"preset": "2+sin", "offset": 2.0, "amplitude": 0.2},
             "drift_expr": {"preset": "constant", "value": 0.0}, "sigma_lower_bound": 1.5}
    return validate_config({"experiment": "composition", "model": model,
                            "grid": {"n": 1024, "length_factor": 4},
                            "output": str(tmp_path / "out")})


class TestStableSplit:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.sampled_from([16, 64, 256]),
        L=st.sampled_from([1.0, 4.0]),
        alpha=st.floats(0.3, 1.9),
        amp=st.floats(0.05, 1.0),
        drift=st.just(0.0) | st.floats(0.1, 3.0) | st.floats(-3.0, -0.1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_split_reads_like_the_pointwise_table(self, n, L, alpha, amp, drift, seed):
        # |sigma(x)|^alpha psi(xi) - i b(x) xi: the imaginary part is state_symbol's
        # -b xi bit for bit, the real part a few ulps from psi(sigma xi)
        model = swept_model(1, alpha, amp, drift)
        grid = lv.TorusGrid(n=n, dimension=1, length_factor=L)
        sym = lv.tabulate(model, grid)
        table = lv.state_symbol(model, grid.x[:, None], grid.xi[None])
        assert np.array_equal(sym.values.imag, table.imag)
        assert np.array_equal(np.signbit(sym.values.imag), np.signbit(table.imag))
        gap = np.abs(sym.values.real - table.real)
        assert np.all(gap <= 8 * 2.0**-52 * np.abs(table.real))
        assert sym.factors.rank == (1 if drift == 0.0 else 2) and sym.factors.error == 0.0

        rng = np.random.default_rng(seed)
        u = lv.GridFunction(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        want = lv.dense_symbol_matrix(sym) @ u.values
        assert np.abs(lv.apply_symbol(sym, u).values - want).max() <= 1e-12 * np.abs(want).max()

    def test_stable_variable_tables_skip_the_cross(self, tmp_path, monkeypatch, grid256):
        monkeypatch.setattr(lv.symbols, "_cross_factors", _refuse_cross)
        assert run_experiment(composition_config(tmp_path)).ok
        # invert: the split parts at each radius choose_R probes, and the solve's
        invert = load_config(REPO / "configs" / "invert.yaml")
        assert run_experiment(validate_config({**invert, "output": str(tmp_path / "inv")})).ok
        sym = lv.tabulate(swept_model(1, 1.5, 0.2, 1.0), grid256)
        v = lv.random_rough_function(grid256, 0.51, seed=2)
        assert np.isfinite(lv.apply_symbol(sym, v).values).all()
        u = lv.resolvent_apply(10.0, sym, v)
        assert ((10.0 * u + lv.apply_symbol(sym, u)) - v).norm_l2() <= 1e-9 * v.norm_l2()

    def test_composition_forms_no_table(self, tmp_path):
        # both N = 1024 symbols are applied through their factor rows: forming
        # either table would take 16 MB
        cfg = composition_config(tmp_path)
        tracemalloc.start()
        try:
            assert run_experiment(cfg).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.sampled_from([16, 64, 256]),
        L=st.sampled_from([1.0, 4.0]),
        alpha=st.floats(0.3, 1.9),
        amp=st.floats(0.05, 1.0),
        drift=st.just(0.0) | st.floats(0.1, 3.0) | st.floats(-3.0, -0.1),
    )
    def test_split_parts_read_like_the_table(self, n, L, alpha, amp, drift):
        # a chi and a (1 - chi) from the factor rows, a few ulps from the table
        # products; chi / a as (1 / f) (x) (chi / g) at rank 1 only
        grid = lv.TorusGrid(n=n, dimension=1, length_factor=L)
        sym = lv.tabulate(swept_model(1, alpha, amp, drift), grid)
        R = grid.xi_nyquist / 8.0
        with mock.patch.object(lv.symbols, "_cross_factors",
                               wraps=lv.symbols._cross_factors) as cross:
            split = lv.cutoff_split(sym, R)
            for part, w in ((split.p_high, split.chi), (split.b_low, 1.0 - split.chi)):
                assert part.factors.rank == sym.factors.rank and part.factors.error == 0.0
                want = sym.values * w
                assert np.all(np.abs(part.values - want) <= 4 * np.finfo(float).eps * np.abs(want))
            assert cross.call_count == 0
            split.q.factors
            assert cross.call_count == (drift != 0.0)
        plateau = grid.xi_norm() >= 2.0 * R
        assert np.abs(split.q.values * sym.values - 1.0)[:, plateau].max() <= 1e-12

    @settings(max_examples=15, deadline=None)
    @given(
        L=st.sampled_from([1.0, 4.0]),
        alpha=st.floats(1.3, 1.8),
        amp=st.floats(0.05, 0.2),
        drift=st.just(0.0) | st.floats(0.1, 2.0) | st.floats(-2.0, -0.1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_parametrix_on_the_factored_split_matches_dense(self, L, alpha, amp, drift, seed):
        # the solve's gates on the range where choose_R's radius contracts
        # (below alpha = 1.3 an accepted radius can stall the solve)
        grid = lv.TorusGrid(n=256, dimension=1, length_factor=L)
        sym = lv.tabulate(swept_model(1, alpha, amp, drift), grid)
        try:
            R = lv.choose_R(sym, sym.order)
        except lv.ContractionError:
            assume(False)  # no radius contracts on this lattice
        mags = grid.xi_norm()
        band = (mags >= 4.0 * R) & (mags <= 0.75 * mags.max())
        rng = np.random.default_rng(seed)
        coeffs = np.zeros(grid.shape, dtype=complex)
        coeffs[band] = rng.standard_normal(band.sum()) + 1j * rng.standard_normal(band.sum())
        with mock.patch.object(lv.symbols, "_cross_factors",
                               wraps=lv.symbols._cross_factors) as cross:
            split = lv.cutoff_split(sym, R)
            f = lv.apply_symbol(split.p_high, lv.GridFunction.from_coeffs(grid, coeffs))
            u, _ = lv.parametrix_solve(sym, f, R, tol=1e-8, maxit=40)
        assert cross.call_count == (drift != 0.0)  # the solve's own q, at rank 2
        f_high = lv.GridFunction.from_coeffs(grid, f.coeffs * (split.chi > 0))
        u_dense, *_ = np.linalg.lstsq(lv.dense_symbol_matrix(split.p_high), f_high.values, rcond=None)
        assert np.linalg.norm(u.values - u_dense) <= 1e-6 * np.linalg.norm(u_dense)

    @pytest.mark.parametrize("case", ["tabulated", "d2"])
    def test_other_tables_reach_the_cross(self, monkeypatch, case):
        calls, cross = [], lv.symbols._cross_factors
        monkeypatch.setattr(lv.symbols, "_cross_factors",
                            lambda *args: calls.append(args) or cross(*args))
        if case == "d2":
            model, grid = swept_model(2, 1.5, 0.2, 1.0), lv.TorusGrid(n=16, dimension=2)
        else:
            r = np.geomspace(0.01, 10.0, 30)
            model = lv.SdeModel(sigma=lv.coefficient_preset("2+sin", offset=2.0, amplitude=0.2),
                                drift=lv.coefficient_preset("constant", value=0.0),
                                measure=lv.TabulatedMeasure(radii=tuple(r),
                                                            density=tuple(r**-2.5)),
                                sigma_lower_bound=1.5)
            grid = lv.TorusGrid(n=16, dimension=1)
        lv.tabulate(model, grid).factors
        assert len(calls) == 1


class TestSeminorm:
    def test_bracket_weight_function_analytic_oracle(self, grid256):
        # s = <xi>^{1.5} in class A(1.5, 2, 0; 1, 0): the analytic-derivative
        # oracle on the lattice, FD value within 2%
        brk = np.sqrt(1.0 + grid256.xi**2)
        s = lv.SymbolGrid(grid256, np.tile(brk**1.5, (256, 1)).astype(complex), 1.5)
        rep = lv.seminorm(s, AClass(m=1.5, k1=2, k2=0))
        xi = grid256.xi
        d0 = brk**1.5
        d1 = np.abs(1.5 * xi * brk**-0.5)
        d2 = np.abs(1.5 * brk**-0.5 - 0.75 * xi**2 * brk**-2.5)
        oracle = max(
            (d0 * brk**-1.5).max(), (d1 * brk**-0.5).max(), (d2 * brk**0.5).max()
        )
        assert rep.value == pytest.approx(oracle, rel=0.02)

    def test_constant_symbol(self, grid256):
        s = lv.SymbolGrid(grid256, np.full((256, 256), 3.0 + 4.0j), 0.0)
        rep = lv.seminorm(s, AClass(m=0.0, k1=2, k2=2))
        assert rep.value == pytest.approx(5.0, abs=1e-10)
        assert rep.witness[2] == (0,) and rep.witness[3] == (0,)

    def test_hyp_power_witness_on_boundary(self, grid256):
        # 1/s derivatives have a closed form; the sup sits on the circle |xi| = r
        vals = np.tile(np.abs(grid256.xi) ** 1.5, (256, 1)).astype(complex)
        vals[:, grid256.xi == 0.0] = 1.0  # harmless: outside the Hyp region
        s = lv.SymbolGrid(grid256, vals, 1.5)
        rep = lv.seminorm(s, HypClass(m=1.5, k1=2, k2=0, radius=4.0))
        assert abs(grid256.xi[rep.witness[1][0]]) == pytest.approx(4.0)
        x0 = 4.0
        oracle = 1.5 * 2.5 * x0**-3.5 * (1.0 + x0**2) ** 1.75
        assert rep.value == pytest.approx(oracle, rel=0.02)

    def test_witness_reproducible(self, symbol_var_256):
        rep = lv.seminorm(symbol_var_256, AClass(m=1.5, k1=2, k2=2))
        assert witness_value(symbol_var_256, rep) == rep.value

    def test_hyp_witness_reproducible(self, symbol_var_256):
        rep = lv.seminorm(symbol_var_256, HypClass(m=1.5, k1=2, k2=1, radius=4.0))
        assert witness_value(symbol_var_256, rep) == rep.value

    def test_ellipticity_violation_names_point(self, grid256):
        vals = np.tile(np.abs(grid256.xi) ** 1.5, (256, 1)).astype(complex)
        vals[:, 100] = 0.0
        s = lv.SymbolGrid(grid256, vals, 1.5)
        spec = HypClass(m=1.5, k1=1, k2=0, radius=4.0)
        with pytest.raises(lv.EllipticityError) as err:
            lv.seminorm(s, spec)
        point = err.value.point
        assert len(point) == 2
        assert abs(s.values[tuple(point)]) < spec.floor

    @settings(max_examples=40, deadline=None)
    @given(case=seminorm_cases())
    def test_witness_reproduces_value(self, case):
        s, spec = case
        rep = lv.seminorm(s, spec)
        assert witness_value(s, rep) == rep.value

    @settings(max_examples=40, deadline=None)
    @given(case=seminorm_cases())
    def test_matches_ascending_oracle(self, case):
        s, spec = case
        rep = lv.seminorm(s, spec)
        assert (rep.value, rep.witness) == ascending_seminorm(s, spec)

    def test_torus_x_weights_rejected(self, symbol_const_256):
        with pytest.raises(ValueError):
            lv.seminorm(symbol_const_256, AClass(m=1.5, k1=1, k2=0, delta=0.5))

    def test_fd_order_cap(self, symbol_const_256):
        with pytest.raises(ValueError):
            lv.seminorm(symbol_const_256, AClass(m=1.5, k1=5, k2=0))

    def test_report_serialization(self, symbol_var_256):
        rep = lv.seminorm(symbol_var_256, AClass(m=1.5, k1=1, k2=1))
        d = rep.to_dict()
        assert d["class"] == "AClass"
        assert set(d["witness"]) == {"x_index", "xi_index", "alpha", "beta"}

    def test_shift_uniformity_over_ray(self, symbol_var_256):
        # Hyp seminorm of (lambda + a) varies by <= 3 along the sector ray
        theta_p = 0.6
        vals = []
        for mag in (1.0, 3.0, 10.0, 30.0, 100.0):
            lam = mag * np.exp(1j * (np.pi / 2.0 + theta_p))
            shifted = lv.SymbolGrid(symbol_var_256.grid, symbol_var_256.values + lam,
                                    symbol_var_256.order)
            rep = lv.seminorm(shifted, HypClass(m=1.5, k1=2, k2=0, radius=4.0))
            vals.append(rep.value)
        assert max(vals) / min(vals) <= 3.0


class TestChooseR:
    def test_constant_symbol_small_radius(self, symbol_const_256):
        R = lv.choose_R(symbol_const_256, 1.5)
        assert R >= 1.0
        assert R == 4.0  # floor from the first-derivative seminorm product

    def test_variable_symbol(self, symbol_var_256):
        assert lv.choose_R(symbol_var_256, 1.5) == 4.0

    def test_bounded_symbol_rejected(self, grid256):
        s = lv.SymbolGrid(grid256, np.full((256, 256), 3.0 + 0.0j), 0.0)
        with pytest.raises(lv.EllipticityError):
            lv.choose_R(s, 1.5)

    def test_shift_sweep_non_increasing(self, constant_model, variable_model, grid1024):
        sym = lv.tabulate(variable_model, grid1024)
        radii = [lv.choose_R(lv.SymbolGrid(grid1024, sym.values + lam, sym.order), 1.5)
                 for lam in (1.0, 10.0, 100.0)]
        assert all(r1 >= r2 for r1, r2 in zip(radii, radii[1:]))

    def test_grid_too_coarse(self, variable_model):
        grid = lv.TorusGrid(n=16, dimension=1, length_factor=4.0)
        sym = lv.tabulate(variable_model, grid)
        with pytest.raises(lv.ContractionError, match="Nyquist"):
            lv.choose_R(sym, 1.5)


class TestCutoffSplit:
    def test_reconstruction_everywhere(self, symbol_var_256):
        split = lv.cutoff_split(symbol_var_256, 4.0)
        recon = split.p_high.values + split.b_low.values
        assert np.abs(recon - symbol_var_256.values).max() <= 1e-12 * np.abs(
            symbol_var_256.values
        ).max()

    def test_parametrix_inverts_on_plateau(self, symbol_var_256, grid256):
        split = lv.cutoff_split(symbol_var_256, 4.0)
        mags = grid256.xi_norm()
        plateau = mags >= 8.0
        prod = split.q.values * symbol_var_256.values
        assert np.abs(prod[:, plateau] - 1.0).max() <= 1e-12

    def test_low_block_vanishes(self, symbol_var_256, grid256):
        split = lv.cutoff_split(symbol_var_256, 4.0)
        low = grid256.xi_norm() <= 4.0
        assert np.abs(split.p_high.values[:, low]).max() == 0.0
        assert np.abs(split.q.values[:, low]).max() == 0.0
        high = grid256.xi_norm() >= 8.0
        assert np.abs(split.b_low.values[:, high]).max() == 0.0

    def test_b_low_support(self, symbol_var_256, grid256):
        split = lv.cutoff_split(symbol_var_256, 4.0)
        outside = grid256.xi_norm() > 8.0  # = 2R
        assert np.abs(split.b_low.values[:, outside]).max() == 0.0


class TestCompositionDefect:
    def test_x_independent_second_factor_exact(self, grid256):
        # a1 = sigma(x) i xi, a2 = i xi: all correction terms vanish at N = 0
        sig = lv.coefficient_preset("2+sin", offset=2.0, amplitude=0.2)(grid256.x)[:, None]
        a1 = lv.SymbolGrid(grid256, sig * 1j * grid256.xi[None, :], 1.0)
        a2 = lv.SymbolGrid(grid256, np.broadcast_to(1j * grid256.xi, (256, 256)), 1.0)
        u = make_mode(grid256, 5.0)
        defect, rep = lv.composition_defect(a1, a2, u, order=0)
        assert rep.relative <= 1e-10

    def test_product_rule_exact_at_order_one(self, grid256):
        # oracle: d/dx (sigma du/dx) = sigma u'' + sigma' u', reproduced exactly
        # by the order-1 expansion
        sig_fun = lv.coefficient_preset("2+sin", offset=2.0, amplitude=0.2)
        sig = sig_fun(grid256.x)[:, None]
        a1 = lv.SymbolGrid(grid256, np.tile(1j * grid256.xi, (256, 1)), 1.0)
        a2 = lv.SymbolGrid(grid256, sig * 1j * grid256.xi[None, :], 1.0)
        u = make_mode(grid256, 5.0)
        defect, rep = lv.composition_defect(a1, a2, u, order=1)
        assert rep.relative <= 1e-10
        # direct differential-operator oracle
        x = grid256.x
        lhs = lv.apply_symbol(a1, lv.apply_symbol(a2, u)).values
        oracle = -sig_fun(x) * 25.0 * np.exp(5j * x) + 1j * 5.0 * np.gradient(
            sig_fun(x), x
        ) * np.exp(5j * x)
        # np.gradient is itself O(h^2); compare loosely
        assert np.abs(lhs - oracle).max() <= 1e-2 * np.abs(oracle).max()

    def test_defect_order_improves_one_power(self, variable_model, grid1024):
        sym = lv.tabulate(variable_model, grid1024)
        ratios = []
        for k in (8.0, 16.0, 32.0):
            u = make_mode(grid1024, k)
            _, rep0 = lv.composition_defect(sym, sym, u, order=0)
            _, rep1 = lv.composition_defect(sym, sym, u, order=1)
            ratios.append((k, rep1.defect_l2 / rep0.defect_l2))
        slope = math.log(ratios[-1][1] / ratios[0][1]) / math.log(
            ratios[-1][0] / ratios[0][0]
        )
        assert -1.3 <= slope <= -0.7

    @settings(max_examples=30, deadline=None)
    @given(s=swept_symbols(n2=(16,)), orders=st.lists(st.integers(0, 4), min_size=2, max_size=2))
    def test_xi_derivative_matches_ascending_oracle(self, s, orders):
        grid = s.grid
        alpha = tuple(orders[: grid.dimension])
        order = np.argsort(grid.xi)
        sorted_vals = sort_xi(s.values, grid, order)
        for ax in range(grid.dimension):
            sorted_vals = stencil_sum(sorted_vals, grid.dimension + ax, alpha[ax],
                                      1.0 / grid.length_factor)
        oracle = sort_xi(sorted_vals, grid, np.argsort(order))
        got = _mixed_derivative(grid, s.values, alpha, (0,) * grid.dimension)[0]
        assert np.array_equal(got, oracle)

    @pytest.mark.parametrize("case", ["var-sigma-drift", "d2-n16", "random-first", "random-second"])
    def test_factored_expansion_against_composite_table(self, composition_cases, case):
        a1, a2, u = composition_cases[case]
        if case.startswith("random"):
            M = math.prod(a1.grid.shape)
            assert a1.factors.rank * a2.factors.rank == 2 * M  # a trivial split and a rank-2 one
        lhs = lv.apply_symbol(a1, lv.apply_symbol(a2, u)).values.ravel()
        for order in (0, 1, 2):
            defect, _ = lv.composition_defect(a1, a2, u, order)
            terms = expansion_terms(a1, a2, order)
            comp = lv.SymbolGrid(a1.grid, sum(terms), 0.0)
            want = lhs - lv.dense_symbol_matrix(comp) @ u.values.ravel()
            # each factor is off by at most FACTOR_RTOL of its max entry, so each
            # term by about FACTOR_RTOL of its own max, which moves each output
            # by at most that times sum|u_hat|; the same again is left for the
            # oracle's rounding.  The order >= 1 defect is a cancellation, so the
            # bound is held to the scale of max|lhs|, not of the defect
            bound = 2 * FACTOR_RTOL * sum(np.abs(t).max() for t in terms) * np.abs(u.coeffs).sum()
            assert bound <= 1e-8 * np.abs(lhs).max()
            assert np.abs(defect.values.ravel() - want).max() <= bound

    def test_band_limit_precondition(self, symbol_const_256, grid256):
        u = make_mode(grid256, 20.0)  # Nyquist is 32, bound is 8
        with pytest.raises(ValueError):
            lv.composition_defect(symbol_const_256, symbol_const_256, u, order=0)
