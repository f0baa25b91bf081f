"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single pass/fail line with the measured quantities
(visible with ``pytest -s``); the assertion carries the same gate.
"""

import math
import time

import numpy as np
import pytest

import levysde as lv

from conftest import counting_solves

PERIOD = 8 * np.pi


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def acc_grid1024():
    return lv.TorusGrid(n=1024, dimension=1, length_factor=4.0)


@pytest.fixture(scope="module")
def acc_grid256():
    return lv.TorusGrid(n=256, dimension=1, length_factor=4.0)


@pytest.fixture(scope="module")
def model_constant():
    return lv.SdeModel(
        sigma=lv.coefficient_preset("constant", value=1.0),
        drift=lv.coefficient_preset("constant", value=0.0),
        measure=lv.StableMeasure.normalized(1.5),
        sigma_lower_bound=0.5,
    )


@pytest.fixture(scope="module")
def model_variable():
    # sigma(x) = 2 + 0.2 sin x
    return lv.SdeModel(
        sigma=lv.coefficient_preset("2+sin", offset=2.0, amplitude=0.2),
        drift=lv.coefficient_preset("constant", value=0.0),
        measure=lv.StableMeasure.normalized(1.5),
        sigma_lower_bound=1.5,
    )


def test_criterion_01_multiplier_oracle(model_constant, acc_grid1024):
    """Contour semigroup equals the exact multiplier e^{-t psi} to 1e-6 in
    relative L2 at t in {0.1, 1} on the N=1024 constant-coefficient grid; the
    contour solves its nodes by the resolvent, as for variable coefficients."""
    sym = lv.tabulate(model_constant, acc_grid1024)
    u = lv.random_rough_function(acc_grid1024, 0.51, seed=3)
    worst_rel, worst_time = 0.0, 0.0
    for t in (0.1, 1.0):
        sizes = []
        start = time.perf_counter()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lv.operators, "resolvent_apply", counting_solves(sizes))
            pt = lv.contour_semigroup(t, sym, u)
        elapsed = time.perf_counter() - start
        assert sum(sizes) == lv.contour_for_time(t, sym.sector_angle).nodes.size // 2 + 1
        exact = lv.GridFunction.from_coeffs(
            acc_grid1024, np.exp(-t * sym.values[0]) * u.coeffs
        )
        rel = (pt - exact).norm_l2() / exact.norm_l2()
        worst_rel = max(worst_rel, rel)
        worst_time = max(worst_time, elapsed)
    ok = worst_rel <= 1e-6 and worst_time <= 30.0
    report(1, "multiplier oracle", ok, f"rel={worst_rel:.2e}, time={worst_time:.2f}s")
    assert worst_rel <= 1e-6
    assert worst_time <= 30.0


def test_criterion_02_resolvent_sector_bound(model_variable, acc_grid256):
    """|lambda| |R(lambda) v| / |v| varies by at most a factor 2 over
    |lambda| in {10, 100, 1000} on the sector ray."""
    sym = lv.tabulate(model_variable, acc_grid256)
    theta_p = 0.5 * min(sym.sector_angle, 1.45)
    v = lv.GridFunction.from_callable(
        acc_grid256,
        lv.bump_payoff(center=acc_grid256.period / 2, width=2.0, period=acc_grid256.period),
    )
    products = []
    for mag in (10.0, 100.0, 1000.0):
        lam = mag * np.exp(1j * (np.pi / 2.0 + theta_p))
        u = lv.resolvent_apply(lam, sym, v)
        products.append(mag * u.norm_l2() / v.norm_l2())
    variation = max(products) / min(products)
    ok = variation <= 2.0
    report(2, "resolvent sector bound", ok, f"products={[round(p, 4) for p in products]}")
    assert variation <= 2.0


def test_criterion_03_parametrix_inversion(model_variable, acc_grid256):
    """Measured contraction < 5/6, residual <= 1e-8 within 40 iterations, and
    agreement with a dense direct solve at N=256 to 1e-6 relative."""
    sym = lv.tabulate(model_variable, acc_grid256)
    R = lv.choose_R(sym, 1.5)
    split = lv.cutoff_split(sym, R)
    mags = acc_grid256.xi_norm()
    band = (mags >= 4.0 * R) & (mags <= 0.75 * mags.max())
    rng = np.random.default_rng(5)
    coeffs = np.zeros(acc_grid256.shape, dtype=complex)
    coeffs[band] = rng.standard_normal(band.sum()) + 1j * rng.standard_normal(band.sum())
    f = lv.apply_symbol(split.p_high, lv.GridFunction.from_coeffs(acc_grid256, coeffs))
    u, solve = lv.parametrix_solve(sym, f, R, tol=1e-8, maxit=40)
    residual_rel = solve.residual_history[-1] / f.norm_l2()

    A = lv.dense_symbol_matrix(split.p_high)
    f_high = lv.GridFunction.from_coeffs(acc_grid256, f.coeffs * (split.chi > 0))
    u_dense, *_ = np.linalg.lstsq(A, f_high.values, rcond=None)
    dense_rel = np.linalg.norm(u.values - u_dense) / np.linalg.norm(u_dense)

    ok = (
        solve.contraction_estimate < 5.0 / 6.0
        and residual_rel <= 1e-8
        and solve.iterations <= 40
        and dense_rel <= 1e-6
    )
    report(
        3,
        "parametrix inversion",
        ok,
        f"R={R}, contraction={solve.contraction_estimate:.3f}, "
        f"iters={solve.iterations}, residual={residual_rel:.2e}, dense={dense_rel:.2e}",
    )
    assert solve.contraction_estimate < 5.0 / 6.0
    assert residual_rel <= 1e-8
    assert solve.iterations <= 40
    assert dense_rel <= 1e-6


def test_criterion_04_smoothing_rate(model_constant, acc_grid1024):
    """Besov-norm blow-up slope in [-1.0, -0.7] for the rough input at
    gamma = delta = 1.5, p = q = 2; the doubled-order gauge in [-2.0, -1.4]."""
    sym = lv.tabulate(model_constant, acc_grid1024)
    rough = lv.random_rough_function(acc_grid1024, 0.51, seed=11)
    times = [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125]
    rep = lv.smoothing_gauge(sym, rough, 1.5, 1.5, times)
    doubled = lv.smoothing_gauge(sym, rough, 3.0, 1.5, times)
    ok = -1.0 <= rep.slope <= -0.7 and -2.0 <= doubled.slope <= -1.4
    report(4, "smoothing rate", ok, f"slope={rep.slope:.3f}, doubled={doubled.slope:.3f}")
    assert -1.0 <= rep.slope <= -0.7
    assert -2.0 <= doubled.slope <= -1.4


def test_criterion_05_analyticity_gauge(model_variable, acc_grid256):
    """max/min of |t A P_t u| / |u| over dyadic t in [1e-3, 1] at most 10."""
    sym = lv.tabulate(model_variable, acc_grid256)
    u = lv.random_rough_function(acc_grid256, 0.5, seed=4)
    times = [2.0**-k for k in range(0, 11)]  # 1 down to ~1e-3 dyadically
    rows = lv.analyticity_gauge(sym, u, times)
    vals = [v for _, v in rows]
    ratio = max(vals) / min(vals)
    ok = ratio <= 10.0
    report(5, "analyticity gauge", ok, f"max/min={ratio:.3f}")
    assert ratio <= 10.0


def test_criterion_06_weak_error_rate(model_constant):
    """Truncation-level weak-error slope 0.5 +- 0.25 with monotone errors,
    10^6 coupled paths, smooth bump payoff, t = 1; runtime <= 10 min."""
    payoff = lv.bump_payoff(center=0.0, width=2.0, period=PERIOD)
    scheme = lv.SimScheme(
        eps=0.4, tau=1.0, gaussian_compensation=False, paths=1_000_000, seed=17
    )
    start = time.perf_counter()
    table = lv.weak_error_table(
        model_constant, payoff, 0.0, 1.0, [0.4, 0.2, 0.1, 0.05], scheme
    )
    elapsed = time.perf_counter() - start
    assert not table.noise_dominated
    rows = sorted(table.rows)
    monotone = all(
        e1 <= e2 + 2.0 * math.hypot(s1, s2)
        for (_, e1, s1), (_, e2, s2) in zip(rows, rows[1:])
    )
    slope = table.fit.slope
    ok = 0.25 <= slope <= 0.75 and monotone and elapsed <= 600.0
    report(
        6,
        "weak-error rate",
        ok,
        f"slope={slope:.3f}, errors={[round(e, 4) for _, e, _ in rows]}, "
        f"time={elapsed:.1f}s",
    )
    assert 0.25 <= slope <= 0.75
    assert monotone
    assert elapsed <= 600.0


def test_criterion_07_symbol_difference_bound(model_variable, acc_grid256):
    """max over (x, xi) of |a - a_eps| / (|xi|^2 eps^{2-alpha}) stays within a
    factor 2 across eps in {0.2, 0.1, 0.05}.

    The truncation difference realizes the quadratic small-jump mechanism:
    a - a_eps ~ (1/2) (sigma xi)^2 Sigma(eps) with Sigma(eps) proportional to
    eps^{2-alpha}, so the normalized maxima are essentially eps-independent.
    """
    alpha = 1.5
    measure = model_variable.measure
    xs = np.linspace(0.0, PERIOD, 64, endpoint=False)
    sig = np.asarray(model_variable.sigma(xs))[:, None]
    xi = acc_grid256.xi[acc_grid256.xi != 0][None, :]
    eta = sig * xi
    maxima = []
    for eps in (0.2, 0.1, 0.05):
        diff = np.abs(lv.small_jump_symbol_error(measure, eps, eta, compensated=False))
        ratio = diff / (np.abs(xi) ** 2 * eps ** (2.0 - alpha))
        maxima.append(float(ratio.max()))
    variation = max(maxima) / min(maxima)
    ok = variation <= 2.0
    report(7, "symbol-difference bound", ok, f"maxima={[round(m, 5) for m in maxima]}")
    assert variation <= 2.0


def test_criterion_08_strong_feller_regularization(model_constant):
    """Indicator-payoff profile at t = 1 has a finite discrete Lipschitz
    constant and no adjacent jump above 10x the neighborhood median slope."""
    scheme = lv.SimScheme(
        eps=0.1, tau=1.0, gaussian_compensation=True, paths=100_000, seed=5
    )
    xs = np.linspace(-4.0, 4.0, 33)
    prof = lv.strong_feller_profile(model_constant, 1.0, 0.0, xs, scheme)
    ok = math.isfinite(prof.lipschitz) and prof.max_jump_ratio <= 10.0
    report(
        8,
        "strong Feller",
        ok,
        f"lipschitz={prof.lipschitz:.4f}, jump_ratio={prof.max_jump_ratio:.2f}",
    )
    assert math.isfinite(prof.lipschitz)
    assert prof.max_jump_ratio <= 10.0


def test_criterion_09_blumenthal_getoor_estimator():
    """Index estimate within +-0.05 of alpha for alpha in {1.2, 1.5, 1.8} and
    within +-0.05 of zero for a finite atomic measure."""
    errs = {}
    for alpha in (1.2, 1.5, 1.8):
        est = lv.bg_index(lv.StableMeasure.normalized(alpha), 2)
        errs[alpha] = abs(est - alpha)
    atom = lv.AtomicMeasure(atoms=(((2.0,), 1.0),))
    errs["atomic"] = abs(lv.bg_index(atom, 0, fit_range=(1.0, 512.0)))
    ok = all(e <= 0.05 for e in errs.values())
    report(9, "BG estimator", ok, ", ".join(f"{k}: {v:.4f}" for k, v in errs.items()))
    assert all(e <= 0.05 for e in errs.values())


def test_criterion_10_jump_split_consistency(model_constant):
    """Split and unsplit simulations agree on 5 payoffs within 4 stderr at
    1e5 paths; the large-jump count matches nu(|z| > 1) t."""
    rep = lv.jump_split_check(model_constant, 0.0, 1.0, paths=100_000, eps=0.05, seed=11)
    count_ok = abs(rep.mean_large_jumps - rep.expected_large_jumps) <= 4 * rep.large_jump_se
    ok = rep.all_within_4se and not rep.failures and count_ok
    report(
        10,
        "jump split",
        ok,
        f"payoffs={len(rep.payoff_rows)}, EN={rep.mean_large_jumps:.4f} "
        f"vs {rep.expected_large_jumps:.4f}",
    )
    assert rep.all_within_4se
    assert rep.failures == ()
    assert count_ok


def test_criterion_11_composition_calculus_defect(model_variable, acc_grid1024, acc_grid256):
    """Differential-symbol compositions are exact to 1e-10; the stable-symbol
    defect gains one power of frequency from order 0 to order 1
    (log-log slope -1 +- 0.3)."""
    # exact cases
    sig = np.asarray(model_variable.sigma(acc_grid256.x))[:, None]
    a_sig = lv.SymbolGrid(acc_grid256, sig * 1j * acc_grid256.xi[None, :], 1.0)
    a_dx = lv.SymbolGrid(acc_grid256, np.tile(1j * acc_grid256.xi, (256, 1)), 1.0)
    coeffs = np.zeros(acc_grid256.shape, dtype=complex)
    coeffs[int(np.argmin(np.abs(acc_grid256.xi - 5.0)))] = 1.0
    u5 = lv.GridFunction.from_coeffs(acc_grid256, coeffs)
    _, rep_a = lv.composition_defect(a_sig, a_dx, u5, order=0)
    _, rep_b = lv.composition_defect(a_dx, a_sig, u5, order=1)

    # stable-symbol defect decay
    sym = lv.tabulate(model_variable, acc_grid1024)
    ratios = []
    for k in (8.0, 16.0, 32.0):
        co = np.zeros(acc_grid1024.shape, dtype=complex)
        co[int(np.argmin(np.abs(acc_grid1024.xi - k)))] = 1.0
        uk = lv.GridFunction.from_coeffs(acc_grid1024, co)
        _, r0 = lv.composition_defect(sym, sym, uk, order=0)
        _, r1 = lv.composition_defect(sym, sym, uk, order=1)
        ratios.append((k, r1.defect_l2 / r0.defect_l2))
    slope = math.log(ratios[-1][1] / ratios[0][1]) / math.log(ratios[-1][0] / ratios[0][0])
    ok = rep_a.relative <= 1e-10 and rep_b.relative <= 1e-10 and -1.3 <= slope <= -0.7
    report(
        11,
        "composition defect",
        ok,
        f"exact={max(rep_a.relative, rep_b.relative):.2e}, slope={slope:.3f}",
    )
    assert rep_a.relative <= 1e-10
    assert rep_b.relative <= 1e-10
    assert -1.3 <= slope <= -0.7
