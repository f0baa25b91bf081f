"""The experiment table, the experiment implementations, and result emission.

``EXPERIMENTS`` declares each experiment once: its runner, its params and
gates with their defaults (the only keys a config may set in those sections),
the config section it needs, whether it runs in d = 2, and its result CSV.
A runner reads the typed params and gates of its validated config and returns
``(ok, summary, rows)``; :func:`run_experiment` writes the rows as a CSV whose
first line is a comment recording the experiment, the full scheme parameters,
and the content hash of the config, then a ``summary.json`` with estimates,
fits, and pass/fail gates.  An experiment passes (exit status 0) iff all of its gates
hold.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from ..besov import DyadicPartition
from ..grids import GridFunction, random_rough_function
from ..measures import StableMeasure, bg_index
from ..montecarlo import (
    bump_payoff,
    density_probe,
    jump_split_check,
    strong_feller_profile,
    weak_error_table,
)
from ..operators import (
    analyticity_gauge,
    apply_symbol,
    contour_for_time,
    contour_semigroup,
    dense_range_solve,
    parametrix_solve,
    resolvent_apply,
    smoothing_gauge,
    write_gauge_csv,
)
from ..ratefit import fit_rate
from ..symbols import (
    AClass,
    HypClass,
    SymbolGrid,
    choose_R,
    composition_defect,
    cutoff_split,
    seminorm,
    tabulate,
)
from .config import ExperimentConfig, OneOf, Within

__all__ = ["EXPERIMENTS", "Experiment", "ExperimentResult", "run_experiment"]


class ExperimentResult:
    def __init__(self, ok: bool, summary: dict, files: list):
        self.ok = ok
        self.summary = summary
        self.files = files


@dataclass(frozen=True)
class Experiment:
    """One harness experiment.

    ``run(cfg)`` returns ``(ok, summary, rows)``.  ``gates`` and ``params``
    map each key a config may set in those sections to its default; the
    type of a default sets how a configured value is parsed (see
    ``config._kind``; a ``OneOf`` lists the allowed values, its first the
    default, and a ``Within`` declares the default with the interval its
    value lies in), and ``cfg.gates``/``cfg.params`` hold every key.
    ``needs`` names the config section the experiment requires (``"grid"``,
    ``"scheme"`` or None); ``steps`` says its paths take ``scheme.tau`` Euler
    steps (not so ``jump-split``, which draws its horizon in one);
    ``two_d`` says it runs at ``model.dimension: 2``;
    ``constant_coefficients`` that it needs sigma and b constant on the grid.
    ``rows`` go to ``csv`` under ``columns``; without a ``csv`` only
    ``summary.json`` is written.  ``records`` are JSON files the runner writes
    itself.
    """

    run: Callable
    gates: dict
    needs: str = None
    params: dict = field(default_factory=dict)
    steps: bool = False
    two_d: bool = False
    constant_coefficients: bool = False
    csv: str = None
    columns: tuple = ()
    records: tuple = ()


def _header(cfg: ExperimentConfig) -> str:
    scheme = json.dumps(asdict(cfg.scheme), sort_keys=True) if cfg.scheme else "{}"
    return f"experiment={cfg.experiment} scheme={scheme} config_hash={cfg.digest}"


def _emit_summary(cfg: ExperimentConfig, ok: bool, payload: dict, files: list) -> ExperimentResult:
    payload = {"experiment": cfg.experiment, "config_hash": cfg.digest, "pass": ok, **payload}
    summary_path = Path(cfg.output) / "summary.json"
    _write_json(summary_path, payload)
    return ExperimentResult(ok, payload, files + [str(summary_path)])


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, default=_jsonable) + "\n")


def _jsonable(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    return str(x)


# ---------------------------------------------------------------------------


def run_symbol(cfg: ExperimentConfig):
    sym = tabulate(cfg.model, cfg.grid)
    # growth and hypoellipticity seminorms with their witness coordinates
    rep_a = seminorm(sym, AClass(m=sym.order, k1=1, k2=1))
    rep_h = seminorm(sym, HypClass(m=sym.order, k1=1, k2=0))
    _write_json(
        Path(cfg.output) / "seminorms.json",
        {"config_hash": cfg.digest, "growth": rep_a.to_dict(), "hyp": rep_h.to_dict()},
    )
    summary = {
        "max_abs": float(np.abs(sym.values).max()),
        "min_real": float(sym.values.real.min()),
        "order": sym.order,
        "growth_seminorm": rep_a.value,
        "hyp_seminorm": rep_h.value,
    }
    return True, summary, sym.csv_rows()


def run_bgindex(cfg: ExperimentConfig):
    measure = cfg.model.measure
    stable = isinstance(measure, StableMeasure)
    k, expected = cfg.params["k"], cfg.params["expected"]
    if k is None:
        k = 2 if stable else 0
    if expected is None:
        expected = measure.alpha if stable else 0.0
    est = bg_index(measure, k)
    ok = abs(est - expected) <= cfg.gates["tolerance"]
    return ok, {"estimate": est, "expected": expected, "k": k}, None


def run_sector(cfg: ExperimentConfig):
    sym = tabulate(cfg.model, cfg.grid)
    rep = sym.sector
    ok = rep.is_sectorial == cfg.gates["expect_sectorial"]
    summary = {
        "ratio_sup": rep.ratio_sup,
        "min_real_part": float(sym.values[..., cfg.grid.xi_norm() != 0.0].real.min()),
        "is_sectorial": rep.is_sectorial,
        "theta": rep.theta,
        "witness": list(rep.witness),
    }
    return ok, summary, None


def run_invert(cfg: ExperimentConfig):
    grid = cfg.grid
    sym = tabulate(cfg.model, grid)
    kappa = cfg.params["kappa"]
    R = choose_R(sym, sym.order if kappa is None else kappa)
    split0 = cutoff_split(sym, R)
    mags = grid.xi_norm()
    band = (mags >= 4.0 * R) & (mags <= 0.75 * mags.max())
    rng = np.random.default_rng(cfg.params["seed"])
    coeffs = np.zeros(grid.shape, dtype=complex)
    coeffs[band] = rng.standard_normal(int(band.sum())) + 1j * rng.standard_normal(
        int(band.sum())
    )
    # manufactured in-range right-hand side (the solver targets p_R(x, D))
    f = apply_symbol(split0.p_high, GridFunction.from_coeffs(grid, coeffs))
    u, report = parametrix_solve(
        sym, f, R, tol=cfg.gates["residual_rel"], maxit=cfg.gates["max_iterations"]
    )
    residual_rel = report.residual_history[-1] / f.norm_l2()
    ok = (
        report.contraction_estimate < cfg.gates["contraction_max"]
        and residual_rel <= cfg.gates["residual_rel"]
        and report.iterations <= cfg.gates["max_iterations"]
    )
    dense_rel = None
    if grid.n <= 256:
        # p_high vanishes off supp chi: the dense least squares lives on its columns
        support = split0.chi > 0
        f_high = GridFunction.from_coeffs(grid, f.coeffs * support)
        u_dense = dense_range_solve(split0.p_high, support, f_high.values)
        dense_rel = float(
            np.linalg.norm(u.values - u_dense) / max(np.linalg.norm(u_dense), 1e-300)
        )
        ok = ok and dense_rel <= cfg.gates["dense_rel"]
    rows = [(float(i), r, r / f.norm_l2()) for i, r in enumerate(report.residual_history)]
    summary = {
        "R": R,
        "iterations": report.iterations,
        "contraction_estimate": report.contraction_estimate,
        "residual_rel": residual_rel,
        "dense_rel": dense_rel,
    }
    return ok, summary, rows


def run_resolvent(cfg: ExperimentConfig):
    grid = cfg.grid
    sym = tabulate(cfg.model, grid)
    v = GridFunction.from_callable(grid, bump_payoff(center=grid.period / 2, width=2.0, period=grid.period))
    rows = []
    for m in (10.0, 100.0, 1000.0):
        lam = m * np.exp(1j * (np.pi / 2.0 + 0.5 * sym.sector_angle))
        u = resolvent_apply(lam, sym, v)
        rows.append((m, m * u.norm_l2() / v.norm_l2(), 0.0))
    products = [r[1] for r in rows]
    variation = max(products) / max(min(products), 1e-300)
    ok = variation <= cfg.gates["variation_max"]
    return ok, {"products": products, "variation": variation}, rows


def run_semigroup(cfg: ExperimentConfig):
    grid = cfg.grid
    sym = tabulate(cfg.model, grid)
    u = random_rough_function(grid, 0.51, seed=cfg.params["seed"])
    rows = []
    for t in cfg.params["times"]:
        # the contour that variable tables run, against the exact multiplier
        pt = contour_semigroup(t, sym, u)
        exact = GridFunction.from_coeffs(grid, np.exp(-t * sym.x_mean) * u.coeffs)
        rel = (pt - exact).norm_l2() / max(exact.norm_l2(), 1e-300)
        rows.append((t, rel, rel))
    worst = max(rel for _, rel, _ in rows)
    ok = worst <= cfg.gates["rel_error_max"]
    return ok, {"worst_rel_error": worst}, rows


def run_smoothing(cfg: ExperimentConfig):
    grid = cfg.grid
    gamma, delta, p, q, times = (cfg.params[k] for k in ("gamma", "delta", "p", "q", "times"))
    sym = tabulate(cfg.model, grid)
    rough = random_rough_function(grid, _rough_decay(gamma, delta, grid.dimension),
                                  seed=cfg.params["seed"])
    part = DyadicPartition(grid)
    rep = smoothing_gauge(sym, rough, gamma, delta, times, p=p, q=q, partition=part)
    doubled = smoothing_gauge(sym, rough, gamma + delta, delta, times, p=p, q=q, partition=part)
    lo, hi = cfg.gates["slope_range"]
    dlo, dhi = cfg.gates["doubled_slope_range"]
    ok = lo <= rep.slope <= hi and dlo <= doubled.slope <= dhi
    summary = {
        "slope": rep.slope,
        "c_fit": rep.c_fit,
        "doubled_slope": doubled.slope,
        "doubled_c_fit": doubled.c_fit,
    }
    return ok, summary, list(zip(rep.times, rep.norms, doubled.norms))


def _rough_decay(gamma: float, delta: float, d: int) -> float:
    """Spectral decay of the smoothing gauge's rough input, which lies in
    ``B^(gamma - delta)`` and in nothing better."""
    return (gamma - delta) + d / 2.0 + 0.01


def run_analyticity(cfg: ExperimentConfig):
    grid = cfg.grid
    sym = tabulate(cfg.model, grid)
    u = random_rough_function(grid, 0.5, seed=cfg.params["seed"])
    rows = analyticity_gauge(sym, u, cfg.params["times"])
    # the contours semigroup_apply solved (none for the multiplier), rebuilt for the record
    times = [] if sym.x_independent else cfg.params["times"]
    contours = [contour_for_time(t, sym.sector_angle) for t in times]
    vals = [v for _, v in rows]
    ratio = max(vals) / max(min(vals), 1e-300)
    ok = ratio <= cfg.gates["max_over_min"]
    summary = {
        "gauge": rows,
        "max_over_min": ratio,
        "contour_nodes": [int(c.nodes.size) for c in contours],
        "residue_error": [c.residue_error for c in contours],
    }
    return ok, summary, [(t, v, 0.0) for t, v in rows]


def run_weak_error(cfg: ExperimentConfig):
    x0 = cfg.params["x0"]
    payoff = bump_payoff(center=x0, width=2.0, period=2 * np.pi * 4.0)
    table = weak_error_table(
        cfg.model, payoff, x0, cfg.params["t"], cfg.params["eps_list"], cfg.scheme,
        reference=cfg.params["reference"],
    )
    rows = [(e, err, se) for e, err, se in table.rows]
    if table.noise_dominated:
        return False, {"noise_dominated": True, "rows": rows, "reference": table.reference}, rows
    lo, hi = cfg.gates["slope_range"]
    errors = [err for _, err, _ in sorted(rows)]
    stderrs = [se for _, _, se in sorted(rows)]
    monotone = all(
        errors[i] <= errors[i + 1] + 2.0 * math.hypot(stderrs[i], stderrs[i + 1])
        for i in range(len(errors) - 1)
    )
    ok = lo <= table.fit.slope <= hi and (monotone or not cfg.gates["monotone"])
    summary = {
        "slope": table.fit.slope,
        "ci95": list(table.fit.ci95),
        "rows": rows,
        "reference": table.reference,
        "monotone": monotone,
        "noise_dominated": False,
    }
    return ok, summary, rows


def run_strong_feller(cfg: ExperimentConfig):
    a, span = cfg.params["threshold"], cfg.params["span"]
    xs = np.linspace(a - span, a + span, cfg.params["x_points"])
    prof = strong_feller_profile(cfg.model, cfg.params["t"], a, xs, cfg.scheme)
    ok = math.isfinite(prof.lipschitz) and prof.max_jump_ratio <= cfg.gates["max_jump_ratio"]
    summary = {"lipschitz": prof.lipschitz, "max_jump_ratio": prof.max_jump_ratio}
    return ok, summary, list(zip(prof.x_grid, prof.profile, prof.stderr))


def run_density(cfg: ExperimentConfig):
    rep = density_probe(cfg.model, cfg.params["x0"], cfg.params["times"], cfg.scheme,
                        mode=cfg.params["mode"])
    cap = cfg.gates["growth_exponent_max"]
    if cap is None:  # validate_config admits None for a stable measure only
        cap = 2.0 / cfg.model.measure.alpha + 0.5
    integrals_ok = all(abs(row[3] - 1.0) <= cfg.gates["integral_tol"] for row in rep.rows)
    ok = integrals_ok and rep.growth_exponent <= cap
    summary = {"growth_exponent": rep.growth_exponent, "rows": [list(r) for r in rep.rows]}
    return ok, summary, [(r[0], r[2], r[1]) for r in rep.rows]


def run_jump_split(cfg: ExperimentConfig):
    scheme = cfg.scheme
    rep = jump_split_check(cfg.model, cfg.params["x0"], cfg.params["t"], paths=scheme.paths,
                           eps=scheme.eps, seed=scheme.seed)
    count_ok = (
        abs(rep.mean_large_jumps - rep.expected_large_jumps) <= 4.0 * rep.large_jump_se
    )
    ok = rep.all_within_4se and count_ok and not rep.failures
    summary = {
        "all_within_4se": rep.all_within_4se,
        "failures": list(rep.failures),
        "mean_large_jumps": rep.mean_large_jumps,
        "expected_large_jumps": rep.expected_large_jumps,
    }
    return ok, summary, [(float(j), d, se) for j, _, _, d, se in rep.payoff_rows]


def run_composition(cfg: ExperimentConfig):
    model, grid = cfg.model, cfg.grid
    sym = tabulate(model, grid)
    # differential sanity case: a1 = i xi, a2 = sigma(x) i xi is exact at order 1
    sig = np.asarray(model.sigma(grid.x), dtype=complex)
    a_sig = SymbolGrid.from_factors(grid, sig[None], (1j * grid.xi)[None], 1.0)
    a_dx = SymbolGrid(grid, np.broadcast_to(1j * grid.xi, (grid.n, grid.n)), 1.0)
    coeffs0 = np.zeros(grid.shape, dtype=complex)
    coeffs0[np.argmin(np.abs(grid.xi - cfg.params["probe_mode"]))] = 1.0
    u = GridFunction.from_coeffs(grid, coeffs0)
    exact, exact_rep = composition_defect(a_dx, a_sig, u, order=1)
    zero_ok = exact_rep.relative <= cfg.gates["zero_tol"]

    ratios = []
    for k in cfg.params["frequencies"]:
        coeffs = np.zeros(grid.shape, dtype=complex)
        coeffs[np.argmin(np.abs(grid.xi - k))] = 1.0
        uk = GridFunction.from_coeffs(grid, coeffs)
        _, rep0 = composition_defect(sym, sym, uk, order=0)
        _, rep1 = composition_defect(sym, sym, uk, order=1)
        ratios.append((k, rep1.defect_l2 / max(rep0.defect_l2, 1e-300)))
    fit = fit_rate(ratios) if len(ratios) >= 4 else None
    slope = fit.slope if fit else _two_point_slope(ratios)
    lo, hi = cfg.gates["slope_range"]
    ok = zero_ok and lo <= slope <= hi
    summary = {"zero_case_relative": exact_rep.relative, "slope": slope, "ratios": ratios}
    return ok, summary, [(k, r, 0.0) for k, r in ratios]


def _two_point_slope(rows):
    (x0, y0), (x1, y1) = min(rows), max(rows)
    return math.log(y1 / y0) / math.log(x1 / x0)


EXPERIMENTS = {
    "symbol": Experiment(
        run_symbol, {}, "grid", csv="symbol.csv", columns=SymbolGrid.CSV_COLUMNS,
        records=("seminorms.json",),
    ),
    "bgindex": Experiment(
        run_bgindex, {"tolerance": Within(0.05, "(0, inf]")}, two_d=True,
        # None: k = 2 and expected = alpha for a stable measure, else 0 and 0
        params={"k": OneOf(None, 0, 1, 2, 3, 4), "expected": None},
    ),
    "sector": Experiment(run_sector, {"expect_sectorial": True}, "grid"),
    "invert": Experiment(
        run_invert,
        {"contraction_max": Within(5.0 / 6.0, "(0, 1]"), "residual_rel": Within(1e-8, "(0, 1)"),
         "max_iterations": 40, "dense_rel": Within(1e-6, "(0, inf]")},
        "grid", params={"kappa": None, "seed": 5},  # kappa None: the symbol's order
        csv="invert.csv", columns=("iteration", "residual", "residual_rel"),
    ),
    "resolvent": Experiment(
        run_resolvent, {"variation_max": Within(2.0, "[1, inf]")}, "grid",
        csv="resolvent.csv", columns=("magnitude", "product", "residual"),
    ),
    "semigroup": Experiment(
        run_semigroup, {"rel_error_max": Within(1e-6, "(0, inf]")}, "grid",
        constant_coefficients=True,
        params={"times": Within([0.1, 1.0], "(0, inf)"), "seed": 3},
        csv="semigroup.csv", columns=("t", "rel_error", "residual"),
    ),
    "smoothing": Experiment(
        run_smoothing,
        {"slope_range": Within((-1.0, -0.7), "[-inf, inf]"),
         "doubled_slope_range": Within((-2.0, -1.4), "[-inf, inf]")},
        "grid",
        params={"gamma": Within(1.5, "(-inf, inf)"), "delta": Within(1.5, "(-inf, inf)"),
                "p": Within(2.0, "[1, inf]"), "q": Within(2.0, "[1, inf]"),
                "times": Within([1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125], "(0, inf)", 4),
                "seed": 11},
        csv="smoothing.csv", columns=("t", "besov_gamma", "besov_gamma_plus_delta"),
    ),
    "analyticity": Experiment(
        run_analyticity, {"max_over_min": Within(10.0, "[1, inf]")}, "grid",
        params={"times": Within([2.0**-k for k in range(0, 11)], "(0, inf)"), "seed": 4},
        csv="analyticity.csv", columns=("t", "value", "residual"),
    ),
    "weak-error": Experiment(
        run_weak_error, {"slope_range": Within((0.25, 0.75), "[-inf, inf]"), "monotone": True},
        "scheme", steps=True,
        params={"t": Within(1.0, "(0, inf)"), "x0": Within(0.0, "(-inf, inf)"),
                "eps_list": Within([0.4, 0.2, 0.1, 0.05], "(0, 1)", 4),
                "reference": OneOf("spectral", "exact-stable")},
        csv="weak_error.csv", columns=("eps", "error", "stderr"),
    ),
    "strong-feller": Experiment(
        run_strong_feller, {"max_jump_ratio": Within(10.0, "(0, inf]")}, "scheme", steps=True,
        params={"t": Within(1.0, "(0, inf)"), "threshold": Within(0.0, "(-inf, inf)"),
                "span": Within(4.0, "(0, inf)"), "x_points": 33},
        csv="strong_feller.csv", columns=("x", "probability", "stderr"),
    ),
    "density": Experiment(
        run_density,
        # growth_exponent_max None: 2/alpha + 0.5
        {"integral_tol": Within(0.01, "(0, inf]"),
         "growth_exponent_max": Within(None, "(-inf, inf]")},
        "scheme", steps=True,
        params={"times": Within([1.0, 0.5, 0.25, 0.125, 0.0625], "(0, inf)", 4),
                "x0": Within(0.0, "(-inf, inf)"),
                "mode": OneOf("exact-stable", "truncated", "truncated+gaussian")},
        csv="density.csv", columns=("t", "sup_density_slope", "bandwidth"),
    ),
    "jump-split": Experiment(
        run_jump_split, {}, "scheme",
        params={"t": Within(1.0, "(0, inf)"), "x0": Within(0.0, "(-inf, inf)")},
        csv="jump_split.csv", columns=("payoff", "abs_difference", "stderr"),
    ),
    "composition": Experiment(
        run_composition,
        {"zero_tol": Within(1e-10, "(0, inf]"),
         "slope_range": Within((-1.3, -0.7), "[-inf, inf]")},
        "grid",
        params={"probe_mode": 5, "frequencies": Within([8, 16, 32], "(0, inf)", 2)},
        csv="composition.csv", columns=("frequency", "defect_ratio", "residual"),
    ),
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run ``cfg``'s experiment and write its result files."""
    entry = EXPERIMENTS[cfg.experiment]
    out = Path(cfg.output)
    out.mkdir(parents=True, exist_ok=True)
    ok, summary, rows = entry.run(cfg)
    files = []
    if entry.csv:
        path = out / entry.csv
        write_gauge_csv(path, rows, header_comment=_header(cfg), columns=entry.columns)
        files.append(str(path))
    files += [str(out / name) for name in entry.records]
    return _emit_summary(cfg, ok, summary, files)
