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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from ..besov import DyadicPartition
from ..grids import GridFunction, random_rough_function
from ..measures import StableMeasure, bg_index
from ..models import sector_report
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
    dense_symbol_matrix,
    parametrix_solve,
    resolvent_apply,
    semigroup_apply,
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
from .config import ExperimentConfig, build_grid, build_model, build_scheme

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
    ``config._kind``), and ``cfg.gates``/``cfg.params`` hold every key.
    ``needs`` names the config section the experiment requires (``"grid"``,
    ``"scheme"`` or None); ``two_d`` says it runs at ``model.dimension: 2``;
    ``constant_coefficients`` that it needs sigma and b constant on the grid.
    ``rows`` go to ``csv`` under ``columns``; without a ``csv`` only
    ``summary.json`` is written.  ``records`` are JSON files the runner writes
    itself.
    """

    run: Callable
    gates: dict
    needs: str = None
    params: dict = field(default_factory=dict)
    two_d: bool = False
    constant_coefficients: bool = False
    csv: str = None
    columns: tuple = ()
    records: tuple = ()


def _header(cfg: ExperimentConfig) -> str:
    scheme = json.dumps(cfg.scheme, sort_keys=True) if cfg.scheme else "{}"
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
    model = build_model(cfg.model)
    grid = build_grid(cfg.grid)
    sym = tabulate(model, grid)
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
    model = build_model(cfg.model)
    stable = isinstance(model.measure, StableMeasure)
    k, expected = cfg.params["k"], cfg.params["expected"]
    if k is None:
        k = 2 if stable else 0
    if expected is None:
        expected = model.measure.alpha if stable else 0.0
    est = bg_index(model.measure, k)
    ok = abs(est - expected) <= cfg.gates["tolerance"]
    return ok, {"estimate": est, "expected": expected, "k": k}, None


def run_sector(cfg: ExperimentConfig):
    model = build_model(cfg.model)
    grid = build_grid(cfg.grid)
    lattice = grid.xi[grid.xi != 0.0]
    rep = sector_report(model, lattice)
    ok = rep.is_sectorial == cfg.gates["expect_sectorial"]
    summary = {
        "ratio_sup": rep.ratio_sup,
        "min_real_part": rep.min_real_part,
        "is_sectorial": rep.is_sectorial,
        "theta": rep.theta,
        "witness": list(rep.witness),
    }
    return ok, summary, None


def run_invert(cfg: ExperimentConfig):
    model = build_model(cfg.model)
    grid = build_grid(cfg.grid)
    sym = tabulate(model, grid)
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
        A_high = dense_symbol_matrix(split0.p_high)
        f_high = GridFunction.from_coeffs(grid, f.coeffs * (split0.chi > 0))
        u_dense, *_ = np.linalg.lstsq(A_high, f_high.values, rcond=None)
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
    model = build_model(cfg.model)
    grid = build_grid(cfg.grid)
    sym = tabulate(model, grid)
    rep = sector_report(model, grid.xi[grid.xi != 0.0])
    v = GridFunction.from_callable(grid, bump_payoff(center=grid.period / 2, width=2.0, period=grid.period))
    rows = []
    for m in (10.0, 100.0, 1000.0):
        lam = m * np.exp(1j * (np.pi / 2.0 + 0.5 * rep.theta))
        u = resolvent_apply(lam, sym, v)
        rows.append((m, m * u.norm_l2() / v.norm_l2(), 0.0))
    products = [r[1] for r in rows]
    variation = max(products) / max(min(products), 1e-300)
    ok = variation <= cfg.gates["variation_max"]
    return ok, {"products": products, "variation": variation}, rows


def run_semigroup(cfg: ExperimentConfig):
    model = build_model(cfg.model)
    grid = build_grid(cfg.grid)
    sym = tabulate(model, grid)
    u = random_rough_function(grid, 0.51, seed=cfg.params["seed"])
    rows = []
    worst = 0.0
    for t in cfg.params["times"]:
        pt = semigroup_apply(t, sym, u)
        sym_row = sym.values[(0,) * grid.dimension]
        exact = GridFunction.from_coeffs(grid, np.exp(-t * sym_row) * u.coeffs)
        rel = (pt - exact).norm_l2() / max(exact.norm_l2(), 1e-300)
        rows.append((t, rel, rel))
        worst = max(worst, rel)
    ok = worst <= cfg.gates["rel_error_max"]
    return ok, {"worst_rel_error": worst}, rows


def run_smoothing(cfg: ExperimentConfig):
    model = build_model(cfg.model)
    grid = build_grid(cfg.grid)
    gamma, delta, p, q, times = (cfg.params[k] for k in ("gamma", "delta", "p", "q", "times"))
    sym = tabulate(model, grid)
    rough = random_rough_function(
        grid, (gamma - delta) + grid.dimension / 2.0 + 0.01, seed=cfg.params["seed"]
    )
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


def run_analyticity(cfg: ExperimentConfig):
    model = build_model(cfg.model)
    grid = build_grid(cfg.grid)
    sym = tabulate(model, grid)
    u = random_rough_function(grid, 0.5, seed=cfg.params["seed"])
    rows = analyticity_gauge(sym, u, cfg.params["times"])
    vals = [v for _, v in rows]
    ratio = max(vals) / max(min(vals), 1e-300)
    ok = ratio <= cfg.gates["max_over_min"]
    return ok, {"gauge": rows, "max_over_min": ratio}, [(t, v, 0.0) for t, v in rows]


def run_weak_error(cfg: ExperimentConfig):
    model = build_model(cfg.model)
    scheme = build_scheme(cfg.scheme)
    x0 = cfg.params["x0"]
    payoff = bump_payoff(center=x0, width=2.0, period=2 * np.pi * 4.0)
    table = weak_error_table(
        model, payoff, x0, cfg.params["t"], cfg.params["eps_list"], scheme,
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
    model = build_model(cfg.model)
    scheme = build_scheme(cfg.scheme)
    a, span = cfg.params["threshold"], cfg.params["span"]
    xs = np.linspace(a - span, a + span, cfg.params["x_points"])
    prof = strong_feller_profile(model, cfg.params["t"], a, xs, scheme)
    ok = math.isfinite(prof.lipschitz) and prof.max_jump_ratio <= cfg.gates["max_jump_ratio"]
    summary = {"lipschitz": prof.lipschitz, "max_jump_ratio": prof.max_jump_ratio}
    return ok, summary, list(zip(prof.x_grid, prof.profile, prof.stderr))


def run_density(cfg: ExperimentConfig):
    model = build_model(cfg.model)
    scheme = build_scheme(cfg.scheme)
    rep = density_probe(model, cfg.params["x0"], cfg.params["times"], paths=scheme.paths,
                        scheme=scheme, mode=cfg.params["mode"])
    cap = cfg.gates["growth_exponent_max"] or (2.0 / getattr(model.measure, "alpha", 1.5) + 0.5)
    integrals_ok = all(abs(row[3] - 1.0) <= cfg.gates["integral_tol"] for row in rep.rows)
    ok = integrals_ok and rep.growth_exponent <= cap
    summary = {"growth_exponent": rep.growth_exponent, "rows": [list(r) for r in rep.rows]}
    return ok, summary, [(r[0], r[2], r[1]) for r in rep.rows]


def run_jump_split(cfg: ExperimentConfig):
    model = build_model(cfg.model)
    scheme = build_scheme(cfg.scheme)
    rep = jump_split_check(model, cfg.params["x0"], cfg.params["t"], paths=scheme.paths,
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
    model = build_model(cfg.model)
    grid = build_grid(cfg.grid)
    sym = tabulate(model, grid)
    # differential sanity case: a1 = i xi, a2 = sigma(x) i xi is exact at order 1
    xi_row = grid.xi[None, :]
    sig_vals = np.asarray(model.sigma(grid.x))[:, None]
    a_sig = SymbolGrid(grid, sig_vals * (1j * xi_row), 1.0)
    a_dx = SymbolGrid(grid, np.tile(1j * grid.xi, (grid.n, 1)), 1.0)
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
    (x0, y0), (x1, y1) = rows[0], rows[-1]
    return math.log(y1 / y0) / math.log(x1 / x0)


EXPERIMENTS = {
    "symbol": Experiment(
        run_symbol, {}, "grid", csv="symbol.csv", columns=SymbolGrid.CSV_COLUMNS,
        records=("seminorms.json",),
    ),
    "bgindex": Experiment(
        run_bgindex, {"tolerance": 0.05}, two_d=True,
        # None: k = 2 and expected = alpha for a stable measure, else 0 and 0
        params={"k": None, "expected": None},
    ),
    "sector": Experiment(run_sector, {"expect_sectorial": True}, "grid"),
    "invert": Experiment(
        run_invert,
        {"contraction_max": 5.0 / 6.0, "residual_rel": 1e-8, "max_iterations": 40,
         "dense_rel": 1e-6},
        "grid", params={"kappa": None, "seed": 5},  # kappa None: the symbol's order
        csv="invert.csv", columns=("iteration", "residual", "residual_rel"),
    ),
    "resolvent": Experiment(
        run_resolvent, {"variation_max": 2.0}, "grid",
        csv="resolvent.csv", columns=("magnitude", "product", "residual"),
    ),
    "semigroup": Experiment(
        run_semigroup, {"rel_error_max": 1e-6}, "grid", constant_coefficients=True,
        params={"times": [0.1, 1.0], "seed": 3},
        csv="semigroup.csv", columns=("t", "rel_error", "residual"),
    ),
    "smoothing": Experiment(
        run_smoothing, {"slope_range": (-1.0, -0.7), "doubled_slope_range": (-2.0, -1.4)},
        "grid",
        params={"gamma": 1.5, "delta": 1.5, "p": 2.0, "q": 2.0,
                "times": [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125], "seed": 11},
        csv="smoothing.csv", columns=("t", "besov_gamma", "besov_gamma_plus_delta"),
    ),
    "analyticity": Experiment(
        run_analyticity, {"max_over_min": 10.0}, "grid",
        params={"times": [2.0**-k for k in range(0, 11)], "seed": 4},
        csv="analyticity.csv", columns=("t", "value", "residual"),
    ),
    "weak-error": Experiment(
        run_weak_error, {"slope_range": (0.25, 0.75), "monotone": True}, "scheme",
        params={"t": 1.0, "x0": 0.0, "eps_list": [0.4, 0.2, 0.1, 0.05],
                "reference": "spectral"},
        csv="weak_error.csv", columns=("eps", "error", "stderr"),
    ),
    "strong-feller": Experiment(
        run_strong_feller, {"max_jump_ratio": 10.0}, "scheme",
        params={"t": 1.0, "threshold": 0.0, "span": 4.0, "x_points": 33},
        csv="strong_feller.csv", columns=("x", "probability", "stderr"),
    ),
    "density": Experiment(
        run_density,
        {"integral_tol": 0.01, "growth_exponent_max": None},  # None: 2/alpha + 0.5
        "scheme",
        params={"times": [1.0, 0.5, 0.25, 0.125, 0.0625], "x0": 0.0, "mode": "exact-stable"},
        csv="density.csv", columns=("t", "sup_density_slope", "bandwidth"),
    ),
    "jump-split": Experiment(
        run_jump_split, {}, "scheme", params={"t": 1.0, "x0": 0.0},
        csv="jump_split.csv", columns=("payoff", "abs_difference", "stderr"),
    ),
    "composition": Experiment(
        run_composition, {"zero_tol": 1e-10, "slope_range": (-1.3, -0.7)}, "grid",
        params={"probe_mode": 5, "frequencies": [8, 16, 32]},
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
