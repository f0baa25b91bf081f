"""The benchmark's workloads: the round of operations each one repeats, the
inputs it builds from the workload seed, and the independent oracles its
outputs are checked against.

A round is a fixed list of operations.  Most are ``run_experiment`` calls on a
validated experiment config; a few are direct calls into the public API.  An
operation is a pair of callables: ``call()`` does the timed work and returns
its output; ``check(output)`` (untimed) returns ``(status, detail)`` with
status ``"ok"``, ``"wrong"`` (a gate or oracle missed) or ``"raised"`` (the
package refused with a typed ``LevySdeError``).

The model is the normalized 1.5-stable measure unless stated; "var-sigma" is
sigma(x) = 2 + 0.2 sin x and "const" is sigma = 1; the torus factor is L = 4.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import integrate, linalg

ZERO_DRIFT = {"preset": "constant", "value": 0.0}
VAR_SIGMA = {"preset": "2+sin", "offset": 2.0, "amplitude": 0.2}
CONST_SIGMA = {"preset": "constant", "value": 1.0}
PERIOD = 2.0 * math.pi * 4.0


def _stable_model(sigma: dict, lower: float) -> dict:
    return {
        "dimension": 1,
        "kind": "stable",
        "alpha": 1.5,
        "scale": "normalized",
        "sigma_expr": sigma,
        "drift_expr": ZERO_DRIFT,
        "sigma_lower_bound": lower,
    }


VAR_MODEL = _stable_model(VAR_SIGMA, 1.5)
CONST_MODEL = _stable_model(CONST_SIGMA, 0.5)
GRID_256 = {"n": 256, "length_factor": 4}
GRID_1024 = {"n": 1024, "length_factor": 4}

TAB_RADII = np.geomspace(0.01, 10.0, 30)
ORACLE_POINTS = 5  # lattice magnitudes checked against scipy quad


def derive_seed(seed: int, name: str) -> int:
    """Seed of one input of one operation, derived from the workload seed."""
    return random.Random(f"{seed}:{name}").randrange(1, 2**31)


@dataclass(frozen=True)
class Op:
    name: str
    call: object
    check: object
    known_defect: bool = False  # the r^-2.5 reproduction: expected to raise
    span: str = ""  # trace span name; direct calls default to direct.<name>


# ---------------------------------------------------------------------------
# oracles that do not use the package
# ---------------------------------------------------------------------------


def quad_exponent(density_power: float, m: float) -> float:
    """psi(m) = 2 int_0^rmax (1 - cos m r) g(r) dr for the tabulated density
    g(r) = r^-density_power on ``TAB_RADII``, by adaptive QUADPACK per
    log-log segment (power-law extension below the first node, zero above
    the last), as ``TabulatedMeasure`` defines the measure."""
    r = TAB_RADII
    g = r**-density_power
    nodes = [0.0] + list(r)
    total = 0.0
    for i in range(len(r)):
        lo, hi = nodes[i], nodes[i + 1]
        j = max(i - 1, 0)  # below the first node: the first segment's power law
        slope = math.log(g[j + 1] / g[j]) / math.log(r[j + 1] / r[j])
        g0, r0 = g[j], r[j]

        def f(x, g0=g0, r0=r0, slope=slope):
            return 4.0 * math.sin(0.5 * m * x) ** 2 * g0 * (x / r0) ** slope

        val, _ = integrate.quad(f, lo, hi, limit=400, epsabs=0.0, epsrel=1e-12)
        total += val
    return total


def _pick(seed: int, name: str, pool, k: int):
    rng = random.Random(derive_seed(seed, name))
    return sorted(rng.sample(list(pool), k))


def _rel(a, b) -> float:
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) / max(np.linalg.norm(b), 1e-300))


def _experiment_check(result):
    scalars = {
        k: v for k, v in result.summary.items()
        if isinstance(v, (int, float)) and k not in ("pass",)
    }
    detail = ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                       for k, v in scalars.items())
    return ("ok" if result.ok else "wrong", detail)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    why = ""

    def configs(self, root: Path, seed: int, load_config) -> list:
        """(op name, config dict without ``output``) for each experiment."""
        return []

    def inputs(self, lv, seed: int) -> dict:
        """Models, grids and inputs of the direct calls (built in set-up)."""
        return {}

    def oracle(self, lv, seed: int) -> dict:
        """Reference values, computed outside every timing."""
        return {}

    def direct_ops(self, lv, inputs: dict, oracle: dict) -> list:
        return []

    def experiment_check(self, op_name: str, result, oracle: dict, seed: int):
        return _experiment_check(result)


class OperatorVariable(Workload):
    name = "operator-variable"
    why = ("x-dependent symbol at N=256/1024: dense Kohn-Nirenberg applies and "
           "iterative resolvents over 144 contour nodes do the work; no Monte Carlo")

    def configs(self, root, seed, load_config):
        invert = load_config(root / "configs" / "invert.yaml")
        invert["params"] = {**invert.get("params", {}), "seed": derive_seed(seed, "invert")}
        return [
            ("invert", invert),
            ("analyticity", {
                "experiment": "analyticity", "model": VAR_MODEL, "grid": GRID_256,
                "params": {"times": [2.0**-k for k in range(11)],
                           "seed": derive_seed(seed, "analyticity")},
                "gates": {"max_over_min": 10.0},
            }),
            ("resolvent", {"experiment": "resolvent", "model": VAR_MODEL, "grid": GRID_256,
                           "gates": {"variation_max": 2.0}}),
            ("composition", {
                "experiment": "composition", "model": VAR_MODEL, "grid": GRID_1024,
                "params": {"frequencies": [8, 16, 32], "probe_mode": 5},
                "gates": {"zero_tol": 1e-10, "slope_range": [-1.3, -0.7]},
            }),
        ]

    def inputs(self, lv, seed):
        from levysde.harness.config import build_grid, build_model

        grid = build_grid(GRID_256)
        sym = lv.tabulate(build_model(VAR_MODEL), grid)
        u = lv.random_rough_function(grid, 0.51, seed=derive_seed(seed, "semigroup_apply"))
        return {"sym": sym, "u": u, "t": 0.1}

    def oracle(self, lv, seed):
        inp = self.inputs(lv, seed)
        dense = lv.dense_symbol_matrix(inp["sym"])
        return {"semigroup_apply": linalg.expm(-inp["t"] * dense) @ inp["u"].values}

    def direct_ops(self, lv, inputs, oracle):
        def call():
            return lv.semigroup_apply(inputs["t"], inputs["sym"], inputs["u"])

        def check(pt):
            rel = _rel(pt.values, oracle["semigroup_apply"])
            return ("ok" if rel <= 1e-6 else "wrong", f"rel_l2_vs_expm={rel:.3g}")

        return [Op("semigroup_apply", call, check)]


class SmoothingConstant(Workload):
    name = "smoothing-constant"
    why = ("x-independent symbol at N=1024: the closed-form tabulation and the "
           "diagonal contour fast path, no resolvent iterations")

    def configs(self, root, seed, load_config):
        smoothing = load_config(root / "configs" / "smoothing.yaml")
        smoothing["params"] = {**smoothing.get("params", {}),
                               "seed": derive_seed(seed, "smoothing")}
        return [
            ("smoothing", smoothing),
            ("semigroup", {
                "experiment": "semigroup", "model": CONST_MODEL, "grid": GRID_1024,
                "params": {"times": [0.1, 1.0], "seed": derive_seed(seed, "semigroup")},
                "gates": {"rel_error_max": 1e-6},
            }),
        ]


class McTruncation(Workload):
    name = "mc-truncation"
    why = ("jump sampling, jump aggregation and kernel density estimates do the "
           "work; no operator is applied inside the round")

    def configs(self, root, seed, load_config):
        weak = load_config(root / "configs" / "weak_error.yaml")
        weak["scheme"] = {**weak["scheme"], "seed": derive_seed(seed, "weak-error")}

        def scheme(name, eps, paths):
            return {"eps": eps, "tau": 1.0, "gaussian_compensation": True,
                    "paths": paths, "seed": derive_seed(seed, name)}

        return [
            ("weak-error", weak),
            ("jump-split", {"experiment": "jump-split", "model": CONST_MODEL,
                            "scheme": scheme("jump-split", 0.05, 100_000),
                            "params": {"t": 1.0, "x0": 0.0}}),
            ("strong-feller", {
                "experiment": "strong-feller", "model": CONST_MODEL,
                "scheme": scheme("strong-feller", 0.1, 100_000),
                "params": {"t": 1.0, "threshold": 0.0, "span": 4.0, "x_points": 33},
                "gates": {"max_jump_ratio": 10.0},
            }),
            ("density", {
                "experiment": "density", "model": CONST_MODEL,
                "scheme": scheme("density", 0.1, 100_000),
                "params": {"times": [1.0, 0.5, 0.25, 0.125, 0.0625], "mode": "exact-stable"},
            }),
        ]

    def inputs(self, lv, seed):
        from levysde.harness.config import build_model

        return {
            "model": build_model(VAR_MODEL),
            "payoff": lv.bump_payoff(center=0.0, width=2.0, period=PERIOD),
            "scheme": lv.SimScheme(eps=0.1, tau=0.05, gaussian_compensation=True,
                                   paths=200_000, seed=derive_seed(seed, "mc_semigroup")),
            "x0": 0.0,
            "t": 0.5,
        }

    def oracle(self, lv, seed):
        from levysde.harness.config import build_grid

        inp = self.inputs(lv, seed)
        grid = build_grid(GRID_256)
        sym = lv.tabulate(inp["model"], grid)
        f = lv.GridFunction.from_callable(grid, inp["payoff"])
        pt = lv.semigroup_apply(inp["t"], sym, f)
        return {"mc_semigroup": np.array(pt.values[0].real)}  # grid.x[0] == x0

    def direct_ops(self, lv, inputs, oracle):
        def call():
            return lv.mc_semigroup(inputs["payoff"], inputs["model"], inputs["x0"],
                                   inputs["t"], inputs["scheme"])

        def check(est):
            z = (est.mean - float(oracle["mc_semigroup"])) / max(est.stderr, 1e-300)
            return ("ok" if abs(z) <= 4.0 else "wrong", f"stderrs_from_contour={z:.3g}")

        return [Op("mc_semigroup", call, check)]


class TabulatedQuadrature(Workload):
    name = "tabulated-measure"
    why = ("per-point quadrature of a tabulated Levy measure does the work; every "
           "other workload uses stable closed forms")

    _SYMBOL_GRID = {"n": 64, "length_factor": 4}

    def configs(self, root, seed, load_config):
        model = {
            "dimension": 1, "kind": "tabulated",
            "radii": TAB_RADII.tolist(), "density": (TAB_RADII**-2.2).tolist(),
            "sigma_expr": VAR_SIGMA, "drift_expr": ZERO_DRIFT, "sigma_lower_bound": 1.5,
        }
        return [("symbol", {"experiment": "symbol", "model": model, "grid": self._SYMBOL_GRID})]

    def _symbol_indices(self, seed):
        n = self._SYMBOL_GRID["n"]
        return _pick(seed, "symbol-oracle", range(1, n), ORACLE_POINTS)

    @staticmethod
    def _lattice_magnitudes():
        from levysde.harness.config import build_grid

        return np.unique(np.abs(build_grid(GRID_256).xi))  # 129 values, 0 included

    def inputs(self, lv, seed):
        return {
            "measure": lv.TabulatedMeasure(radii=tuple(TAB_RADII),
                                           density=tuple(TAB_RADII**-2.5)),
            "magnitudes": self._lattice_magnitudes(),
        }

    def oracle(self, lv, seed):
        from levysde.harness.config import build_grid

        xi = build_grid(self._SYMBOL_GRID).xi
        ks = self._symbol_indices(seed)
        mags = self._lattice_magnitudes()
        picked = _pick(seed, "r25-oracle", range(1, mags.size), ORACLE_POINTS)
        # the symbol's x_index 0 row sits at x = 0, where sigma = 2
        return {
            "symbol_k": np.array(ks),
            "symbol_psi": np.array([quad_exponent(2.2, 2.0 * abs(xi[k])) for k in ks]),
            "r25_index": np.array(picked),
            "r25_psi": np.array([quad_exponent(2.5, mags[i]) for i in picked]),
        }

    def experiment_check(self, op_name, result, oracle, seed):
        status, detail = _experiment_check(result)
        csv = next(Path(p) for p in result.files if p.endswith("symbol.csv"))
        row0 = {}
        with open(csv) as fh:
            for line in fh:
                if line.startswith("#") or line.startswith("x_index"):
                    continue
                i, k, re, im = line.split(",")
                if int(i) != 0:
                    break
                row0[int(k)] = complex(float(re), float(im))
        worst = max(abs(row0[int(k)] - ref) / abs(ref)
                    for k, ref in zip(oracle["symbol_k"], oracle["symbol_psi"]))
        if worst > 1e-6:
            status = "wrong"
        return status, f"{detail}, rel_vs_quad={worst:.3g}"

    def direct_ops(self, lv, inputs, oracle):
        meas, mags = inputs["measure"], inputs["magnitudes"]

        def call():
            values, errors = {}, []
            for i, m in enumerate(mags):
                try:
                    values[i] = lv.levy_exponent(meas, float(m))
                except lv.LevySdeError as exc:
                    errors.append((float(m), type(exc).__name__))
            return values, errors

        def check(out):
            values, errors = out
            rels = [abs(values[i] - ref) / abs(ref)
                    for i, ref in zip(oracle["r25_index"], oracle["r25_psi"]) if i in values]
            worst = max(rels, default=0.0)
            detail = (f"{len(errors)} of {mags.size} magnitudes raised "
                      f"{sorted({e for _, e in errors})}, "
                      f"{len(rels)} of {ORACLE_POINTS} oracle points returned, "
                      f"rel_vs_quad={worst:.3g}")
            if worst > 1e-6:
                return "wrong", detail
            return ("raised" if errors else "ok"), detail

        return [Op("levy_exponent_r2.5", call, check, known_defect=True)]


WORKLOADS = {w.name: w for w in (OperatorVariable(), SmoothingConstant(), McTruncation(),
                                 TabulatedQuadrature())}
