"""Config handling, rate fitting, experiment orchestration, and the CLI."""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

import levysde as lv
from levysde.errors import ConfigError, LevySdeError
from levysde.harness import config_hash, load_config, run_experiment, validate_config
from levysde.harness.cli import main as cli_main
from levysde.harness.config import OneOf, Within, _default
from levysde.harness.experiments import EXPERIMENTS

from conftest import counting_solves

ROOT = Path(__file__).resolve().parent.parent


WEAK_SCHEME = {"eps": 0.4, "tau": 1.0, "paths": 1000}


def write_config(tmp_path, name, tree):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(tree))
    return path


def base_model(**overrides):
    model = {
        "dimension": 1,
        "kind": "stable",
        "alpha": 1.5,
        "scale": "normalized",
        "sigma_expr": {"preset": "constant", "value": 1.0},
        "drift_expr": {"preset": "constant", "value": 0.0},
        "sigma_lower_bound": 0.5,
    }
    model.update(overrides)
    return model


ATOMIC_MODEL = {**{k: v for k, v in base_model().items() if k not in ("alpha", "scale")},
                "kind": "atomic", "atoms": [[0.5, 1.0], [-0.5, 1.0]]}
VARIABLE_MODEL = base_model(sigma_expr={"preset": "2+sin", "offset": 2.0, "amplitude": 0.2},
                            sigma_lower_bound=1.5)


class TestFitRate:
    def test_exact_square_law(self):
        pts = [(x, x**2) for x in (1.0, 2.0, 3.0, 4.0, 5.0)]
        fit = lv.fit_rate(pts)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.ci95[0] <= fit.slope <= fit.ci95[1]

    def test_constant_data(self):
        fit = lv.fit_rate([(x, 3.0) for x in (1.0, 2.0, 4.0, 8.0)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_noisy_half_power(self):
        # synthetic regression oracle: y = x^{1/2} (1 + 1% noise)
        rng = np.random.default_rng(77)
        xs = np.geomspace(0.5, 64.0, 12)
        ys = np.sqrt(xs) * (1.0 + 0.01 * rng.standard_normal(xs.size))
        fit = lv.fit_rate(list(zip(xs, ys)))
        assert 0.45 <= fit.slope <= 0.55

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            lv.fit_rate([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            lv.fit_rate([(1.0, 1.0), (2.0, -2.0), (3.0, 3.0), (4.0, 4.0)])

    @pytest.mark.parametrize("points", [
        [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)],
        [(1.0, 1.0), (2.0, -2.0), (3.0, 3.0), (4.0, 4.0)],
        [(1.0, 1.0), (2.0, np.inf), (3.0, 3.0), (4.0, 4.0)],
        [(np.nan, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)],
        [(1.0, 1.0, 1.0), (2.0, 2.0, np.inf), (3.0, 3.0, 1.0), (4.0, 4.0, 1.0)],
    ], ids=["three-points", "negative-value", "infinite-value", "nan-abscissa",
            "infinite-weight"])
    def test_refusal_names_points(self, points):
        with pytest.raises(ConfigError) as err:
            lv.fit_rate(points)
        assert err.value.field == "points"

    @pytest.mark.parametrize("n", [4, 5, 9, 41])
    def test_confidence_half_width_is_students_t(self, n):
        from scipy import stats

        rng = np.random.default_rng(n)
        xs = np.geomspace(0.5, 64.0, n)
        ys = xs**0.7 * np.exp(0.05 * rng.standard_normal(n))
        ws = rng.uniform(0.5, 2.0, n)
        fit = lv.fit_rate(list(zip(xs, ys, ws)))
        lx = np.log(xs)
        resid = np.log(ys) - (fit.slope * lx + fit.intercept)
        sxx = np.sum(ws * (lx - np.average(lx, weights=ws)) ** 2)
        half = stats.t.ppf(0.975, n - 2) * np.sqrt(np.sum(ws * resid**2) / (n - 2) / sxx)
        assert fit.ci95[1] - fit.slope == pytest.approx(half, rel=1e-9)
        assert fit.slope - fit.ci95[0] == pytest.approx(half, rel=1e-9)

    def test_students_t_quantile_is_the_stats_one(self):
        from scipy import special, stats

        for dof in range(1, 40):
            assert float(special.stdtrit(dof, 0.975)) == float(stats.t.ppf(0.975, dof))

    def test_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats costs about 0.4 s of import time in every process
        code = ("import sys, levysde, levysde.harness.cli; "
                "assert 'scipy.stats' not in sys.modules, 'scipy.stats imported'")
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestConfig:
    def test_missing_sigma_preset_names_field(self, tmp_path):
        cfg = {
            "experiment": "sector",
            "output": str(tmp_path / "out"),
            "model": base_model(),
            "grid": {"n": 64},
        }
        del cfg["model"]["sigma_expr"]
        path = write_config(tmp_path, "bad.yaml", cfg)
        with pytest.raises(ConfigError) as err:
            validate_config(load_config(path))
        assert "sigma_expr" in str(err.value)

    def test_unknown_experiment(self, tmp_path):
        cfg = {"experiment": "teleport", "model": base_model()}
        path = write_config(tmp_path, "bad2.yaml", cfg)
        with pytest.raises(ConfigError):
            validate_config(load_config(path))

    def test_yaml_syntax_error_carries_line(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("experiment: [unclosed\nmodel: {}\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "line" in str(err.value)

    def test_hash_is_order_independent(self):
        a = {"experiment": "sector", "model": {"kind": "stable", "alpha": 1.5}}
        b = {"model": {"alpha": 1.5, "kind": "stable"}, "experiment": "sector"}
        assert config_hash(a) == config_hash(b)

    @pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.yaml")), ids=lambda p: p.name)
    def test_shipped_configs_validate(self, path, tmp_path):
        tree = {**load_config(path), "output": str(tmp_path / "out")}
        assert validate_config(tree).experiment == tree["experiment"]

    def test_csv_schema_doc_matches_experiment_table(self):
        text = (ROOT / "docs" / "csv_schemas.md").read_text()
        documented = {
            name: (csv, tuple(columns.split(", ")))
            for name, csv, columns in re.findall(r"^\| (\S+) +\| `(\S+)` *\| `([^`]+)` *\|$",
                                                 text, flags=re.MULTILINE)
        }
        declared = {name: (e.csv, e.columns) for name, e in EXPERIMENTS.items() if e.csv}
        assert documented == declared
        def documented_table(part):
            return {
                name: {k: (v, domain.strip())
                       for item, domain in re.findall(r"`([^`]+)`([^`]*?)(?:, (?=`)|$)",
                                                      cell.strip())
                       for k, v in yaml.safe_load(item).items()}
                for name, cell in re.findall(r"^\| (\S+) +\| ((?:`[^`|]+`[^`|]*)+|none) *\|$",
                                             part, flags=re.MULTILINE)
            }

        def domain(v):
            if not isinstance(v, Within):
                return ""
            each = {list: "each ", tuple: "range "}.get(type(v.default), "")
            least = f", {v.distinct} distinct" if v.distinct > 1 else ""
            return f"{each}in {v.interval}{least}"

        def value(v):
            v = list(v) if isinstance(v, OneOf) else _default(v)
            return list(v) if isinstance(v, tuple) else v

        # defaults unwrapped as _declared unwraps them, each followed by its
        # domain; a OneOf is documented as the list of its values, the default
        # first, and a range as its [lo, hi] pair
        params_part, gates_part = text.split("## Experiment gates")
        for part, section in ((params_part, "params"), (gates_part, "gates")):
            assert documented_table(part) == {
                name: {k: (value(v), domain(v)) for k, v in getattr(e, section).items()}
                for name, e in EXPERIMENTS.items()
            }, section

    def test_benchmark_workload_configs_validate(self, tmp_path, monkeypatch):
        # the benchmark validates every config its workloads build during set-up
        spec = importlib.util.spec_from_file_location(
            "workloads", ROOT / "perfbench" / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        for workload in workloads.WORKLOADS.values():
            for op_name, tree in workload.configs(ROOT, 1, load_config):
                tree = {**tree, "output": str(tmp_path / workload.name / op_name)}
                assert validate_config(tree).experiment == tree["experiment"]

    def test_benchmark_names_resolve(self):
        # a layer the tracer cannot find reads zero instead of failing, and a
        # workload's direct call on a deleted name fails only inside a round
        spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        for module_name, attr, *_ in tracing.LAYERS:
            owner = importlib.import_module(module_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            assert name in (vars(owner) if path else dir(owner)), f"{module_name}.{attr}"
        for script in ("workloads.py", "worker.py"):
            tree = ast.parse((ROOT / "perfbench" / script).read_text())
            names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                     and isinstance(node.value, ast.Name) and node.value.id == "lv"}
            assert names and all(hasattr(lv, name) for name in names), (script, names)

    def test_validated_config_holds_built_objects(self, tmp_path):
        grid_cfg = validate_config({"experiment": "sector", "output": str(tmp_path),
                                    "model": base_model(), "grid": {"n": 64}})
        assert isinstance(grid_cfg.model, lv.SdeModel)
        assert grid_cfg.grid == lv.TorusGrid(n=64) and grid_cfg.scheme is None
        scheme_cfg = validate_config({"experiment": "weak-error", "output": str(tmp_path),
                                      "model": base_model(), "scheme": WEAK_SCHEME})
        assert scheme_cfg.grid is None
        assert scheme_cfg.scheme == lv.SimScheme(gaussian_compensation=True, seed=0,
                                                 **WEAK_SCHEME)
        assert validate_config({"experiment": "bgindex", "output": str(tmp_path),
                                "model": base_model()}).grid is None

    def test_constructor_refusal_names_argument(self):
        with pytest.raises(ConfigError) as err:
            lv.TorusGrid(n=60)
        assert err.value.field == "n"
        assert isinstance(err.value, ValueError)  # callers catching ValueError still do
        with pytest.raises(ConfigError) as err:
            lv.SimScheme(eps=0.4, tau=1.0, gaussian_compensation=True, paths=10, seed=-1)
        assert err.value.field == "seed"

    def test_measure_and_model_builders(self):
        from levysde.harness.config import build_measure, build_model

        measure = build_measure(base_model())
        assert isinstance(measure, lv.StableMeasure)
        model = build_model(base_model(sigma_expr={"preset": "2+sin"}))
        assert lv.state_symbol(model, np.pi / 2, 1.0) == pytest.approx(3.0**1.5)
        atomic = build_measure({"kind": "atomic", "dimension": 1, "atoms": [[2.0, 1.0]]})
        assert isinstance(atomic, lv.AtomicMeasure)


class TestExperiments:
    def _sector_cfg(self, tmp_path):
        return {
            "experiment": "sector",
            "output": str(tmp_path / "out"),
            "model": base_model(),
            "grid": {"n": 64, "length_factor": 4},
        }

    def test_sector_pass_and_summary(self, tmp_path):
        cfg = validate_config(self._sector_cfg(tmp_path))
        result = run_experiment(cfg)
        assert result.ok
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["pass"] is True
        assert summary["config_hash"] == cfg.digest

    def test_sector_theta_is_contour_angle(self, tmp_path):
        # the experiment decides on the table the contour is built from
        model = base_model(sigma_expr={"preset": "2+sin"}, drift_expr={"preset": "1+0.5cos"},
                           sigma_lower_bound=0.9)
        cfg = validate_config({**self._sector_cfg(tmp_path), "model": model})
        run_experiment(cfg)
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["theta"] == lv.tabulate(cfg.model, cfg.grid).sector_angle
        assert summary["is_sectorial"] and len(summary["witness"]) == 2

    def test_two_point_slope_spans_the_frequency_range(self):
        # two distinct frequencies suffice, in any order
        from levysde.harness.experiments import _two_point_slope

        assert _two_point_slope([(8.0, 4.0), (16.0, 2.0), (8.0, 4.0)]) == pytest.approx(-1.0)

    def test_result_files_embed_config_hash(self, tmp_path):
        tree = {
            "experiment": "symbol",
            "output": str(tmp_path / "out"),
            "model": base_model(),
            "grid": {"n": 16, "length_factor": 1},
        }
        cfg = validate_config(tree)
        result = run_experiment(cfg)
        csv_path = tmp_path / "out" / "symbol.csv"
        first = csv_path.read_text().splitlines()[0]
        assert first.startswith("#")
        assert cfg.digest in first
        # a mismatching config is detectable from the embedded hash
        other = dict(tree)
        other["grid"] = {"n": 32, "length_factor": 1}
        assert config_hash(other) not in first

    def test_symbol_experiment_writes_seminorm_witness(self, tmp_path):
        tree = {
            "experiment": "symbol",
            "output": str(tmp_path / "out"),
            "model": base_model(),
            "grid": {"n": 16, "length_factor": 1},
        }
        run_experiment(validate_config(tree))
        report = json.loads((tmp_path / "out" / "seminorms.json").read_text())
        assert "witness" in report["growth"]
        assert set(report["growth"]["witness"]) == {"x_index", "xi_index", "alpha", "beta"}
        assert report["hyp"]["value"] > 0

    def test_rerun_byte_identical(self, tmp_path):
        tree = {
            "experiment": "bgindex",
            "output": str(tmp_path / "out"),
            "model": base_model(),
            "params": {"k": 2},
        }
        cfg = validate_config(tree)
        run_experiment(cfg)
        first = (tmp_path / "out" / "summary.json").read_bytes()
        run_experiment(cfg)
        assert (tmp_path / "out" / "summary.json").read_bytes() == first

    def test_bgindex_gate(self, tmp_path):
        tree = {
            "experiment": "bgindex",
            "output": str(tmp_path / "out"),
            "model": base_model(),
            "params": {"k": 2},
        }
        result = run_experiment(validate_config(tree))
        assert result.ok
        assert abs(result.summary["estimate"] - 1.5) <= 0.05

    def test_smoothing_experiment_gates(self, tmp_path):
        tree = {
            "experiment": "smoothing",
            "output": str(tmp_path / "out"),
            "model": base_model(),
            "grid": {"n": 1024, "length_factor": 4},
        }
        result = run_experiment(validate_config(tree))
        assert result.ok
        assert -1.0 <= result.summary["slope"] <= -0.7

    def test_weak_error_experiment(self, tmp_path):
        tree = {
            "experiment": "weak-error",
            "output": str(tmp_path / "out"),
            "model": base_model(),
            "scheme": {
                "eps": 0.4,
                "tau": 1.0,
                "gaussian_compensation": False,
                "paths": 100_000,
                "seed": 17,
            },
            "params": {"eps_list": [0.4, 0.2, 0.1, 0.05]},
        }
        result = run_experiment(validate_config(tree))
        assert result.ok
        assert 0.25 <= result.summary["slope"] <= 0.75

    def test_csv_header_records_built_scheme(self, tmp_path):
        # the scheme's defaulted fields are written too
        tree = {"experiment": "weak-error", "output": str(tmp_path / "out"),
                "model": base_model(), "scheme": WEAK_SCHEME}
        cfg = validate_config(tree)
        run_experiment(cfg)
        first = (tmp_path / "out" / "weak_error.csv").read_text().splitlines()[0]
        assert first == (
            '# experiment=weak-error scheme={"eps": 0.4, "gaussian_compensation": true, '
            f'"paths": 1000, "seed": 0, "tau": 1.0}} config_hash={cfg.digest}'
        )

    def test_jump_split_experiment(self, tmp_path):
        tree = {
            "experiment": "jump-split",
            "output": str(tmp_path / "out"),
            "model": base_model(
                kind="atomic",
                atoms=[[0.5, 3.0], [-0.5, 3.0], [2.0, 1.0], [-1.5, 0.7]],
            ),
            "scheme": {
                "eps": 0.05,
                "tau": 1.0,
                "gaussian_compensation": False,
                "paths": 60_000,
                "seed": 11,
            },
        }
        tree["model"].pop("alpha")
        tree["model"].pop("scale")
        result = run_experiment(validate_config(tree))
        assert result.ok


class TestRemainingExperiments:
    """End-to-end wiring of the experiments not covered above, small scale."""

    def test_invert(self, tmp_path):
        tree = {
            "experiment": "invert",
            "output": str(tmp_path / "out"),
            "model": base_model(
                sigma_expr={"preset": "2+sin", "offset": 2.0, "amplitude": 0.2},
                sigma_lower_bound=1.5,
            ),
            "grid": {"n": 256, "length_factor": 4},
        }
        result = run_experiment(validate_config(tree))
        assert result.ok
        assert result.summary["dense_rel"] <= 1e-6

    def test_resolvent(self, tmp_path):
        tree = {
            "experiment": "resolvent",
            "output": str(tmp_path / "out"),
            "model": base_model(
                sigma_expr={"preset": "2+sin", "offset": 2.0, "amplitude": 0.2},
                sigma_lower_bound=1.5,
            ),
            "grid": {"n": 256, "length_factor": 4},
        }
        result = run_experiment(validate_config(tree))
        assert result.ok

    def test_semigroup(self, tmp_path):
        tree = {
            "experiment": "semigroup",
            "output": str(tmp_path / "out"),
            "model": base_model(),
            "grid": {"n": 256, "length_factor": 4},
        }
        sizes = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lv.operators, "resolvent_apply", counting_solves(sizes))
            result = run_experiment(validate_config(tree))
        assert result.ok
        assert result.summary["worst_rel_error"] <= 1e-6
        # the oracle checks the contour that variable tables run: both times,
        # the nodes on or above the real axis of each 19-node hyperbola
        assert sizes == [10, 10]

    def test_semigroup_rejects_x_dependent_sigma(self, tmp_path, capsys):
        # decided at validation: the coefficients are sampled on the grid
        for key, preset in (
            ("sigma_expr", {"preset": "2+sin", "offset": 2.0, "amplitude": 0.2}),
            ("drift_expr", {"preset": "2+sin", "offset": 0.0, "amplitude": 0.5}),
        ):
            tree = {
                "experiment": "semigroup",
                "output": str(tmp_path / "out"),
                "model": base_model(**{key: preset}, sigma_lower_bound=0.5),
                "grid": {"n": 64, "length_factor": 4},
            }
            path = write_config(tmp_path, "semigroup.yaml", tree)
            assert cli_main(["validate", str(path)]) == 2
            assert f"[model.{key}]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_analyticity(self, tmp_path):
        tree = {
            "experiment": "analyticity",
            "output": str(tmp_path / "out"),
            "model": base_model(
                sigma_expr={"preset": "2+sin", "offset": 2.0, "amplitude": 0.2},
                sigma_lower_bound=1.5,
            ),
            "grid": {"n": 256, "length_factor": 4},
            "params": {"times": [1.0, 0.25, 0.0625, 0.015625]},
        }
        result = run_experiment(validate_config(tree))
        assert result.ok
        # the contour behind each time: its node count and residue self-test
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["contour_nodes"] == [19] * 4
        assert all(0.0 <= e <= 1e-8 for e in summary["residue_error"])

    def test_analyticity_narrow_sector_constant_coefficients(self, tmp_path):
        # alpha = 0.3 with drift 3: a sector too narrow for a contour, but the
        # table is x-independent, so the gauge takes the exact multiplier and
        # records no contour
        tree = {
            "experiment": "analyticity",
            "output": str(tmp_path / "out"),
            "model": base_model(alpha=0.3, drift_expr={"preset": "constant", "value": 3.0}),
            "grid": {"n": 256, "length_factor": 1},
            "params": {"times": [1.0, 0.25, 0.0625, 0.015625]},
        }
        run_experiment(validate_config(tree))
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert len(summary["gauge"]) == 4
        assert summary["contour_nodes"] == [] and summary["residue_error"] == []

    def test_strong_feller(self, tmp_path):
        tree = {
            "experiment": "strong-feller",
            "output": str(tmp_path / "out"),
            "model": base_model(),
            "scheme": {
                "eps": 0.1,
                "tau": 1.0,
                "gaussian_compensation": True,
                "paths": 20_000,
                "seed": 5,
            },
        }
        result = run_experiment(validate_config(tree))
        assert result.ok

    def test_density(self, tmp_path):
        tree = {
            "experiment": "density",
            "output": str(tmp_path / "out"),
            "model": base_model(),
            "scheme": {
                "eps": 0.1,
                "tau": 1.0,
                "gaussian_compensation": True,
                "paths": 10_000,
                "seed": 9,
            },
            "params": {"times": [1.0, 0.5, 0.25, 0.125]},
        }
        result = run_experiment(validate_config(tree))
        assert result.ok

    def test_density_zero_growth_gate_is_kept(self, tmp_path):
        # a configured cap of 0.0 is a cap, not a request for the 2/alpha + 1/2 default
        tree = {
            "experiment": "density",
            "output": str(tmp_path / "out"),
            "model": base_model(),
            "scheme": {"eps": 0.1, "tau": 1.0, "gaussian_compensation": True,
                       "paths": 2_000, "seed": 9},
            "params": {"times": [1.0, 0.5, 0.25, 0.125]},
            "gates": {"growth_exponent_max": 0.0},
        }
        result = run_experiment(validate_config(tree))
        assert result.summary["growth_exponent"] > 0.0
        assert not result.ok

    def test_composition(self, tmp_path):
        tree = {
            "experiment": "composition",
            "output": str(tmp_path / "out"),
            "model": base_model(
                sigma_expr={"preset": "2+sin", "offset": 2.0, "amplitude": 0.2},
                sigma_lower_bound=1.5,
            ),
            "grid": {"n": 1024, "length_factor": 4},
        }
        result = run_experiment(validate_config(tree))
        assert result.ok
        assert result.summary["zero_case_relative"] <= 1e-10


class TestCli:
    def test_list_experiments(self, capsys):
        assert cli_main(["list-experiments"]) == 0
        out = capsys.readouterr().out.split()
        assert "smoothing" in out and "weak-error" in out

    def test_validate_and_run(self, tmp_path, capsys):
        cfg = {
            "experiment": "sector",
            "output": str(tmp_path / "out"),
            "model": base_model(),
            "grid": {"n": 64, "length_factor": 4},
        }
        path = write_config(tmp_path, "ok.yaml", cfg)
        assert cli_main(["validate", str(path)]) == 0
        assert cli_main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_bad_config_exit_code_and_message(self, tmp_path, capsys):
        cfg = {
            "experiment": "sector",
            "output": str(tmp_path / "out"),
            "model": base_model(),
            "grid": {"n": 64},
        }
        del cfg["model"]["sigma_expr"]
        path = write_config(tmp_path, "bad.yaml", cfg)
        assert cli_main(["run", str(path)]) == 2
        assert "sigma_expr" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, field",
        [
            pytest.param({"gate": {"expect_sectorial": True}}, "gate", id="typo-section"),
            pytest.param({"gates": {"slope_rnge": [-1.0, -0.7]}}, "gates.slope_rnge",
                         id="unknown-gate"),
            pytest.param({"contour": {"theta_prime": 0.5, "rho0": 1.0, "M": 80.0}}, "contour",
                         id="contour-section"),
            pytest.param({"experiment": "composition", "model": base_model(dimension=2),
                          "grid": {"n": 16, "dimension": 2}}, "model.dimension",
                         id="composition-2d"),
            pytest.param({"experiment": "weak-error", "model": base_model(dimension=2),
                          "scheme": {"eps": 0.4, "tau": 1.0, "paths": 1000}}, "model.dimension",
                         id="weak-error-2d"),
            pytest.param({"grid": {"n": 16, "dimension": 2}}, "grid.dimension",
                         id="grid-dimension"),
            pytest.param({"experiment": "weak-error", "scheme": WEAK_SCHEME,
                          "params": {"x_zero": 0.0}}, "params.x_zero", id="unknown-param"),
            pytest.param({"experiment": "weak-error", "scheme": WEAK_SCHEME,
                          "params": {"payoff_width": 2.0}}, "params.payoff_width",
                         id="deleted-param"),
            pytest.param({"experiment": "weak-error", "scheme": {**WEAK_SCHEME, "pathz": 10}},
                         "scheme.pathz", id="unknown-scheme-key"),
            pytest.param({"model": base_model(sigma_lower_bnd=0.5)}, "model.sigma_lower_bnd",
                         id="unknown-model-key"),
            pytest.param({"model": base_model(sigma_expr={"preset": "2+sin", "amplitud": 0.2})},
                         "model.sigma_expr", id="unknown-preset-parameter"),
            pytest.param({"experiment": "density", "scheme": WEAK_SCHEME,
                          "params": {"mode": "truncated"},
                          "model": ATOMIC_MODEL},
                         "gates.growth_exponent_max", id="density-growth-gate-without-alpha"),
            pytest.param({"scheme": {"pathz": "many", "eps": 7}}, "scheme",
                         id="unused-scheme-section"),
            pytest.param({"experiment": "weak-error", "scheme": WEAK_SCHEME, "grid": {"n": "x"}},
                         "grid", id="unused-grid-section"),
            pytest.param({"experiment": "weak-error", "scheme": WEAK_SCHEME,
                          "params": {"eps_list": [0.4, 0.2, 0.1]}}, "params.eps_list",
                         id="three-truncation-levels"),
            # x-dependent coefficients take the exact-stable reference
            pytest.param({"experiment": "weak-error", "scheme": WEAK_SCHEME,
                          "model": {**ATOMIC_MODEL, "sigma_expr": VARIABLE_MODEL["sigma_expr"],
                                    "sigma_lower_bound": 1.5}},
                         "model.kind", id="weak-error-variable-sigma-atomic"),
            pytest.param({"experiment": "composition", "params": {"frequencies": [8]}},
                         "params.frequencies", id="one-composition-frequency"),
            *[pytest.param({"experiment": "composition", "grid": {"n": 1024, "length_factor": 4},
                            "params": params}, field, id=name)
              for name, params, field in [
                  ("negative-frequency", {"frequencies": [-8, 16]}, "params.frequencies"),
                  ("zero-frequency", {"frequencies": [0, 16]}, "params.frequencies"),
                  ("negative-fourth-frequency", {"frequencies": [8, 16, 32, -4]},
                   "params.frequencies"),
                  ("frequency-probing-zero", {"frequencies": [0.1, 16]}, "params.frequencies"),
                  ("frequency-above-band", {"frequencies": [16, 64]}, "params.frequencies"),
                  ("probe-mode-above-band", {"probe_mode": 40}, "params.probe_mode"),
              ]],
            pytest.param({"experiment": "smoothing", "params": {"times": [1.0, 0.5]}},
                         "params.times", id="two-smoothing-times"),
            pytest.param({"experiment": "density", "scheme": WEAK_SCHEME,
                          "params": {"times": [1.0, 0.5]}}, "params.times",
                         id="two-density-times"),
        ],
    )
    def test_refused_config_names_field(self, tmp_path, capsys, change, field):
        cfg = {
            "experiment": "sector",
            "output": str(tmp_path / "out"),
            "model": base_model(),
            "grid": {"n": 64, "length_factor": 4},
            **change,
        }
        path = write_config(tmp_path, "refused.yaml", cfg)
        assert cli_main(["run", str(path)]) == 2
        assert f"[{field}]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, field",
        [
            pytest.param({"grid": {"n": "sixty"}}, "grid.n", id="grid-n-word"),
            pytest.param({"grid": {"n": 60}}, "grid.n", id="grid-n-not-power-of-two"),
            pytest.param({"grid": {"n": 64.5}}, "grid.n", id="grid-n-fraction"),
            pytest.param({"grid": 64}, "grid", id="grid-not-a-mapping"),
            pytest.param({"model": base_model(alpha=2.5)}, "model.alpha", id="alpha-2.5"),
            pytest.param({"model": base_model(sigma_lower_bound="half")},
                         "model.sigma_lower_bound", id="lower-bound-word"),
            pytest.param({"model": base_model(sigma_expr={"preset": "constant", "value": "one"})},
                         "model.sigma_expr", id="preset-parameter-word"),
            pytest.param({"experiment": "weak-error",
                          "scheme": {"eps": 1.5, "tau": 1.0, "paths": 1000}}, "scheme.eps",
                         id="eps-1.5"),
            pytest.param({"experiment": "weak-error",
                          "scheme": {"eps": 0.4, "tau": 1.0, "paths": "many"}}, "scheme.paths",
                         id="paths-word"),
            pytest.param({"experiment": "invert", "gates": {"max_iterations": 0}},
                         "gates.max_iterations", id="zero-iteration-cap"),
            pytest.param({"experiment": "invert", "gates": {"max_iterations": 2.5}},
                         "gates.max_iterations", id="fractional-iteration-cap"),
            pytest.param({"experiment": "smoothing", "gates": {"slope_range": [-1.0]}},
                         "gates.slope_range", id="one-sided-range"),
            pytest.param({"experiment": "weak-error", "scheme": WEAK_SCHEME,
                          "params": {"t": "sixty"}}, "params.t", id="param-t-word"),
            pytest.param({"experiment": "weak-error",
                          "scheme": {**WEAK_SCHEME, "gaussian_compensation": "false"}},
                         "scheme.gaussian_compensation", id="compensation-string"),
            pytest.param({"model": base_model(sigma_expr={"preset": "2+sin", "amplitud": 0.2})},
                         "model.sigma_expr", id="preset-parameter-typo"),
            pytest.param({"experiment": "weak-error", "scheme": WEAK_SCHEME,
                          "params": {"reference": "spectrall"}}, "params.reference",
                         id="reference-typo"),
            pytest.param({"experiment": "density", "scheme": WEAK_SCHEME,
                          "params": {"mode": "exact"}}, "params.mode", id="density-mode-typo"),
            pytest.param({"experiment": "density", "scheme": WEAK_SCHEME,
                          "model": ATOMIC_MODEL},
                         "params.mode", id="density-exact-stable-atomic"),
            pytest.param({"experiment": "bgindex", "params": {"k": 2.5}}, "params.k",
                         id="bgindex-fractional-k"),
            pytest.param({"experiment": "bgindex", "params": {"k": 7}}, "params.k",
                         id="bgindex-k-above-4"),
            pytest.param({"experiment": "bgindex", "params": {"k": True}}, "params.k",
                         id="bgindex-k-bool"),
            # every times param takes positive finite times only
            pytest.param({"experiment": "semigroup", "params": {"times": [-1.0, 1.0]}},
                         "params.times", id="semigroup-negative-time"),
            pytest.param({"experiment": "analyticity", "params": {"times": [1.0, 0.0]}},
                         "params.times", id="analyticity-zero-time"),
            pytest.param({"experiment": "smoothing",
                          "params": {"times": [1.0, 0.5, 0.25, float("nan")]}},
                         "params.times", id="smoothing-nan-time"),
            pytest.param({"experiment": "density", "scheme": WEAK_SCHEME,
                          "params": {"times": [float("inf"), 1.0, 0.5, 0.25]}},
                         "params.times", id="density-infinite-time"),
            # Monte Carlo times, spans and starting points that would crash the run
            *[pytest.param({"experiment": experiment, "scheme": WEAK_SCHEME,
                            "params": {key: value}}, f"params.{key}", id=name)
              for name, experiment, key, value in [
                  ("strong-feller-negative-t", "strong-feller", "t", -1.0),
                  ("strong-feller-nan-t", "strong-feller", "t", float("nan")),
                  ("strong-feller-nan-span", "strong-feller", "span", float("nan")),
                  ("weak-error-negative-t", "weak-error", "t", -1.0),
                  ("weak-error-nan-t", "weak-error", "t", float("nan")),
                  ("jump-split-nan-t", "jump-split", "t", float("nan")),
                  ("weak-error-nan-x0", "weak-error", "x0", float("nan")),
                  # a jump block of 2.3e18 jumps per batch of paths
                  ("weak-error-huge-t", "weak-error", "t", 1.0e12),
                  ("weak-error-zero-level", "weak-error", "eps_list", [0.4, 0.2, 0.1, 0.0]),
              ]],
            pytest.param({"experiment": "weak-error",
                          "scheme": {**WEAK_SCHEME, "tau": float("nan")}}, "scheme.tau",
                         id="scheme-nan-tau"),
            # each value below passed validation and then crashed untyped or
            # allocated without bound
            *[pytest.param({"experiment": "smoothing", "params": {key: value}},
                           f"params.{key}", id=f"smoothing-{key}-{value}")
              for key, value in [("p", 0.5), ("q", -1.0), ("gamma", float("nan")),
                                 ("delta", float("inf"))]],
            *[pytest.param({"experiment": experiment,
                            "scheme": {**WEAK_SCHEME, **scheme}, "params": params}, field,
                           id=f"{experiment}-{field}")
              for experiment, scheme, params, field in [
                  ("jump-split", {}, {"t": 1.0e12}, "params.t"),
                  ("jump-split", {"eps": 1.0e-9}, {}, "scheme.eps"),
                  ("strong-feller", {"eps": 1.0e-9}, {}, "scheme.eps"),
                  ("strong-feller", {"tau": 1.0e-9}, {}, "scheme.tau"),
                  ("strong-feller", {}, {"x_points": 10**12}, "params.x_points"),
                  ("strong-feller", {}, {"t": 1.0e12}, "params.t"),
                  ("strong-feller", {}, {"threshold": float("nan")}, "params.threshold"),
                  ("density", {}, {"times": [1.0e12, 0.5, 0.25, 0.125]}, "params.times"),
                  ("density", {"tau": 1.0e-9}, {}, "scheme.tau"),
              ]],
            pytest.param({"experiment": "semigroup", "params": {"times": []}}, "params.times",
                         id="semigroup-no-times"),
            # gates a run can never pass
            pytest.param({"experiment": "composition", "grid": {"n": 256, "length_factor": 4},
                          "params": {"frequencies": [4, 8]}, "gates": {"zero_tol": float("nan")}},
                         "gates.zero_tol", id="composition-nan-zero-tol"),
            pytest.param({"experiment": "semigroup", "gates": {"rel_error_max": -1.0}},
                         "gates.rel_error_max", id="semigroup-negative-error-gate"),
            pytest.param({"experiment": "smoothing", "gates": {"slope_range": [-0.7, -1.0]}},
                         "gates.slope_range", id="smoothing-reversed-range"),
            pytest.param({"experiment": "analyticity", "gates": {"max_over_min": 0.5}},
                         "gates.max_over_min", id="analyticity-ratio-below-one"),
            # a smoothing exponent whose rough input overflows, or vanishes, on the grid
            *[pytest.param({"experiment": "smoothing", "params": {"gamma": gamma}},
                           "params.gamma", id=f"smoothing-gamma-{gamma:g}")
              for gamma in (-1.0e12, 1.0e12)],
            *[pytest.param({"experiment": experiment, "scheme": {**WEAK_SCHEME, "seed": -1}},
                           "scheme.seed", id=f"{experiment}-negative-seed")
              for experiment in ("weak-error", "strong-feller", "density", "jump-split")],
        ],
    )
    def test_malformed_value_names_field(self, tmp_path, capsys, change, field):
        cfg = {
            "experiment": "sector",
            "output": str(tmp_path / "out"),
            "model": base_model(),
            "grid": {"n": 64, "length_factor": 4},
            **change,
        }
        path = write_config(tmp_path, "malformed.yaml", cfg)
        assert cli_main(["validate", str(path)]) == 2
        assert f"[{field}]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("eps_min", [0.05, 0.01])
    def test_weak_error_jump_block_cap(self, tmp_path, eps_min):
        # a horizon whose jump block fills 90% of the cap validates, twice it is refused
        rate = lv.StableMeasure(alpha=1.5).tail_mass(eps_min)
        t_max = 0.9 * lv.montecarlo.JUMP_BLOCK_CAP / (lv.montecarlo._BATCH * rate)
        tree = {"experiment": "weak-error", "output": str(tmp_path / "out"),
                "model": base_model(), "scheme": WEAK_SCHEME,
                "params": {"eps_list": [0.4, 0.2, 0.1, eps_min]}}
        validate_config({**tree, "params": {**tree["params"], "t": t_max}})
        for t in (2.0 * t_max, 1.0e300):
            with pytest.raises(ConfigError, match="cap") as err:
                validate_config({**tree, "params": {**tree["params"], "t": t}})
            assert err.value.field == "params.t"

    def test_jump_split_reads_no_euler_step(self, tmp_path, monkeypatch):
        # jump-split draws its horizon in one step, so a tiny scheme.tau adds
        # no increments to the batch bound and the config runs
        monkeypatch.setenv("LEVYSDE_THREADS", "1")
        cfg = validate_config({"experiment": "jump-split", "output": str(tmp_path / "out"),
                               "model": base_model(),
                               "scheme": {**WEAK_SCHEME, "tau": 1.0e-9, "paths": 2000}})
        assert cfg.scheme.tau == 1.0e-9
        assert run_experiment(cfg).ok

    def test_overflowing_smoothing_norm_ends_typed(self, tmp_path, capsys):
        # gamma = 200 lies in its domain, but the weights 2^(200 j) overflow the
        # Besov norms, which the rate fit refuses
        cfg = {"experiment": "smoothing", "output": str(tmp_path / "out"),
               "model": base_model(), "grid": {"n": 64, "length_factor": 4},
               "params": {"gamma": 200.0}}
        path = write_config(tmp_path, "overflow.yaml", cfg)
        assert cli_main(["run", str(path)]) == 3
        assert "log-log fit" in capsys.readouterr().err

    def test_tail_mass_failing_its_quadrature_is_refused(self, tmp_path, capsys):
        # the batch bound reads the tail mass beyond eps, which this table
        # (an r^-60 segment) fails to integrate: validation ends with exit 2,
        # not a traceback
        model = {k: v for k, v in base_model().items() if k not in ("alpha", "scale")}
        cfg = {"experiment": "density", "output": str(tmp_path / "out"),
               "model": {**model, "kind": "tabulated", "radii": [0.1, 1.0, 10.0],
                         "density": [300.0, 1.0, 1e-60]},
               "scheme": {**WEAK_SCHEME, "eps": 0.05}, "params": {"mode": "truncated"},
               "gates": {"growth_exponent_max": 5.0}}
        path = write_config(tmp_path, "tabulated.yaml", cfg)
        assert cli_main(["validate", str(path)]) == 2
        assert "quadrature did not converge" in capsys.readouterr().err

    def test_validate_creates_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = {
            "experiment": "sector",
            "output": "out_probe/deep",
            "model": base_model(),
            "grid": {"n": 64, "length_factor": 4},
        }
        path = write_config(tmp_path, "ok.yaml", cfg)
        assert cli_main(["validate", str(path)]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["ok.yaml"]
        assert cli_main(["run", str(path)]) == 0
        assert (tmp_path / "out_probe" / "deep" / "summary.json").is_file()

    def test_output_below_a_file_refused(self, tmp_path, capsys):
        cfg = {
            "experiment": "sector",
            "output": str(tmp_path / "ok.yaml" / "out"),
            "model": base_model(),
            "grid": {"n": 64, "length_factor": 4},
        }
        path = write_config(tmp_path, "ok.yaml", cfg)
        assert cli_main(["validate", str(path)]) == 2
        assert "[output]" in capsys.readouterr().err

    def test_failing_gate_exit_code(self, tmp_path):
        cfg = {
            "experiment": "bgindex",
            "output": str(tmp_path / "out"),
            "model": base_model(),
            "params": {"k": 2, "expected": 1.9},  # wrong expectation: gate fails
        }
        path = write_config(tmp_path, "fail.yaml", cfg)
        assert cli_main(["run", str(path)]) == 1


# The config fuzzer: every experiment at a small size, with one or two of its
# params, gates and scheme fields drawn from the declared type plus the edges.
# weak-error draws its measure and its sigma: the reference follows from both
WEAK_MODELS = [{**measure, "sigma_expr": sigma["sigma_expr"],
                "sigma_lower_bound": sigma["sigma_lower_bound"]}
               for measure in (base_model(), ATOMIC_MODEL)
               for sigma in (base_model(), VARIABLE_MODEL)]
FUZZ_SCHEME = {"eps": 0.1, "tau": 1.0, "gaussian_compensation": True, "paths": 2000, "seed": 3}
FUZZ_BASES = {
    "symbol": {"grid": {"n": 32, "length_factor": 4}},
    "bgindex": {},
    "sector": {"grid": {"n": 64, "length_factor": 4}},
    "invert": {"model": VARIABLE_MODEL, "grid": {"n": 64, "length_factor": 1}},
    "resolvent": {"model": VARIABLE_MODEL, "grid": {"n": 64, "length_factor": 4}},
    "semigroup": {"grid": {"n": 64, "length_factor": 4}},
    "smoothing": {"grid": {"n": 64, "length_factor": 4}},
    "analyticity": {"model": VARIABLE_MODEL, "grid": {"n": 64, "length_factor": 4}},
    "weak-error": {"scheme": FUZZ_SCHEME},
    "strong-feller": {"scheme": FUZZ_SCHEME},
    "density": {"scheme": FUZZ_SCHEME},
    "jump-split": {"scheme": FUZZ_SCHEME},
    "composition": {"model": VARIABLE_MODEL, "grid": {"n": 256, "length_factor": 1}},
}
FUZZ_EDGES = [0, -1, float("nan"), float("inf"), -float("inf"), 1.0e12, 1.0e-9]


def _drawn(declared, key):
    """Values of the declared type of ``declared``, and the edges."""
    edges = st.sampled_from(FUZZ_EDGES)
    default = _default(declared)
    if isinstance(declared, OneOf):
        return st.sampled_from(list(declared)) | edges
    if isinstance(default, bool):
        return st.booleans() | edges
    if isinstance(default, int):
        if key == "paths":  # a huge path count is a long run, not a fault
            return st.integers(1, 2000) | st.sampled_from([e for e in FUZZ_EDGES if e != 1.0e12])
        return st.integers(1, 64) | edges
    floats = st.floats(-10.0, 10.0) | edges
    if isinstance(default, tuple):
        return st.lists(floats, min_size=2, max_size=2) | edges
    if isinstance(default, list):
        entries = st.floats(1e-3, 10.0) | floats
        return st.lists(entries, max_size=6) | edges
    return floats


@st.composite
def _fuzzed_config(draw):
    experiment = draw(st.sampled_from(sorted(FUZZ_BASES)))
    entry = EXPERIMENTS[experiment]
    tree = {"experiment": experiment, "model": base_model(), **FUZZ_BASES[experiment]}
    if experiment == "weak-error":
        tree["model"] = draw(st.sampled_from(WEAK_MODELS))
    fields = [("params", k, v) for k, v in entry.params.items()]
    fields += [("gates", k, v) for k, v in entry.gates.items()]
    fields += [("scheme", k, v) for k, v in tree.get("scheme", {}).items()]
    if not fields:
        return tree
    for section, key, declared in draw(st.lists(st.sampled_from(fields), min_size=1, max_size=2,
                                                unique_by=lambda f: f[:2])):
        tree[section] = {**tree.get(section, {}), key: draw(_drawn(declared, key))}
    return tree


class TestConfigFuzz:
    @settings(max_examples=2000, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    @given(tree=_fuzzed_config())
    def test_config_is_refused_or_runs_typed(self, tree, tmp_path, monkeypatch):
        # every drawn config is refused naming a field, runs to PASS or FAIL,
        # or ends in a typed error; a huge value is refused before it allocates
        monkeypatch.setenv("LEVYSDE_THREADS", "1")
        tree = {**tree, "output": str(tmp_path / "out")}
        try:
            cfg = validate_config(tree)
        except ConfigError as exc:
            assert exc.field, exc
            return
        try:
            result = run_experiment(cfg)
        except LevySdeError:
            return
        assert result.ok in (True, False)
