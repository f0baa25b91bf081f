"""Config handling, rate fitting, experiment orchestration, and the CLI."""

import importlib.util
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import levysde as lv
from levysde.errors import ConfigError
from levysde.harness import config_hash, load_config, run_experiment, validate_config
from levysde.harness.cli import main as cli_main
from levysde.harness.experiments import EXPERIMENTS

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
        params = {
            name: {k: v for item in re.findall(r"`([^`]+)`", cell)
                   for k, v in yaml.safe_load(item).items()}
            for name, cell in re.findall(r"^\| (\S+) +\| ((?:`[^`]+`(?:, )?)+|none) *\|$",
                                         text, flags=re.MULTILINE)
        }
        assert params == {name: e.params for name, e in EXPERIMENTS.items()}

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

    def test_constructor_refusal_names_argument(self):
        with pytest.raises(ConfigError) as err:
            lv.TorusGrid(n=60)
        assert err.value.field == "n"
        assert isinstance(err.value, ValueError)  # callers catching ValueError still do

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
        result = run_experiment(validate_config(tree))
        assert result.ok
        assert result.summary["worst_rel_error"] <= 1e-6

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
