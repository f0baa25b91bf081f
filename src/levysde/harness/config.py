"""Experiment configuration: YAML loading, validation, and builders.

A configuration is a key-value tree with the sections ``experiment``,
``model``, ``grid``, ``scheme``, ``params``, ``gates``, and ``output``; any
other section is refused.  Which experiments exist, the section each needs,
the gate keys it accepts and whether it runs in d = 2 come from
``experiments.EXPERIMENTS``.  Model coefficients are chosen from a closed set
of named presets (no expression parsing); measures are described by
``kind``/``alpha``/``scale``/``atoms``/``dimension`` keys.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import yaml

from ..errors import ConfigError
from ..grids import TorusGrid
from ..measures import AtomicMeasure, StableMeasure, TabulatedMeasure, stable_normalizer
from ..models import PRESET_NAMES, SdeModel, coefficient_preset
from ..montecarlo import SimScheme

__all__ = [
    "ExperimentConfig",
    "load_config",
    "validate_config",
    "config_hash",
    "build_measure",
    "build_model",
    "build_grid",
    "build_scheme",
]

SECTIONS = ("experiment", "model", "grid", "scheme", "params", "gates", "output")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    model: dict
    grid: dict
    scheme: dict
    params: dict
    gates: dict
    output: str
    digest: str


def load_config(path) -> dict:
    """Parse a YAML config file; syntax errors carry line anchors."""
    text = Path(path).read_text()
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1}, column {mark.column + 1})" if mark else ""
        raise ConfigError(f"config does not parse{where}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    return data


def config_hash(cfg: dict) -> str:
    """Content hash of the canonicalized config tree (order-independent)."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing required field {where}.{key}", field=f"{where}.{key}")
    return section[key]


def validate_config(cfg: dict) -> ExperimentConfig:
    """Check structure and referenced sections; returns the typed config."""
    from .experiments import EXPERIMENTS  # experiments imports this module's builders

    for section in cfg:
        if section not in SECTIONS:
            raise ConfigError(
                f"unknown config section {section!r}; allowed sections are {SECTIONS}",
                field=str(section),
            )
    experiment = _require(cfg, "experiment", "config")
    if not isinstance(experiment, str) or experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; choose from {tuple(EXPERIMENTS)}",
            field="experiment",
        )
    entry = EXPERIMENTS[experiment]
    model = _require(cfg, "model", "config")
    build_measure(model)  # raises with the offending field
    _validate_coefficient(model, "sigma_expr")
    _validate_coefficient(model, "drift_expr")
    dimension = int(model.get("dimension", 1))
    if dimension != 1 and not entry.two_d:
        raise ConfigError(
            f"experiment {experiment!r} runs in d = 1 only (the coefficient presets "
            f"are scalar), got model.dimension = {dimension}",
            field="model.dimension",
        )
    grid = cfg.get("grid", {})
    if entry.needs == "grid":
        if not grid:
            raise ConfigError(f"experiment {experiment!r} requires a grid section", field="grid")
        if build_grid(grid).dimension != dimension:
            raise ConfigError(
                f"grid.dimension must equal model.dimension = {dimension}",
                field="grid.dimension",
            )
    scheme = cfg.get("scheme", {})
    if entry.needs == "scheme":
        if not scheme:
            raise ConfigError(
                f"experiment {experiment!r} requires a scheme section", field="scheme"
            )
        build_scheme(scheme)
    gates = cfg.get("gates") or {}
    if not isinstance(gates, dict):
        raise ConfigError("gates must be a mapping of gate names to values", field="gates")
    for key in gates:
        if key not in entry.gates:
            raise ConfigError(
                f"unknown gate {key!r} for experiment {experiment!r}; "
                f"its gates are {tuple(entry.gates)}",
                field=f"gates.{key}",
            )
    output = cfg.get("output", "results")
    out_dir = Path(output)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".writable"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output path {output!r} is not writable: {exc}", field="output")
    return ExperimentConfig(
        experiment=experiment,
        model=model,
        grid=grid,
        scheme=scheme,
        params=cfg.get("params", {}),
        gates=gates,
        output=output,
        digest=config_hash(cfg),
    )


def _validate_coefficient(model: dict, key: str):
    expr = _require(model, key, "model")
    if not isinstance(expr, dict) or "preset" not in expr:
        raise ConfigError(
            f"model.{key} must name a preset from {PRESET_NAMES}", field=f"model.{key}.preset"
        )
    name = expr["preset"]
    if name not in PRESET_NAMES:
        raise ConfigError(
            f"unknown coefficient preset {name!r} in model.{key}; choose from {PRESET_NAMES}",
            field=f"model.{key}.preset",
        )


def build_measure(model: dict):
    kind = _require(model, "kind", "model")
    dimension = int(model.get("dimension", 1))
    if kind == "stable":
        alpha = float(_require(model, "alpha", "model"))
        scale = model.get("scale", "normalized")
        c = stable_normalizer(alpha) if scale == "normalized" else float(scale)
        return StableMeasure(alpha=alpha, c=c, dimension=dimension)
    if kind == "atomic":
        atoms = _require(model, "atoms", "model")
        parsed = tuple((a[0] if dimension == 1 else tuple(a[0]), float(a[1])) for a in atoms)
        return AtomicMeasure(atoms=parsed, dimension=dimension)
    if kind == "tabulated":
        radii = _require(model, "radii", "model")
        density = _require(model, "density", "model")
        return TabulatedMeasure(
            radii=tuple(float(r) for r in radii),
            density=tuple(float(g) for g in density),
            dimension=dimension,
        )
    raise ConfigError(f"unknown measure kind {kind!r}", field="model.kind")


def build_model(model: dict) -> SdeModel:
    measure = build_measure(model)
    sig_expr = dict(_require(model, "sigma_expr", "model"))
    drf_expr = dict(_require(model, "drift_expr", "model"))
    sigma = coefficient_preset(sig_expr.pop("preset"), **sig_expr)
    drift = coefficient_preset(drf_expr.pop("preset"), **drf_expr)
    return SdeModel(
        sigma=sigma,
        drift=drift,
        measure=measure,
        sigma_lower_bound=float(model.get("sigma_lower_bound", 1e-3)),
        dimension=int(model.get("dimension", 1)),
    )


def build_grid(grid: dict) -> TorusGrid:
    return TorusGrid(
        n=int(_require(grid, "n", "grid")),
        dimension=int(grid.get("dimension", 1)),
        length_factor=float(grid.get("length_factor", 4.0)),
    )


def build_scheme(scheme: dict) -> SimScheme:
    return SimScheme(
        eps=float(_require(scheme, "eps", "scheme")),
        tau=float(_require(scheme, "tau", "scheme")),
        gaussian_compensation=bool(scheme.get("gaussian_compensation", True)),
        paths=int(_require(scheme, "paths", "scheme")),
        seed=int(scheme.get("seed", 0)),
    )
