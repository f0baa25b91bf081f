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
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from ..errors import ConfigError
from ..grids import TorusGrid
from ..measures import AtomicMeasure, StableMeasure, TabulatedMeasure
from ..models import PRESET_NAMES, SdeModel, coefficient_preset
from ..montecarlo import SimScheme
from ..symbols import X_INDEPENDENT_RTOL

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
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a mapping, got {section!r}", field=where)
    if key not in section:
        raise ConfigError(f"missing required field {where}.{key}", field=f"{where}.{key}")
    return section[key]


_REQUIRED = object()


def _value(section: dict, key: str, where: str, kind, default=_REQUIRED):
    """``kind`` applied to the field ``where.key``; a malformed value is refused
    with a ``ConfigError`` naming the field."""
    value = _require(section, key, where) if default is _REQUIRED else section.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError, LookupError) as exc:
        raise ConfigError(f"malformed {where}.{key} = {value!r}: {exc}",
                          field=f"{where}.{key}") from None


def _build(cls, where: str, renamed=(), **kwargs):
    """``cls(**kwargs)``; a refused argument becomes a ``ConfigError`` naming its
    field ``where.<argument>`` (``renamed`` maps argument names to config keys)."""
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        field = f"{where}.{dict(renamed).get(exc.field, exc.field)}"
        raise ConfigError(f"{field}: {exc}", field=field) from None


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
    _validate_coefficient(model, "sigma_expr")
    _validate_coefficient(model, "drift_expr")
    built = build_model(model)  # raises with the offending field
    dimension = _value(model, "dimension", "model", _int, 1)
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
        torus = build_grid(grid)
        if torus.dimension != dimension:
            raise ConfigError(
                f"grid.dimension must equal model.dimension = {dimension}",
                field="grid.dimension",
            )
        if entry.constant_coefficients:
            _require_constant(built, torus, experiment)
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
    gates = {key: _value(gates, key, "gates", _gate_kind(entry.gates[key])) for key in gates}
    output = cfg.get("output", "results")
    # run_experiment creates the directory; validation leaves the filesystem as it is
    existing = Path(output).absolute()
    while not existing.exists():
        existing = existing.parent
    if not existing.is_dir() or not os.access(existing, os.W_OK | os.X_OK):
        raise ConfigError(
            f"output path {output!r} is not writable: {existing} is not a writable directory",
            field="output",
        )
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


def _require_constant(model: SdeModel, grid: TorusGrid, experiment: str):
    """Refuse sigma or b varying over the grid's points (to ``X_INDEPENDENT_RTOL``
    of their magnitude), as the tabulated symbol would then depend on x."""
    for key, coefficient in (("sigma_expr", model.sigma), ("drift_expr", model.drift)):
        samples = np.asarray(coefficient(grid.x))
        if np.abs(samples - samples[0]).max() > X_INDEPENDENT_RTOL * np.abs(samples).max():
            raise ConfigError(
                f"experiment {experiment!r} checks the exact-multiplier oracle and needs "
                f"x-independent coefficients, but model.{key} varies over the grid; "
                "use constant presets",
                field=f"model.{key}",
            )


def _gate_kind(default):
    """Parser of a gate value, chosen by the type of the gate's default."""
    if isinstance(default, bool):
        return _bool
    if isinstance(default, int):
        return _count
    if isinstance(default, list):
        return _pair
    return float if default is not None else _optional_float


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
    dimension = _value(model, "dimension", "model", _int, 1)
    if kind == "stable":
        scale = model.get("scale", "normalized")
        return _build(
            StableMeasure, "model", renamed={"c": "scale"},
            alpha=_value(model, "alpha", "model", float),
            c=None if scale == "normalized" else _value(model, "scale", "model", float),
            dimension=dimension,
        )
    if kind == "atomic":
        def atoms(rows):
            return tuple((a[0] if dimension == 1 else tuple(a[0]), float(a[1])) for a in rows)

        return _build(AtomicMeasure, "model", atoms=_value(model, "atoms", "model", atoms),
                      dimension=dimension)
    if kind == "tabulated":
        return _build(
            TabulatedMeasure, "model",
            radii=_value(model, "radii", "model", _floats),
            density=_value(model, "density", "model", _floats),
            dimension=dimension,
        )
    raise ConfigError(f"unknown measure kind {kind!r}", field="model.kind")


def build_model(model: dict) -> SdeModel:
    measure = build_measure(model)
    return _build(
        SdeModel, "model",
        sigma=_value(model, "sigma_expr", "model", _preset),
        drift=_value(model, "drift_expr", "model", _preset),
        measure=measure,
        sigma_lower_bound=_value(model, "sigma_lower_bound", "model", float, 1e-3),
        dimension=_value(model, "dimension", "model", _int, 1),
    )


def _int(value) -> int:
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("not an integer")
    return int(value)


def _count(value) -> int:
    value = _int(value)
    if value < 1:
        raise ValueError("must be a positive integer")
    return value


def _bool(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError("must be true or false")
    return value


def _pair(values) -> tuple:
    lo, hi = _floats(values)
    return lo, hi


def _optional_float(value):
    return None if value is None else float(value)


def _floats(values) -> tuple:
    return tuple(float(v) for v in values)


def _preset(expr: dict):
    params = dict(expr)
    return coefficient_preset(params.pop("preset"), **params)


def build_grid(grid: dict) -> TorusGrid:
    return _build(
        TorusGrid, "grid",
        n=_value(grid, "n", "grid", _int),
        dimension=_value(grid, "dimension", "grid", _int, 1),
        length_factor=_value(grid, "length_factor", "grid", float, 4.0),
    )


def build_scheme(scheme: dict) -> SimScheme:
    return _build(
        SimScheme, "scheme",
        eps=_value(scheme, "eps", "scheme", float),
        tau=_value(scheme, "tau", "scheme", float),
        gaussian_compensation=bool(scheme.get("gaussian_compensation", True)),
        paths=_value(scheme, "paths", "scheme", _int),
        seed=_value(scheme, "seed", "scheme", _int, 0),
    )
