"""Experiment configuration: YAML loading, validation, and builders.

A configuration is a key-value tree with the sections ``experiment``,
``model``, ``grid``, ``scheme``, ``params``, ``gates``, and ``output``; any
other section, a ``grid`` or ``scheme`` section the experiment does not need,
and any key a section does not declare, is refused.  Which
experiments exist, the section each needs, its params and gates with their
defaults and whether it runs in d = 2 come from ``experiments.EXPERIMENTS``.
Model coefficients are chosen from a closed set of named presets
(``models.PRESETS``, no expression parsing); measures are described by
``kind``/``alpha``/``scale``/``atoms``/``radii``/``density``/``dimension`` keys.
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
from ..models import PRESETS, SdeModel, coefficient_preset, constant_value
from ..montecarlo import _BATCH, JUMP_BLOCK_CAP, SimScheme, jump_block, x_independent

__all__ = [
    "ExperimentConfig",
    "OneOf",
    "Within",
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
    """A validated config: the model, grid and scheme built from their sections
    (``grid`` and ``scheme`` are None unless the experiment needs them) and the
    typed params and gates."""

    experiment: str
    model: SdeModel
    grid: TorusGrid | None
    scheme: SimScheme | None
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


def _known(section: dict, where: str, keys):
    """Refuse a key of the mapping ``section`` that is not among ``keys``."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a mapping, got {section!r}", field=where)
    for key in section:
        if key not in keys:
            raise ConfigError(f"unknown field {where}.{key}; {where} takes {tuple(keys)}",
                              field=f"{where}.{key}")


class OneOf(tuple):
    """The allowed values of a param, declared in place of its default (the
    first); called on a configured value, it returns the equal option."""

    def __new__(cls, *options):
        return super().__new__(cls, options)

    def __call__(self, value):
        for option in self:
            if value == option and isinstance(value, bool) == isinstance(option, bool):
                return option
        raise ValueError(f"must be one of {tuple(self)}")


class Within:
    """A default declared with its domain: the ``interval`` that the value, or
    each entry of a list or ``(lo, hi)`` range, lies in (``"(0, inf)"``; a
    square bracket closes its end), and for a list its fewest ``distinct``
    entries; called on a configured value, it returns the value parsed by the
    type of the default.  A range needs ``lo <= hi``; an optional float's None
    is admitted."""

    def __init__(self, default, interval: str, distinct: int = 1):
        self.default, self.interval, self.distinct = default, interval, distinct

    def __call__(self, value):
        value = _kind(self.default)(value)
        if value is None:
            return value
        if isinstance(self.default, tuple) and value[0] > value[1]:
            raise ValueError("must be a range (lo, hi) with lo <= hi")
        entries = value if isinstance(value, tuple) else (value,)
        lo, hi = (float(end) for end in self.interval[1:-1].split(","))
        left, right = self.interval[0] == "[", self.interval[-1] == "]"
        if not all(lo <= v <= hi and (v != lo or left) and (v != hi or right) for v in entries):
            raise ValueError(f"must lie in {self.interval}")
        if len(set(entries)) < self.distinct:
            raise ValueError(f"needs at least {self.distinct} distinct entries")
        return value


def _default(declared):
    """The default of a declared param or gate: a ``OneOf``'s first value."""
    return declared[0] if isinstance(declared, OneOf) else getattr(declared, "default", declared)


def _declared(section, where: str, defaults: dict) -> dict:
    """``defaults`` with the values ``section`` sets, each parsed by the type of
    its default and checked against its domain (:func:`_kind`), the one check of
    a param's or gate's own value; a key without a default is refused."""
    section = {} if section is None else section
    _known(section, where, defaults)
    return {key: _value(section, key, where, _kind(declared), _default(declared))
            for key, declared in defaults.items()}


def _build(cls, where: str, renamed=(), **kwargs):
    """``cls(**kwargs)``; a refused argument becomes a ``ConfigError`` naming its
    field ``where.<argument>`` (``renamed`` maps argument names to config keys)."""
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        field = f"{where}.{dict(renamed).get(exc.field, exc.field)}"
        raise ConfigError(f"{field}: {exc}", field=field) from None


def validate_config(cfg: dict) -> ExperimentConfig:
    """Check structure and referenced sections; returns the typed config with
    its model, grid and scheme built."""
    from .experiments import EXPERIMENTS, _rough_decay  # experiments imports this module

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
    raw_model = _require(cfg, "model", "config")
    model = build_model(raw_model)  # raises with the offending field
    if model.dimension != 1 and not entry.two_d:
        raise ConfigError(
            f"experiment {experiment!r} runs in d = 1 only (the coefficient presets "
            f"are scalar), got model.dimension = {model.dimension}",
            field="model.dimension",
        )
    if entry.needs and not cfg.get(entry.needs):
        raise ConfigError(f"experiment {experiment!r} requires a {entry.needs} section",
                          field=entry.needs)
    grid = build_grid(cfg["grid"]) if entry.needs == "grid" else None
    scheme = build_scheme(cfg["scheme"]) if entry.needs == "scheme" else None
    if grid is not None:
        if grid.dimension != model.dimension:
            raise ConfigError(
                f"grid.dimension must equal model.dimension = {model.dimension}",
                field="grid.dimension",
            )
        if entry.constant_coefficients:
            for key, coefficient in (("sigma_expr", model.sigma), ("drift_expr", model.drift)):
                if constant_value(coefficient, grid.x) is None:
                    raise ConfigError(
                        f"experiment {experiment!r} checks the exact-multiplier oracle and "
                        f"needs x-independent coefficients, but model.{key} varies over the "
                        "grid; use constant presets",
                        field=f"model.{key}",
                    )
    stable = isinstance(model.measure, StableMeasure)
    params = _declared(cfg.get("params"), "params", entry.params)
    if params.get("mode") == "exact-stable" and not stable:
        raise ConfigError(
            f"params.mode 'exact-stable' samples the stable law in closed form, but "
            f"model.kind is {raw_model.get('kind')!r}; choose 'truncated' or 'truncated+gaussian'",
            field="params.mode",
        )
    if experiment == "weak-error" and not stable and not x_independent(model):
        raise ConfigError(
            f"weak-error takes the exact-stable reference for x-dependent coefficients, but "
            f"model.kind is {raw_model.get('kind')!r}; choose a stable measure or constant "
            "sigma_expr and drift_expr",
            field="model.kind",
        )
    gates = _declared(cfg.get("gates"), "gates", entry.gates)
    if experiment == "density" and gates["growth_exponent_max"] is None and not stable:
        raise ConfigError(
            f"gates.growth_exponent_max defaults to 2/alpha + 0.5 of a stable measure, but "
            f"model.kind is {raw_model.get('kind')!r}; set the gate",
            field="gates.growth_exponent_max",
        )
    if scheme is not None:
        # the floats one batch of _BATCH paths holds: its jumps beyond the
        # smallest level over the horizon, one increment per path and Euler
        # step (one step when the experiment does not step), and the profile
        # points; the refusal names the field of the largest term, the
        # horizon in place of the level or step above one
        t, horizon = ((params["t"], "params.t") if "t" in params
                      else (max(params["times"]), "params.times"))
        eps = min(params.get("eps_list", [scheme.eps]))
        loads = {"params.eps_list" if "eps_list" in params else "scheme.eps":
                 jump_block(model.measure.tail_mass(eps) * t),
                 "scheme.tau": (max(1.0, t / scheme.tau) if entry.steps else 1.0) * _BATCH,
                 "params.x_points": params.get("x_points", 0)}
        if not sum(loads.values()) <= JUMP_BLOCK_CAP:
            field = max(loads, key=loads.get)
            field = horizon if t > 1 and field != "params.x_points" else field
            terms = ", ".join(f"{key}: {n:.3g}" for key, n in loads.items() if n)
            raise ConfigError(f"one batch of {_BATCH} paths would hold more floats than the cap "
                              f"of {JUMP_BLOCK_CAP} at t = {t:g}, eps = {eps:g} ({terms}); "
                              f"change {field}", field=field)
    if experiment == "smoothing":
        # the rough input's spectrum <xi>^-decay (random_rough_function) must
        # be finite and nonzero on the grid, or NaNs reach the Besov norms
        decay = _rough_decay(params["gamma"], params["delta"], grid.dimension)
        with np.errstate(over="ignore"):
            amplitudes = (1.0 + grid.xi_norm() ** 2) ** (-decay / 2.0)
        if not np.all((amplitudes > 0.0) & np.isfinite(amplitudes)):
            raise ConfigError(
                f"params.gamma = {params['gamma']:g} with delta = {params['delta']:g} gives the "
                f"rough input the spectral decay {decay:g}, whose amplitudes are not finite and "
                "positive on the grid",
                field="params.gamma",
            )
    if experiment == "composition":
        # each entry probes its nearest lattice mode, which composition_defect
        # needs in (0, Nyquist/4]; the rate fit takes the log of the entry
        band = grid.xi_nyquist / 4.0
        probes = [("frequencies", k) for k in params["frequencies"]]
        for key, k in probes + [("probe_mode", params["probe_mode"])]:
            mode = float(grid.xi[abs(grid.xi - k).argmin()])
            if not 0.0 < mode <= band:
                raise ConfigError(
                    f"params.{key} entry {k:g} probes the lattice frequency {mode:g}, "
                    f"outside (0, {band:g}], a quarter of the grid's Nyquist frequency",
                    field=f"params.{key}",
                )
    # checked after the sections the experiment reads, so that a malformed
    # value there is named first
    for section in ("grid", "scheme"):
        if section in cfg and section != entry.needs:
            raise ConfigError(
                f"experiment {experiment!r} reads no {section} section; remove it",
                field=section,
            )
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
        params=params,
        gates=gates,
        output=output,
        digest=config_hash(cfg),
    )


def _kind(default):
    """Parser of a gate or param value, chosen by the type of its default: a
    :class:`OneOf` takes one of its values, a :class:`Within` checks its
    domain, a tuple is a ``(lo, hi)`` range, a list takes any number of
    floats, and None stands for an optional float."""
    if isinstance(default, (OneOf, Within)):
        return default
    if isinstance(default, bool):
        return _bool
    if isinstance(default, int):
        return _count
    if isinstance(default, tuple):
        return _pair
    if isinstance(default, list):
        return _floats
    if isinstance(default, str):
        return str
    return float if default is not None else _optional_float


# the keys of the model section: the measure's, by kind, and those of build_model
_MEASURE_KEYS = {"stable": ("alpha", "scale"), "atomic": ("atoms",),
                 "tabulated": ("radii", "density")}
_MODEL_KEYS = ("kind", "dimension", "sigma_expr", "drift_expr", "sigma_lower_bound")


def build_measure(model: dict):
    kind = _require(model, "kind", "model")
    if kind not in tuple(_MEASURE_KEYS):
        raise ConfigError(f"unknown measure kind {kind!r}; choose from {tuple(_MEASURE_KEYS)}",
                          field="model.kind")
    _known(model, "model", _MODEL_KEYS + _MEASURE_KEYS[kind])
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
    return _build(
        TabulatedMeasure, "model",
        radii=_value(model, "radii", "model", _floats),
        density=_value(model, "density", "model", _floats),
        dimension=dimension,
    )


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
    if not isinstance(expr, dict) or "preset" not in expr:
        raise ValueError(f"must name a preset from {tuple(PRESETS)}")
    params = dict(expr)
    return coefficient_preset(params.pop("preset"), **params)


def build_grid(grid: dict) -> TorusGrid:
    _known(grid, "grid", ("n", "dimension", "length_factor"))
    return _build(
        TorusGrid, "grid",
        n=_value(grid, "n", "grid", _int),
        dimension=_value(grid, "dimension", "grid", _int, 1),
        length_factor=_value(grid, "length_factor", "grid", float, 4.0),
    )


def build_scheme(scheme: dict) -> SimScheme:
    _known(scheme, "scheme", ("eps", "tau", "gaussian_compensation", "paths", "seed"))
    return _build(
        SimScheme, "scheme",
        eps=_value(scheme, "eps", "scheme", float),
        tau=_value(scheme, "tau", "scheme", float),
        gaussian_compensation=_value(scheme, "gaussian_compensation", "scheme", _bool, True),
        paths=_value(scheme, "paths", "scheme", _int),
        seed=_value(scheme, "seed", "scheme", _int, 0),
    )
