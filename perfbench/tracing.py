"""Span tracing of levysde from outside the package.

The tracer wraps public functions and methods of the package's modules and
records one span per call: its name, start, end and the span that caused it.
A span's self time is its duration minus the part of that interval covered by
its child spans (children run on the package's Monte Carlo worker threads may
overlap, so the union of their intervals is subtracted, never their sum).

Every wrapped function is rebound in every ``levysde`` module that holds it,
so callers that imported it by name (``from ..operators import apply_symbol``)
reach the wrapper as well.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

# Complex multiply (6 real flops) and complex add (2) per (x, xi) entry of the
# Kohn-Nirenberg sum: phase * symbol * coefficient, accumulated.
_FLOPS_PER_SYMBOL_ENTRY = 14
_COMPLEX_BYTES = 16


def _apply_symbol_units(args, kwargs, result):
    s, u = args[0], args[1]
    phase = s.grid.n * s.grid.n
    return {
        "bytes_computed": _COMPLEX_BYTES * (phase + s.values.size + 2 * u.values.size),
        "flops_computed": _FLOPS_PER_SYMBOL_ENTRY * s.values.size,
    }


def _tabulate_units(args, kwargs, result):
    return {"points": result.values.size, "bytes_computed": result.values.nbytes}


def _contour_units(args, kwargs, result):
    return {"nodes": result.nodes.size}


def _parametrix_units(args, kwargs, result):
    return {"iterations": result[1].iterations}


def _exponent_units(args, kwargs, result):
    spec = args[0]
    xi = args[1] if len(args) > 1 else kwargs["xi"]
    return {"points": np.size(xi) // getattr(spec, "dimension", 1)}


def _increment_units(args, kwargs, result):
    return {"draws": np.shape(result)[0] if np.ndim(result) else 1}


# (module, attribute or Class.method, layer name, unit counter)
LAYERS = (
    ("levysde.operators", "apply_symbol", "operators.apply_symbol", _apply_symbol_units),
    ("levysde.operators", "resolvent_apply", "operators.resolvent_apply", None),
    ("levysde.operators", "semigroup_apply", "operators.semigroup_apply", None),
    ("levysde.operators", "build_contour", "operators.build_contour", _contour_units),
    ("levysde.operators", "parametrix_solve", "operators.parametrix_solve", _parametrix_units),
    ("levysde.symbols", "choose_R", "symbols.choose_R", None),
    ("levysde.symbols", "cutoff_split", "symbols.cutoff_split", None),
    ("levysde.symbols", "seminorm", "symbols.seminorm", None),
    ("levysde.symbols", "composition_defect", "symbols.composition_defect", None),
    ("levysde.symbols", "tabulate", "symbols.tabulate", _tabulate_units),
    ("levysde.models", "state_symbol", "models.state_symbol", None),
    ("levysde.measures", "levy_exponent", "measures.levy_exponent", _exponent_units),
    ("levysde.measures", "sample_increment", "measures.sample_increment", _increment_units),
    ("levysde.montecarlo", "terminal_samples", "montecarlo.terminal_samples", None),
    ("levysde.montecarlo", "weak_error_table", "montecarlo.weak_error_table", None),
    ("levysde.montecarlo", "jump_split_check", "montecarlo.jump_split_check", None),
    ("levysde.montecarlo", "strong_feller_profile", "montecarlo.strong_feller_profile", None),
    ("levysde.montecarlo", "density_probe", "montecarlo.density_probe", None),
    ("levysde.montecarlo", "mc_semigroup", "montecarlo.mc_semigroup", None),
    ("levysde.montecarlo", "spectral_reference", "montecarlo.spectral_reference", None),
    ("levysde.grids", "TorusGrid.fft", "grids.fft", None),
    ("levysde.grids", "TorusGrid.ifft", "grids.ifft", None),
    ("levysde.besov", "DyadicPartition.besov_norm", "besov.besov_norm", None),
    ("levysde.ratefit", "fit_rate", "ratefit.fit_rate", None),
    # result files: CSV tables and summary records
    ("levysde.harness.experiments", "_emit_summary", "harness.output", None),
    ("levysde.operators", "write_gauge_csv", "harness.output", None),
    ("levysde.symbols", "SymbolGrid.to_csv", "harness.output", None),
)


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class _Frame:
    __slots__ = ("name", "start", "children")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.children = []


class Tracer:
    """Records spans of wrapped package calls into per-name totals.

    ``stats[name]`` holds ``calls``, ``self_s``, ``total_s`` and the unit
    counters of that layer; ``pairs[(parent, child)]`` holds the same for
    calls made directly under a given parent; ``by_op[(op, name)]`` counts per
    benchmark operation (set with :meth:`set_op`).
    """

    def __init__(self, failure_type=Exception):
        self._failure_type = failure_type
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._restore = []
        self.missing = []
        self.op = None
        self.reset()

    def reset(self):
        self.stats = defaultdict(Counter)
        self.pairs = defaultdict(Counter)
        self.by_op = defaultdict(Counter)

    def set_op(self, name):
        self.op = name

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- spans ---------------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str):
        """A span around code of the benchmark itself."""
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame, {})

    def _open(self, name: str) -> _Frame:
        frame = _Frame(name, time.perf_counter())
        self._stack().append(frame)
        return frame

    def _close(self, frame: _Frame, units: dict):
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        # the package's worker threads run on behalf of the main thread's
        # innermost open call
        parent = stack[-1] if stack else (
            self._main_stack[-1] if stack is not self._main_stack and self._main_stack else None
        )
        duration = end - frame.start
        self_s = duration - _covered(frame.start, end, frame.children)
        if parent is not None:
            parent.children.append((frame.start, end))
        with self._lock:
            rec = self.stats[frame.name]
            rec["calls"] += 1
            rec["total_s"] += duration
            rec["self_s"] += self_s
            for key, val in units.items():
                rec[key] += val
            if parent is not None:
                pair = self.pairs[(parent.name, frame.name)]
                pair["calls"] += 1
                for key, val in units.items():
                    pair[key] += val
            if self.op is not None:
                self.by_op[(self.op, frame.name)]["calls"] += 1
                for key, val in units.items():
                    self.by_op[(self.op, frame.name)][key] += val

    # -- wrapping ------------------------------------------------------------
    def _wrap(self, fn, name: str, units_fn):
        tracer = self
        failure_type = self._failure_type

        def traced(*args, **kwargs):
            frame = tracer._open(name)
            units = {}
            try:
                result = fn(*args, **kwargs)
            except failure_type:
                units["failures"] = 1
                raise
            else:
                if units_fn is not None:
                    units = units_fn(args, kwargs, result)
                return result
            finally:
                tracer._close(frame, units)

        return functools.wraps(fn)(traced)

    def install(self, layers=LAYERS):
        """Wrap every layer; layers absent from the package are listed in
        ``missing`` and read zero."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "levysde" or k.startswith("levysde."))]
        for module_name, attr, name, units_fn in layers:
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(method) if owner is not None else None
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                setattr(owner, method, self._wrap(original, name, units_fn))
                self._restore.append((owner, method, original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self._wrap(original, name, units_fn)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()


# ---------------------------------------------------------------------------
# per-layer metrics of one traced round
# ---------------------------------------------------------------------------

CALLS_AND_SELF = (
    "operators.apply_symbol", "operators.resolvent_apply", "operators.semigroup_apply",
    "operators.build_contour", "operators.parametrix_solve",
    "symbols.choose_R", "symbols.cutoff_split", "symbols.seminorm",
    "symbols.composition_defect", "symbols.tabulate", "models.state_symbol",
    "measures.levy_exponent", "measures.sample_increment", "montecarlo.terminal_samples",
    "grids.fft", "grids.ifft", "besov.besov_norm",
)
UNIT_COUNTERS = {
    "operators.apply_symbol": (("bytes_computed", "B"), ("flops_computed", "flop")),
    "operators.parametrix_solve": (("iterations", "count"),),
    "symbols.tabulate": (("points", "count"), ("bytes_computed", "B")),
    "measures.levy_exponent": (("points", "count"), ("failures", "count")),
    "measures.sample_increment": (("draws", "count"),),
}
SELF_ONLY = (
    "montecarlo.weak_error_table", "montecarlo.jump_split_check",
    "montecarlo.strong_feller_profile", "montecarlo.density_probe",
    "montecarlo.mc_semigroup", "montecarlo.spectral_reference", "harness.output",
)
# every experiment some workload's round runs
EXPERIMENTS = (
    "invert", "analyticity", "resolvent", "composition", "smoothing", "semigroup",
    "weak-error", "jump-split", "strong-feller", "density", "symbol",
)
TIME_KEYS = ("self_s", "total_s")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(snapshot: dict) -> dict:
    """``{name: (value, unit)}`` of one traced round; a layer the round never
    called reads zero."""
    stats = defaultdict(Counter, {k: Counter(v) for k, v in snapshot["stats"].items()})
    pairs = defaultdict(Counter, {(p, c): Counter(v) for p, c, v in snapshot["pairs"]})
    out = {}
    for layer in CALLS_AND_SELF:
        out[f"{layer}.calls"] = (stats[layer]["calls"], "count")
        out[f"{layer}.self_s"] = (stats[layer]["self_s"], "s")
    for layer, counters in UNIT_COUNTERS.items():
        for key, unit in counters:
            out[f"{layer}.{key}"] = (stats[layer][key], unit)
    for layer in SELF_ONLY:
        out[f"{layer}.self_s"] = (stats[layer]["self_s"], "s")
    solves = stats["operators.resolvent_apply"]["calls"]
    out["operators.resolvent_apply.applies_per_solve"] = (_ratio(
        pairs[("operators.resolvent_apply", "operators.apply_symbol")]["calls"], solves), "1")
    out["operators.semigroup_apply.solves_per_call"] = (_ratio(
        pairs[("operators.semigroup_apply", "operators.resolvent_apply")]["calls"],
        stats["operators.semigroup_apply"]["calls"]), "1")
    out["operators.contour_nodes"] = (_ratio(
        stats["operators.build_contour"]["nodes"], stats["operators.build_contour"]["calls"]),
        "count")
    steps = pairs[("montecarlo.terminal_samples", "measures.sample_increment")]["draws"]
    out["montecarlo.terminal_samples.path_steps"] = (steps, "count")
    out["montecarlo.path_steps_per_s"] = (
        _ratio(steps, stats["montecarlo.terminal_samples"]["total_s"]), "1/s")
    out["ratefit.fit_rate.calls"] = (stats["ratefit.fit_rate"]["calls"], "count")
    for exp in EXPERIMENTS:
        out[f"harness.{exp}.s"] = (stats[f"harness.{exp}"]["total_s"], "s")
    return out


def counts_of(snapshot: dict) -> dict:
    """Every exact count in a snapshot, keyed for comparison between rounds."""
    records = [(name, rec) for name, rec in snapshot["stats"].items()]
    records += [(f"{parent}>{child}", rec) for parent, child, rec in snapshot["pairs"]]
    return {f"{name}.{key}": val for name, rec in records
            for key, val in rec.items() if key not in TIME_KEYS}
