"""One workload process: set up, then run rounds in a closed loop.

Started by ``run.py``; not meant to be run by hand.  The process

1. starts its reference clock (``refclock.py``), imports the package from the
   checkout's ``src/``, validates the round's experiment configs (outputs go
   to a scratch directory) and builds the inputs of the direct calls, then
   reads both clocks: set-up ends;
2. with ``--phase setup`` it stops there;
3. otherwise it loads the oracles the parent computed and runs one cold
   round; with ``--phase cold`` it stops there;
4. with ``--phase rounds`` it runs warm rounds while the next is predicted to
   end within ``--seconds`` of the cold round's start (at least one), and
   with ``--trace 1`` at least two more rounds with the package's layers
   wrapped by the tracer.

The report goes to ``--report`` as JSON.  A round's time is the sum of its
operations' call times; output checks run outside that time.  Calls are timed
on the wall clock and on the reference clock, which runs at a fixed
reference core speed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from refclock import RefClock

ROOT = Path(__file__).resolve().parent.parent


def _setup(workload, seed: int, out_dir: Path):
    sys.path.insert(0, str(ROOT / "src"))
    import levysde as lv
    from levysde.harness.config import load_config, validate_config
    from levysde.harness.experiments import run_experiment

    configs = []
    for op_name, cfg in workload.configs(ROOT, seed, load_config):
        cfg = {**cfg, "output": str(out_dir / op_name)}
        configs.append((op_name, validate_config(cfg)))
    inputs = workload.inputs(lv, seed)
    return lv, run_experiment, configs, inputs


def _round_ops(workload, lv, run_experiment, configs, inputs, oracle, seed):
    from workloads import Op

    ops = []
    for op_name, cfg in configs:
        def call(cfg=cfg):
            return run_experiment(cfg)

        def check(result, op_name=op_name):
            return workload.experiment_check(op_name, result, oracle, seed)

        ops.append(Op(op_name, call, check, span=f"harness.{op_name}"))
    return ops + workload.direct_ops(lv, inputs, oracle)


def _run_op(op, lv, clock, tracer):
    """Time one op's call (reference and wall seconds), then check its
    output; never raises."""
    if tracer is not None:
        tracer.set_op(op.name)
    ref, wall = clock.now(), time.perf_counter()
    try:
        if tracer is not None:
            with tracer.span(op.span or f"direct.{op.name}"):
                output = op.call()
        else:
            output = op.call()
    except lv.LevySdeError as exc:
        status, detail = "raised", f"{type(exc).__name__}: {exc}"
    except Exception:  # the loop must go on; the traceback is the report
        status, detail = "error", traceback.format_exc(limit=4)
    else:
        status = None
    finally:
        ref, wall = clock.now() - ref, time.perf_counter() - wall
        if tracer is not None:
            tracer.set_op(None)
    if status is None:
        try:
            status, detail = op.check(output)
        except Exception:
            status, detail = "error", "check failed: " + traceback.format_exc(limit=4)
    return ref, wall, status, detail


def _run_round(ops, lv, clock, tracer=None):
    """Run every op once; a failure is recorded and never stops the round."""
    results = []
    for op in ops:
        ref, wall, status, detail = _run_op(op, lv, clock, tracer)
        results.append({"op": op.name, "s": ref, "wall_s": wall, "status": status,
                        "detail": detail, "known_defect": op.known_defect})
    return {"s": sum(r["s"] for r in results), "wall_s": sum(r["wall_s"] for r in results),
            "ops": results}


def _rounds(ops, lv, clock, budget_s: float, minimum: int, tracer=None):
    """At least ``minimum`` rounds, then more while the next one is predicted
    to end within ``budget_s``; with a tracer, one snapshot per round."""
    start = time.monotonic()
    rounds, walls, snapshots = [], [], []
    while len(rounds) < minimum or (
        time.monotonic() - start + statistics.median(walls) <= budget_s
    ):
        began = time.monotonic()
        if tracer is not None:
            tracer.reset()
        rounds.append(_run_round(ops, lv, clock, tracer))
        walls.append(time.monotonic() - began)
        if tracer is not None:
            snapshots.append(_trace_snapshot(tracer))
    return rounds, snapshots


def _trace_snapshot(tracer) -> dict:
    return {
        "stats": {k: dict(v) for k, v in tracer.stats.items()},
        "pairs": [[p, c, dict(v)] for (p, c), v in tracer.pairs.items()],
        "by_op": [[o, n, dict(v)] for (o, n), v in tracer.by_op.items()],
    }


def main(argv=None) -> int:
    clock = RefClock()
    clock_started = time.monotonic()
    clock.start()
    try:
        args = _parse(argv)
        report = _run(args, clock)
    finally:
        clock.stop()
    report.update(clock_started=clock_started, speed_samples=clock.samples,
                  peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    Path(args.report).write_text(json.dumps(report))
    return 0


def _parse(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--phase", choices=("setup", "cold", "rounds"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--oracle")
    parser.add_argument("--report", required=True)
    return parser.parse_args(argv)


def _run(args, clock) -> dict:
    """Set up, then run the rounds ``args`` asks for; returns the report."""
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    lv, run_experiment, configs, inputs = _setup(workload, args.seed, Path(args.scratch))
    report = {"setup_end": time.monotonic(), "setup_ref_s": clock.now()}
    if args.phase == "setup":
        return report
    import numpy as np

    with np.load(args.oracle) as data:
        oracle = {k: data[k] for k in data.files}
    ops = _round_ops(workload, lv, run_experiment, configs, inputs, oracle, args.seed)
    started = time.monotonic()
    report["cold"] = _run_round(ops, lv, clock)
    if args.phase == "rounds":
        report["warm"], _ = _rounds(ops, lv, clock,
                                    args.seconds - (time.monotonic() - started), 1)
        if args.trace:
            from tracing import Tracer

            tracer = Tracer(failure_type=lv.LevySdeError)
            tracer.install()
            try:
                traced, snapshots = _rounds(ops, lv, clock, args.seconds / 2.0, 2, tracer)
            finally:
                tracer.uninstall()
            report.update(traced=traced, snapshots=snapshots, missing_layers=tracer.missing)
    return report


if __name__ == "__main__":
    raise SystemExit(main())
