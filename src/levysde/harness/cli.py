"""Command line entry point: run, validate, list-experiments.

``levysde run <config.yaml>`` dispatches the named experiment, writes its CSV
results and summary record, and exits 0 iff all configured gates pass.
``LEVYSDE_THREADS`` (a positive integer, default 1) sets how many Monte Carlo
jobs run at once; README says which jobs those are.  Any other value makes
those loops raise ``ConfigError``.
"""

from __future__ import annotations

import argparse
import sys

from ..errors import LevySdeError
from .config import load_config, validate_config
from .experiments import EXPERIMENTS, run_experiment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="levysde",
        description="Numerical laboratory for Levy-driven SDE semigroups",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run an experiment from a config file")
    run_p.add_argument("config", help="path to a YAML experiment config")
    val_p = sub.add_parser("validate", help="validate a config file without running")
    val_p.add_argument("config", help="path to a YAML experiment config")
    sub.add_parser("list-experiments", help="list available experiment names")

    args = parser.parse_args(argv)
    if args.command == "list-experiments":
        for name in EXPERIMENTS:
            print(name)
        return 0

    try:
        cfg = validate_config(load_config(args.config))
    except LevySdeError as exc:  # also a measure whose tail mass the bound cannot integrate
        field = f" [{exc.field}]" if getattr(exc, "field", None) else ""
        print(f"config error{field}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(f"ok: {cfg.experiment} (config hash {cfg.digest})")
        return 0

    try:
        result = run_experiment(cfg)
    except LevySdeError as exc:
        print(f"experiment {cfg.experiment!r} failed: {exc}", file=sys.stderr)
        return 3
    status = "PASS" if result.ok else "FAIL"
    print(f"{cfg.experiment}: {status} (config hash {cfg.digest})")
    for key, val in result.summary.items():
        if key in ("experiment", "config_hash", "pass"):
            continue
        print(f"  {key}: {val}")
    for path in result.files:
        print(f"  wrote {path}")
    return 0 if result.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
