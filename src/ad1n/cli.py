"""Command line interface.

Subcommands
-----------
classify     print the regime and eigenvalues of a parameter file as JSON
simulate     write a path as CSV (t, Y, X1..Xn) with a JSON sidecar
estimate     read a path CSV and print the estimate as JSON
moments      print stationary moments and the sandwich covariance as JSON
experiment   run a Monte Carlo experiment; exit code 0 iff all checks pass
gap          discrete vs exact-conditional estimator gap across horizons

All subcommands read the flat key = value config format documented in
:mod:`ad1n.harness`; ``--seed`` overrides the config seed.  ``simulate``
needs an explicit ``delta``.  Replications are estimated one after
another in one process; on Linux with a second usable CPU, horizons whose
paths are simulated one at a time are simulated by the process and one
forked child at a time, and a critical run's limit draws in another
child.  A bad input, or a file that cannot be read or written, prints
one ``error:`` line and exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .errors import Ad1nError, ConfigError
from .harness import (
    _MODEL_KEYS,
    discrete_vs_continuous_gap,
    load_experiment_config,
    params_from_config,
    parse_config_text,
    parse_value,
    run_experiment,
    write_report,
)
from .model import classify
from .moments import asymptotic_covariance, stationary_x_moments
from .simulate import read_path_csv, simulate_path, write_path_csv
from .estimate import FLAVORS, estimate_path


def _read_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _print_json(obj) -> None:
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _cmd_classify(args) -> int:
    raw = _read_config(args.config)
    params = params_from_config(raw)
    cls = classify(params)
    _print_json(
        {
            "regime": cls.regime.value,
            "b": cls.b,
            "eig_theta": [float(v) for v in cls.eig_theta],
        }
    )
    return 0


def _cmd_simulate(args) -> int:
    raw = _read_config(args.config)
    params = params_from_config(raw)
    if "horizon" in raw:
        horizon = parse_value(raw, "horizon", float)
    else:
        horizon = parse_value(raw, "horizons", lambda v: float(v.split(",")[0]), 1.0)
    if "delta" not in raw:
        raise ConfigError("simulate needs an explicit delta")
    delta = parse_value(raw, "delta", float)
    seed = args.seed if args.seed is not None else parse_value(raw, "seed", int, 0)
    path = simulate_path(params, horizon, delta, seed)
    os.makedirs(args.out, exist_ok=True)
    csv_file = os.path.join(args.out, "path.csv")
    sidecar = {"horizon": horizon, "params": {k: raw[k] for k in raw if k in _MODEL_KEYS}}
    write_path_csv(path, csv_file, sidecar)
    print(csv_file)
    return 0


def _cmd_estimate(args) -> int:
    path = read_path_csv(args.path)
    est = estimate_path(path, args.flavor)
    _print_json({k: v.tolist() if isinstance(v, np.ndarray) else v
                 for k, v in dataclasses.asdict(est).items()})
    return 0


def _cmd_moments(args) -> int:
    raw = _read_config(args.config)
    params = params_from_config(raw)
    ey, ey2, ey3, ex, eyx, ey2x, exx, eyxx = stationary_x_moments(params)
    report = asymptotic_covariance(params)
    _print_json(
        {
            "stationary": {
                "E[Y]": ey,
                "E[Y^2]": ey2,
                "E[Y^3]": ey3,
                "E[X]": [float(v) for v in ex],
                "E[YX]": [float(v) for v in eyx],
                "E[Y^2 X]": [float(v) for v in ey2x],
                "E[XX^T]": [[float(v) for v in row] for row in exx],
                "E[YXX^T]": [[float(v) for v in row] for row in eyxx],
            },
            "tilde_eigenvalues": [float(v) for v in classify(params).eig_theta],
            "covariance": {
                "EG": [[float(v) for v in row] for row in report.EG],
                "EH": [[float(v) for v in row] for row in report.EH],
                "sandwich": [[float(v) for v in row] for row in report.sandwich],
                "cond_EG": report.cond_EG,
            },
        }
    )
    return 0


def _cmd_experiment(args) -> int:
    config = load_experiment_config(args.config)
    if args.seed is not None:
        config.seed = args.seed
    report = run_experiment(config)
    write_report(report, args.out, stem="experiment")
    for name, ok in report.checks.items():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    print(f"{'PASS' if report.passed else 'FAIL'}  overall")
    return 0 if report.passed else 1


def _cmd_gap(args) -> int:
    config = load_experiment_config(args.config)
    if args.seed is not None:
        config.seed = args.seed
    report = discrete_vs_continuous_gap(config)
    write_report(report, args.out, stem="gap")
    for T, med in zip(report.horizons, report.medians):
        print(f"T={T:g}  median_gap={med:.6g}")
    print(f"decreasing: {report.decreasing}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ad1n", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", required=True, help="parameter/config file")
        sp.add_argument("--seed", type=int, default=None, help="override master seed")
        sp.add_argument("--out", default="ad1n_out", help="output directory")

    sp = sub.add_parser("classify", help="print regime classification")
    sp.add_argument("--config", required=True)
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("simulate", help="simulate a path to CSV")
    add_common(sp)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("estimate", help="estimate tau from a path CSV")
    sp.add_argument("--path", required=True, help="path CSV file")
    sp.add_argument("--flavor", default="discrete", choices=FLAVORS,
                    help="continuous is a second name for discrete")
    sp.set_defaults(func=_cmd_estimate)

    sp = sub.add_parser("moments", help="print moments and covariance report")
    sp.add_argument("--config", required=True)
    sp.set_defaults(func=_cmd_moments)

    sp = sub.add_parser("experiment", help="run a Monte Carlo experiment")
    add_common(sp)
    sp.set_defaults(func=_cmd_experiment)

    sp = sub.add_parser("gap", help="discrete vs exact-conditional gap study")
    add_common(sp)
    sp.set_defaults(func=_cmd_gap)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (Ad1nError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
