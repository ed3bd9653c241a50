"""Command-line entry point.

    gaussfilt run --config cfg.json [--seed N] [--out DIR]
    gaussfilt validate --config cfg.json
    gaussfilt rules --dim K --degree {3|5}

Exit codes: 0 success, 1 config error, 2 runtime failure.
"""

import argparse
import sys
from dataclasses import replace

from .cubature import standard_rule
from .errors import ConfigError, GaussFiltError, InvalidDimension
from .harness import ExperimentConfig, run_experiment, write_results


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gaussfilt")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a filter benchmark grid")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--out", default=None, help="override the config output directory")

    val_p = sub.add_parser("validate", help="check a config file")
    val_p.add_argument("--config", required=True)

    rules_p = sub.add_parser("rules", help="print cubature points/weights as CSV")
    rules_p.add_argument("--dim", type=int, required=True)
    rules_p.add_argument("--degree", type=int, choices=(3, 5), required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "rules":
        try:
            mu = standard_rule(args.dim, args.degree)
        except InvalidDimension as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        header = "weight," + ",".join(f"x{i + 1}" for i in range(mu.dim))
        print(header)
        for w, p in zip(mu.weights, mu.points):
            print(",".join([repr(float(w))] + [repr(float(v)) for v in p]))
        return 0

    try:
        config = ExperimentConfig.from_file(args.config)
        if args.command == "run" and (args.seed is not None or args.out is not None):
            config = replace(config, seed=config.seed if args.seed is None else args.seed,
                             output_dir=config.output_dir if args.out is None else args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        print(f"config {config.name!r} is valid")
        return 0

    try:
        result = run_experiment(config)
        files = write_results(result, config.output_dir)
    except GaussFiltError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    for rep, lab, msg in result.failures:
        print(f"warning: replicate {rep} filter {lab} aborted: {msg}", file=sys.stderr)
    for path in files:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
