"""Run every workload, each in its own process, and print one table.

Usage, from the repository root:

    python3 bench/all.py --seed N --seconds S [--trace 0|1]

Each row is one metric of one workload with its unit and the number of grid
repetitions behind it.  Exits 1 when a workload fails a correctness check.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run_py = Path(__file__).resolve().parent / "run.py"
    ok = True
    print(f"{'workload':22s} {'metric':46s} {'value':>14s} {'unit':8s} grids")
    for name in workloads.NAMES:
        proc = subprocess.run(
            [sys.executable, str(run_py), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        report_path = Path(".bench_out", name, f"result-seed{args.seed}-trace{args.trace}.json")
        report = json.loads(report_path.read_text(encoding="utf-8"))
        ok = ok and result["correct"]
        for problem in report["problems"]:
            print(f"{name}: check failed: {problem}")
        for metric, entry in result["metrics"].items():
            print(f"{name:22s} {metric:46s} {entry['value']:14.6g} {entry['unit']:8s} {report['repetitions']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
