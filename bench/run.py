"""gaussfilt benchmark: grid throughput, accuracy, aborts, set-up and memory.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one experiment config (see ``workloads.py``) driven through
the public harness, the path ``gaussfilt run`` takes without argparse:
``ExperimentConfig.from_dict`` -> ``run_experiment`` -> ``write_results``.
The load is a closed loop with one caller: one process, one thread, BLAS and
OpenMP pinned to one thread.  The grid is repeated for ``--seconds`` (at
least twice); every repetition must reproduce the first bit for bit.

``--trace 0`` prints the end-to-end metrics; ``steps_per_s`` and
``setup_s`` count reference seconds, wall time scaled by a calibration kernel
run between filter steps and around each set-up (see ``calibration.py``).  ``--trace 1`` runs one
untraced grid and two traced grids and prints the per-layer metrics, with
the tracing overhead; the traced grids' counters must agree exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Here ``attempted``
counts (replicate, filter) trajectories run; a failed correctness check sets
``correct`` false and ``failed`` to ``attempted``.  Trajectories the filters
abort are results of the program under test; they lower ``completed_ratio``.  The full
report, with the machine description, goes to
``.bench_out/<workload>/result-seed<N>-trace<T>.json``.
"""

import os

# Pinned before NumPy loads, here and in every child process.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

import calibration
import setup_probe
import tracer
import workloads

SETUP_PROBES = 5
UPDATE_KERNELS = (
    "time_update_linear",
    "time_update_points",
    "measurement_update_linear",
    "measurement_update_points",
    "measurement_update_variational",
)


def machine_info() -> dict:
    """CPU model, core counts, last-level cache and library versions."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    llc = "unknown"
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        levels = []
        for index in caches.glob("index*"):
            if (index / "type").read_text().strip() in ("Unified", "Data"):
                levels.append((int((index / "level").read_text()), (index / "size").read_text().strip()))
        if levels:
            level, size = max(levels)
            llc = f"L{level} {size}"
    except (OSError, ValueError):
        pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "last_level_cache": llc,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def import_gaussfilt(root: Path):
    """Import the package from the checkout's ``src``, never an installed copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import gaussfilt

    if src not in Path(gaussfilt.__file__).resolve().parents:
        raise ImportError(f"gaussfilt imported from {gaussfilt.__file__}, not {src}")
    return gaussfilt


def measure_setup(root: Path, config_path: Path) -> list:
    """(wall, reference) set-up seconds from SETUP_PROBES fresh interpreters,
    one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(setup_probe.__file__).resolve()), str(config_path)],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        wall, kernel_s = map(float, proc.stdout.strip().splitlines()[-1].split())
        times.append((wall, calibration.reference_seconds(wall, kernel_s)))
    return times


class Grid:
    """One timed pass of the harness pipeline over the workload config.

    ``log`` is the installed TrajectoryLog or Tracer; with ``traced`` set,
    the benchmark's own calls into the harness get spans too.  An installed
    ``clock`` (calibration.StepClock) gives the grid time in reference seconds.
    """

    def __init__(self, gaussfilt, raw, out_dir, log, traced=False, clock=None):
        wrap = log.wrap if traced else (lambda name, fn: fn)
        start = time.perf_counter()
        config = gaussfilt.ExperimentConfig.from_dict(raw)
        self.result = wrap("harness.run_experiment", gaussfilt.run_experiment)(config)
        self.paths = wrap("harness.write_results", gaussfilt.write_results)(self.result, out_dir)
        self.wall_s = time.perf_counter() - start - (clock.kernel_wall_s if clock else 0.0)
        self.reference_s = clock.reference_s(self.wall_s) if clock else None
        self.kernel_ms = 1e3 * statistics.median(clock.kernels) if clock else None
        self.trajectories = list(log.trajectories)
        self.steps = sum(t.steps for t in self.trajectories)
        self.files = {p.name: p.read_bytes() for p in self.paths}

    @property
    def steps_per_s(self) -> float:
        """Completed steps per wall-clock second."""
        return self.steps / self.wall_s

    @property
    def steps_per_reference_s(self) -> float:
        """Completed steps per reference second (see calibration.py)."""
        return self.steps / self.reference_s

    def check(self, reference) -> list:
        """Correctness problems of this grid; ``reference`` is the first grid."""
        problems = []
        result = self.result
        expected = result.config.replicates * len(result.labels)
        if len(self.trajectories) != expected:
            problems.append(f"{len(self.trajectories)} trajectories run, {expected} expected")
        for label, est in result.estimates.items():
            if not np.all(np.isfinite(est)):
                problems.append(f"{label}: non-finite estimate")
        seen = [(t.label, t.error) for t in self.trajectories if t.error is not None]
        recorded = [(label, msg) for _, label, msg in result.failures]
        if seen != recorded or any(not msg for _, msg in recorded):
            problems.append(f"aborts seen {seen} differ from aborts recorded {recorded}")
        if reference is not None:
            for label, est in result.estimates.items():
                if est.tobytes() != reference.result.estimates[label].tobytes():
                    problems.append(f"{label}: estimates differ from the first repetition")
            for name, data in self.files.items():
                if data != reference.files[name]:
                    problems.append(f"{name} differs from the first repetition")
        return problems


def rmse_mean(summary_csv: bytes) -> float:
    """Mean over filters of the time-averaged state RMSE in summary.csv."""
    lines = summary_csv.decode("utf-8").splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    values = [float(row["mean_rmse"]) for row in rows if row["metric"] == "state"]
    return sum(values) / len(values)


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(grids, setup_times) -> dict:
    """The end-to-end metrics; steps_per_s and setup_s count reference seconds."""
    attempted = sum(len(g.trajectories) for g in grids)
    aborted = sum(len(g.result.failures) for g in grids)
    return {
        "steps_per_s": metric(statistics.median(g.steps_per_reference_s for g in grids), "1/s"),
        "rmse_mean": metric(rmse_mean(grids[0].files["summary.csv"]), "state"),
        "completed_ratio": metric(1.0 - aborted / attempted, "fraction"),
        "setup_s": metric(statistics.median(ref for _, ref in setup_times), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def per_layer(trace, grid, labels) -> dict:
    """Per-layer metrics of one traced grid as name -> (value, unit).
    Layers the workload never enters read 0."""
    stats = trace.layer_stats()
    out = {}

    def span(name, stat):
        entry = stats.get(name)
        return entry[stat] if entry else 0

    def spans(name, *stats_wanted):
        for stat in stats_wanted:
            out[f"{name}.{stat}"] = (span(name, stat), "count" if stat == "calls" else "ms")

    for kernel in UPDATE_KERNELS:
        spans(f"updates.{kernel}", "calls", "ms", "self_ms")
    spans("updates.bfgs_minimize", "calls", "ms")
    calls = span("updates.bfgs_minimize", "calls")
    iterations = trace.counts["updates.bfgs_minimize.iterations"]
    out["updates.bfgs_minimize.iterations_per_call"] = (iterations / calls if calls else 0.0, "count")
    diagnostics = list(grid.result.diagnostics.values())
    out["updates.fallbacks"] = (int(sum(d[..., 0].sum() for d in diagnostics)), "count")
    for fn in ("propagate", "observe"):
        spans(f"models.{fn}", "calls")
        out[f"models.{fn}.rows"] = (trace.counts[f"models.{fn}.rows"], "count")
        spans(f"models.{fn}", "ms")
    spans("models.full_jacobian", "calls", "ms")
    spans("models.augment", "ms")
    spans("cubature.standard_rule", "calls", "ms")
    out["cubature.standard_rule.points"] = (trace.counts["cubature.standard_rule.points"], "count")
    spans("cubature.transform", "ms")
    out["gaussian.Gaussian.constructions"] = (span("gaussian.Gaussian", "calls"), "count")
    spans("gaussian.Gaussian", "ms")
    spans("gaussian.cholesky_factor", "calls", "ms")
    spans("gaussian.repair_covariance", "ms")
    out["gaussian.jitters"] = (int(sum(d[..., 1].sum() for d in diagnostics)), "count")
    run_ms = [1e3 * t.seconds for t in grid.trajectories]
    out["filters.run_filter.calls"] = (len(run_ms), "count")
    out["filters.run_filter.ms_p50"] = (statistics.median(run_ms), "ms")
    out["filters.run_filter.ms_p90"] = (statistics.quantiles(run_ms, n=10, method="inclusive")[8], "ms")
    for label in labels:
        # per step attempted: the completed steps plus the one that aborted
        mine = [t for t in grid.trajectories if t.label == label]
        steps = sum(t.steps + (t.error is not None) for t in mine)
        out[f"filters.step_ms.{label}"] = (1e3 * sum(t.seconds for t in mine) / steps if steps else 0.0, "ms")
    spans("testbeds.simulate_truth", "ms")
    spans("harness.run_experiment", "self_ms")
    spans("harness.write_results", "ms")
    out["harness.write_results.bytes"] = (sum(len(data) for data in grid.files.values()), "B")
    out["harness.aborted_trajectories"] = (len(grid.result.failures), "count")
    out["trace.spans"] = (len(trace.spans), "count")
    return out


def all_labels(gaussfilt, out_dir) -> list:
    """Filter labels of every workload, so each traced run reports the same names."""
    labels = []
    for name in workloads.NAMES:
        cfg = gaussfilt.ExperimentConfig.from_dict(workloads.config(name, 0, out_dir))
        labels += [kind.label() for kind in cfg.filters if kind.label() not in labels]
    return labels


def run_grids(args, gaussfilt, raw, grid_dir):
    """Repeat the grid: for --seconds (at least twice) untraced, or once
    untraced then twice traced.  Stops at the first failed check."""
    grids, traced, problems = [], [], []
    start = time.perf_counter()
    while not problems:
        use_trace = args.trace == 1 and len(grids) >= 1
        log = tracer.Tracer() if use_trace else tracer.TrajectoryLog()
        clock = calibration.StepClock() if args.trace == 0 else None
        snapshot = tracer.namespace_snapshot()
        try:
            with log, clock or contextlib.nullcontext():
                log.install()
                if clock:
                    clock.install()
                grid = Grid(gaussfilt, raw, grid_dir, log, use_trace, clock)
        except Exception:  # a crash of the program under test is a failed check
            problems.append(traceback.format_exc())
            break
        if not tracer.restored(snapshot):
            problems.append("a replaced function was not restored")
        problems += grid.check(grids[0] if grids else None)
        grids.append(grid)
        if use_trace:
            traced.append((log, grid))
        if args.trace == 1:
            if len(grids) == 3:
                break
        elif len(grids) >= 2 and time.perf_counter() - start + grid.wall_s > args.seconds:
            break
    return grids, traced, problems


def trace_metrics(gaussfilt, grids, traced, grid_dir, problems) -> dict:
    labels = all_labels(gaussfilt, str(grid_dir))
    layers = [per_layer(trace, grid, labels) for trace, grid in traced]
    counts = [{k: v for k, (v, unit) in layer.items() if unit == "count"} for layer in layers]
    if counts[0] != counts[1]:
        diff = {k: (counts[0][k], counts[1][k]) for k in counts[0] if counts[0][k] != counts[1][k]}
        problems.append(f"counters differ between the two traced grids: {diff}")
    metrics = {}
    for name, (value, unit) in layers[0].items():
        if unit != "count":
            value = statistics.mean(layer[name][0] for layer in layers)
        metrics[name] = metric(value, unit)
    untraced = grids[0].steps_per_s
    traced_sps = statistics.mean(grid.steps_per_s for _, grid in traced)
    metrics["trace.untraced_steps_per_s"] = metric(untraced, "1/s")
    metrics["trace.traced_steps_per_s"] = metric(traced_sps, "1/s")
    metrics["trace.overhead_ratio"] = metric(untraced / traced_sps, "ratio")
    return metrics


def run(args, root: Path):
    out_dir = root / ".bench_out" / args.workload
    grid_dir = out_dir / "grid"
    out_dir.mkdir(parents=True, exist_ok=True)
    raw = workloads.config(args.workload, args.seed, str(grid_dir))
    config_path = out_dir / "config.json"
    config_path.write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")

    setup_times = [] if args.trace else measure_setup(root, config_path)
    gaussfilt = import_gaussfilt(root)
    setup_probe.warm_up(gaussfilt, gaussfilt.ExperimentConfig.from_dict(raw))
    grids, traced, problems = run_grids(args, gaussfilt, raw, grid_dir)
    metrics = {}
    if not problems and args.trace:
        metrics = trace_metrics(gaussfilt, grids, traced, grid_dir, problems)
        spans_path = out_dir / f"spans-seed{args.seed}.csv"
        traced[0][0].write_spans(spans_path)
    elif not problems:
        metrics = end_to_end(grids, setup_times)

    attempted = sum(len(g.trajectories) for g in grids) or 1
    report = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "config": raw,
        "repetitions": len(grids),
        "grid_wall_s": [g.wall_s for g in grids],
        "grid_reference_s": [g.reference_s for g in grids],
        "grid_steps_per_wall_s": [g.steps_per_s for g in grids],
        "calibration_kernel_ms_median": [g.kernel_ms for g in grids],
        "steps_per_grid": grids[0].steps if grids else 0,
        "trajectories_per_grid": len(grids[0].trajectories) if grids else 0,
        "setup_s_samples": [{"wall": wall, "reference": ref} for wall, ref in setup_times],
        "aborts": [
            {"replicate": r, "filter": label, "message": msg} for r, label, msg in grids[0].result.failures
        ] if grids else [],
        "problems": problems,
        "metrics": metrics,
    }
    (out_dir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted if problems else 0,
        "metrics": metrics,
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    root = Path.cwd()
    if not (root / "src" / "gaussfilt" / "__init__.py").is_file():
        print(f"error: {root} has no src/gaussfilt; run from the repository root", file=sys.stderr)
        return 2
    result, report = run(args, root)
    print(
        f"workload {report['workload']} seed {report['seed']} trace {report['trace']}: "
        f"{report['repetitions']} grids of {report['trajectories_per_grid']} trajectories, "
        f"{report['steps_per_grid']} completed steps each"
    )
    print(f"machine: {json.dumps(report['machine'], sort_keys=True)}")
    if report["aborts"]:
        per_filter = Counter(a["filter"] for a in report["aborts"])
        print(f"aborted trajectories per grid: {dict(per_filter)}, e.g. {report['aborts'][0]['message']!r}")
    for problem in report["problems"]:
        print(f"check failed: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
