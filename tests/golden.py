"""Golden results: small grids shaped like the benchmark's workloads, plus a
Lorenz-63 grid, run at two seeds and summarized per (filter, replicate).

Each summary holds the time-averaged RMSE, the last posterior's mean and
covariance and the step counters summed over the run; each grid also keeps
its exact failure list.  ``test_golden.py`` compares a fresh run with the
committed ``golden_results.json``, which only this script writes:

    PYTHONPATH=src python3 tests/golden.py
"""

import json
import math
from pathlib import Path
from unittest import mock

from gaussfilt import ExperimentConfig, harness, run_experiment
from gaussfilt.filters import run_filter

PATH = Path(__file__).with_name("golden_results.json")
SEEDS = (1, 2)

_TURN_RATE = -3.0 * math.pi / 180.0

# The benchmark's three workloads, with fewer replicates and steps, and a
# Lorenz-63 grid that runs every kernel on a three-dimensional state.
CONFIGS = {
    "bistable-variational": {
        "testbed": "bistable",
        "params": {},
        "filters": [{"family": f} for f in ("LGF", "LGSF", "VGF", "VGSF")],
        "replicates": 3,
        "steps": 8,
        "prior": {"mean": [0.8], "cov": [[0.02]]},
    },
    "tracking-cubature": {
        "testbed": "tracking",
        "params": {},
        "filters": [{"family": "CGF", "rule_degree": 3}, {"family": "CGSF", "rule_degree": 3}],
        "replicates": 3,
        "steps": 60,
        "prior": {
            "mean": [1e3, 3e2, 1e3, 0.0, _TURN_RATE],
            "cov": [
                [100.0, 0.0, 0.0, 0.0, 0.0],
                [0.0, 10.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 100.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 10.0, 0.0],
                [0.0, 0.0, 0.0, 0.0, 1e-4],
            ],
        },
        "window": [20, 60],
    },
    "bistable-sampling": {
        "testbed": "bistable",
        "params": {},
        "filters": [
            {"family": "CGF", "rule_degree": 5},
            {"family": "CGSF", "rule_degree": 5},
            {"family": "PGF", "sample_count": 1000},
            {"family": "PGSF", "sample_count": 1000},
        ],
        "replicates": 4,
        "steps": 5,
        "prior": {"mean": [0.0], "cov": [[0.5]]},
    },
    "lorenz63": {
        "testbed": "lorenz63",
        "params": {},
        "filters": [
            {"family": "LGF"},
            {"family": "LGSF"},
            {"family": "VGF"},
            {"family": "VGSF"},
            {"family": "CGF", "rule_degree": 3},
            {"family": "CGSF", "rule_degree": 5},
            {"family": "PGSF", "sample_count": 1000},
        ],
        "replicates": 2,
        "steps": 10,
        "prior": {"mean": [1.0, 1.0, 1.0], "cov": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
    },
}


def config(name: str, seed: int) -> dict:
    """The raw experiment config of grid ``name`` at ``seed``."""
    return {"name": name, "seed": seed, "truth_x0": "prior-sample", **CONFIGS[name]}


def summarize(raw: dict) -> dict:
    """Run the grid of ``raw`` and summarize it: per filter label, one entry
    per replicate with ``rmse``, ``mean``, ``cov`` and ``counters``; and the
    failures as [replicate, label, message]."""
    trajectories = []

    def recording(*args):
        trajectories.append(run_filter(*args))
        return trajectories[-1]

    # run_experiment calls run_filter once per (replicate, filter), in that order
    with mock.patch.object(harness, "run_filter", recording):
        result = run_experiment(ExperimentConfig.from_dict(raw))
    cfg = result.config
    filters = {}
    for i, label in enumerate(result.labels):
        rmse = result.time_averaged_rmse(label, window=cfg.window)
        entries = []
        for r in range(cfg.replicates):
            last = trajectories[r * len(result.labels) + i].records[-1].posterior
            counters = result.diagnostics[label][r].sum(axis=0)
            entries.append({
                "rmse": float(rmse[r]),
                "mean": last.mean.tolist(),
                "cov": last.cov.tolist(),
                "counters": dict(zip(harness._COUNTERS, counters.tolist())),
            })
        filters[label] = entries
    return {"filters": filters, "failures": [list(f) for f in result.failures]}


def compute() -> dict:
    return {f"{name}/seed{seed}": summarize(config(name, seed)) for name in CONFIGS for seed in SEEDS}


if __name__ == "__main__":
    PATH.write_text(json.dumps(compute(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {PATH}")
