"""The benchmark's workloads: one experiment config per (workload, seed).

Each workload is a plain config dict for ``ExperimentConfig.from_dict``, the
same document ``gaussfilt run --config`` reads.  The benchmark seed becomes
the config's ``seed``; the program receives nothing else.  Sizes are chosen
so that one grid takes a few seconds on one core and the time-averaged RMSE
varies little from seed to seed.
"""

import math

WHY = {
    "bistable-variational": (
        "LGF/LGSF/VGF/VGSF on the bistable SDE (augmented dim 21): time goes to "
        "bfgs_minimize and scalar model calls, cubature never runs"
    ),
    "tracking-cubature": (
        "CGF3/CGSF3 on coordinated-turn radar over 200 steps: tiny arrays, so per-call "
        "overhead (Gaussian checks, rule building) dominates; 1 truth in 6 wraps its bearing at +-pi"
    ),
    "bistable-sampling": (
        "CGF5/CGSF5/PGF1000/PGSF1000 from a broad bistable prior: wide point sets "
        "(883-point degree-5 rule, fresh 1000-sample draws); CGSF5 aborts stay visible"
    ),
}

_TURN_RATE = -3.0 * math.pi / 180.0


def _bistable_variational(seed: int) -> dict:
    # Shaped like acceptance criterion 4: defaults, prior N(0.8, 0.02), 20 steps.
    return {
        "name": "bistable-variational",
        "testbed": "bistable",
        "params": {},
        "filters": [{"family": f} for f in ("LGF", "LGSF", "VGF", "VGSF")],
        "replicates": 8,
        "steps": 20,
        "seed": seed,
        "prior": {"mean": [0.8], "cov": [[0.02]]},
        "truth_x0": "prior-sample",
    }


def _tracking_cubature(seed: int) -> dict:
    # Shaped like acceptance criterion 6.  The clockwise turn this prior starts
    # on can cross the negative x axis: in about one replicate in six the
    # observed bearing wraps at +-pi.
    return {
        "name": "tracking-cubature",
        "testbed": "tracking",
        "params": {},
        "filters": [
            {"family": "CGF", "rule_degree": 3},
            {"family": "CGSF", "rule_degree": 3},
        ],
        "replicates": 56,
        "steps": 200,
        "seed": seed,
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
        "truth_x0": "prior-sample",
        "window": [50, 200],
    }


def _bistable_sampling(seed: int) -> dict:
    # A prior straddling both wells.  The degree-5 rule's negative weights
    # (k = 21 > 4) make every CGSF5 run abort at its first step, and about a
    # quarter of the CGF5 and a sixth of the PGF1000 runs abort too.
    return {
        "name": "bistable-sampling",
        "testbed": "bistable",
        "params": {},
        "filters": [
            {"family": "CGF", "rule_degree": 5},
            {"family": "CGSF", "rule_degree": 5},
            {"family": "PGF", "sample_count": 1000},
            {"family": "PGSF", "sample_count": 1000},
        ],
        "replicates": 128,
        "steps": 10,
        "seed": seed,
        "prior": {"mean": [0.0], "cov": [[0.5]]},
        "truth_x0": "prior-sample",
    }


_CONFIGS = {
    "bistable-variational": _bistable_variational,
    "tracking-cubature": _tracking_cubature,
    "bistable-sampling": _bistable_sampling,
}

NAMES = tuple(_CONFIGS)


def config(name: str, seed: int, output_dir: str) -> dict:
    """The experiment config of workload ``name`` for benchmark seed ``seed``."""
    raw = _CONFIGS[name](seed)
    raw["output_dir"] = output_dir
    return raw
