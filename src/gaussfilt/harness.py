"""Experiment runner: config parsing, filter x testbed x replicate grids,
RMSE aggregation, CSV output.

Every filter inside a replicate consumes the identical truth run; the
sampling filters draw from label-derived sub-seeds so adding a filter never
perturbs another filter's results.
"""

import json
import zlib
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .diagnostics import Diagnostics
from .errors import ConfigError, as_integer, holds_bool
from .filters import FilterKind, run_filter
from .gaussian import Gaussian
from .testbeds import (
    BistableSpec,
    Lorenz63Spec,
    TurnModelSpec,
    bistable_models,
    lorenz63_models,
    psd_sqrt,
    simulate_truth,
    turn_models,
)
from .updates import VariationalSettings

_MASK64 = (1 << 64) - 1

# The per-step counters, in the order of their per_step.csv columns.
_COUNTERS = tuple(f.name for f in fields(Diagnostics))

# testbed name -> (parameter spec, model builder)
TESTBEDS = {
    "bistable": (BistableSpec, bistable_models),
    "lorenz63": (Lorenz63Spec, lorenz63_models),
    "tracking": (TurnModelSpec, turn_models),
}

# Component groupings reported separately in summaries, per testbed.
METRIC_GROUPS = {
    "bistable": {"state": (0,)},
    "lorenz63": {"state": (0, 1, 2)},
    "tracking": {
        "state": (0, 1, 2, 3, 4),
        "position": (0, 2),
        "velocity": (1, 3),
        "turn_rate": (4,),
    },
}


def splitmix64(z: int) -> int:
    """SplitMix64 finalizer; the hash behind replicate seed derivation."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def replicate_seed(seed: int, r: int) -> int:
    return (seed ^ splitmix64(r)) & _MASK64


def filter_stream_seed(rep_seed: int, label: str) -> int:
    return splitmix64(rep_seed ^ zlib.crc32(label.encode("utf-8")))


@contextmanager
def _malformed():
    """What a malformed value makes Python or a spec raise, as ConfigError."""
    try:
        yield
    except KeyError as exc:  # a key that from_dict takes out by name
        raise ConfigError(f"missing config field {exc}") from exc
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"malformed config: {exc}") from exc


def _parse_filter(entry: dict) -> FilterKind:
    if "variational" in entry:
        entry = {**entry, "variational": VariationalSettings(**entry["variational"])}
    return FilterKind(**entry)


def _filter_entry(kind: FilterKind) -> dict:
    """The inverse of ``_parse_filter``: the family plus the parameter its
    kernel reads, left out when None."""
    value = kind.parameter and getattr(kind, kind.parameter)
    if value is None:
        return {"family": kind.family}
    return {"family": kind.family, kind.parameter: asdict(value) if kind.kernel == "VG" else value}


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative experiment description (JSON-serializable).  It checks
    itself and makes its counts ints at construction, so ``from_dict``,
    ``dataclasses.replace`` and a direct build raise the same ConfigError."""

    name: str
    testbed: str
    filters: list
    replicates: int
    steps: int
    seed: int
    prior_mean: list
    prior_cov: list
    params: dict = field(default_factory=dict)
    truth_x0: object = "prior-sample"  # literal state vector, scalar, or "prior-sample"
    output_dir: str = "out"
    window: tuple | None = None  # (lo, hi) step window for time averages

    def __post_init__(self):
        with _malformed():
            if self.testbed not in TESTBEDS:
                raise ConfigError(f"testbed must be one of {tuple(TESTBEDS)}, got {self.testbed!r}")
            if not (isinstance(self.name, str) and isinstance(self.output_dir, str)):
                raise ConfigError("name and output_dir must be strings")
            for key in ("replicates", "steps", "seed"):
                object.__setattr__(self, key, as_integer(getattr(self, key), key))
            if self.replicates < 1 or self.steps < 1:
                raise ConfigError("replicates and steps must be >= 1")
            if not 0 <= self.seed <= _MASK64:
                raise ConfigError("seed must fit in 64 unsigned bits")
            if self.window is not None:
                lo, hi = (as_integer(v, "window") for v in self.window)
                object.__setattr__(self, "window", (lo, hi))
                if not 1 <= lo <= hi <= self.steps:
                    raise ConfigError(f"window {[lo, hi]} outside 1..{self.steps}")
            if not all(isinstance(f, FilterKind) for f in self.filters):
                raise ConfigError(f"filters must be FilterKind entries, got {self.filters!r}")
            labels = [f.label() for f in self.filters]
            if not labels:
                raise ConfigError("at least one filter required")
            if len(set(labels)) != len(labels):
                raise ConfigError(f"duplicate filter labels: {labels}")
            if any(holds_bool(v) for v in (self.prior_mean, self.prior_cov, self.truth_x0)):
                raise ConfigError("prior and truth_x0 must hold numbers, not bools")
            d = self.build_models()[0].state_dim  # checks the testbed params and the prior's dimension
            if isinstance(self.truth_x0, str):
                if self.truth_x0 != "prior-sample":
                    raise ConfigError(f"unknown truth_x0 {self.truth_x0!r}")
            elif np.atleast_1d(self.truth_x0).shape != (d,) or not np.isfinite(self.truth_x0).all():
                raise ConfigError(f"truth_x0 must be \"prior-sample\" or a finite state of dim {d}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Read a raw (JSON) config.  ``prior`` holds exactly ``mean`` and
        ``cov``, each filter entry holds ``FilterKind``'s fields and every
        other key is a field of this class, so an unknown or missing key, like
        anything malformed, raises ConfigError."""
        with _malformed():
            raw = dict(raw)
            prior = raw.pop("prior")
            if set(prior) != {"mean", "cov"}:
                raise ConfigError(f"prior must hold exactly 'mean' and 'cov', got {sorted(prior)}")
            filters = [_parse_filter(f) for f in raw.pop("filters")]
            return cls(filters=filters, prior_mean=prior["mean"], prior_cov=prior["cov"], **raw)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(raw)

    def build_models(self):
        spec_type, models = TESTBEDS[self.testbed]
        try:
            spec = spec_type(**self.params)
            process, obs = models(spec)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad {self.testbed} params: {exc}") from exc
        prior = Gaussian(np.array(self.prior_mean, dtype=float),
                         np.array(self.prior_cov, dtype=float))
        if prior.dim != process.state_dim:
            raise ConfigError(
                f"prior dim {prior.dim} does not match {self.testbed} state dim {process.state_dim}"
            )
        # only the bistable SDE takes substeps between observations
        return process, obs, prior, spec.dt * getattr(spec, "substeps", 1)

    def to_dict(self) -> dict:
        """The inverse of ``from_dict``: every field by name, the prior's
        regrouped as ``prior``, each filter as ``_filter_entry``."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["prior"] = {"mean": out.pop("prior_mean"), "cov": out.pop("prior_cov")}
        out["filters"] = [_filter_entry(f) for f in self.filters]
        out["window"] = list(self.window) if self.window else None
        return out


@dataclass
class RunResult:
    """Raw grid output: truths, per-filter estimates, diagnostics."""

    config: ExperimentConfig
    labels: list
    dt_obs: float
    truths: np.ndarray       # (replicates, steps + 1, d)
    estimates: dict          # label -> (replicates, steps, d)
    diagnostics: dict        # label -> (replicates, steps, len(_COUNTERS))
    failures: list = field(default_factory=list)  # (replicate, label, message)

    def per_step_errors(self, label: str, components=None) -> np.ndarray:
        """Euclidean error per (replicate, step), optionally restricted to a
        component subset."""
        est = self.estimates[label]
        tru = self.truths[:, 1:, :]
        if components is not None:
            idx = list(components)
            est, tru = est[:, :, idx], tru[:, :, idx]
        return np.sqrt(np.sum((est - tru) ** 2, axis=2))

    def time_averaged_rmse(self, label: str, components=None, window=None) -> np.ndarray:
        """Per-replicate RMSE over the step window (1-based, inclusive)."""
        err = self.per_step_errors(label, components)
        lo, hi = window if window else (1, err.shape[1])
        return np.sqrt(np.mean(err[:, lo - 1:hi] ** 2, axis=1))


def _resolve_truth_x0(config, prior, rng):
    if isinstance(config.truth_x0, str):  # "prior-sample", the one string a config takes
        return prior.mean + psd_sqrt(prior.cov) @ rng.standard_normal(prior.dim)
    return np.atleast_1d(np.asarray(config.truth_x0, dtype=float))


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Run the replicate x filter grid; deterministic given the config."""
    process, obs, prior, dt_obs = config.build_models()
    labels = [f.label() for f in config.filters]
    d = process.state_dim
    reps, steps = config.replicates, config.steps
    estimates = {lab: np.zeros((reps, steps, d)) for lab in labels}
    diagnostics = {lab: np.zeros((reps, steps, len(_COUNTERS)), dtype=int) for lab in labels}
    failures = []
    rep_seeds = [replicate_seed(config.seed, r) for r in range(reps)]
    truth_rngs = [np.random.default_rng(rep_seed) for rep_seed in rep_seeds]
    x0 = np.array([_resolve_truth_x0(config, prior, rng) for rng in truth_rngs])
    run = simulate_truth(process, obs, x0, steps, truth_rngs)
    for r, rep_seed in enumerate(rep_seeds):
        for kind, lab in zip(config.filters, labels):
            rng = np.random.default_rng(filter_stream_seed(rep_seed, lab))
            traj = run_filter(kind, process, obs, prior, run.observations[r], rng)
            done, means = len(traj.records) - 1, traj.means()
            estimates[lab][r, :done] = means[1:]
            estimates[lab][r, done:] = means[-1]  # steps past a failure keep the last mean
            diagnostics[lab][r, :done] = np.reshape(
                [[getattr(rec.diagnostics, name) for name in _COUNTERS] for rec in traj.records[1:]],
                (done, len(_COUNTERS)),
            )
            if traj.error is not None:
                failures.append((r, lab, str(traj.error)))
    return RunResult(config, labels, dt_obs, run.truth, estimates, diagnostics, failures)


def _fmt(x) -> str:
    return repr(float(x))


def write_results(result: RunResult, out_dir) -> list:
    """Emit per_step.csv, summary.csv and the resolved config echo.

    Rows are ordered by (replicate, filter, step); numbers use the shortest
    round-trip decimal representation.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = result.config

    per_step = out / "per_step.csv"
    with open(per_step, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(("replicate", "filter", "step", "time", "rmse") + _COUNTERS) + "\n")
        errors = {lab: result.per_step_errors(lab) for lab in result.labels}
        counts = {lab: result.diagnostics[lab].tolist() for lab in result.labels}
        for r in range(cfg.replicates):
            for lab in result.labels:
                for k in range(cfg.steps):
                    fh.write(
                        f"{r},{lab},{k + 1},{_fmt((k + 1) * result.dt_obs)},"
                        f"{_fmt(errors[lab][r, k])},"
                        f"{','.join(map(str, counts[lab][r][k]))}\n"
                    )

    summary = out / "summary.csv"
    groups = METRIC_GROUPS[cfg.testbed]
    with open(summary, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("filter,metric,mean_rmse,var_rmse\n")
        for lab in result.labels:
            for metric, comps in groups.items():
                ta = result.time_averaged_rmse(lab, comps, cfg.window)
                var = float(np.var(ta, ddof=1)) if ta.shape[0] > 1 else 0.0
                fh.write(f"{lab},{metric},{_fmt(np.mean(ta))},{_fmt(var)}\n")

    echo = out / "config_echo"
    with open(echo, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [per_step, summary, echo]
