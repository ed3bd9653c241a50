"""Experiment runner: config parsing, filter x testbed x replicate grids,
RMSE aggregation, CSV output.

Every filter inside a replicate consumes the identical truth run; the
sampling filters draw from label-derived sub-seeds so adding a filter never
perturbs another filter's results.
"""

import json
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, LengthMismatch
from .filters import FilterKind, run_filter
from .gaussian import Gaussian
from .testbeds import (
    BistableSpec,
    Lorenz63Spec,
    TurnModelSpec,
    bistable_models,
    lorenz63_models,
    simulate_truth,
    turn_models,
)
from .updates import VariationalSettings

_MASK64 = (1 << 64) - 1

TESTBEDS = ("bistable", "lorenz63", "tracking")

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


def rmse(a, b) -> float:
    """Root mean square Euclidean distance over paired vectors."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        raise LengthMismatch(f"shapes {a.shape} and {b.shape} differ")
    if a.shape[0] < 1:
        raise LengthMismatch("need at least one pair")
    return float(np.sqrt(np.mean(np.sum((a - b) ** 2, axis=1))))


def _parse_filter(entry: dict) -> FilterKind:
    if not isinstance(entry, dict) or "family" not in entry:
        raise ConfigError(f"filter entry must be an object with 'family': {entry!r}")
    kwargs = {}
    if "rule_degree" in entry:
        kwargs["rule_degree"] = int(entry["rule_degree"])
    if "sample_count" in entry:
        kwargs["sample_count"] = int(entry["sample_count"])
    if "variational" in entry:
        kwargs["variational"] = VariationalSettings(**entry["variational"])
    return FilterKind(entry["family"], **kwargs)


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative experiment description (JSON-serializable)."""

    name: str
    testbed: str
    params: dict
    filters: list
    replicates: int
    steps: int
    seed: int
    prior_mean: list
    prior_cov: list
    truth_x0: object  # literal state vector, scalar, or "prior-sample"
    output_dir: str = "out"
    window: tuple | None = None  # (lo, hi) step window for time averages

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Parse and validate a raw config; anything malformed raises ConfigError."""
        try:
            required = ["name", "testbed", "filters", "replicates", "steps", "seed", "prior"]
            for key in required:
                if key not in raw:
                    raise ConfigError(f"missing config field {key!r}")
            if raw["testbed"] not in TESTBEDS:
                raise ConfigError(f"testbed must be one of {TESTBEDS}, got {raw['testbed']!r}")
            prior = raw["prior"]
            if "mean" not in prior or "cov" not in prior:
                raise ConfigError("prior must carry 'mean' and 'cov'")
            replicates = int(raw["replicates"])
            steps = int(raw["steps"])
            if replicates < 1 or steps < 1:
                raise ConfigError("replicates and steps must be >= 1")
            seed = int(raw["seed"])
            if not 0 <= seed <= _MASK64:
                raise ConfigError("seed must fit in 64 unsigned bits")
            filters = [_parse_filter(f) for f in raw["filters"]]
            if not filters:
                raise ConfigError("at least one filter required")
            labels = [f.label() for f in filters]
            if len(set(labels)) != len(labels):
                raise ConfigError(f"duplicate filter labels: {labels}")
            window = raw.get("window")
            if window is not None:
                lo, hi = int(window[0]), int(window[1])
                if not 1 <= lo <= hi <= steps:
                    raise ConfigError(f"window {window} outside 1..{steps}")
                window = (lo, hi)
            cfg = cls(
                name=str(raw["name"]),
                testbed=raw["testbed"],
                params=dict(raw.get("params", {})),
                filters=filters,
                replicates=replicates,
                steps=steps,
                seed=seed,
                prior_mean=list(prior["mean"]),
                prior_cov=[list(row) for row in prior["cov"]],
                truth_x0=raw.get("truth_x0", "prior-sample"),
                output_dir=str(raw.get("output_dir", "out")),
                window=window,
            )
            d = cfg.build_models()[0].state_dim  # validates testbed params and prior dimensions
            if isinstance(cfg.truth_x0, str):
                if cfg.truth_x0 != "prior-sample":
                    raise ConfigError(f"unknown truth_x0 {cfg.truth_x0!r}")
            elif np.atleast_1d(cfg.truth_x0).shape != (d,) or not np.isfinite(cfg.truth_x0).all():
                raise ConfigError(f"truth_x0 must be \"prior-sample\" or a finite state of dim {d}")
            return cfg
        except (TypeError, ValueError, KeyError, IndexError) as exc:
            raise ConfigError(f"malformed config: {exc}") from exc

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(raw)

    def build_models(self):
        try:
            if self.testbed == "bistable":
                spec = BistableSpec(**self.params)
                process, obs = bistable_models(spec)
                dt_obs = spec.dt * spec.substeps
            elif self.testbed == "lorenz63":
                params = dict(self.params)
                if "g" in params:
                    params["g"] = tuple(params["g"])
                spec = Lorenz63Spec(**params)
                process, obs = lorenz63_models(spec)
                dt_obs = spec.dt
            else:
                spec = TurnModelSpec(**self.params)
                process, obs = turn_models(spec)
                dt_obs = spec.dt
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad {self.testbed} params: {exc}") from exc
        prior = Gaussian(np.array(self.prior_mean, dtype=float),
                         np.array(self.prior_cov, dtype=float))
        if prior.dim != process.state_dim:
            raise ConfigError(
                f"prior dim {prior.dim} does not match {self.testbed} state dim {process.state_dim}"
            )
        return process, obs, prior, dt_obs

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "testbed": self.testbed,
            "params": self.params,
            "filters": [],
            "replicates": self.replicates,
            "steps": self.steps,
            "seed": self.seed,
            "prior": {"mean": self.prior_mean, "cov": self.prior_cov},
            "truth_x0": self.truth_x0,
            "output_dir": self.output_dir,
            "window": list(self.window) if self.window else None,
        }
        for f in self.filters:
            entry = {"family": f.family}
            if f.family in ("CGF", "CGSF"):
                entry["rule_degree"] = f.rule_degree
            if f.family in ("PGF", "PGSF"):
                entry["sample_count"] = f.sample_count
            if f.variational is not None:
                entry["variational"] = asdict(f.variational)
            out["filters"].append(entry)
        return out


@dataclass
class RunResult:
    """Raw grid output: truths, per-filter estimates, diagnostics."""

    config: ExperimentConfig
    labels: list
    dt_obs: float
    truths: np.ndarray       # (replicates, steps + 1, d)
    estimates: dict          # label -> (replicates, steps, d)
    diagnostics: dict        # label -> (replicates, steps, 3) [fallbacks, jitters, bfgs_iterations]
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
    # Any other string (in a config built without from_dict) fails float conversion.
    if isinstance(config.truth_x0, str) and config.truth_x0 == "prior-sample":
        from .testbeds import psd_sqrt

        return prior.mean + psd_sqrt(prior.cov) @ rng.standard_normal(prior.dim)
    return np.atleast_1d(np.asarray(config.truth_x0, dtype=float))


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Run the replicate x filter grid; deterministic given the config."""
    process, obs, prior, dt_obs = config.build_models()
    labels = [f.label() for f in config.filters]
    d = process.state_dim
    reps, steps = config.replicates, config.steps
    truths = np.zeros((reps, steps + 1, d))
    estimates = {lab: np.zeros((reps, steps, d)) for lab in labels}
    diagnostics = {lab: np.zeros((reps, steps, 3), dtype=int) for lab in labels}
    failures = []
    for r in range(reps):
        rep_seed = replicate_seed(config.seed, r)
        truth_rng = np.random.default_rng(rep_seed)
        x0 = _resolve_truth_x0(config, prior, truth_rng)
        run = simulate_truth(process, obs, x0, steps, truth_rng)
        truths[r] = run.truth
        for kind, lab in zip(config.filters, labels):
            rng = np.random.default_rng(filter_stream_seed(rep_seed, lab))
            traj = run_filter(kind, process, obs, prior, run.observations, rng)
            for rec in traj.records[1:]:
                estimates[lab][r, rec.step - 1] = rec.posterior.mean
                diagnostics[lab][r, rec.step - 1] = (
                    rec.diagnostics.fallbacks,
                    rec.diagnostics.jitters,
                    rec.diagnostics.bfgs_iterations,
                )
            if traj.error is not None:
                failures.append((r, lab, str(traj.error)))
                # steps past the failure keep the last posterior mean
                last = traj.records[-1].posterior.mean
                for k in range(len(traj.records) - 1, steps):
                    estimates[lab][r, k] = last
    return RunResult(config, labels, dt_obs, truths, estimates, diagnostics, failures)


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
        fh.write("replicate,filter,step,time,rmse,fallbacks,jitters,bfgs_iterations\n")
        errors = {lab: result.per_step_errors(lab) for lab in result.labels}
        for r in range(cfg.replicates):
            for lab in result.labels:
                for k in range(cfg.steps):
                    fh.write(
                        f"{r},{lab},{k + 1},{_fmt((k + 1) * result.dt_obs)},"
                        f"{_fmt(errors[lab][r, k])},"
                        f"{result.diagnostics[lab][r, k, 0]},"
                        f"{result.diagnostics[lab][r, k, 1]},"
                        f"{result.diagnostics[lab][r, k, 2]}\n"
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
