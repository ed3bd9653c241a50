"""The eight named filters and the sequential estimation loop.

Conventional ordering: augment, propagate to the predictive belief, then
assimilate the new observation.  Noise-conditioning ("smoothing") ordering:
augment, assimilate the next observation into the joint state-and-noise
belief through the composed map, then propagate the conditioned joint.
"""

from dataclasses import dataclass, fields

import numpy as np

from .cubature import RuleKind, cubature3, cubature5, empirical
from .diagnostics import Diagnostics
from .errors import (
    GaussFiltError,
    LineSearchFailed,
    OptimizerDidNotConverge,
    SingularHessian,
)
from .gaussian import Gaussian
from .models import ObservationModel, ProcessModel, augment, composed_observation
from .updates import (
    VariationalSettings,
    measurement_update_linear,
    measurement_update_points,
    measurement_update_variational,
    time_update_linear,
    time_update_points,
)

CONVENTIONAL_FAMILIES = ("LGF", "VGF", "CGF", "PGF")
SMOOTHING_FAMILIES = ("LGSF", "VGSF", "CGSF", "PGSF")
ALL_FAMILIES = CONVENTIONAL_FAMILIES + SMOOTHING_FAMILIES


@dataclass(frozen=True)
class FilterKind:
    """Selects a filter family plus its rule parameters.

    rule_degree applies to CGF/CGSF; sample_count to PGF/PGSF; variational
    settings to VGF/VGSF.
    """

    family: str
    rule_degree: int = 3
    sample_count: int = 1000
    variational: VariationalSettings | None = None

    def __post_init__(self):
        if self.family not in ALL_FAMILIES:
            raise ValueError(f"unknown filter family {self.family!r}")
        if self.family in ("CGF", "CGSF") and self.rule_degree not in (3, 5):
            raise ValueError("rule_degree must be 3 or 5")
        if self.family in ("PGF", "PGSF") and self.sample_count < 2:
            raise ValueError("sample_count must be >= 2")

    @property
    def is_smoothing(self) -> bool:
        return self.family in SMOOTHING_FAMILIES

    @property
    def uses_points(self) -> bool:
        return self.family in ("CGF", "PGF", "CGSF", "PGSF")

    @property
    def uses_rng(self) -> bool:
        return self.family in ("PGF", "PGSF")

    def rule(self) -> RuleKind | None:
        if self.family in ("CGF", "CGSF"):
            return cubature3() if self.rule_degree == 3 else cubature5()
        if self.family in ("PGF", "PGSF"):
            return empirical(self.sample_count)
        return None

    def label(self) -> str:
        """Family plus rule parameters, e.g. ``CGF5``, ``PGSF1000``, or for
        non-default variational settings ``VGF[grad_tol=1e-08;max_iter=50]``
        (the changed fields in field order; no commas, as labels are CSV
        fields)."""
        if self.family in ("CGF", "CGSF"):
            return f"{self.family}{self.rule_degree}"
        if self.family in ("PGF", "PGSF"):
            return f"{self.family}{self.sample_count}"
        if self.family in ("VGF", "VGSF") and self.variational is not None:
            default = VariationalSettings()
            changed = ";".join(
                f"{f.name}={getattr(self.variational, f.name)!r}"
                for f in fields(VariationalSettings)
                if getattr(self.variational, f.name) != getattr(default, f.name)
            )
            if changed:
                return f"{self.family}[{changed}]"
        return self.family


@dataclass(frozen=True)
class StepRecord:
    step: int
    posterior: Gaussian
    diagnostics: Diagnostics


@dataclass(frozen=True)
class FilterTrajectory:
    """Per-step posteriors (record 0 is the prior) plus any terminal error."""

    records: list[StepRecord]
    error: GaussFiltError | None = None

    def means(self) -> np.ndarray:
        return np.array([r.posterior.mean for r in self.records])

    def covariances(self) -> np.ndarray:
        return np.array([r.posterior.cov for r in self.records])


_VARIATIONAL_FALLBACK = (OptimizerDidNotConverge, LineSearchFailed, SingularHessian)


def _time_update(kind, joint, process, n, rng, diag):
    if kind.uses_points:
        return time_update_points(joint, process, n, kind.rule(), rng, diag)
    return time_update_linear(joint, process, n, diag)


def _measurement_update(kind, prior, obs_map, y, r, rng, diag):
    if kind.family in ("LGF", "LGSF"):
        return measurement_update_linear(prior, obs_map, y, r, diag)
    if kind.family in ("VGF", "VGSF"):
        try:
            return measurement_update_variational(prior, obs_map, y, r, kind.variational, diag)
        except _VARIATIONAL_FALLBACK:
            diag.fallbacks += 1
            return measurement_update_linear(prior, obs_map, y, r, diag)
    return measurement_update_points(prior, obs_map, y, r, kind.rule(), rng, diag)


def conventional_step(
    kind: FilterKind,
    posterior_n: Gaussian,
    process: ProcessModel,
    obs: ObservationModel,
    y_next: np.ndarray,
    n: int,
    rng: np.random.Generator | None = None,
    diag: Diagnostics | None = None,
) -> Gaussian:
    """Time update to the predictive belief, then assimilate y_{n+1}."""
    diag = diag if diag is not None else Diagnostics()
    predictive = _time_update(kind, augment(posterior_n, process, n), process, n, rng, diag)
    return _measurement_update(
        kind, predictive, obs.at_step(n + 1), y_next, obs.obs_cov, rng, diag
    )


def smoothing_step(
    kind: FilterKind,
    posterior_n: Gaussian,
    process: ProcessModel,
    obs: ObservationModel,
    y_next: np.ndarray,
    n: int,
    rng: np.random.Generator | None = None,
    diag: Diagnostics | None = None,
) -> Gaussian:
    """Condition state and driving noise jointly on y_{n+1}, then propagate.

    After the conditioning sub-step the noise block generally has a nonzero
    mean and the joint covariance has full cross blocks; the time update
    consumes them as-is.
    """
    diag = diag if diag is not None else Diagnostics()
    psi = composed_observation(process, obs, n)
    conditioned = _measurement_update(
        kind, augment(posterior_n, process, n), psi, y_next, obs.obs_cov, rng, diag
    )
    return _time_update(kind, conditioned, process, n, rng, diag)


def run_filter(
    kind: FilterKind,
    process: ProcessModel,
    obs: ObservationModel,
    prior: Gaussian,
    observations,
    rng: np.random.Generator | None = None,
) -> FilterTrajectory:
    """Fold the per-step update over the observation sequence.

    Deterministic families never touch the generator.  An unrecoverable
    kernel error terminates the trajectory; the partial result is returned
    together with the error.
    """
    observations = list(observations)
    if not observations:
        raise ValueError("observation list must be nonempty")
    step = smoothing_step if kind.is_smoothing else conventional_step
    records = [StepRecord(0, prior, Diagnostics())]
    posterior = prior
    for n, y in enumerate(observations):
        diag = Diagnostics()
        try:
            posterior = step(kind, posterior, process, obs, np.asarray(y, dtype=float), n, rng, diag)
        except GaussFiltError as exc:
            return FilterTrajectory(records, exc)
        records.append(StepRecord(n + 1, posterior, diag))
    return FilterTrajectory(records)
