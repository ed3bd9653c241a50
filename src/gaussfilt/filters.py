"""The eight named filters and the sequential estimation loop.

Conventional ordering: augment, propagate to the predictive belief, then
assimilate the new observation.  Noise-conditioning ("smoothing") ordering:
augment, assimilate the next observation into the joint state-and-noise
belief through the composed map, then propagate the conditioned joint.
"""

from dataclasses import dataclass, fields

import numpy as np

from .cubature import DiscreteMeasure, standard_rule
from .diagnostics import Diagnostics
from .errors import GaussFiltError, OptimizerStopped, SingularMatrix, as_integer, as_shape
from .gaussian import Gaussian
from .models import ObservationModel, ProcessModel, augment, composed_observation
from .updates import (
    DEFAULT_VARIATIONAL,
    VariationalSettings,
    measurement_update_linear,
    measurement_update_points,
    measurement_update_variational,
    time_update_linear,
    time_update_points,
)

# Every family is a kernel with one of two orderings, "F" for conventional and
# "SF" for smoothing.  Kernel -> the one FilterKind parameter it reads.
KERNEL_PARAMETERS = {"LG": None, "VG": "variational", "CG": "rule_degree", "PG": "sample_count"}
ALL_FAMILIES = tuple(kernel + order for order in ("F", "SF") for kernel in KERNEL_PARAMETERS)


@dataclass(frozen=True)
class FilterKind:
    """Selects a filter family plus its rule parameters.

    The family's kernel (``LG``, ``VG``, ``CG`` or ``PG``) reads the one
    parameter ``KERNEL_PARAMETERS`` names for it: rule_degree for CG,
    sample_count for PG, variational settings for VG.  A family keeps the
    default of every parameter it does not read, and default variational
    settings are stored as None, so two kinds that filter alike compare equal.
    """

    family: str
    rule_degree: int = 3
    sample_count: int = 1000
    variational: VariationalSettings | None = None

    def __post_init__(self):
        for name in ("rule_degree", "sample_count"):
            object.__setattr__(self, name, as_integer(getattr(self, name), name))
        if self.family not in ALL_FAMILIES:
            raise ValueError(f"unknown filter family {self.family!r}")
        if not isinstance(self.variational, (VariationalSettings, type(None))):
            raise ValueError(f"variational must be VariationalSettings or None, got {self.variational!r}")
        for f in fields(self)[1:]:
            if f.name != self.parameter and getattr(self, f.name) != f.default:
                raise ValueError(f"{self.family} does not read {f.name}")
        if self.variational == DEFAULT_VARIATIONAL:
            object.__setattr__(self, "variational", None)
        if self.kernel == "CG" and self.rule_degree not in (3, 5):
            raise ValueError("rule_degree must be 3 or 5")
        if self.kernel == "PG" and self.sample_count < 2:
            raise ValueError("sample_count must be >= 2")

    @property
    def kernel(self) -> str:
        """The family without its ordering suffix."""
        return self.family[:2]

    @property
    def parameter(self) -> str | None:
        """The name of the one parameter the kernel reads; None for LG."""
        return KERNEL_PARAMETERS[self.kernel]

    @property
    def is_smoothing(self) -> bool:
        return self.family.endswith("SF")

    @property
    def uses_points(self) -> bool:
        return self.kernel in ("CG", "PG")

    def label(self) -> str:
        """Family plus rule parameters, e.g. ``CGF5``, ``PGSF1000``, or for
        non-default variational settings ``VGF[grad_tol=1e-08;max_iter=50]``
        (the changed fields in field order; no commas, as labels are CSV
        fields)."""
        value = self.parameter and getattr(self, self.parameter)
        if isinstance(value, VariationalSettings):
            changed = ";".join(
                f"{f.name}={getattr(value, f.name)!r}"
                for f in fields(VariationalSettings)
                if getattr(value, f.name) != getattr(DEFAULT_VARIATIONAL, f.name)
            )
            return f"{self.family}[{changed}]"
        return self.family if value is None else f"{self.family}{value}"


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


def _standard_measure(kind, k, rng) -> DiscreteMeasure:
    """The kind's cubature rule, or its fresh draws from ``rng``, in dimension k."""
    if kind.kernel == "CG":
        return standard_rule(k, kind.rule_degree)
    return standard_rule(k, samples=kind.sample_count, rng=rng)


def _time_update(kind, joint, process, n, rng, diag):
    if kind.uses_points:
        return time_update_points(joint, process, n, _standard_measure(kind, joint.dim, rng), diag)
    return time_update_linear(joint, process, n, diag)


def _measurement_update(kind, prior, obs_map, y, r, rng, diag):
    if kind.kernel == "LG":
        return measurement_update_linear(prior, obs_map, y, r, diag)
    if kind.kernel == "VG":
        # The variational kernel inverts only R and I + H_d, so a SingularMatrix
        # it raises means R or I + H_d does not factor, not a broken belief.
        try:
            return measurement_update_variational(prior, obs_map, y, r, kind.variational, diag)
        except (OptimizerStopped, SingularMatrix):
            diag.fallbacks += 1
            return measurement_update_linear(prior, obs_map, y, r, diag)
    return measurement_update_points(prior, obs_map, y, r, _standard_measure(kind, prior.dim, rng), diag)


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

    Deterministic families never touch the generator; a sampling one without it raises
    ValueError before the first step.  Every observation must be (obs_dim,),
    a number being (1,), and finite before the first step.  An unrecoverable kernel error,
    a ``GaussFiltError``, terminates the trajectory; the partial result is returned with it.
    """
    observations = [as_shape(np.atleast_1d(y), (obs.obs_dim,), f"observation {n + 1} has shape")
                    for n, y in enumerate(observations)]
    if not observations:
        raise ValueError("observation list must be nonempty")
    if not np.isfinite(observations).all():
        raise ValueError(f"observation {np.isfinite(observations).all(axis=1).argmin() + 1} is not finite")
    if kind.kernel == "PG" and rng is None:
        raise ValueError(f"{kind.label()} draws its points from a random generator, and rng is None")
    step = smoothing_step if kind.is_smoothing else conventional_step
    records = [StepRecord(0, prior, Diagnostics())]
    posterior = prior
    # An overflow leaves a non-finite value, which a step raises as a
    # GaussFiltError when a factorization or model output meets it.
    with np.errstate(over="ignore", invalid="ignore"):
        for n, y in enumerate(observations):
            diag = Diagnostics()
            try:
                posterior = step(kind, posterior, process, obs, y, n, rng, diag)
            except GaussFiltError as exc:
                return FilterTrajectory(records, exc)
            records.append(StepRecord(n + 1, posterior, diag))
    return FilterTrajectory(records)
