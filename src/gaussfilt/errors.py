"""Exception types shared across the package, and the integer rule of config counts."""


def as_integer(value, name: str) -> int:
    """int(value); a bool, a string or a fraction, which int would take, parse or
    truncate, raises ValueError."""
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


class GaussFiltError(Exception):
    """Base class for all package errors."""


class NotPositiveDefinite(GaussFiltError):
    """Factorization failed even after maximal jitter."""


class SingularInnovationCov(GaussFiltError):
    """Innovation covariance is numerically singular."""


class SingularMatrix(GaussFiltError):
    """Matrix required to be invertible is numerically singular."""


class SingularHessian(GaussFiltError):
    """Misfit Hessian at the minimizer could not be inverted."""


class DivergedEvaluation(GaussFiltError):
    """A pushed point left the model's finite domain (e.g. stiff dynamics)."""


class DimensionMismatch(GaussFiltError):
    """Operands have incompatible dimensions."""


class InvalidDimension(GaussFiltError):
    """Requested dimension is out of range."""


class Unsupported(GaussFiltError):
    """Request exceeds a built-in guard (e.g. moment degree/dimension)."""


class _OptimizerStopped(GaussFiltError):
    """An optimizer gave up; ``iterations`` counts the iterations it ran."""

    def __init__(self, message: str, iterations: int = 0):
        super().__init__(message)
        self.iterations = iterations


class OptimizerDidNotConverge(_OptimizerStopped):
    """Gradient norm still above tolerance after the iteration budget."""


class LineSearchFailed(_OptimizerStopped):
    """Backtracking line search could not find an acceptable step."""


class LengthMismatch(GaussFiltError):
    """Sequences expected to have equal length do not."""


class ConfigError(GaussFiltError):
    """Experiment configuration is invalid."""
