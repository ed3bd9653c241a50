"""Exception types shared across the package, and the rules of config counts, numbers and shapes."""

import numpy as np


def as_integer(value, name: str) -> int:
    """int(value); a bool, a string or a fraction, which int would take, parse or
    truncate, raises ValueError."""
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_shape(a, shape: tuple, what: str) -> np.ndarray:
    """``a`` as a float array of exactly ``shape``, else DimensionMismatch naming both shapes."""
    a = np.asarray(a, dtype=float)
    if a.shape != shape:
        raise DimensionMismatch(f"{what} {a.shape}, not {shape}")
    return a


def holds_bool(value) -> bool:
    """Whether ``value``, a number or nested sequence, holds a bool, which NumPy reads as 0 or 1."""
    return any(isinstance(v, (bool, np.bool_)) for v in np.ravel(np.asarray(value, dtype=object)))


class GaussFiltError(Exception):
    """Base class for all package errors."""


class NotPositiveDefinite(GaussFiltError):
    """Factorization failed even after maximal jitter."""


class SingularMatrix(GaussFiltError):
    """A matrix the package must invert is not finite or is singular."""


class DivergedEvaluation(GaussFiltError):
    """A pushed point left the model's finite domain (e.g. stiff dynamics)."""


class DimensionMismatch(GaussFiltError):
    """Operands have incompatible dimensions."""


class OptimizerStopped(GaussFiltError):
    """An optimizer gave up; ``iterations`` counts the iterations it ran."""

    def __init__(self, message: str, iterations: int = 0):
        super().__init__(message)
        self.iterations = iterations


class ConfigError(GaussFiltError):
    """Experiment configuration is invalid."""
