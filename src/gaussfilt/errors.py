"""Exception types shared across the package, and the rules of config counts, numbers and shapes."""

from numbers import Integral, Real

import numpy as np


def as_integer(value, name: str) -> int:
    """int(value) of an integer: an Integral other than a bool, exactly, or a
    real number that ``as_real`` takes and that is whole; anything else, which
    int would take, parse or truncate, raises ValueError."""
    whole = isinstance(value, Integral) and not isinstance(value, (bool, np.bool_))
    if not whole:
        try:
            whole = as_real(value, name).is_integer()
        except ValueError:
            pass
    if not whole:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_real(value, name: str, positive: bool = False) -> float:
    """float(value) of a finite real number, not a bool, and positive if ``positive``; else ValueError."""
    try:
        x = float(value) if isinstance(value, Real) and not isinstance(value, (bool, np.bool_)) else np.nan
    except OverflowError:  # an int or a Fraction beyond the float range
        x = np.inf
    if not (np.isfinite(x) and (x > 0 or not positive)):
        raise ValueError(f"{name} must be {'positive and ' if positive else ''}finite, got {value!r}")
    return x


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
