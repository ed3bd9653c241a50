"""The exact Gaussian conditional by Schur complement: an oracle for the
filters' square-root measurement updates, computed the other way round."""

import numpy as np

from gaussfilt.gaussian import Gaussian, _inverse_factor, symmetrize


def _conditioning_terms(s, cross, innovation):
    """The shift C S^-1 v and the shrink C S^-1 C^T of conditioning on an
    observed block of covariance S, cross covariance C and innovation v, from
    C W^T and W v; SingularMatrix unless S is finite and positive definite."""
    w = _inverse_factor(s, "innovation covariance")
    a = cross @ w.T
    return a @ (w @ innovation), a @ a.T


def condition(joint: Gaussian, y: np.ndarray) -> Gaussian:
    """The exact conditional of the leading ``joint.dim - len(y)`` components
    of ``joint`` given that the trailing ``len(y)`` equal y; ValueError unless
    y is a vector with 0 < len(y) < joint.dim."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    k = joint.dim - y.shape[0]
    if y.ndim != 1 or not 0 < k < joint.dim:
        raise ValueError(f"observed vector of shape {y.shape} does not fit inside dimension {joint.dim}")
    xbar, ybar = joint.mean[:k], joint.mean[k:]
    shift, shrink = _conditioning_terms(joint.cov[k:, k:], joint.cov[:k, k:], y - ybar)
    return Gaussian(xbar + shift, symmetrize(joint.cov[:k, :k] - shrink))
