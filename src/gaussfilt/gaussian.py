"""Dense Gaussian algebra: factorization, conditioning, quadratic forms.

Every covariance handled here is symmetrized explicitly before use; the
conditioning formula loses symmetry in floating point otherwise.  Linear
solves go through Cholesky factors and triangular substitution, never an
explicit inverse.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky as scipy_cholesky, solve_triangular, LinAlgError

from .diagnostics import Diagnostics
from .errors import NotPositiveDefinite, SingularInnovationCov, SingularMatrix

# Escalating jitter scales applied as eps * trace(C)/d * I on factorization
# failure.  Augmented covariances become rank-deficient after conditioning on
# an observation, so a zero-tolerance factorization would be unusable there.
JITTER_LADDER = (1e-12, 1e-10, 1e-8, 1e-6)


def symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def _psd_floor(cov: np.ndarray) -> float:
    """The least eigenvalue a positive semi-definite ``cov`` may show in
    floating point: -1e-10 of its trace."""
    return -1e-10 * max(np.trace(cov), 1e-300)


def check_covariance(cov: np.ndarray, what: str) -> None:
    """Raise ValueError unless the square float matrix ``cov`` is symmetric to
    1e-12 of its scale and its least eigenvalue is at least ``_psd_floor``."""
    scale = 1.0 + np.max(np.abs(cov)) if cov.size else 1.0
    if np.max(np.abs(cov - cov.T), initial=0.0) > 1e-12 * scale:
        raise ValueError(f"{what} is not symmetric")
    if cov.size and np.linalg.eigvalsh(cov)[0] < _psd_floor(cov):
        raise ValueError(f"{what} is not positive semi-definite")


@dataclass(frozen=True)
class Gaussian:
    """Gaussian belief, fully determined by mean vector and covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        d = mean.shape[0]
        if cov.shape != (d, d):
            raise ValueError(f"covariance shape {cov.shape} incompatible with mean of dim {d}")
        check_covariance(cov, "covariance")

    @classmethod
    def _unchecked(cls, mean: np.ndarray, cov: np.ndarray) -> "Gaussian":
        """The kernels' constructor, which skips ``__post_init__``.

        ``mean`` is a float vector (d,) and ``cov`` a (d, d) matrix that
        ``repair_covariance`` returned, or a block-diagonal stack of checked
        covariances; either passes ``check_covariance``.
        """
        g = object.__new__(cls)
        object.__setattr__(g, "mean", mean)
        object.__setattr__(g, "cov", cov)
        return g

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class JointGaussian:
    """Jointly Gaussian (X, Y) with an explicit partition boundary."""

    mean: np.ndarray
    cov: np.ndarray
    split: int

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = symmetrize(np.atleast_2d(np.asarray(self.cov, dtype=float)))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        if not 0 < self.split < mean.shape[0]:
            raise ValueError("split must lie strictly inside the stacked dimension")


def cholesky_factor(
    c: np.ndarray,
    diag: Diagnostics | None = None,
) -> np.ndarray:
    """Lower-triangular S with S S^T = C, adding escalating jitter on failure.

    Raises NotPositiveDefinite if the factorization still fails after the
    largest jitter; that signals a corrupted covariance upstream.
    """
    c = symmetrize(np.atleast_2d(np.asarray(c, dtype=float)))
    d = c.shape[0]
    try:
        return np.linalg.cholesky(c)
    except np.linalg.LinAlgError:
        pass
    base = max(np.trace(c), 1e-300) / d
    for eps in JITTER_LADDER:
        try:
            s = np.linalg.cholesky(c + eps * base * np.eye(d))
        except np.linalg.LinAlgError:
            continue
        if diag is not None:
            diag.jitters += 1
        return s
    raise NotPositiveDefinite("covariance not factorizable after maximal jitter")


def repair_covariance(c: np.ndarray, diag: Diagnostics | None = None) -> np.ndarray:
    """Symmetrize and, if needed, shift tiny negative eigenvalues to zero.

    Large negative eigenvalues (beyond 1e-6 of the trace scale) are treated
    as corruption and raised rather than masked.  The result is exactly
    symmetric and passes ``check_covariance``, so the kernels build their
    Gaussians from it unchecked.
    """
    c = symmetrize(np.atleast_2d(np.asarray(c, dtype=float)))
    lo = np.linalg.eigvalsh(c)[0]
    if lo >= 0.0:
        return c
    scale = max(np.trace(c), 1.0)
    if lo < -1e-6 * scale:
        raise NotPositiveDefinite(f"covariance has eigenvalue {lo:g}, beyond repair")
    if diag is not None:
        diag.jitters += 1
    eye = np.eye(c.shape[0])
    c = c + (-lo + 1e-300) * eye
    # Rounding can absorb the shift: a diagonal that cancels to exactly zero
    # beside nonzero off-diagonal entries is still indefinite.  Shift again.
    while (lo := np.linalg.eigvalsh(c)[0]) < _psd_floor(c):
        c = c + (-lo + 1e-300) * eye
    return c


def condition(joint: JointGaussian, y: np.ndarray) -> Gaussian:
    """Condition the X block of a JointGaussian on Y = y.

    Returns the exact conditional moments; the solve against the Y-block
    covariance goes through its Cholesky factor.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    k = joint.split
    xbar, ybar = joint.mean[:k], joint.mean[k:]
    sxx = joint.cov[:k, :k]
    sxy = joint.cov[:k, k:]
    syy = joint.cov[k:, k:]
    if y.shape != ybar.shape:
        raise ValueError("observed vector has wrong dimension")
    try:
        f = scipy_cholesky(syy, lower=True)
    except LinAlgError as exc:
        raise SingularInnovationCov("Y-block covariance is numerically singular") from exc
    gain = cho_solve((f, True), sxy.T).T
    mean = xbar + gain @ (y - ybar)
    cov = symmetrize(sxx - gain @ sxy.T)
    return Gaussian(mean, cov)


def quadratic_form(v: np.ndarray, sigma: np.ndarray) -> float:
    """v^T Sigma^{-1} v via triangular solves on the Cholesky factor."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    try:
        f = scipy_cholesky(np.atleast_2d(np.asarray(sigma, dtype=float)), lower=True)
    except LinAlgError as exc:
        raise SingularMatrix("quadratic form matrix is numerically singular") from exc
    w = solve_triangular(f, v, lower=True)
    return float(w @ w)
