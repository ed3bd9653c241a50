"""Dense Gaussian algebra: factorization, conditioning, quadratic forms.

Every covariance handled here is symmetrized explicitly before use; the
conditioning formula loses symmetry in floating point otherwise.  Solves
against a covariance S = L L^T go through W = L^-1, never S^-1, applied
to every operand as a matrix product.  The algebra runs on ``numpy.linalg``.
"""

from dataclasses import dataclass

import numpy as np

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


def _finite_factor(s: np.ndarray) -> np.ndarray:
    """``s`` if its diagonal is finite: LAPACK may return a factor of a
    non-finite matrix, and a NaN or inf anywhere reaches that diagonal."""
    if not np.isfinite(s.diagonal()).all():
        raise NotPositiveDefinite("covariance is not finite")
    return s


def cholesky_factor(c: np.ndarray, diag: Diagnostics | None = None) -> np.ndarray:
    """Lower-triangular S with S S^T = C, adding escalating jitter on failure.

    Raises NotPositiveDefinite if C is not finite, or if the factorization
    still fails after the largest jitter; either signals a corrupted
    covariance upstream.
    """
    c = symmetrize(np.atleast_2d(np.asarray(c, dtype=float)))
    d = c.shape[0]
    try:
        return _finite_factor(np.linalg.cholesky(c))
    except np.linalg.LinAlgError:
        pass
    base = max(np.trace(c), 1e-300) / d
    for eps in JITTER_LADDER:
        try:
            s = _finite_factor(np.linalg.cholesky(c + eps * base * np.eye(d)))
        except np.linalg.LinAlgError:
            continue
        if diag is not None:
            diag.jitters += 1
        return s
    raise NotPositiveDefinite("covariance not factorizable after maximal jitter")


def repair_covariance(c: np.ndarray, diag: Diagnostics | None = None) -> np.ndarray:
    """Symmetrize and, if needed, shift tiny negative eigenvalues to zero.

    Large negative eigenvalues (beyond 1e-6 of the trace scale) and
    non-finite entries are treated as corruption and raised rather than
    masked.  The result is exactly symmetric and passes ``check_covariance``,
    so the kernels build their Gaussians from it unchecked.
    """
    c = symmetrize(np.atleast_2d(np.asarray(c, dtype=float)))
    if not np.isfinite(c).all():
        raise NotPositiveDefinite("covariance is not finite")
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


def _finite(a):
    """``a``, if it holds no inf or NaN."""
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    return a


def _conditioning_terms(s, cross, innovation):
    """The shift C S^-1 v and the shrink C S^-1 C^T of conditioning on an
    observed block of covariance S, cross covariance C and innovation v, from
    C W^T and W v; ValueError if S or C is not finite, SingularInnovationCov if
    S is not positive definite."""
    try:
        w = np.linalg.inv(np.linalg.cholesky(_finite(s)))
    except np.linalg.LinAlgError as exc:
        raise SingularInnovationCov("innovation covariance is singular") from exc
    a = _finite(cross) @ w.T
    return a @ (w @ innovation), a @ a.T


def condition(joint: JointGaussian, y: np.ndarray) -> Gaussian:
    """Condition the X block of a JointGaussian on Y = y: the exact
    conditional moments."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    k = joint.split
    xbar, ybar = joint.mean[:k], joint.mean[k:]
    if y.shape != ybar.shape:
        raise ValueError("observed vector has wrong dimension")
    shift, shrink = _conditioning_terms(joint.cov[k:, k:], joint.cov[:k, k:], y - ybar)
    return Gaussian(xbar + shift, symmetrize(joint.cov[:k, :k] - shrink))


def quadratic_form(v: np.ndarray, sigma: np.ndarray) -> float:
    """v^T Sigma^{-1} v as |L^-1 v|^2 for the Cholesky factor L of Sigma."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    try:
        f = np.linalg.cholesky(_finite(np.atleast_2d(np.asarray(sigma, dtype=float))))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix("quadratic form matrix is numerically singular") from exc
    w = np.linalg.solve(f, v)
    return float(w @ w)
