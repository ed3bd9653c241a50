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


def as_covariance(cov, dim: int | None = None, what: str = "covariance") -> np.ndarray:
    """``cov`` as a float (dim, dim) array, square of any size when ``dim`` is
    None; raises ValueError unless it has that shape, is finite, is symmetric
    to 1e-12 of its largest entry and its least eigenvalue is at least
    ``_psd_floor``."""
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    dim = cov.shape[0] if dim is None else dim
    if cov.shape != (dim, dim):
        raise ValueError(f"{what} shape {cov.shape} incompatible with dimension {dim}")
    if not np.isfinite(cov).all():
        raise ValueError(f"{what} is not finite")
    if np.max(np.abs(cov - cov.T), initial=0.0) > 1e-12 * np.max(np.abs(cov), initial=0.0):
        raise ValueError(f"{what} is not symmetric")
    if cov.size and np.linalg.eigvalsh(cov)[0] < _psd_floor(cov):
        raise ValueError(f"{what} is not positive semi-definite")
    return cov


@dataclass(frozen=True)
class Gaussian:
    """Gaussian belief, fully determined by mean vector and covariance."""

    mean: np.ndarray
    cov: np.ndarray
    _factor = None  # cov's Cholesky factor, when a kernel carried it; not a field

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        if not np.isfinite(mean).all():
            raise ValueError("mean is not finite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", as_covariance(self.cov, mean.shape[0]))

    @classmethod
    def _unchecked(cls, mean: np.ndarray, cov: np.ndarray, factor=None) -> "Gaussian":
        """The kernels' constructor, which skips ``__post_init__``.

        ``mean`` is a float vector (d,) and ``cov`` a (d, d) matrix that
        ``_settled`` accepted, or a block-diagonal stack of checked
        covariances.  ``factor``, when given, is ``cholesky_factor(cov)`` to
        the byte; it is made read-only and handed to the next kernel that
        factors ``cov`` (``_factor_of``).
        """
        g = object.__new__(cls)
        object.__setattr__(g, "mean", mean)
        object.__setattr__(g, "cov", cov)
        if factor is not None:
            factor.flags.writeable = False
            object.__setattr__(g, "_factor", factor)
        return g

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def cholesky_factor(c: np.ndarray, diag: Diagnostics | None = None) -> np.ndarray:
    """Lower-triangular S with S S^T = C, adding escalating jitter on failure.

    Raises NotPositiveDefinite if C is not finite, or if the factorization
    still fails after the largest jitter; either signals a corrupted
    covariance upstream.
    """
    c = symmetrize(np.atleast_2d(np.asarray(c, dtype=float)))
    if not np.isfinite(c).all():
        raise NotPositiveDefinite("covariance is not finite")
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

    Large negative eigenvalues (beyond 1e-6 of the trace scale) and
    non-finite entries are treated as corruption and raised rather than
    masked.  The result is exactly symmetric and passes ``as_covariance``,
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


def _settled(mean: np.ndarray, c: np.ndarray, diag: Diagnostics | None = None) -> Gaussian:
    """The Gaussian a kernel returns, with covariance ``c`` symmetrized.

    A finite ``c`` whose Cholesky factorization succeeds is accepted as it is,
    and the factor travels with it, even where ``eigvalsh`` would read a
    rounding-level negative eigenvalue: a backward-stable factorization puts
    such a matrix far above ``as_covariance``'s floor.  Only when the
    factorization fails does ``repair_covariance`` run (shift, jitter count,
    or NotPositiveDefinite), and the result carries no factor.
    """
    s = symmetrize(c)
    if np.isfinite(s).all():
        try:
            return Gaussian._unchecked(mean, s, np.linalg.cholesky(s))
        except np.linalg.LinAlgError:
            pass
    return Gaussian._unchecked(mean, repair_covariance(c, diag))


def _factor_of(g: Gaussian, diag: Diagnostics | None = None) -> np.ndarray:
    """``cholesky_factor(g.cov, diag)``, or the factor ``g`` carries."""
    return g._factor if g._factor is not None else cholesky_factor(g.cov, diag)


def _inverse_factor(s, error, what):
    """W = L^-1 for the Cholesky factor L of ``s``, with no jitter; raises
    ``error`` if s is not finite or not positive definite."""
    if not np.isfinite(s).all():
        raise error(f"{what} is not finite")
    try:
        return np.linalg.inv(np.linalg.cholesky(s))
    except np.linalg.LinAlgError as exc:
        raise error(f"{what} is singular") from exc


def _conditioning_terms(s, cross, innovation):
    """The shift C S^-1 v and the shrink C S^-1 C^T of conditioning on an
    observed block of covariance S, cross covariance C and innovation v, from
    C W^T and W v; SingularInnovationCov unless S is finite and positive
    definite."""
    w = _inverse_factor(s, SingularInnovationCov, "innovation covariance")
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


def quadratic_form(v: np.ndarray, sigma: np.ndarray) -> float:
    """v^T Sigma^{-1} v as |L^-1 v|^2 for the Cholesky factor L of Sigma;
    SingularMatrix unless Sigma is finite and positive definite."""
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    w = _inverse_factor(sigma, SingularMatrix, "quadratic form matrix")
    w = w @ np.atleast_1d(np.asarray(v, dtype=float))
    return float(w @ w)
