"""Dense Gaussian algebra: factorization, conditioning, quadratic forms.

Every covariance handled here is symmetrized explicitly before use; the
conditioning formula loses symmetry in floating point otherwise.  Solves
against a covariance S = L L^T go through W = L^-1, never S^-1, applied
to every operand as a matrix product.  The algebra runs on ``numpy.linalg``.
"""

from dataclasses import dataclass

import numpy as np

from .diagnostics import Diagnostics
from .errors import NotPositiveDefinite, SingularMatrix

# Escalating jitter scales: a covariance C that does not factor is taken as
# C + eps * diag(scale) for the least eps that factors, where ``scale`` holds
# per-coordinate variances.  Augmented covariances become rank-deficient after
# conditioning on an observation, so a zero-tolerance factorization would be
# unusable there.
JITTER_LADDER = (1e-12, 1e-10, 1e-8, 1e-6)


def symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def as_covariance(cov, dim: int | None = None, what: str = "covariance") -> np.ndarray:
    """``cov`` as a float (dim, dim) array, square of any size when ``dim`` is
    None; raises ValueError unless it has that shape, is finite, is symmetric
    to 1e-12 of its largest entry and its least eigenvalue is at least -1e-10
    of its trace, as rounding leaves a positive semi-definite matrix."""
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    dim = cov.shape[0] if dim is None else dim
    if cov.shape != (dim, dim):
        raise ValueError(f"{what} shape {cov.shape} incompatible with dimension {dim}")
    if not np.isfinite(cov).all():
        raise ValueError(f"{what} is not finite")
    if np.max(np.abs(cov - cov.T), initial=0.0) > 1e-12 * np.max(np.abs(cov), initial=0.0):
        raise ValueError(f"{what} is not symmetric")
    if cov.size and np.linalg.eigvalsh(cov)[0] < -1e-10 * max(np.trace(cov), 1e-300):
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
    """Lower-triangular S with S S^T = C, or, if C does not factor, the factor
    ``repair_covariance`` gives (or raises) on C's own |diagonal|."""
    return _factored(np.atleast_2d(np.asarray(c, dtype=float)), None, diag)[1]


def repair_covariance(c: np.ndarray, scale: np.ndarray, diag: Diagnostics | None = None):
    """C + eps diag(|scale|) and its Cholesky factor, for the least eps in
    ``(0,) + JITTER_LADDER`` that factors; a jitter is counted when eps > 0.

    ``scale`` holds per-coordinate variances, so the repair does not depend on
    the units of C.  A coordinate whose scale is zero (below 1e12 times the
    least normal float) must have a zero row in C, up to rounding, and gets a
    zero row in both results.  A C that is not finite, has a nonzero row there
    or does not factor at the largest eps raises NotPositiveDefinite: it
    signals a corrupted covariance upstream.
    """
    c = symmetrize(np.atleast_2d(np.asarray(c, dtype=float)))
    if not np.isfinite(c).all():
        raise NotPositiveDefinite("covariance is not finite")
    scale = np.abs(np.asarray(scale, dtype=float))
    floor = np.finfo(float).tiny / JITTER_LADDER[0]  # the first rung keeps a variance above it normal
    zero = scale < floor
    # A covariance, or one subtracted from the covariance the scale comes
    # from, bounds |c_ij| by 2 sqrt(scale_i scale_j); below that, a row at a
    # zero scale is rounding, and is zeroed.
    if np.all(np.abs(c[zero]) <= 2.0 * np.sqrt(floor) * np.sqrt(scale)):
        c[zero] = c[:, zero] = scale[zero] = 0.0
        keep = np.ix_(~zero, ~zero)
        for eps in (0.0,) + JITTER_LADDER:
            cov = c + np.diag(eps * scale)
            factor = np.zeros_like(c)
            try:
                factor[keep] = np.linalg.cholesky(cov[keep])
            except np.linalg.LinAlgError:
                continue
            if eps and diag is not None:
                diag.jitters += 1
            return cov, factor
    lo = np.linalg.eigvalsh(c)[0]
    raise NotPositiveDefinite(f"covariance has eigenvalue {lo:g}, beyond repair")


def _factored(c: np.ndarray, scale, diag: Diagnostics | None):
    """symmetrize(c) and its Cholesky factor, or, if it does not factor,
    ``repair_covariance`` with ``scale`` (None: its own diagonal)."""
    s = symmetrize(c)
    if np.isfinite(s).all():
        try:
            return s, np.linalg.cholesky(s)
        except np.linalg.LinAlgError:
            pass
    return repair_covariance(s, np.diagonal(s) if scale is None else scale, diag)


def _settled(mean: np.ndarray, c: np.ndarray, diag: Diagnostics | None = None, scale=None) -> Gaussian:
    """The Gaussian a kernel returns, with covariance ``c`` symmetrized and its
    Cholesky factor carried to the next kernel.

    A finite ``c`` whose factorization succeeds is accepted as it is, even
    where ``eigvalsh`` would read a rounding-level negative eigenvalue: a
    backward-stable factorization puts such a matrix far above
    ``as_covariance``'s floor.  Otherwise ``repair_covariance`` runs with
    ``scale``, the per-coordinate variances c came from (None: c's own
    |diagonal|).
    """
    return Gaussian._unchecked(mean, *_factored(c, scale, diag))


def _factor_of(g: Gaussian, diag: Diagnostics | None = None) -> np.ndarray:
    """``cholesky_factor(g.cov, diag)``, or the factor ``g`` carries."""
    return g._factor if g._factor is not None else cholesky_factor(g.cov, diag)


def _inverse_factor(s, what):
    """W = L^-1 for the Cholesky factor L of ``s``, with no jitter; raises
    SingularMatrix if s is not finite or not positive definite."""
    if not np.isfinite(s).all():
        raise SingularMatrix(f"{what} is not finite")
    try:
        return np.linalg.inv(np.linalg.cholesky(s))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"{what} is singular") from exc


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


def quadratic_form(v: np.ndarray, sigma: np.ndarray) -> float:
    """v^T Sigma^{-1} v as |L^-1 v|^2 for the Cholesky factor L of Sigma;
    SingularMatrix unless Sigma is finite and positive definite."""
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    w = _inverse_factor(sigma, "quadratic form matrix")
    w = w @ np.atleast_1d(np.asarray(v, dtype=float))
    return float(w @ w)
