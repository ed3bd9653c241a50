"""Dense Gaussian algebra: factorization, repair, quadratic forms.

A belief a kernel builds is its mean and a square-root factor F of its
covariance, lower triangular with a nonnegative diagonal, carried to the next
kernel; the covariance is F F^T, formed on its first read.  A covariance a
kernel forms is symmetrized and factored here, and repaired on its
per-coordinate variances when it does not factor; the square-root measurement
step and ``augment`` form the factor directly.  Conditioning is not here:
every measurement update conditions by one square-root step in ``updates``.
A matrix a step inverts, S = L L^T, goes through W = L^-1, never S^-1,
unjittered and applied to every operand as a matrix product.  Every
factorization and inverse goes through ``lapack``; ``numpy.linalg`` serves
only the rare paths (an eigenvalue for a boundary check or an abort message).
"""

from dataclasses import dataclass

import numpy as np

from . import lapack
from .diagnostics import Diagnostics
from .errors import NotPositiveDefinite, SingularMatrix

# Escalating jitter scales: a covariance C that does not factor is taken as
# C + eps * diag(scale) for the least eps that factors, where ``scale`` holds
# per-coordinate variances.  Augmented covariances become rank-deficient after
# conditioning on an observation, so a zero-tolerance factorization would be
# unusable there.  Only beliefs are repaired: a matrix a step inverts goes to
# ``_inverse_factor`` as given.
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
    """Gaussian belief, fully determined by mean vector and covariance; a
    scalar mean is a vector of one."""

    mean: np.ndarray
    cov: np.ndarray
    _factor = None  # cov's square-root factor, when a kernel built the belief; not a field

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        if mean.ndim != 1:
            raise ValueError(f"mean must be a vector, got shape {mean.shape}")
        if not np.isfinite(mean).all():
            raise ValueError("mean is not finite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", as_covariance(self.cov, mean.shape[0]))

    @classmethod
    def _unchecked(cls, mean: np.ndarray, factor: np.ndarray) -> "Gaussian":
        """The kernels' constructor, which skips ``__post_init__``: the belief
        N(mean, F F^T) for a float vector ``mean`` (d,) and F = ``factor``
        (d, d), lower triangular with a nonnegative diagonal.  F is made
        read-only and handed to the next kernel (``_factor_of``)."""
        factor.flags.writeable = False
        g = object.__new__(cls)
        object.__setattr__(g, "mean", mean)
        object.__setattr__(g, "_factor", factor)
        return g

    def __getattr__(self, name):
        # Only a kernel-built belief lacks ``cov``: F F^T, formed and kept on its first read.
        if name != "cov":
            raise AttributeError(name)
        cov = self._factor @ self._factor.T
        object.__setattr__(self, "cov", cov)
        return cov

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def cholesky_factor(c: np.ndarray, diag: Diagnostics | None = None) -> np.ndarray:
    """Lower-triangular S with S S^T = C, or, if C does not factor, the factor
    ``repair_covariance`` gives (or raises) on C's own |diagonal|."""
    return _factored(np.atleast_2d(np.asarray(c, dtype=float)), diag)


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
            root = lapack.cholesky(cov[keep])
            if root is None:
                continue
            factor = np.zeros_like(c)
            factor[keep] = root
            if eps and diag is not None:
                diag.jitters += 1
            return cov, factor
    lo = np.linalg.eigvalsh(c)[0]
    raise NotPositiveDefinite(f"covariance has eigenvalue {lo:g}, beyond repair")


def _factored(c: np.ndarray, diag: Diagnostics | None, scale=None) -> np.ndarray:
    """The Cholesky factor of symmetrize(c), or, if it does not factor, the
    factor ``repair_covariance`` gives with ``scale`` (None: its own
    diagonal).  A finite matrix that factors is accepted as it is, even where
    ``eigvalsh`` would read a rounding-level negative eigenvalue: a
    backward-stable factorization puts such a matrix far above
    ``as_covariance``'s floor."""
    s = symmetrize(c)
    factor = lapack.cholesky(s) if np.isfinite(s).all() else None
    if factor is not None:
        return factor
    return repair_covariance(s, np.diagonal(s) if scale is None else scale, diag)[1]


def _factor_of(g: Gaussian, diag: Diagnostics | None = None) -> np.ndarray:
    """The factor a kernel-built ``g`` carries, or ``cholesky_factor(g.cov, diag)``."""
    return g._factor if g._factor is not None else cholesky_factor(g.cov, diag)


def _inverse_factor(s, what):
    """W = L^-1 for the Cholesky factor L of ``s``, with no jitter; raises
    SingularMatrix if s is not finite or not positive definite."""
    if not np.isfinite(s).all():
        raise SingularMatrix(f"{what} is not finite")
    factor = lapack.cholesky(s)
    w = None if factor is None else lapack.inv(factor)
    if w is None:
        raise SingularMatrix(f"{what} is singular")
    return w


def quadratic_form(v: np.ndarray, sigma: np.ndarray) -> float:
    """v^T Sigma^{-1} v as |L^-1 v|^2 for the Cholesky factor L of Sigma;
    SingularMatrix unless Sigma is finite and positive definite."""
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    w = _inverse_factor(sigma, "quadratic form matrix")
    w = w @ np.atleast_1d(np.asarray(v, dtype=float))
    return float(w @ w)
