"""Time and measurement update kernels, plus the variational optimizer.

The same measurement-update kernels serve both filter orderings: for the
conventional ordering the prior is the d-dimensional predictive belief and
the map is the plain observation function; for the noise-conditioning
ordering the prior is the (d+D)-dimensional joint belief over z = [x, xi]
and the map is the observation composed with one forward step.
"""

from dataclasses import dataclass

import numpy as np

from . import lapack
from .cubature import DiscreteMeasure, symmetric_stencil, transform, weighted_moments
from .diagnostics import Diagnostics
from .errors import DivergedEvaluation, OptimizerStopped, SingularMatrix, as_integer, as_real
from .gaussian import Gaussian, _factor_of, _factored, _inverse_factor, cholesky_factor
from .models import _EPS, ObsFunction, ProcessModel, difference_step


@dataclass(frozen=True)
class VariationalSettings:
    """Stopping controls for the variational update.

    The update runs BFGS in whitened coordinates u = L^-1 (x - m), where
    L L^T is the prior covariance, with the chain-rule gradient of the
    misfit.  ``grad_tol`` is therefore compared with the norm of that
    whitened gradient; ``None`` still resolves to 1e-6 * (1 + |J(x0)|), J(x0)
    being the misfit at the prior mean.
    """

    grad_tol: float | None = None
    max_iter: int = 200

    def __post_init__(self):
        object.__setattr__(self, "max_iter", as_integer(self.max_iter, "max_iter"))
        if self.grad_tol is not None:
            object.__setattr__(self, "grad_tol", as_real(self.grad_tol, "grad_tol", positive=True))
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


DEFAULT_VARIATIONAL = VariationalSettings()


def numerical_hessian(rows, x, basis):
    """Central-difference Hessian (k x k) of u -> f(x + basis @ u) at u = 0.

    ``rows`` maps stacked points (m, n) to the m values of f; ``basis`` is
    (n, k).  All 1 + 2k + 4 k(k-1)/2 probes, x plus the offsets of
    ``cubature.symmetric_stencil`` along the scaled columns h basis e_i, go
    to one call, with h = ``difference_step(x, basis, 1/4)``.
    """
    x = np.asarray(x, dtype=float)
    k = basis.shape[1]
    h = difference_step(x, basis, 0.25)
    steps = h * basis.T
    vals = rows(x + symmetric_stencil(steps, steps))
    first_pair = 1 + 2 * k
    hess = np.diag((vals[1:first_pair:2] - 2.0 * vals[0] + vals[2:first_pair:2]) / (h * h))
    fpp, fpm, fmp, fmm = vals[first_pair:].reshape(-1, 4).T
    upper = ~np.tri(k, dtype=bool)  # the pairs i < j, in the stencil's row-major order
    hess[upper] = hess.T[upper] = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
    return hess


def bfgs_minimize(f, x0, settings: VariationalSettings | None = None):
    """BFGS with Armijo backtracking.

    ``f`` maps one point to (value, gradient), both from one call; where the
    value is not finite the gradient is not read.  Returns (minimizer,
    iteration count); a non-finite f at x0 raises DivergedEvaluation, and the
    OptimizerStopped of a failed line search or a spent budget carries the
    count in ``iterations``.  The inverse-Hessian approximation starts at the
    identity; the line search tries steps 1, 1/2, 1/4, ... (at most 40
    halvings) and accepts the first that meets the Armijo condition with
    c = 1e-4 and lowers f by more than 4 eps |f|, f's rounding.  A decrease
    lost in that rounding thus fails the search instead of passing it
    vacuously.  Near a minimum f's rounding can hide every decrease, as
    where the map's input is far from the origin; the search then falls back
    to the first step that meets Hager and Zhang's approximate Wolfe
    conditions, which read the slope along p rather than f: f rises by at
    most 1e-6 |f| and the slope lies in [0.9, -0.8] times the slope at the
    start.  Such a step cannot follow another: from a point it reached, only
    an Armijo step goes on.  Where no step is accepted the search fails,
    rather than wander at the rounding floor.
    """
    settings = settings or DEFAULT_VARIATIONAL
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    fx, g = f(x)
    fx = float(fx)
    if not np.isfinite(fx):
        raise DivergedEvaluation("objective not finite at the starting point")
    tol = settings.grad_tol
    if tol is None:
        tol = 1e-6 * (1.0 + abs(fx))
    h_inv = np.eye(x.shape[0])
    approximate_allowed = True
    for it in range(settings.max_iter):
        if np.linalg.norm(g) <= tol:
            return x, it
        p = -h_inv @ g
        slope = float(g @ p)
        if slope >= 0.0:  # stale curvature; restart from steepest descent
            h_inv = np.eye(x.shape[0])
            p = -g
            slope = float(g @ p)
        alpha, ok, approximate = 1.0, False, None
        floor = fx - 4.0 * _EPS * abs(fx)
        for _ in range(41):
            x_new = x + alpha * p
            f_new, g_new = f(x_new)
            f_new = float(f_new)
            if np.isfinite(f_new) and f_new < floor and f_new <= fx + 1e-4 * alpha * slope:
                ok = True
                break
            if (
                approximate is None
                and approximate_allowed
                and f_new <= fx + 1e-6 * abs(fx)  # False for nan
                and 0.9 * slope <= float(g_new @ p) <= -0.8 * slope
            ):
                approximate = x_new, f_new, g_new
            alpha *= 0.5
        if not ok:
            if approximate is None:
                raise OptimizerStopped(f"no Armijo step after 40 halvings (grad norm {np.linalg.norm(g):.3e})", it)
            x_new, f_new, g_new = approximate
        approximate_allowed = ok
        s = x_new - x
        yv = g_new - g
        sy = float(s @ yv)
        if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(yv):
            rho = 1.0 / sy
            i_mat = np.eye(x.shape[0])
            v = i_mat - rho * np.outer(s, yv)
            h_inv = v @ h_inv @ v.T + rho * np.outer(s, s)
        x, fx, g = x_new, f_new, g_new
    if np.linalg.norm(g) <= tol:
        return x, settings.max_iter
    raise OptimizerStopped(
        f"gradient norm {np.linalg.norm(g):.3e} > {tol:.3e} after {settings.max_iter} iterations",
        settings.max_iter,
    )


def _square_root_update(mean, factor, innovation, a, n, diag):
    """The update of the prior N(mean, L L^T), L = ``factor``, by the
    regression z = z̄ + Â u + e, e ~ N(0, Ω), of the predicted observation on
    the whitened state u = L^-1 (x - mean), given v = y - z̄ (``innovation``),
    Â (p x k) and N = R + Ω.

    The QR of [[Â^T, I], [N^½^T, 0]] leaves [[S^½^T, S^-½ Â], [0, Π^½^T]],
    with S = Â Â^T + N and Π = I - Â^T S^-1 Â the covariance of u given y,
    so the posterior, mean + L Â^T S^-1 v with covariance F F^T for
    F = L Π^½, subtracts no covariance from another.  The [Â^T, I] rows come
    first, so Householder keeps Π^½ where Â is large, as under a diffuse
    prior.  An N that does not factor enters as N₊, its negative eigenvalues
    set to zero, and counts a jitter.  A non-finite N or S, which the array
    never forms, a QR that fails on a non-finite array, or a singular S^½
    raises SingularMatrix.  The factorization of N, the QR and the solve
    against S^½ call ``lapack``; the array is built fresh, as the QR
    overwrites it.

    F, lower triangular as L and Π^½ are, has its columns' signs flipped to
    a nonnegative diagonal and is the posterior's factor.  Where Π^½ has an
    exactly zero diagonal entry, as an exact observation of a state leaves
    it, or F is not finite, the factor is ``_factored(F F^T)`` instead,
    repaired on the prior's variances, the row norms² of L, when F F^T does
    not factor."""
    p, k = a.shape
    n_half = lapack.cholesky(n)  # an infinite N may factor; S then is not finite
    if n_half is None:
        if not np.isfinite(n).all():
            raise SingularMatrix("innovation covariance is not finite")
        lam, vec = np.linalg.eigh(n)
        n_half = vec * np.sqrt(np.maximum(lam, 0.0))
        if diag is not None:
            diag.jitters += 1
    array = np.eye(k + p, p + k, p)  # [[0, I], [0, 0]]
    array[:k, :p] = a.T
    array[k:, :p] = n_half.T
    upper = lapack.qr_r(array)
    s_half = None if upper is None else upper[:p, :p].T
    if s_half is None or not np.isfinite(np.vdot(s_half, s_half)):  # trace(S), finite where S is
        raise SingularMatrix("innovation covariance is not finite")
    w = lapack.solve(s_half, innovation)
    if w is None:
        raise SingularMatrix("innovation covariance is singular")
    mean = mean + factor @ (upper[:p, p:].T @ w)
    pivots = upper.diagonal()[p:]
    f = factor @ upper[p:, p:].T
    f *= np.copysign(1.0, pivots)
    if not (all(pivots.tolist()) and np.isfinite(np.vdot(f, f))):
        f = _factored(f @ f.T, diag, np.sum(factor**2, axis=1))
    return Gaussian._unchecked(mean, f)


def time_update_linear(
    joint: Gaussian, process: ProcessModel, n: int, diag: Diagnostics | None = None
) -> Gaussian:
    """First-order propagation of the joint belief through the forward map:
    the covariance is the Gram matrix B B^T of B = J L, the map's Jacobian
    along the columns of the joint's factor L.  Valid for any joint
    covariance, including the full one left by conditioning on y_{n+1}."""
    mean, b = process.value_and_jacobian(n, joint.mean, _factor_of(joint, diag))
    # a copy: a linearization memo hands out its own value, read-only
    return Gaussian._unchecked(mean.copy(), _factored(b @ b.T, diag))


def time_update_points(
    joint: Gaussian,
    process: ProcessModel,
    n: int,
    mu: DiscreteMeasure,
    diag: Diagnostics | None = None,
) -> Gaussian:
    """Transport ``mu``, a discrete measure for the joint's dimension from
    ``cubature.standard_rule``, to the joint belief, push it through the
    forward map and return the Gaussian with the push-forward's first two
    moments, carrying the factor of the covariance's symmetrized form."""
    s = _factor_of(joint, diag)
    mu = transform(mu, joint.mean, s)
    mean, cov = weighted_moments(mu.weights, process.forward(n, mu.points))
    return Gaussian._unchecked(mean, _factored(cov, diag))


def measurement_update_linear(
    prior: Gaussian,
    obs_map: ObsFunction,
    y: np.ndarray,
    r: np.ndarray,
    diag: Diagnostics | None = None,
) -> Gaussian:
    """Kalman-style update with the observation map linearized at the mean:
    with L the prior's factor, the regression on the whitened state
    is z = h(m) + B u, with B = H L the Jacobian along L's columns, exactly."""
    s = _factor_of(prior, diag)
    z, b = obs_map.value_and_jacobian(prior.mean, s)
    return _square_root_update(prior.mean, s, obs_map.residual(y, z), b, r, diag)


def measurement_update_points(
    prior: Gaussian,
    obs_map: ObsFunction,
    y: np.ndarray,
    r: np.ndarray,
    mu: DiscreteMeasure,
    diag: Diagnostics | None = None,
) -> Gaussian:
    """Update by the statistical linear regression of the observation on
    ``mu``, a measure for the prior's dimension from ``cubature.standard_rule``,
    transported to the prior and pushed through the map: Â = Σ w_i dz_i η_i^T
    over the centred observations dz_i, and Ω = Σ w_i e_i e_i^T over the
    residuals e_i = dz_i - Â η_i, never P_zz - Â Â^T, which cancels under a
    diffuse prior.  A cubature rule's points are η themselves, their moments
    being (0, I) by construction (``DiscreteMeasure.standard``).  A sample
    keeps its own mean ξ̄ and covariance L_ξ L_ξ^T: η = L_ξ^-1 (ξ - ξ̄), on
    the prior N(m + L ξ̄, (L L_ξ)(L L_ξ)^T), so the update is the Schur
    complement of the points' own joint covariance, whatever the sample."""
    s = _factor_of(prior, diag)
    zpts = obs_map.rows(transform(mu, prior.mean, s).points)
    # Express every pushed observation relative to one of them through the
    # map's residual, so an angle averages across its wrap at +-pi.
    zpts = zpts[0] + obs_map.residual(zpts, zpts[0])
    z_mean = mu.weights @ zpts
    dz = zpts - z_mean
    mean, xi = prior.mean, mu.points
    a = b = (mu.weights * dz.T) @ xi  # about ξ̄ too: dz has weighted mean zero
    if not mu.standard:
        xi_mean = mu.weights @ xi
        xi = xi - xi_mean
        l_xi = cholesky_factor(xi.T @ (mu.weights[:, None] * xi), diag)
        w_xi = lapack.inv(l_xi)
        if w_xi is None:
            raise SingularMatrix("sample covariance is singular")
        a = a @ w_xi.T
        b = a @ w_xi  # the regression on ξ - ξ̄ rather than on η
        mean, s = mean + s @ xi_mean, s @ l_xi
    e = dz - xi @ b.T
    omega = (mu.weights * e.T) @ e
    return _square_root_update(mean, s, obs_map.residual(y, z_mean), a, r + omega, diag)


class WhitenedMisfit:
    """The variational misfit of a prior N(m, L L^T) and an observation y in
    the whitened coordinates u = L^-1 (x - m):

        J(u) = 1/2 |u|^2 + 1/2 |L_R^-1 r(m + L u)|^2,

    with r(x) = obs_map.residual(y, h(x)) and R = L_R L_R^T.  L_R^-1 is
    formed once, so every evaluation is a matrix product; an R that does not
    factor as given, as where it observes a combination of states exactly,
    raises SingularMatrix, as the misfit then has no finite Hessian.
    """

    def __init__(self, prior, obs_map, y, r, diag=None):
        self.mean = prior.mean
        self.l_prior = _factor_of(prior, diag)
        self.w_obs = _inverse_factor(r, "observation covariance")
        self.obs_map = obs_map
        self.y = np.atleast_1d(np.asarray(y, dtype=float))

    def to_x(self, us):
        """x = m + L u, for one u or stacked rows."""
        return self.mean + us @ self.l_prior.T

    def _data_term(self, xs):
        """1/2 |L_R^-1 r(x)|^2 at stacked points (m, n); inf where the map leaves its domain."""
        try:
            preds = self.obs_map.rows(xs)
        except DivergedEvaluation:
            return np.full(xs.shape[0], np.inf)  # a probe left the map's domain
        dr = self.w_obs @ self.obs_map.residual(self.y, preds).T
        with np.errstate(over="ignore"):
            # an overflowing quadratic means a hopeless probe point; the
            # resulting inf makes the line search back off, as intended
            return 0.5 * np.sum(dr * dr, axis=0)

    def __call__(self, u):
        """J at one whitened point u and its exact gradient
        u - (L_R^-1 B)^T L_R^-1 r, with B = H L the map's Jacobian at
        x = m + L u along the columns of L, both from one
        ``value_and_jacobian`` call; (inf, None) where the map's value or
        Jacobian is not finite."""
        try:
            pred, b = self.obs_map.value_and_jacobian(self.to_x(u), self.l_prior)
        except DivergedEvaluation:
            return np.inf, None
        w = self.w_obs @ self.obs_map.residual(self.y, pred)
        with np.errstate(over="ignore"):  # an overflow scores inf, as in ``_data_term``
            value = 0.5 * np.sum(u * u) + 0.5 * np.sum(w * w)
        return value, u - (self.w_obs @ b).T @ w

    def hessian(self, x):
        """The whitened Hessian I + H_d of J at x = m + L u: the prior term's
        identity exactly, the data term's H_d by ``numerical_hessian`` along
        the columns of L."""
        return np.eye(x.shape[0]) + numerical_hessian(self._data_term, x, self.l_prior)


def measurement_update_variational(
    prior: Gaussian,
    obs_map: ObsFunction,
    y: np.ndarray,
    r: np.ndarray,
    settings: VariationalSettings | None = None,
    diag: Diagnostics | None = None,
) -> Gaussian:
    """Posterior mean as the misfit minimizer, covariance as the inverse of
    the misfit's Hessian there, L (I + H_d)^-1 L^T.

    BFGS runs in whitened coordinates from u = 0 (the prior mean), where the
    prior term's Hessian is the identity BFGS starts from, and takes the
    misfit's chain-rule gradient.  With G G^T the unjittered Cholesky factorization
    of I + H_d (SingularMatrix if none), the covariance is F F^T for F = L G^-T,
    which is not triangular: the posterior carries the factor of F F^T.
    """
    settings = settings or DEFAULT_VARIATIONAL
    misfit = WhitenedMisfit(prior, obs_map, y, r, diag)
    try:
        u_min, iters = bfgs_minimize(misfit, np.zeros(prior.dim), settings)
    except OptimizerStopped as exc:
        if diag is not None:
            diag.bfgs_iterations += exc.iterations
        raise
    if diag is not None:
        diag.bfgs_iterations += iters
    minimizer = misfit.to_x(u_min)
    f = misfit.l_prior @ _inverse_factor(misfit.hessian(minimizer), "misfit Hessian").T
    return Gaussian._unchecked(minimizer, _factored(f @ f.T, diag))
