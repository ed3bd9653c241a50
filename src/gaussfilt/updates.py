"""Time and measurement update kernels, plus the variational optimizer.

The same measurement-update kernels serve both filter orderings: for the
conventional ordering the prior is the d-dimensional predictive belief and
the map is the plain observation function; for the noise-conditioning
ordering the prior is the (d+D)-dimensional joint belief over z = [x, xi]
and the map is the observation composed with one forward step.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.linalg.lapack import dpotrf, dpotrs

from .cubature import RuleKind, standard_rule, symmetric_stencil, transform, weighted_moments
from .diagnostics import Diagnostics
from .errors import (
    DivergedEvaluation,
    LineSearchFailed,
    OptimizerDidNotConverge,
    SingularHessian,
    SingularInnovationCov,
)
from .gaussian import Gaussian, cholesky_factor, repair_covariance, symmetrize
from .models import ObsFunction, ProcessModel, central_difference

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class VariationalSettings:
    """Stopping and finite-difference controls for the variational update.

    The update runs BFGS in whitened coordinates u = L^-1 (x - m), where
    L L^T is the prior covariance, with the chain-rule gradient of the
    misfit.  ``grad_tol`` is therefore compared with the norm of that
    whitened gradient; ``None`` still resolves to 1e-6 * (1 + |J(x0)|), J(x0)
    being the misfit at the prior mean.  ``fd_step``, when set, replaces the
    observation map's Jacobian in that gradient with central differences of
    that step; ``None`` uses the map's own Jacobian.  Called without a
    gradient, ``bfgs_minimize`` takes ``fd_step`` (default
    sqrt(eps)*(1+|x_i|)) as its central-difference step.
    ``hessian_fd_step`` is the step of the x-space Hessian whose inverse is
    the posterior covariance; ``None`` means eps^(1/4)*(1+|x_i|).
    """

    grad_tol: float | None = None
    max_iter: int = 200
    fd_step: float | None = None
    hessian_fd_step: float | None = None

    def __post_init__(self):
        if self.grad_tol is not None and self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


DEFAULT_VARIATIONAL = VariationalSettings()


def numerical_hessian(rows, x, step=None):
    """Symmetric central-difference Hessian.

    All 1 + 2k + 4 k(k-1)/2 probes, x plus the offsets of
    ``cubature.symmetric_stencil(h, h)``, go to one call of ``rows``, which
    maps stacked points (m, k) to m values.
    """
    x = np.asarray(x, dtype=float)
    h = np.full(x.shape, step) if step is not None else _EPS ** 0.25 * (1.0 + np.abs(x))
    k = x.shape[0]
    idx = np.arange(k)
    iu, ju = np.triu_indices(k, 1)
    first_pair = 1 + 2 * k
    probes = x + symmetric_stencil(h, h)
    vals = rows(probes)
    hess = np.empty((k, k))
    # h_i ** 2 through pow, as a scalar square is computed; h * h differs in
    # the last bit for a few steps in ten thousand.
    h_sq = np.array([hi ** 2 for hi in h])
    hess[idx, idx] = (vals[1:first_pair:2] - 2.0 * vals[0] + vals[2:first_pair:2]) / h_sq
    fpp, fpm, fmp, fmm = vals[first_pair:].reshape(-1, 4).T
    hess[iu, ju] = hess[ju, iu] = (fpp - fpm - fmp + fmm) / (4.0 * h[iu] * h[ju])
    return hess


def bfgs_minimize(f, x0, settings: VariationalSettings | None = None, grad=None):
    """BFGS with Armijo backtracking.

    ``f`` maps one point to a float.  ``grad``, when given, maps one point to
    the gradient of ``f``; otherwise central differences of step
    ``settings.fd_step`` supply it.  Returns (minimizer, iteration count); a
    non-finite f at x0 raises DivergedEvaluation, and a LineSearchFailed or
    OptimizerDidNotConverge carries the count in ``iterations``.  The
    inverse-Hessian approximation starts at the identity; the line search
    tries steps 1, 1/2, 1/4, ... (at most 40 halvings) and accepts the first
    that meets the Armijo condition with c = 1e-4 and strictly lowers f.  A
    decrease lost in f's rounding thus fails the search instead of passing
    it vacuously.
    """
    settings = settings or DEFAULT_VARIATIONAL
    if grad is None:
        rows = lambda vs: np.array([f(v) for v in vs], dtype=float)
        grad = lambda v: central_difference(rows, v, settings.fd_step)[0]
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    fx = float(f(x))
    if not np.isfinite(fx):
        raise DivergedEvaluation("objective not finite at the starting point")
    tol = settings.grad_tol
    if tol is None:
        tol = 1e-6 * (1.0 + abs(fx))
    g = grad(x)
    h_inv = np.eye(x.shape[0])
    for it in range(settings.max_iter):
        if np.linalg.norm(g) <= tol:
            return x, it
        p = -h_inv @ g
        slope = float(g @ p)
        if slope >= 0.0:  # stale curvature; restart from steepest descent
            h_inv = np.eye(x.shape[0])
            p = -g
            slope = float(g @ p)
        alpha, ok = 1.0, False
        for _ in range(41):
            x_new = x + alpha * p
            f_new = float(f(x_new))
            if np.isfinite(f_new) and f_new < fx and f_new <= fx + 1e-4 * alpha * slope:
                ok = True
                break
            alpha *= 0.5
        if not ok:
            if np.linalg.norm(g) <= tol:
                return x, it
            raise LineSearchFailed(
                f"no Armijo step after 40 halvings (grad norm {np.linalg.norm(g):.3e})", it
            )
        g_new = grad(x_new)
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
    raise OptimizerDidNotConverge(
        f"gradient norm {np.linalg.norm(g):.3e} > {tol:.3e} after {settings.max_iter} iterations",
        settings.max_iter,
    )


def _finite(a):
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    return a


def _kalman_update(prior, obs_map, y, r, z, p_xz, p_zz, diag):
    """The Gaussian measurement update from the predicted observation z, the
    cross covariance P_xz and the observation covariance P_zz, which every
    non-variational family supplies in its own way."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    r = np.atleast_2d(np.asarray(r, dtype=float))
    # LAPACK's potrf/potrs, called as scipy's cho_factor/cho_solve call them,
    # without the wrappers' per-call overhead; their finiteness checks stay.
    s = _finite(symmetrize(p_zz + r))
    f, info = dpotrf(s, lower=1, clean=0)
    if info > 0:
        raise SingularInnovationCov("innovation covariance is singular")
    gain = dpotrs(f, _finite(p_xz).T, lower=1)[0].T
    mean = prior.mean + gain @ obs_map.residual(y, z)
    cov = repair_covariance(prior.cov - gain @ p_xz.T, diag)
    return Gaussian._unchecked(mean, cov)


def time_update_linear(
    joint: Gaussian, process: ProcessModel, n: int, diag: Diagnostics | None = None
) -> Gaussian:
    """First-order propagation of the joint belief through the forward map.

    Valid for any joint covariance, including the full (non block diagonal)
    one left behind by conditioning on the next observation.
    """
    mean, jac = process.value_and_jacobian(n, joint.mean)
    cov = repair_covariance(jac @ joint.cov @ jac.T, diag)
    return Gaussian._unchecked(mean, cov)


def time_update_points(
    joint: Gaussian,
    process: ProcessModel,
    n: int,
    kind: RuleKind,
    rng: np.random.Generator | None = None,
    diag: Diagnostics | None = None,
) -> Gaussian:
    """Push a discrete measure for the joint belief through the forward map
    and return the Gaussian with the push-forward's first two moments."""
    s = cholesky_factor(joint.cov, diag)
    mu = transform(standard_rule(kind, joint.dim, rng), joint.mean, s)
    mean, cov = weighted_moments(mu.weights, process.forward(n, mu.points))
    return Gaussian._unchecked(mean, repair_covariance(cov, diag))


def measurement_update_linear(
    prior: Gaussian,
    obs_map: ObsFunction,
    y: np.ndarray,
    r: np.ndarray,
    diag: Diagnostics | None = None,
) -> Gaussian:
    """Kalman-style update with the observation map linearized at the mean."""
    z, h = obs_map.value_and_jacobian(prior.mean)
    ch = prior.cov @ h.T
    return _kalman_update(prior, obs_map, y, r, z, ch, h @ ch, diag)


def measurement_update_points(
    prior: Gaussian,
    obs_map: ObsFunction,
    y: np.ndarray,
    r: np.ndarray,
    kind: RuleKind,
    rng: np.random.Generator | None = None,
    diag: Diagnostics | None = None,
) -> Gaussian:
    """Update using cross/auto covariances of a discrete measure pushed
    through the observation map."""
    s = cholesky_factor(prior.cov, diag)
    mu = transform(standard_rule(kind, prior.dim, rng), prior.mean, s)
    zpts = obs_map.rows(mu.points)
    # Express every pushed observation relative to one of them through the
    # map's residual, so an angle averages across its wrap at +-pi.
    zpts = zpts[0] + obs_map.residual(zpts, zpts[0])
    mean, cov = weighted_moments(mu.weights, np.hstack([mu.points, zpts]))
    k = prior.dim
    return _kalman_update(prior, obs_map, y, r, mean[k:], cov[:k, k:], cov[k:, k:], diag)


class WhitenedMisfit:
    """The variational misfit of a prior N(m, L L^T) and an observation y,

        J(x) = 1/2 |L^-1 (x - m)|^2 + 1/2 |L_R^-1 r(x)|^2,

    with r(x) = obs_map.residual(y, h(x)) and R = L_R L_R^T, in x and in the
    whitened coordinates u = L^-1 (x - m), where it reads
    1/2 |u|^2 + 1/2 |L_R^-1 r(m + L u)|^2.  A point where the map leaves its
    domain scores inf.  Called at one u, it keeps the map's value and
    Jacobian there, from one joint call, for ``gradient``.  With ``fd_step``
    set, that Jacobian is the central difference of that step.
    """

    def __init__(self, prior, obs_map, y, r, fd_step=None, diag=None):
        self.mean = prior.mean
        self.l_prior = cholesky_factor(prior.cov, diag)
        self.l_obs = cholesky_factor(np.atleast_2d(np.asarray(r, dtype=float)), diag)
        if fd_step is not None:
            base = obs_map
            obs_map = replace(
                base, linearize=lambda x: (base(x), central_difference(base.rows, x, fd_step))
            )
        self.obs_map = obs_map
        self.y = np.atleast_1d(np.asarray(y, dtype=float))
        self._last = None

    def to_x(self, us):
        """x = m + L u, for one u or stacked rows."""
        return self.mean + us @ self.l_prior.T

    def _data_term(self, xs, preds=None):
        try:
            preds = self.obs_map.rows(xs) if preds is None else preds
        except DivergedEvaluation:
            return np.full(xs.shape[0], np.inf)  # a probe left the map's domain
        dr = solve_triangular(self.l_obs, self.obs_map.residual(self.y, preds).T, lower=True)
        with np.errstate(over="ignore"):
            # an overflowing quadratic means a hopeless probe point; the
            # resulting inf makes the line search back off, as intended
            return 0.5 * np.sum(dr * dr, axis=0)

    def at_x(self, xs):
        """J at stacked points (m, k)."""
        dx = solve_triangular(self.l_prior, (xs - self.mean).T, lower=True)
        with np.errstate(over="ignore"):
            return 0.5 * np.sum(dx * dx, axis=0) + self._data_term(xs)

    def at_u(self, us, preds=None):
        """J at stacked whitened points (m, k); ``preds``: the map's values there, if known."""
        with np.errstate(over="ignore"):
            return 0.5 * np.sum(us * us, axis=1) + self._data_term(self.to_x(us), preds)

    def __call__(self, u):
        """J at one whitened point u, as ``at_u(u[None])[0]``."""
        try:
            self._last = (u.copy(), *self.obs_map.value_and_jacobian(self.to_x(u)))
            return self.at_u(u[None], self._last[1][None])[0]
        except DivergedEvaluation:
            return self.at_u(u[None])[0]  # inf unless only the Jacobian is not finite

    def gradient(self, u):
        """Exact whitened gradient u - (L_R^-1 H L)^T L_R^-1 r at one u, with
        H the map's Jacobian at x = m + L u."""
        if self._last is not None and np.array_equal(self._last[0], u):
            _, pred, jac = self._last  # the point just scored, as every accepted one is
        else:
            pred, jac = self.obs_map.value_and_jacobian(self.to_x(u))
        w = solve_triangular(self.l_obs, self.obs_map.residual(self.y, pred), lower=True)
        a = solve_triangular(self.l_obs, jac @ self.l_prior, lower=True)
        return u - a.T @ w


def measurement_update_variational(
    prior: Gaussian,
    obs_map: ObsFunction,
    y: np.ndarray,
    r: np.ndarray,
    settings: VariationalSettings | None = None,
    diag: Diagnostics | None = None,
) -> Gaussian:
    """Posterior mean as the misfit minimizer, covariance as the inverse of
    the numerically differenced x-space Hessian there.

    BFGS runs in whitened coordinates from u = 0 (the prior mean), where the
    prior term's Hessian is the identity BFGS starts from, and takes the
    misfit's chain-rule gradient.
    """
    settings = settings or DEFAULT_VARIATIONAL
    misfit = WhitenedMisfit(prior, obs_map, y, r, settings.fd_step, diag)
    try:
        u_min, iters = bfgs_minimize(misfit, np.zeros(prior.dim), settings, grad=misfit.gradient)
    except (LineSearchFailed, OptimizerDidNotConverge) as exc:
        if diag is not None:
            diag.bfgs_iterations += exc.iterations
        raise
    if diag is not None:
        diag.bfgs_iterations += iters
    minimizer = misfit.to_x(u_min)
    hess = numerical_hessian(misfit.at_x, minimizer, settings.hessian_fd_step)
    try:
        lh = cholesky_factor(hess, diag)
    except Exception as exc:
        raise SingularHessian("misfit Hessian not invertible at the minimizer") from exc
    cov = repair_covariance(cho_solve((lh, True), np.eye(hess.shape[0])), diag)
    return Gaussian._unchecked(minimizer, cov)
