"""Time and measurement update kernels, plus the variational optimizer.

The same measurement-update kernels serve both filter orderings: for the
conventional ordering the prior is the d-dimensional predictive belief and
the map is the plain observation function; for the noise-conditioning
ordering the prior is the (d+D)-dimensional augmented belief and the map is
the observation composed with one forward step.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular, LinAlgError

from .cubature import RuleKind, standard_rule, transform, weighted_moments
from .diagnostics import Diagnostics
from .errors import (
    DivergedEvaluation,
    LineSearchFailed,
    OptimizerDidNotConverge,
    SingularHessian,
    SingularInnovationCov,
)
from .gaussian import Gaussian, cholesky_factor, repair_covariance, symmetrize
from .models import AugmentedGaussian, ObsFunction, ProcessModel, central_difference

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class VariationalSettings:
    """Stopping and finite-difference controls for the variational update.

    A ``None`` tolerance or step resolves to the scale-aware defaults:
    grad_tol = 1e-6 * (1 + |J(x0)|), gradient step sqrt(eps)*(1+|x_i|) and
    Hessian step eps^(1/4)*(1+|x_i|).
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


def _stacked(f, f_batch):
    """The objective at stacked points (m, k): f_batch itself, or the
    one-point f called once per row."""
    if f_batch is not None:
        return f_batch
    return lambda xs: np.array([f(x) for x in xs], dtype=float)


def numerical_gradient(f, x, step=None, f_batch=None):
    """Central-difference gradient; uses a batched evaluator when provided."""
    return central_difference(_stacked(f, f_batch), x, step)[0]


def numerical_hessian(f, x, step=None, f_batch=None):
    """Symmetric central-difference Hessian."""
    x = np.asarray(x, dtype=float)
    h = np.full(x.shape, step) if step is not None else _EPS ** 0.25 * (1.0 + np.abs(x))
    k = x.shape[0]
    probes = [x]
    for i in range(k):
        for s in (h[i], -h[i]):
            p = x.copy()
            p[i] += s
            probes.append(p)
    pair_index = {}
    for i in range(k):
        for j in range(i + 1, k):
            for si in (h[i], -h[i]):
                for sj in (h[j], -h[j]):
                    p = x.copy()
                    p[i] += si
                    p[j] += sj
                    pair_index[(i, j, si > 0, sj > 0)] = len(probes)
                    probes.append(p)
    vals = _stacked(f, f_batch)(np.asarray(probes))
    hess = np.empty((k, k))
    f0 = vals[0]
    for i in range(k):
        fp, fm = vals[1 + 2 * i], vals[2 + 2 * i]
        hess[i, i] = (fp - 2.0 * f0 + fm) / h[i] ** 2
    for i in range(k):
        for j in range(i + 1, k):
            fpp = vals[pair_index[(i, j, True, True)]]
            fpm = vals[pair_index[(i, j, True, False)]]
            fmp = vals[pair_index[(i, j, False, True)]]
            fmm = vals[pair_index[(i, j, False, False)]]
            hess[i, j] = hess[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h[i] * h[j])
    return hess


def bfgs_minimize(f, x0, settings: VariationalSettings | None = None, f_batch=None):
    """BFGS with numerical gradients and Armijo backtracking.

    ``f`` maps one point to a float; ``f_batch``, when given, maps stacked
    points (m, k) to m values and takes the finite-difference probes.
    Returns (minimizer, iteration count).  The inverse-Hessian approximation
    starts at the identity; the line search tries steps 1, 1/2, 1/4, ...
    (at most 40 halvings) against the Armijo condition with c = 1e-4.
    """
    settings = settings or DEFAULT_VARIATIONAL
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    fx = float(f(x))
    if not np.isfinite(fx):
        raise ValueError("objective not finite at the starting point")
    tol = settings.grad_tol
    if tol is None:
        tol = 1e-6 * (1.0 + abs(fx))
    g = numerical_gradient(f, x, settings.fd_step, f_batch)
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
            if np.isfinite(f_new) and f_new <= fx + 1e-4 * alpha * slope:
                ok = True
                break
            alpha *= 0.5
        if not ok:
            if np.linalg.norm(g) <= tol:
                return x, it
            raise LineSearchFailed(
                f"no Armijo step after 40 halvings (grad norm {np.linalg.norm(g):.3e})"
            )
        g_new = numerical_gradient(f, x_new, settings.fd_step, f_batch)
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
        f"gradient norm {np.linalg.norm(g):.3e} > {tol:.3e} after {settings.max_iter} iterations"
    )


def _kalman_update(prior, obs_map, y, r, z, p_xz, p_zz, diag):
    """The Gaussian measurement update from the predicted observation z, the
    cross covariance P_xz and the observation covariance P_zz, which every
    non-variational family supplies in its own way."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    r = np.atleast_2d(np.asarray(r, dtype=float))
    try:
        f = cho_factor(symmetrize(p_zz + r), lower=True)
    except LinAlgError as exc:
        raise SingularInnovationCov("innovation covariance is singular") from exc
    gain = cho_solve(f, p_xz.T).T
    mean = prior.mean + gain @ obs_map.residual(y, z)
    cov = repair_covariance(prior.cov - gain @ p_xz.T, diag)
    return Gaussian(mean, cov)


def time_update_linear(
    aug: AugmentedGaussian, process: ProcessModel, n: int, diag: Diagnostics | None = None
) -> Gaussian:
    """First-order propagation of the augmented belief through the forward map.

    Valid for any augmented covariance, including the full (non block
    diagonal) one left behind by conditioning on the next observation.
    """
    d = aug.state_dim
    mean_aug = aug.belief.mean
    jac = process.full_jacobian(n, mean_aug[:d], mean_aug[d:])
    mean = process.forward(n, mean_aug[None])[0]
    cov = repair_covariance(jac @ aug.belief.cov @ jac.T, diag)
    return Gaussian(mean, cov)


def time_update_points(
    aug: AugmentedGaussian,
    process: ProcessModel,
    n: int,
    kind: RuleKind,
    rng: np.random.Generator | None = None,
    diag: Diagnostics | None = None,
) -> Gaussian:
    """Push a discrete measure for the augmented belief through the forward
    map and return the Gaussian with the push-forward's first two moments."""
    s = cholesky_factor(aug.belief.cov, diag)
    mu = transform(standard_rule(kind, aug.belief.dim, rng), aug.belief.mean, s)
    mean, cov = weighted_moments(mu.weights, process.forward(n, mu.points))
    return Gaussian(mean, repair_covariance(cov, diag))


def measurement_update_linear(
    prior: Gaussian,
    obs_map: ObsFunction,
    y: np.ndarray,
    r: np.ndarray,
    diag: Diagnostics | None = None,
) -> Gaussian:
    """Kalman-style update with the observation map linearized at the mean."""
    h = obs_map.jac(prior.mean)
    ch = prior.cov @ h.T
    return _kalman_update(prior, obs_map, y, r, obs_map(prior.mean), ch, h @ ch, diag)


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


def measurement_update_variational(
    prior: Gaussian,
    obs_map: ObsFunction,
    y: np.ndarray,
    r: np.ndarray,
    settings: VariationalSettings | None = None,
    diag: Diagnostics | None = None,
) -> Gaussian:
    """Posterior mean as the misfit minimizer (BFGS from the prior mean),
    covariance as the inverse of the numerically differenced Hessian there."""
    settings = settings or DEFAULT_VARIATIONAL
    y = np.atleast_1d(np.asarray(y, dtype=float))
    r = np.atleast_2d(np.asarray(r, dtype=float))
    l_prior = cholesky_factor(prior.cov, diag)
    l_obs = cholesky_factor(r, diag)
    mean0 = prior.mean

    def misfit(xs):
        """Misfit at stacked points (m, k); inf where the map leaves its domain."""
        try:
            pred = obs_map.rows(xs)
        except DivergedEvaluation:
            return np.full(xs.shape[0], np.inf)  # a probe left the map's domain
        dx = solve_triangular(l_prior, (xs - mean0).T, lower=True)
        dr = solve_triangular(l_obs, obs_map.residual(y, pred).T, lower=True)
        with np.errstate(over="ignore"):
            # an overflowing quadratic means a hopeless probe point; the
            # resulting inf makes the line search back off, as intended
            return 0.5 * np.sum(dx * dx, axis=0) + 0.5 * np.sum(dr * dr, axis=0)

    def misfit_at(x):
        return misfit(x[None])[0]

    minimizer, iters = bfgs_minimize(misfit_at, mean0, settings, misfit)
    if diag is not None:
        diag.bfgs_iterations += iters
    hess = numerical_hessian(misfit_at, minimizer, settings.hessian_fd_step, misfit)
    try:
        lh = cholesky_factor(hess, diag)
    except Exception as exc:
        raise SingularHessian("misfit Hessian not invertible at the minimizer") from exc
    cov = repair_covariance(cho_solve((lh, True), np.eye(hess.shape[0])), diag)
    return Gaussian(minimizer, cov)
