"""Time and measurement update kernels, plus the variational optimizer.

The same measurement-update kernels serve both filter orderings: for the
conventional ordering the prior is the d-dimensional predictive belief and
the map is the plain observation function; for the noise-conditioning
ordering the prior is the (d+D)-dimensional joint belief over z = [x, xi]
and the map is the observation composed with one forward step.
"""

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .cubature import DiscreteMeasure, symmetric_stencil, transform, weighted_moments
from .diagnostics import Diagnostics
from .errors import DivergedEvaluation, NotPositiveDefinite, OptimizerStopped, SingularMatrix, as_integer
from .gaussian import Gaussian, _conditioning_terms, _factor_of, _settled, cholesky_factor, symmetrize
from .models import ObsFunction, ProcessModel, central_difference, difference_step


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
        if self.grad_tol is not None and not (isinstance(self.grad_tol, Real) and 0 < self.grad_tol < np.inf):
            raise ValueError("grad_tol must be positive and finite")
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


def bfgs_minimize(f, x0, settings: VariationalSettings | None = None, grad=None):
    """BFGS with Armijo backtracking.

    ``f`` maps one point to a float.  ``grad``, when given, maps one point to
    the gradient of ``f``; otherwise ``central_difference`` supplies it.
    Returns (minimizer, iteration count); a non-finite f at x0 raises
    DivergedEvaluation, and the OptimizerStopped of a failed line search or
    a spent budget carries the count in ``iterations``.  The inverse-Hessian
    approximation starts at the identity; the line search tries steps 1,
    1/2, 1/4, ... (at most 40 halvings) and accepts the first that meets the
    Armijo condition with c = 1e-4 and strictly lowers f.  A decrease lost in
    f's rounding thus fails the search instead of passing it vacuously.
    """
    settings = settings or DEFAULT_VARIATIONAL
    if grad is None:
        rows = lambda vs: np.array([f(v) for v in vs], dtype=float)
        grad = lambda v: central_difference(rows, v)[0]
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
            raise OptimizerStopped(f"no Armijo step after 40 halvings (grad norm {np.linalg.norm(g):.3e})", it)
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
    raise OptimizerStopped(
        f"gradient norm {np.linalg.norm(g):.3e} > {tol:.3e} after {settings.max_iter} iterations",
        settings.max_iter,
    )


def _kalman_update(mean, p_xx, obs_map, y, r, z, p_xz, p_zz, diag):
    """The Gaussian measurement update of a prior with this mean from P_xx, the
    predicted observation z, P_xz and the observation covariance P_zz, which
    every non-variational family supplies in its own way.  A posterior that
    does not factor is repaired on the scale of P_xx's diagonal."""
    shift, shrink = _conditioning_terms(symmetrize(p_zz + r), p_xz, obs_map.residual(y, z))
    return _settled(mean + shift, p_xx - shrink, diag, p_xx.diagonal())


def time_update_linear(
    joint: Gaussian, process: ProcessModel, n: int, diag: Diagnostics | None = None
) -> Gaussian:
    """First-order propagation of the joint belief through the forward map:
    the covariance is the Gram matrix B B^T of B = J L, the map's Jacobian
    along the columns of the joint's Cholesky factor L.  Valid for any joint
    covariance, including the full one left by conditioning on y_{n+1}."""
    mean, b = process.value_and_jacobian(n, joint.mean, _factor_of(joint, diag))
    # a copy: a linearization memo hands out its own value, read-only
    return _settled(mean.copy(), b @ b.T, diag)


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
    moments; ``_settled`` symmetrizes the covariance."""
    s = _factor_of(joint, diag)
    mu = transform(mu, joint.mean, s)
    mean, cov = weighted_moments(mu.weights, process.forward(n, mu.points))
    return _settled(mean, cov, diag)


def measurement_update_linear(
    prior: Gaussian,
    obs_map: ObsFunction,
    y: np.ndarray,
    r: np.ndarray,
    diag: Diagnostics | None = None,
) -> Gaussian:
    """Kalman-style update with the observation map linearized at the mean:
    with L the prior's Cholesky factor and B = H L the Jacobian along its
    columns, P_xz = L B^T and P_zz = B B^T."""
    s = _factor_of(prior, diag)
    z, b = obs_map.value_and_jacobian(prior.mean, s)
    return _kalman_update(prior.mean, prior.cov, obs_map, y, r, z, s @ b.T, b @ b.T, diag)


def measurement_update_points(
    prior: Gaussian,
    obs_map: ObsFunction,
    y: np.ndarray,
    r: np.ndarray,
    mu: DiscreteMeasure,
    diag: Diagnostics | None = None,
) -> Gaussian:
    """Update using the state, cross and observation covariances of ``mu``, a
    discrete measure for the prior's dimension from ``cubature.standard_rule``,
    transported to the prior and pushed through the observation map, all three
    from its points, so that P_xx - P_xz S^-1 P_zx is a Schur complement,
    whatever the sample.  The update is centred on the points' mean, the one
    P_xz is taken about."""
    s = _factor_of(prior, diag)
    mu = transform(mu, prior.mean, s)
    zpts = obs_map.rows(mu.points)
    # Express every pushed observation relative to one of them through the
    # map's residual, so an angle averages across its wrap at +-pi.
    zpts = zpts[0] + obs_map.residual(zpts, zpts[0])
    z_mean, p_zz = weighted_moments(mu.weights, zpts)
    p_zz = symmetrize(p_zz)  # symmetric before R is added; _kalman_update symmetrizes the sum
    xs = mu.points  # transform's own array, centred in place; a cached rule's is read-only
    x_mean = mu.weights @ xs
    xs -= x_mean
    p_xx = xs.T @ (mu.weights[:, None] * xs)  # symmetrized by _settled
    p_xz = xs.T @ (mu.weights[:, None] * (zpts - z_mean))
    return _kalman_update(x_mean, p_xx, obs_map, y, r, z_mean, p_xz, p_zz, diag)


def _inverted_factor(c, what, diag):
    """L^-1 for L = cholesky_factor(c, diag); SingularMatrix if c does not
    factor or L has a zero row, as it has where c has one."""
    try:
        factor = cholesky_factor(c, diag)
    except NotPositiveDefinite as exc:
        raise SingularMatrix(f"{what} not invertible") from exc
    if not np.diagonal(factor).all():
        raise SingularMatrix(f"{what} has a zero row")
    return np.linalg.inv(factor)


class WhitenedMisfit:
    """The variational misfit of a prior N(m, L L^T) and an observation y in
    the whitened coordinates u = L^-1 (x - m):

        J(u) = 1/2 |u|^2 + 1/2 |L_R^-1 r(m + L u)|^2,

    with r(x) = obs_map.residual(y, h(x)) and R = L_R L_R^T.  A point where
    the map leaves its domain scores inf.  Called at one u, it keeps the
    map's value and H L, its Jacobian along the columns of L, from one joint
    call, for ``gradient``.  L_R^-1 is formed once, so every evaluation is a
    matrix product; an R with an exact component (a zero row) raises
    SingularMatrix, as the misfit then has no finite Hessian.
    """

    def __init__(self, prior, obs_map, y, r, diag=None):
        self.mean = prior.mean
        self.l_prior = _factor_of(prior, diag)
        self.w_obs = _inverted_factor(r, "observation covariance", diag)
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
        dr = self.w_obs @ self.obs_map.residual(self.y, preds).T
        with np.errstate(over="ignore"):
            # an overflowing quadratic means a hopeless probe point; the
            # resulting inf makes the line search back off, as intended
            return 0.5 * np.sum(dr * dr, axis=0)

    def at_u(self, us, preds=None):
        """J at stacked whitened points (m, k); ``preds``: the map's values there, if known."""
        with np.errstate(over="ignore"):
            return 0.5 * np.sum(us * us, axis=1) + self._data_term(self.to_x(us), preds)

    def __call__(self, u):
        """J at one whitened point u, as ``at_u(u[None])[0]``."""
        try:
            self._last = (u.copy(), *self.obs_map.value_and_jacobian(self.to_x(u), self.l_prior))
            return self.at_u(u[None], self._last[1][None])[0]
        except DivergedEvaluation:
            return self.at_u(u[None])[0]  # inf unless only the Jacobian is not finite

    def gradient(self, u):
        """Exact whitened gradient u - (L_R^-1 B)^T L_R^-1 r at one u, with
        B = H L the map's Jacobian at x = m + L u along the columns of L."""
        if self._last is not None and np.array_equal(self._last[0], u):
            _, pred, b = self._last  # the point just scored, as every accepted one is
        else:
            pred, b = self.obs_map.value_and_jacobian(self.to_x(u), self.l_prior)
        w = self.w_obs @ self.obs_map.residual(self.y, pred)
        return u - (self.w_obs @ b).T @ w

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
    misfit's chain-rule gradient.  With G G^T the Cholesky factorization of
    I + H_d, the covariance is F F^T for F = L G^-T.
    """
    settings = settings or DEFAULT_VARIATIONAL
    misfit = WhitenedMisfit(prior, obs_map, y, r, diag)
    try:
        u_min, iters = bfgs_minimize(misfit, np.zeros(prior.dim), settings, grad=misfit.gradient)
    except OptimizerStopped as exc:
        if diag is not None:
            diag.bfgs_iterations += exc.iterations
        raise
    if diag is not None:
        diag.bfgs_iterations += iters
    minimizer = misfit.to_x(u_min)
    f = misfit.l_prior @ _inverted_factor(misfit.hessian(minimizer), "misfit Hessian", diag).T
    return _settled(minimizer, f @ f.T, diag)
