"""Forward/observation model abstractions and SDE discretization.

A ProcessModel maps (step, state, noise) to the next state; an
ObservationModel maps (step, state) to the observation space.  The driving
noise is augmented onto the state so that the same propagation code serves
both the conventional filters and the filters that condition the noise on
the next observation.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, DivergedEvaluation
from .gaussian import Gaussian, check_covariance

_SQRT_EPS = np.sqrt(np.finfo(float).eps)


def central_difference(rows: Callable, x: np.ndarray, step: float | None = None) -> np.ndarray:
    """Central-difference Jacobian (out x k) of a stacked evaluator at x.

    ``rows`` maps stacked points (m, k) to (m, out) values, or (m,) for a
    scalar function; all 2k probes x +- h_i e_i go to it in one call.  The
    step h_i is ``step``, or sqrt(eps)*(1+|x_i|) when that is None.
    """
    x = np.asarray(x, dtype=float)
    h = np.full(x.shape, step) if step is not None else _SQRT_EPS * (1.0 + np.abs(x))
    k = x.shape[0]
    probes = np.repeat(x[None, :], 2 * k, axis=0)
    idx = np.arange(k)
    probes[idx, idx] += h
    probes[k + idx, idx] -= h
    vals = np.asarray(rows(probes), dtype=float).reshape(2 * k, -1)
    return ((vals[:k] - vals[k:]) / (2.0 * h)[:, None]).T


def finite_difference_jacobian(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of a one-point function, step sqrt(eps)*(1+|x_i|)."""
    return central_difference(ObsFunction(fn).rows, x)


def _covariance(cov, what: str, dim: int) -> np.ndarray:
    """``cov`` as a float (dim, dim) array; raises ValueError unless it has
    that shape and passes ``check_covariance``."""
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    if cov.shape != (dim, dim):
        raise ValueError(f"{what} shape {cov.shape} does not match dimension {dim}")
    check_covariance(cov, what)
    return cov


@dataclass(frozen=True)
class ProcessModel:
    """Forward map x_{n+1} = propagate(n, x, xi) with xi ~ N(0, noise_cov).

    ``noise_cov`` is checked once, here, with the tolerances of ``Gaussian``;
    ``augment`` stacks it into the joint belief unchecked.

    When ``vectorized`` is set, propagate also accepts stacked inputs of
    shape (m, d) / (m, D) and returns (m, d); otherwise ``forward`` calls it
    once per row.
    """

    propagate: Callable
    noise_cov: np.ndarray
    state_dim: int
    noise_dim: int
    jacobian: Callable | None = None  # (n, x, xi) -> d x (d+D)
    vectorized: bool = False
    linearize: Callable | None = None  # (n, x, xi) -> (x_next, d x (d+D)) from one pass

    def __post_init__(self):
        object.__setattr__(self, "noise_cov", _covariance(self.noise_cov, "noise_cov", self.noise_dim))

    def at_step(self, n: int) -> "ObsFunction":
        """The forward map at step n as a map of augmented points z = [x, xi]."""
        d = self.state_dim
        split = lambda f: None if f is None else (lambda z: f(n, z[..., :d], z[..., d:]))
        return ObsFunction(
            fn=split(self.propagate),
            jacobian=split(self.jacobian),
            vectorized=self.vectorized,
            out_dim=d,
            linearize=split(self.linearize),
        )

    def forward(self, n: int, z: np.ndarray) -> np.ndarray:
        """Push stacked augmented rows z = [x, xi] of shape (m, d+D) through
        the forward map; returns (m, d).  Raises DivergedEvaluation if any
        output is not finite."""
        return self.at_step(n).rows(z)

    def value_and_jacobian(self, n: int, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The forward map at one point z = [x, xi] and its d x (d+D) Jacobian."""
        return self.at_step(n).value_and_jacobian(z)

    def full_jacobian(self, n: int, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """d x (d+D) Jacobian of the forward map in the augmented variable."""
        return self.at_step(n).jac(np.concatenate([x, xi]))


@dataclass(frozen=True)
class ObservationModel:
    """Observation map y_n = observe(n, x) + eta_n with eta ~ N(0, obs_cov).

    ``innovation`` computes the residual between an observed and a predicted
    observation; the default is plain subtraction, and models with angular
    components substitute a wrapping residual.  ``wrap_observation``
    normalizes synthetic observations after noise is added.  ``obs_cov`` is
    checked once, here, as ``ProcessModel`` checks ``noise_cov``.
    """

    observe: Callable
    obs_cov: np.ndarray
    obs_dim: int
    jacobian: Callable | None = None  # (n, x) -> d' x d
    innovation: Callable | None = None
    wrap_observation: Callable | None = None
    vectorized: bool = False

    def __post_init__(self):
        object.__setattr__(self, "obs_cov", _covariance(self.obs_cov, "obs_cov", self.obs_dim))

    def at_step(self, n: int) -> "ObsFunction":
        """The observation map frozen at step n, for measurement updates."""
        return ObsFunction(
            fn=lambda x: self.observe(n, x),
            jacobian=None if self.jacobian is None else (lambda x: self.jacobian(n, x)),
            innovation=self.innovation,
            vectorized=self.vectorized,
            out_dim=self.obs_dim,
        )


@dataclass(frozen=True)
class ObsFunction:
    """A concrete observation map handed to the measurement-update kernels.

    When ``vectorized`` is set, fn maps stacked points (m, k) to (m, out_dim);
    otherwise ``rows`` calls it once per row.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None
    innovation: Callable | None = None
    vectorized: bool = False
    out_dim: int | None = None
    linearize: Callable | None = None  # x -> (value, Jacobian) from one evaluation

    def rows(self, xs: np.ndarray) -> np.ndarray:
        """The map at stacked points (m, k); returns (m, out_dim).

        The one path that acts on ``vectorized``, for observation and process
        maps alike; raises DivergedEvaluation if any output is not finite.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            if self.vectorized:
                out = self.fn(xs)
            else:
                out = [np.atleast_1d(self.fn(x)) for x in xs]
            out = np.asarray(out, dtype=float).reshape(xs.shape[0], self.out_dim or -1)
        if not np.isfinite(out).all():
            raise DivergedEvaluation("pushed points are not finite")
        return out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.rows(np.asarray(x, dtype=float)[None])[0]

    def residual(self, y: np.ndarray, predicted: np.ndarray) -> np.ndarray:
        if self.innovation is not None:
            return self.innovation(y, predicted)
        return y - predicted

    def value_and_jacobian(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The map at one point x and its Jacobian there, from one ``linearize``
        call when that is given, else ``self(x)`` and ``jacobian`` (central
        differences when None).  Raises DivergedEvaluation if either is not finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            if self.linearize is not None:
                value, jac = self.linearize(x)
            elif self.jacobian is not None:
                value, jac = self(x), self.jacobian(x)
            else:
                value, jac = self(x), central_difference(self.rows, x)
            value, jac = np.asarray(value, dtype=float), np.atleast_2d(jac)
        if not (np.isfinite(value).all() and np.isfinite(jac).all()):
            raise DivergedEvaluation("value or Jacobian is not finite")
        return value, jac

    def jac(self, x: np.ndarray) -> np.ndarray:
        return self.value_and_jacobian(x)[1]


@dataclass(frozen=True)
class SdeSpec:
    """Ito SDE dx = b(t,x) dt + s(t,x) dB with simulation step dt and
    ``substeps`` integration steps per observation interval."""

    drift: Callable[[float, np.ndarray], np.ndarray]
    volatility: Callable[[float, np.ndarray], np.ndarray]  # (t, x) -> d x N
    brownian_dim: int
    dt: float
    substeps: int = 1
    state_dim: int = 1
    drift_jacobian: Callable[[float, np.ndarray], np.ndarray] | None = None
    volatility_state_independent: bool = False
    vectorized: bool = False

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.substeps < 1:
            raise ValueError("substeps must be >= 1")


def discretize_sde(spec: SdeSpec) -> ProcessModel:
    """Euler-Maruyama discretization composed over ``substeps`` increments.

    The noise vector stacks the per-substep Brownian increments, each with
    covariance dt * I_N; state-dependent scaling stays inside the map so the
    noise covariance is constant even for multiplicative noise.
    """
    d, n_brown, m_steps, dt = spec.state_dim, spec.brownian_dim, spec.substeps, spec.dt
    eye = np.eye(d)

    def integrate(n, x, xi, jac=None):
        # The substeps from one point (d,) or, for a vectorized spec, stacked
        # rows (m, d).  Given [I, 0] as ``jac`` (one point only), also carries
        # the chain-rule Jacobian in [x, xi]: each substep has state Jacobian
        # A_m = I + dt * db/dx and injects s(t_m) into its own noise block.
        x = np.asarray(x, dtype=float)
        for m in range(m_steps):
            t = (n * m_steps + m) * dt
            s = spec.volatility(t, x)
            if jac is not None:
                jac = (eye + dt * np.atleast_2d(spec.drift_jacobian(t, x))) @ jac
                jac[:, d + m * n_brown:d + (m + 1) * n_brown] = s
            w = xi[..., m * n_brown:(m + 1) * n_brown]
            x = x + dt * spec.drift(t, x) + np.einsum("...ij,...j->...i", s, w)
        return x, jac

    noise_dim = m_steps * n_brown
    linearize = None
    if spec.drift_jacobian is not None and spec.volatility_state_independent:
        linearize = lambda n, x, xi: integrate(n, x, xi, np.eye(d, d + noise_dim))

    return ProcessModel(
        propagate=lambda n, x, xi: integrate(n, x, xi)[0],
        noise_cov=dt * np.eye(noise_dim),
        state_dim=d,
        noise_dim=noise_dim,
        vectorized=spec.vectorized,
        linearize=linearize,
    )


def augment(prior: Gaussian, model: ProcessModel, n: int) -> Gaussian:
    """The joint belief over z = [x, xi]: the state belief stacked with the
    (zero-mean) driving noise for step n."""
    if prior.dim != model.state_dim:
        raise DimensionMismatch(
            f"prior dim {prior.dim} does not match model state dim {model.state_dim}"
        )
    dd = model.noise_dim
    mean = np.concatenate([prior.mean, np.zeros(dd)])
    cov = np.zeros((prior.dim + dd, prior.dim + dd))
    cov[:prior.dim, :prior.dim] = prior.cov
    if dd:
        cov[prior.dim:, prior.dim:] = model.noise_cov
    return Gaussian._unchecked(mean, cov)


def composed_observation(process: ProcessModel, obs: ObservationModel, n: int) -> ObsFunction:
    """The observation seen through one forward step: X = [x; xi] maps to the
    predicted observation at step n+1.  Nonlinear whenever the dynamics are,
    even for a linear measurement function.  At one point, one forward pass
    to x' gives its value and chain-rule Jacobian H(x') J_p."""
    obs_next = obs.at_step(n + 1)

    def linearize(z):
        x_next, jp = process.value_and_jacobian(n, z)
        value, h = obs_next.value_and_jacobian(x_next)
        return value, h @ jp

    return ObsFunction(
        fn=lambda z: obs_next.rows(process.forward(n, z)),
        innovation=obs.innovation,
        vectorized=True,
        out_dim=obs.obs_dim,
        linearize=linearize,
    )
