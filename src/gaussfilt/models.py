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
from .gaussian import Gaussian, as_covariance

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
        object.__setattr__(self, "noise_cov", as_covariance(self.noise_cov, self.noise_dim, "noise_cov"))

    def at_step(self, n: int) -> "ObsFunction":
        """The forward map at step n as a map of augmented points z = [x, xi]."""
        d = self.state_dim
        split = lambda f: None if f is None else (lambda z: f(n, z[..., :d], z[..., d:]))
        return ObsFunction(
            fn=split(self.propagate),
            out_dim=d,
            jacobian=split(self.jacobian),
            vectorized=self.vectorized,
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
        """The Jacobian from ``value_and_jacobian``; kept only because the
        benchmark's tracer binds a span to this name."""
        return self.value_and_jacobian(n, np.concatenate([x, xi]))[1]


@dataclass(frozen=True)
class ObservationModel:
    """Observation map y_n = observe(n, x) + eta_n with eta ~ N(0, obs_cov).

    ``wrap_observation`` normalizes an observation, e.g. wraps an angular
    component into (-pi, pi]; it is applied to synthetic observations after
    noise is added and to every residual y - y_hat.  ``obs_cov`` is checked
    once, here, as ``ProcessModel`` checks ``noise_cov``.
    """

    observe: Callable
    obs_cov: np.ndarray
    obs_dim: int
    jacobian: Callable | None = None  # (n, x) -> d' x d
    wrap_observation: Callable | None = None
    vectorized: bool = False

    def __post_init__(self):
        object.__setattr__(self, "obs_cov", as_covariance(self.obs_cov, self.obs_dim, "obs_cov"))

    def at_step(self, n: int) -> "ObsFunction":
        """The observation map frozen at step n, for measurement updates."""
        return ObsFunction(
            fn=lambda x: self.observe(n, x),
            out_dim=self.obs_dim,
            jacobian=None if self.jacobian is None else (lambda x: self.jacobian(n, x)),
            wrap_observation=self.wrap_observation,
            vectorized=self.vectorized,
        )


@dataclass(frozen=True)
class ObsFunction:
    """The one path by which a map's values, Jacobians and residuals reach the
    kernels, and the one place their shapes are checked.  When ``vectorized``
    is set, fn maps stacked points (m, k) to (m, out_dim); otherwise ``rows``
    calls it once per row.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    out_dim: int
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None
    wrap_observation: Callable | None = None
    vectorized: bool = False
    linearize: Callable | None = None  # x -> (value, Jacobian) from one evaluation

    def rows(self, xs: np.ndarray) -> np.ndarray:
        """The map at stacked points (m, k); returns (m, out_dim).

        The one path that acts on ``vectorized``, for observation and process
        maps alike; raises DimensionMismatch or, if not finite, DivergedEvaluation.
        """
        m = xs.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):
            if self.vectorized:
                out = self.fn(xs)
            else:
                out = np.concatenate([np.ravel(self.fn(x)) for x in xs])
            out = np.asarray(out, dtype=float)
        if out.size != m * self.out_dim:
            raise DimensionMismatch(f"map returned shape {out.shape}, not ({m}, {self.out_dim})")
        out = out.reshape(m, self.out_dim)
        if not np.isfinite(out).all():
            raise DivergedEvaluation("pushed points are not finite")
        return out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.rows(np.asarray(x, dtype=float)[None])[0]

    def residual(self, y: np.ndarray, predicted: np.ndarray) -> np.ndarray:
        """y - predicted, passed through ``wrap_observation`` when set."""
        r = np.subtract(y, predicted)
        return r if self.wrap_observation is None else self.wrap_observation(r)

    def value_and_jacobian(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The map at one point x and its Jacobian there, from one ``linearize``
        call when that is given, else ``self(x)`` and ``jacobian`` (central
        differences when None).  Raises DimensionMismatch unless they are
        (out_dim,) and (out_dim, len(x)), DivergedEvaluation if not finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            if self.linearize is not None:
                value, jac = self.linearize(x)
            elif self.jacobian is not None:
                value, jac = self(x), self.jacobian(x)
            else:
                value, jac = self(x), central_difference(self.rows, x)
            value, jac = np.asarray(value, dtype=float), np.atleast_2d(jac)
        expected = (self.out_dim,), (self.out_dim, len(x))
        if (value.shape, jac.shape) != expected:
            raise DimensionMismatch(f"value and Jacobian {value.shape}, {jac.shape}, not {expected}")
        if not (np.isfinite(value).all() and np.isfinite(jac).all()):
            raise DivergedEvaluation("value or Jacobian is not finite")
        return value, jac


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
    noise covariance is constant even for multiplicative noise.  ``linearize``
    keeps its last point: called again at the same (n, x, xi) it returns the
    same value and Jacobian, read-only, without another pass.
    """
    d, n_brown, m_steps, dt = spec.state_dim, spec.brownian_dim, spec.substeps, spec.dt
    eye = np.eye(d)
    blocks = [slice(m * n_brown, (m + 1) * n_brown) for m in range(m_steps)]
    jac_blocks = [slice(d + b.start, d + b.stop) for b in blocks]

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
                # a scalar or 1-D b' (d = 1) broadcasts as its 2-D form would
                jac = (eye + np.multiply(dt, spec.drift_jacobian(t, x))) @ jac
                jac[:, jac_blocks[m]] = s
            w = xi[..., blocks[m]]
            if n_brown == 1:  # one product per component, rounded as the contraction rounds it
                noise = np.asarray(s)[..., 0] * w
            else:
                noise = np.einsum("...ij,...j->...i", s, w)
            x = x + dt * spec.drift(t, x) + noise
        return x, jac

    noise_dim = m_steps * n_brown
    linearize = None
    if spec.drift_jacobian is not None and spec.volatility_state_independent:
        memo = (None, None)  # (key, result) of the last point, replaced as one pair

        def linearize(n, x, xi):
            nonlocal memo
            x, xi = np.asarray(x, dtype=float), np.asarray(xi, dtype=float)
            key = (n, x.tobytes(), xi.tobytes())
            last_key, out = memo
            if key != last_key:
                out = integrate(n, x, xi, np.eye(d, d + noise_dim))
                for a in out:
                    a.flags.writeable = False
                memo = key, out
            return out

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
        out_dim=obs.obs_dim,
        wrap_observation=obs.wrap_observation,
        vectorized=True,
        linearize=linearize,
    )
