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

from .errors import DimensionMismatch, DivergedEvaluation, as_integer, as_real, as_shape
from .diagnostics import Diagnostics
from .gaussian import Gaussian, _factor_of, as_covariance, cholesky_factor

_EPS = np.finfo(float).eps


def difference_step(x: np.ndarray, basis: np.ndarray | None, power: float) -> float:
    """The step h = (eps (1 + max_j |x_j| / s_j))^power of every difference at
    x along the columns of ``basis`` (the identity when None), s_j being the
    norm of basis row j; a zero row stays out of the max.  With a prior's
    Cholesky factor L as basis, s_j is the prior sd of x_j, so h is in the
    units of u = L^-1 (x - m).  ``power``: 1/3 for central first differences,
    1/4 for central second differences, each balancing rounding against
    truncation."""
    ratio = np.abs(x)
    if basis is not None:
        s = np.linalg.norm(basis, axis=1)
        ratio = np.divide(ratio, s, out=np.zeros_like(ratio), where=s > 0.0)
    return (_EPS * (1.0 + np.max(ratio, initial=0.0))) ** power


def central_difference(rows: Callable, x: np.ndarray, basis: np.ndarray | None = None) -> np.ndarray:
    """Central-difference J @ basis (out x k) of a stacked evaluator at x, along
    the columns of ``basis`` (n x k; the identity when None).  ``rows`` maps
    stacked points (m, n) to (m, out) values, or (m,) for a scalar function;
    all 2k probes x +- h basis e_i go to it in one call, h being
    ``difference_step(x, basis, 1/3)``."""
    x = np.asarray(x, dtype=float)
    h = difference_step(x, basis, 1.0 / 3.0)
    steps = h * (np.eye(x.shape[0]) if basis is None else basis.T)
    k = steps.shape[0]
    vals = np.asarray(rows(np.concatenate([x + steps, x - steps])), dtype=float).reshape(2 * k, -1)
    return ((vals[:k] - vals[k:]) / (2.0 * h)).T


def _along(jac, basis: np.ndarray | None, out_dim: int, n: int) -> np.ndarray:
    """An analytic Jacobian, checked as (out_dim, n), times ``basis`` (the identity when None)."""
    jac = as_shape(jac, (out_dim, n), "Jacobian")
    return jac if basis is None else jac @ basis


def _stacked_rows(fn: Callable, vectorized: bool, out_dim: int, xs: np.ndarray) -> np.ndarray:
    """fn at stacked points xs (m, k): exactly (m, out_dim) from one call when
    ``vectorized``, else exactly out_dim values, raveled, from each row's call.
    The one path that acts on ``vectorized``, for ``ObsFunction.rows`` and
    ``ProcessModel.forward`` alike; raises DimensionMismatch, or DivergedEvaluation if not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        if vectorized:
            out = as_shape(fn(xs), (xs.shape[0], out_dim), "map returned shape")
        else:
            out = np.stack([as_shape(np.ravel(fn(x)), (out_dim,), "map returned shape") for x in xs])
    if not np.isfinite(out).all():
        raise DivergedEvaluation("pushed points are not finite")
    return out


def _linearized(rows, out_dim, x, basis, linearize) -> tuple[np.ndarray, np.ndarray]:
    """A map at one point x and J @ basis, its Jacobian along the columns of
    ``basis`` (n x k; the identity when None): from one ``linearize(x, basis)``
    call when that is given, else ``rows`` at x and ``central_difference`` of
    ``rows``.  The one linearization of observation and process maps alike;
    on both branches raises DimensionMismatch unless the value is (out_dim,)
    and J @ basis (out_dim, k), DivergedEvaluation if either is not finite."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        if linearize is not None:
            value, jac = linearize(x, basis)
        else:
            value, jac = rows(x[None])[0], central_difference(rows, x, basis)
    value = as_shape(value, (out_dim,), "value")
    jac = as_shape(jac, (out_dim, len(x) if basis is None else basis.shape[1]), "Jacobian")
    if not (np.isfinite(value).all() and np.isfinite(jac).all()):
        raise DivergedEvaluation("value or Jacobian is not finite")
    return value, jac


@dataclass(frozen=True)
class ProcessModel:
    """Forward map x_{n+1} = propagate(n, x, xi) with xi ~ N(0, noise_cov).

    ``noise_cov`` is checked once, here, with the tolerances of ``Gaussian``.
    Its shape gives ``noise_dim``.  It is factored once, here, too:
    ``_noise_factor`` is ``cholesky_factor(noise_cov)``, read-only, which
    ``augment`` stacks into the joint belief's factor.  A zero-variance
    component gets a zero row, with no jitter; a rank-deficient
    ``noise_cov`` is repaired here, once, and one beyond repair raises
    NotPositiveDefinite.  The repair's jitters are kept in
    ``_noise_jitters``, which ``augment`` counts at every step, since every
    joint carries the repaired factor.  ``state_dim`` must be an integer >= 1
    (``as_integer``).

    When ``vectorized`` is set, propagate also accepts stacked inputs of
    shape (m, d) / (m, D) and returns (m, d); otherwise ``forward`` calls it
    once per row.
    """

    propagate: Callable
    noise_cov: np.ndarray
    state_dim: int
    vectorized: bool = False
    linearize: Callable | None = None  # (n, x, xi) -> (x_next, d x (d+D)) from one pass
    _noise_factor = None  # noise_cov's Cholesky factor, set in __post_init__; not a field
    _noise_jitters = 0  # the jitters the factor's repair took, set in __post_init__; not a field

    def __post_init__(self):
        object.__setattr__(self, "state_dim", as_integer(self.state_dim, "state_dim"))
        if self.state_dim < 1:
            raise ValueError("state_dim must be >= 1")
        object.__setattr__(self, "noise_cov", as_covariance(self.noise_cov, what="noise_cov"))
        repairs = Diagnostics()
        factor = cholesky_factor(self.noise_cov, repairs)
        factor.flags.writeable = False
        object.__setattr__(self, "_noise_factor", factor)
        object.__setattr__(self, "_noise_jitters", repairs.jitters)

    @property
    def noise_dim(self) -> int:
        return self.noise_cov.shape[0]

    def forward(self, n: int, z: np.ndarray) -> np.ndarray:
        """Push stacked augmented rows z = [x, xi] of shape (m, d+D) through
        the forward map; returns (m, d).  Calls ``propagate`` through
        ``_stacked_rows``, as ``ObsFunction.rows`` calls its map; raises
        DimensionMismatch or, if any output is not finite, DivergedEvaluation."""
        d = self.state_dim
        return _stacked_rows(lambda zs: self.propagate(n, zs[..., :d], zs[..., d:]), self.vectorized, d, z)

    def value_and_jacobian(
        self, n: int, z: np.ndarray, basis: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The forward map at one point z = [x, xi] and its d x (d+D) Jacobian
        times ``basis`` (the identity when None), from ``_linearized`` with rows
        ``forward(n, .)`` and ``linearize`` bound to n (without it, differences of ``forward``)."""
        d = self.state_dim

        def linearize(z, basis):  # one pass gives the value and the raw Jacobian
            value, jac = self.linearize(n, z[:d], z[d:])
            return value, _along(jac, basis, d, len(z))

        rows = lambda zs: self.forward(n, zs)
        return _linearized(rows, d, z, basis, None if self.linearize is None else linearize)

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
    once, here, as ``ProcessModel`` checks ``noise_cov``; its shape gives
    ``obs_dim``.
    """

    observe: Callable
    obs_cov: np.ndarray
    jacobian: Callable | None = None  # (n, x) -> d' x d
    wrap_observation: Callable | None = None
    vectorized: bool = False

    def __post_init__(self):
        object.__setattr__(self, "obs_cov", as_covariance(self.obs_cov, what="obs_cov"))

    @property
    def obs_dim(self) -> int:
        return self.obs_cov.shape[0]

    def at_step(self, n: int) -> "ObsFunction":
        """The observation map frozen at step n, for measurement updates.  An
        analytic ``jacobian`` becomes the map's ``linearize`` hook: the map's
        row at x and ``jacobian(n, x)``, checked by ``_along``, times basis."""
        fn = lambda x: self.observe(n, x)

        def linearize(x, basis):
            value = _stacked_rows(fn, self.vectorized, self.obs_dim, x[None])[0]
            return value, _along(self.jacobian(n, x), basis, self.obs_dim, len(x))

        return ObsFunction(
            fn=fn,
            out_dim=self.obs_dim,
            wrap_observation=self.wrap_observation,
            vectorized=self.vectorized,
            linearize=None if self.jacobian is None else linearize,
        )


@dataclass(frozen=True)
class ObsFunction:
    """An observation map, or the composed map, as the kernels take it.  Its
    rows and linearizations come from ``_stacked_rows`` and ``_linearized``,
    which check every shape and also serve ``ProcessModel``'s forward map,
    without an ObsFunction.  When ``vectorized`` is set, fn maps stacked
    points (m, k) to (m, out_dim); otherwise ``rows`` calls it once per row.
    Its one derivative hook is ``linearize``; without it, rows are differenced.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    out_dim: int
    wrap_observation: Callable | None = None
    vectorized: bool = False
    linearize: Callable | None = None  # (x, basis) -> (value, Jacobian @ basis) from one evaluation

    def rows(self, xs: np.ndarray) -> np.ndarray:
        """The map at stacked points (m, k); returns (m, out_dim), from
        ``_stacked_rows``, the one path that acts on ``vectorized``."""
        return _stacked_rows(self.fn, self.vectorized, self.out_dim, xs)

    def residual(self, y: np.ndarray, predicted: np.ndarray) -> np.ndarray:
        """y - predicted, passed through ``wrap_observation`` when set, which must keep its shape."""
        r = np.subtract(y, predicted)
        if self.wrap_observation is None:
            return r
        return as_shape(self.wrap_observation(r), r.shape, "wrap_observation returned shape")

    def value_and_jacobian(
        self, x: np.ndarray, basis: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``_linearized`` at x along ``basis``, from this map's rows and ``linearize``."""
        return _linearized(self.rows, self.out_dim, x, basis, self.linearize)


@dataclass(frozen=True)
class SdeSpec:
    """Ito SDE dx = b(t,x) dt + s(t,x) dB with simulation step dt and
    ``substeps`` integration steps per observation interval.  The three counts
    follow the integer rule (``as_integer``), and dt the real-number rule (``as_real``), positive."""

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
        for name in ("brownian_dim", "substeps", "state_dim"):
            object.__setattr__(self, name, as_integer(getattr(self, name), name))
        object.__setattr__(self, "dt", as_real(self.dt, "dt", positive=True))
        if self.substeps < 1 or self.brownian_dim < 0:
            raise ValueError("substeps must be >= 1 and brownian_dim >= 0")


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
        # The first substep checks each callback's shape: b as x, s as (d, N)
        # or, for stacked rows, (m, d, N), and db/dx as (d, d).
        x = np.asarray(x, dtype=float)
        for m in range(m_steps):
            t = (n * m_steps + m) * dt
            s = spec.volatility(t, x)
            if m == 0 and np.shape(s) != (d, n_brown):
                as_shape(s, x.shape + (n_brown,), "volatility returned shape")
            if jac is not None:
                b_x = spec.drift_jacobian(t, x)
                # a scalar or 1-D b' (d = 1) broadcasts as its 2-D form would
                if m == 0 and not (d == 1 and np.size(b_x) == 1):
                    as_shape(b_x, (d, d), "drift_jacobian returned shape")
                jac = (eye + np.multiply(dt, b_x)) @ jac
                jac[:, jac_blocks[m]] = s
            w = xi[..., blocks[m]]
            if n_brown == 1:  # one product per component, rounded as the contraction rounds it
                noise = np.asarray(s)[..., 0] * w
            else:
                noise = np.einsum("...ij,...j->...i", s, w)
            b = spec.drift(t, x)
            if m == 0:
                as_shape(b, x.shape, "drift returned shape")
            x = x + dt * b + noise
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
        vectorized=spec.vectorized,
        linearize=linearize,
    )


def augment(prior: Gaussian, model: ProcessModel, n: int, diag: Diagnostics | None = None) -> Gaussian:
    """The joint belief over z = [x, xi]: the state belief stacked with the
    (zero-mean) driving noise for step n, carrying the block stack
    [[L_x, 0], [0, L_Q]] of the prior's factor (``_factor_of``, which counts
    a repair in ``diag``) and the noise's, whose repair at construction
    ``diag`` counts too."""
    d, dd = prior.dim, model.noise_dim
    if d != model.state_dim:
        raise DimensionMismatch(f"prior dim {d} does not match model state dim {model.state_dim}")
    mean = np.zeros(d + dd)
    mean[:d] = prior.mean
    factor = np.zeros((d + dd, d + dd))
    factor[:d, :d] = _factor_of(prior, diag)
    factor[d:, d:] = model._noise_factor
    if diag is not None:
        diag.jitters += model._noise_jitters
    return Gaussian._unchecked(mean, factor)


def composed_observation(process: ProcessModel, obs: ObservationModel, n: int) -> ObsFunction:
    """The observation seen through one forward step: X = [x; xi] maps to the
    predicted observation at step n+1.  Nonlinear whenever the dynamics are,
    even for a linear measurement function.  At one point, one forward pass
    gives x' and the pushed directions J_p @ basis, along which the
    observation map is linearized (or differenced, not in x' units) in turn."""
    obs_next = obs.at_step(n + 1)
    return ObsFunction(
        fn=lambda z: obs_next.rows(process.forward(n, z)),
        out_dim=obs.obs_dim,
        wrap_observation=obs.wrap_observation,
        vectorized=True,
        linearize=lambda z, basis: obs_next.value_and_jacobian(*process.value_and_jacobian(n, z, basis)),
    )
