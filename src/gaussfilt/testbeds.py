"""Benchmark systems: bistable scalar SDE, Lorenz-63, coordinated-turn radar.

Each builder returns a (ProcessModel, ObservationModel) pair; simulate_truth
rolls out a synthetic truth with observations for twin experiments.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionMismatch, DivergedEvaluation, as_integer, as_real, as_shape
from .gaussian import symmetrize
from .models import ObservationModel, ProcessModel, SdeSpec, discretize_sde

IDENTITY_OBS = "identity"
SHIFTED_QUADRATIC_OBS = "shifted_quadratic"
QUADRATIC_SHIFT = 0.05


def _check_reals(spec, positive: tuple) -> None:
    """Store every ``float`` field of ``spec`` as ``as_real`` returns it, the
    fields named in ``positive`` checked as positive too."""
    for f in fields(spec):
        if f.type is float:
            object.__setattr__(spec, f.name, as_real(getattr(spec, f.name), f.name, f.name in positive))


@dataclass(frozen=True)
class BistableSpec:
    """Double-well diffusion dx = beta x (1 - x^2) dt + sigma dB."""

    beta: float = 10.0
    sigma: float = 0.5
    dt: float = 0.01
    substeps: int = 20
    obs_kind: str = IDENTITY_OBS
    obs_var: float = 0.03

    def __post_init__(self):
        object.__setattr__(self, "substeps", as_integer(self.substeps, "substeps"))
        _check_reals(self, ("beta", "dt", "obs_var"))
        if self.obs_kind not in (IDENTITY_OBS, SHIFTED_QUADRATIC_OBS):
            raise ValueError(f"unknown obs_kind {self.obs_kind!r}")


@dataclass(frozen=True)
class Lorenz63Spec:
    """Noisy Lorenz-63 with range observation from a shifted origin."""

    sigma: float = 10.0
    rho: float = 28.0
    beta: float = 8.0 / 3.0
    g: tuple = (0.0, 0.0, 0.5)  # noise scale per component, stored as 3 floats
    dt: float = 0.01
    obs_shift: float = 0.5
    obs_var: float = 0.5

    def __post_init__(self):
        _check_reals(self, ("dt", "obs_var"))
        if np.shape(self.g) != (3,):
            raise ValueError(f"g must hold 3 numbers, got {self.g!r}")
        object.__setattr__(self, "g", tuple(as_real(v, "g") for v in self.g))


@dataclass(frozen=True)
class TurnModelSpec:
    """Planar coordinated turn at an unknown turn rate, range/bearing radar."""

    dt: float = 1.0
    q: float = 1.75e-3
    range_var: float = 100.0
    bearing_var: float = 1e-5

    def __post_init__(self):
        _check_reals(self, ("dt", "range_var", "bearing_var"))
        if self.q < 0:
            raise ValueError(f"q must be >= 0, got {self.q!r}")


@dataclass(frozen=True)
class TruthRun:
    """A simulated truth trajectory with one observation per transition."""

    truth: np.ndarray        # (steps + 1, d), or (R, steps + 1, d) stacked
    observations: np.ndarray  # (steps, d'), or (R, steps, d') stacked


def wrap_angle(theta):
    """Wrap angles into (-pi, pi]."""
    return -((-np.asarray(theta, dtype=float) + np.pi) % (2.0 * np.pi) - np.pi)


def bistable_models(spec: BistableSpec) -> tuple[ProcessModel, ObservationModel]:
    beta, sigma = spec.beta, spec.sigma
    vol = np.array([[sigma]])

    sde = SdeSpec(
        drift=lambda t, x: beta * x * (1.0 - x * x),
        volatility=lambda t, x: vol,
        brownian_dim=1,
        dt=spec.dt,
        substeps=spec.substeps,
        state_dim=1,
        drift_jacobian=lambda t, x: np.array([[beta * (1.0 - 3.0 * x[0] ** 2)]]),
        volatility_state_independent=True,
        vectorized=True,
    )
    process = discretize_sde(sde)

    r = np.array([[spec.obs_var]])
    if spec.obs_kind == IDENTITY_OBS:
        obs = ObservationModel(
            observe=lambda n, x: np.asarray(x, dtype=float),
            obs_cov=r,
            jacobian=lambda n, x: np.array([[1.0]]),
            vectorized=True,
        )
    else:
        c = QUADRATIC_SHIFT
        obs = ObservationModel(
            observe=lambda n, x: (np.asarray(x, dtype=float) - c) ** 2,
            obs_cov=r,
            jacobian=lambda n, x: np.array([[2.0 * (x[0] - c)]]),
            vectorized=True,
        )
    return process, obs


def lorenz63_models(spec: Lorenz63Spec) -> tuple[ProcessModel, ObservationModel]:
    s, rho, b = spec.sigma, spec.rho, spec.beta
    vol = np.diag(spec.g)

    def drift(t, x):
        x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
        return np.stack(
            [s * (x2 - x1), rho * x1 - x2 - x1 * x3, x1 * x2 - b * x3], axis=-1
        )

    def drift_jacobian(t, x):
        x1, x2, x3 = x
        return np.array(
            [[-s, s, 0.0], [rho - x3, -1.0, -x1], [x2, x1, -b]]
        )

    sde = SdeSpec(
        drift=drift,
        volatility=lambda t, x: vol,
        brownian_dim=3,
        dt=spec.dt,
        substeps=1,
        state_dim=3,
        drift_jacobian=drift_jacobian,
        volatility_state_independent=True,
        vectorized=True,
    )
    process = discretize_sde(sde)

    shift = spec.obs_shift

    def observe(n, x):
        x = np.asarray(x, dtype=float)
        r = np.asarray(
            np.sqrt((x[..., 0] - shift) ** 2 + x[..., 1] ** 2 + x[..., 2] ** 2)
        )
        return r[..., None]

    def obs_jacobian(n, x):
        rho_x = float(np.sqrt((x[0] - shift) ** 2 + x[1] ** 2 + x[2] ** 2))
        rho_x = max(rho_x, 1e-12)
        return np.array([[(x[0] - shift) / rho_x, x[1] / rho_x, x[2] / rho_x]])

    obs = ObservationModel(
        observe=observe,
        obs_cov=np.array([[spec.obs_var]]),
        jacobian=obs_jacobian,
        vectorized=True,
    )
    return process, obs


_OMEGA_SMALL = 1e-8


def turn_models(spec: TurnModelSpec) -> tuple[ProcessModel, ObservationModel]:
    dt = spec.dt
    gamma = np.array(
        [
            [dt**3 / 3.0, dt**2 / 2.0, 0.0, 0.0, 0.0],
            [dt**2 / 2.0, dt, 0.0, 0.0, 0.0],
            [0.0, 0.0, dt**3 / 3.0, dt**2 / 2.0, 0.0],
            [0.0, 0.0, dt**2 / 2.0, dt, 0.0],
            [0.0, 0.0, 0.0, 0.0, spec.q * dt],
        ]
    )

    def propagate(n, x, xi):
        x = np.asarray(x, dtype=float)
        om = x[..., 4]
        wd = om * dt
        c, s = np.cos(wd), np.sin(wd)
        small = np.abs(om) < _OMEGA_SMALL
        if small.any():  # the limits at omega = 0; elsewhere the same quotients
            om_safe = np.where(small, 1.0, om)
            swo = np.where(small, dt, s / om_safe)
            cwo_m1 = np.where(small, 0.0, (c - 1.0) / om_safe)
            one_m_cwo = np.where(small, 0.0, (1.0 - c) / om_safe)
        else:
            swo, cwo_m1, one_m_cwo = s / om, (c - 1.0) / om, (1.0 - c) / om
        px, vx, py, vy = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
        out = np.empty(x.shape)
        out[..., 0] = px + swo * vx + cwo_m1 * vy
        out[..., 1] = c * vx - s * vy
        out[..., 2] = py + one_m_cwo * vx + swo * vy
        out[..., 3] = s * vx + c * vy
        out[..., 4] = om
        out += xi
        return out

    def observe(n, x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape[:-1] + (2,))
        out[..., 0] = np.sqrt(x[..., 0] ** 2 + x[..., 2] ** 2)
        out[..., 1] = np.arctan2(x[..., 2], x[..., 0])
        return out

    def obs_jacobian(n, x):
        px, py = x[0], x[2]
        rho = max(float(np.hypot(px, py)), 1e-12)
        return np.array(
            [
                [px / rho, 0.0, py / rho, 0.0, 0.0],
                [-py / rho**2, 0.0, px / rho**2, 0.0, 0.0],
            ]
        )

    def wrap_observation(y):
        y = np.array(y, dtype=float)
        y[..., 1] = wrap_angle(y[..., 1])
        return y

    process = ProcessModel(
        propagate=propagate,
        noise_cov=gamma,
        state_dim=5,
        vectorized=True,
    )
    obs = ObservationModel(
        observe=observe,
        obs_cov=np.diag([spec.range_var, spec.bearing_var]),
        jacobian=obs_jacobian,
        wrap_observation=wrap_observation,
        vectorized=True,
    )
    return process, obs


def psd_sqrt(c: np.ndarray) -> np.ndarray:
    """Symmetric square root of a PSD matrix via eigendecomposition;
    exact zeros stay exactly zero (needed for degenerate noise blocks)."""
    c = np.atleast_2d(np.asarray(c, dtype=float))
    if not c.size:
        return c
    vals, vecs = np.linalg.eigh(symmetrize(c))
    return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def simulate_truth(
    process: ProcessModel,
    obs: ObservationModel,
    x0: np.ndarray,
    steps: int,
    rng: np.random.Generator | list[np.random.Generator],
) -> TruthRun:
    """Roll out the truth and synthetic observations for a twin experiment,
    evaluating the models as the filters do; a state or observation that is not
    finite, or not of its shape, raises DivergedEvaluation, or DimensionMismatch,
    naming the truth rollout and its step.
    Stacked x0 (R, d) with R generators, one per row, gives (R, ...) arrays
    from one model call per step; row r draws xi_n, then eta_n, from rng[r]."""
    steps = as_integer(steps, "steps")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    s_gamma = psd_sqrt(process.noise_cov)
    s_r = psd_sqrt(obs.obs_cov)
    x = np.atleast_2d(np.asarray(x0, dtype=float))
    rngs = list(rng) if np.ndim(x0) == 2 else [rng]
    # one product per row: a stacked Z @ S.T rounds differently
    draw = lambda sqrt_cov: np.array([sqrt_cov @ g.standard_normal(len(sqrt_cov)) for g in rngs])
    truth = [x]
    ys = []
    for n in range(steps):
        try:
            x = process.forward(n, np.concatenate([x, draw(s_gamma)], axis=1))
            y = obs.at_step(n + 1).rows(x) + draw(s_r)
            if obs.wrap_observation is not None:
                y = as_shape(obs.wrap_observation(y), y.shape, "wrap_observation returned shape")
        except (DivergedEvaluation, DimensionMismatch) as exc:
            failed = "diverged" if isinstance(exc, DivergedEvaluation) else "failed"
            raise type(exc)(f"truth rollout {failed} at step {n + 1}: {exc}") from exc
        truth.append(x)
        ys.append(y)
    truth, ys = np.stack(truth, axis=1), np.stack(ys, axis=1)
    return TruthRun(truth, ys) if np.ndim(x0) == 2 else TruthRun(truth[0], ys[0])
