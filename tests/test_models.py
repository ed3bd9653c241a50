"""Model abstractions: SDE discretization, augmentation, composed maps."""

import dataclasses

import numpy as np
import pytest

from gaussfilt import (
    BistableSpec,
    Gaussian,
    Lorenz63Spec,
    ObservationModel,
    ProcessModel,
    SdeSpec,
    TurnModelSpec,
    augment,
    bistable_models,
    composed_observation,
    discretize_sde,
    lorenz63_models,
    turn_models,
)
from gaussfilt.errors import DimensionMismatch, DivergedEvaluation
from gaussfilt.models import ObsFunction, central_difference


class TestFiniteDifferenceJacobian:
    def test_linear_map_exact(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        j = central_difference(ObsFunction(lambda x: a @ x, out_dim=3).rows, np.array([0.3, -0.7]))
        assert np.max(np.abs(j - a)) <= 1e-7

    def test_quadratic(self):
        j = central_difference(ObsFunction(lambda x: np.array([x[0] ** 2]), out_dim=1).rows, np.array([3.0]))
        assert np.isclose(j[0, 0], 6.0, atol=1e-5)


class TestDiscretizeSde:
    def test_pure_diffusion(self):
        spec = SdeSpec(
            drift=lambda t, x: np.zeros_like(x),
            volatility=lambda t, x: np.eye(1),
            brownian_dim=1,
            dt=0.01,
        )
        model = discretize_sde(spec)
        assert np.allclose(model.propagate(0, np.array([1.5]), np.array([0.25])), [1.75])
        assert np.allclose(model.noise_cov, [[0.01]])

    def test_cubic_drift_single_step(self):
        # One Euler step from 0.8 with beta = 10: 0.8 + 0.01*10*0.8*(1-0.64)
        beta = 10.0
        spec = SdeSpec(
            drift=lambda t, x: beta * x * (1.0 - x * x),
            volatility=lambda t, x: np.array([[0.5]]),
            brownian_dim=1,
            dt=0.01,
        )
        model = discretize_sde(spec)
        out = model.propagate(0, np.array([0.8]), np.zeros(1))
        assert np.isclose(out[0], 0.8288)

    def test_substeps_stack_noise(self):
        spec = SdeSpec(
            drift=lambda t, x: np.zeros_like(x),
            volatility=lambda t, x: np.array([[0.5]]),
            brownian_dim=1,
            dt=0.01,
            substeps=20,
        )
        model = discretize_sde(spec)
        assert model.noise_dim == 20
        assert np.allclose(model.noise_cov, 0.01 * np.eye(20))

    def test_zero_volatility_is_deterministic(self):
        spec = SdeSpec(
            drift=lambda t, x: -x,
            volatility=lambda t, x: np.zeros((1, 1)),
            brownian_dim=1,
            dt=0.1,
            substeps=5,
        )
        model = discretize_sde(spec)
        x = np.array([1.0])
        a = model.propagate(0, x, np.zeros(5))
        b = model.propagate(0, x, np.ones(5))
        assert np.allclose(a, b)

    def test_chain_rule_jacobian_matches_finite_differences(self):
        beta = 10.0
        spec = SdeSpec(
            drift=lambda t, x: beta * x * (1.0 - x * x),
            volatility=lambda t, x: np.array([[0.5]]),
            brownian_dim=1,
            dt=0.01,
            substeps=3,
            drift_jacobian=lambda t, x: np.array([[beta * (1.0 - 3.0 * x[0] ** 2)]]),
            volatility_state_independent=True,
        )
        model = discretize_sde(spec)
        assert model.linearize is not None
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, xi = rng.standard_normal(1), 0.1 * rng.standard_normal(3)
            analytic = model.full_jacobian(0, x, xi)
            numeric = central_difference(model.at_step(0).rows, np.concatenate([x, xi]))
            assert np.max(np.abs(analytic - numeric)) <= 1e-5 * (1 + np.max(np.abs(analytic)))

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            SdeSpec(drift=None, volatility=None, brownian_dim=1, dt=-1.0)


class TestAugment:
    def test_block_structure(self):
        model = ProcessModel(
            propagate=lambda n, x, xi: x + xi,
            noise_cov=np.array([[0.0025]]),
            state_dim=1,
            noise_dim=1,
        )
        aug = augment(Gaussian([0.8], [[0.02]]), model, 0)
        assert np.allclose(aug.mean, [0.8, 0.0])
        assert np.allclose(aug.cov, np.diag([0.02, 0.0025]))

    def test_state_marginal_preserved(self):
        model = ProcessModel(
            propagate=lambda n, x, xi: x,
            noise_cov=np.eye(3),
            state_dim=2,
            noise_dim=3,
        )
        prior = Gaussian([1.0, -1.0], [[2.0, 0.3], [0.3, 1.0]])
        aug = augment(prior, model, 0)
        assert aug.dim == 5
        assert np.array_equal(aug.mean[:2], prior.mean)
        assert np.array_equal(aug.cov[:2, :2], prior.cov)
        assert np.allclose(aug.cov[:2, 2:], 0.0)

    def test_dimension_mismatch(self):
        model = ProcessModel(
            propagate=lambda n, x, xi: x,
            noise_cov=np.eye(1),
            state_dim=1,
            noise_dim=1,
        )
        with pytest.raises(DimensionMismatch):
            augment(Gaussian([0.0, 0.0], np.eye(2)), model, 0)


class TestProcessModelNoiseCov:
    """noise_cov is checked when the model is built, so a bad one never
    reaches ``augment`` inside a filter run."""

    @pytest.mark.parametrize(
        "noise_cov, match",
        [
            (np.array([[1.0, 0.5], [0.0, 1.0]]), "symmetric"),
            (np.array([[1.0, 2.0], [2.0, 1.0]]), "positive semi-definite"),
            (np.eye(3), "shape"),
            (np.array([[np.nan, 0.0], [0.0, 1.0]]), "not finite"),
            (np.array([[np.inf, 0.0], [0.0, 1.0]]), "not finite"),
        ],
    )
    def test_rejected_at_construction(self, noise_cov, match):
        with pytest.raises(ValueError, match=match):
            ProcessModel(propagate=lambda n, x, xi: x, noise_cov=noise_cov, state_dim=1, noise_dim=2)

    def test_accepted_as_nested_lists(self):
        model = ProcessModel(propagate=lambda n, x, xi: x, noise_cov=[[0.5]], state_dim=1, noise_dim=1)
        assert model.noise_cov.dtype == float and model.noise_cov.shape == (1, 1)


class TestObservationModelObsCov:
    """obs_cov is checked when the model is built, so a bad one never
    reaches a measurement update inside a filter run."""

    @pytest.mark.parametrize(
        "obs_cov, match",
        [
            (np.array([[1.0, 0.5], [0.0, 1.0]]), "symmetric"),
            (np.array([[1.0, 2.0], [2.0, 1.0]]), "positive semi-definite"),
            (np.eye(3), "shape"),
            (np.array([[np.nan, 0.0], [0.0, 1.0]]), "not finite"),
            (np.array([[np.inf, 0.0], [0.0, 1.0]]), "not finite"),
        ],
    )
    def test_rejected_at_construction(self, obs_cov, match):
        with pytest.raises(ValueError, match=match):
            ObservationModel(observe=lambda n, x: x, obs_cov=obs_cov, obs_dim=2)

    def test_accepted_as_nested_lists(self):
        obs = ObservationModel(observe=lambda n, x: x, obs_cov=[[0.5, 0.1], [0.1, 0.5]], obs_dim=2)
        assert obs.obs_cov.dtype == float and obs.obs_cov.shape == (2, 2)


class TestComposedObservation:
    def _random_walk(self):
        return ProcessModel(
            propagate=lambda n, x, xi: x + xi,
            noise_cov=np.eye(1),
            state_dim=1,
            noise_dim=1,
        )

    def test_identity_composition(self):
        obs = ObservationModel(
            observe=lambda n, x: x,
            obs_cov=np.eye(1),
            obs_dim=1,
        )
        psi = composed_observation(self._random_walk(), obs, 0)
        assert np.allclose(psi(np.array([1.5, 0.25])), [1.75])

    def test_cubic_dynamics_identity_obs(self):
        beta = 10.0
        spec = SdeSpec(
            drift=lambda t, x: beta * x * (1.0 - x * x),
            volatility=lambda t, x: np.array([[0.5]]),
            brownian_dim=1,
            dt=0.01,
        )
        process = discretize_sde(spec)
        obs = ObservationModel(observe=lambda n, x: x, obs_cov=np.eye(1), obs_dim=1)
        psi = composed_observation(process, obs, 0)
        assert np.isclose(psi(np.array([0.8, 0.0]))[0], 0.8288)

    def test_static_dynamics_quadratic_obs(self):
        process = ProcessModel(
            propagate=lambda n, x, xi: x,
            noise_cov=np.eye(1),
            state_dim=1,
            noise_dim=1,
        )
        obs = ObservationModel(
            observe=lambda n, x: (x - 0.05) ** 2,
            obs_cov=np.eye(1),
            obs_dim=1,
        )
        psi = composed_observation(process, obs, 0)
        assert np.isclose(psi(np.array([0.3, 9.9]))[0], 0.0625)

    def test_chain_rule_jacobian(self):
        a = np.array([[0.9, 0.1], [0.0, 0.8]])
        process = ProcessModel(
            propagate=lambda n, x, xi: a @ x + xi,
            noise_cov=np.eye(2),
            state_dim=2,
            noise_dim=2,
            jacobian=lambda n, x, xi: np.hstack([a, np.eye(2)]),
        )
        h = np.array([[1.0, -1.0]])
        obs = ObservationModel(
            observe=lambda n, x: h @ x,
            obs_cov=np.eye(1),
            obs_dim=1,
            jacobian=lambda n, x: h,
        )
        psi = composed_observation(process, obs, 0)
        z = np.array([0.5, -0.5, 0.1, 0.2])
        assert np.allclose(psi.value_and_jacobian(z)[1], np.hstack([h @ a, h]))


def _two_loop_reference(spec):
    """discretize_sde's forward map and chain-rule Jacobian written as two
    separate substep loops, as the reference for the shared integrator."""
    d, n_brown, m_steps, dt = spec.state_dim, spec.brownian_dim, spec.substeps, spec.dt

    def propagate(n, x, xi):
        x = np.asarray(x, dtype=float)
        for m in range(m_steps):
            t = (n * m_steps + m) * dt
            w = xi[..., m * n_brown:(m + 1) * n_brown]
            x = x + dt * spec.drift(t, x) + np.einsum("...ij,...j->...i", spec.volatility(t, x), w)
        return x

    def jacobian(n, x, xi):
        jx = np.eye(d)
        noise_cols = np.zeros((d, m_steps * n_brown))
        x = np.asarray(x, dtype=float)
        for m in range(m_steps):
            t = (n * m_steps + m) * dt
            a = np.eye(d) + dt * np.atleast_2d(spec.drift_jacobian(t, x))
            s = np.atleast_2d(spec.volatility(t, x)).reshape(d, n_brown)
            noise_cols = a @ noise_cols
            noise_cols[:, m * n_brown:(m + 1) * n_brown] = s
            jx = a @ jx
            x = x + dt * spec.drift(t, x) + s @ xi[m * n_brown:(m + 1) * n_brown]
        return np.hstack([jx, noise_cols])

    return propagate, jacobian


def _bistable_sde():
    beta = 10.0
    return SdeSpec(
        drift=lambda t, x: beta * x * (1.0 - x * x),
        volatility=lambda t, x: np.array([[0.5]]),
        brownian_dim=1,
        dt=0.01,
        substeps=20,
        drift_jacobian=lambda t, x: np.array([[beta * (1.0 - 3.0 * x[0] ** 2)]]),
        volatility_state_independent=True,
        vectorized=True,
    )


def _lorenz63_sde():
    s, rho, b = 10.0, 28.0, 8.0 / 3.0

    def drift(t, x):
        x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
        return np.stack([s * (x2 - x1), rho * x1 - x2 - x1 * x3, x1 * x2 - b * x3], axis=-1)

    def drift_jacobian(t, x):
        x1, x2, x3 = x
        return np.array([[-s, s, 0.0], [rho - x3, -1.0, -x1], [x2, x1, -b]])

    return SdeSpec(
        drift=drift,
        volatility=lambda t, x: np.diag([0.0, 0.0, 0.5]),
        brownian_dim=3,
        dt=0.01,
        state_dim=3,
        drift_jacobian=drift_jacobian,
        volatility_state_independent=True,
        vectorized=True,
    )


class TestSharedIntegrator:
    @pytest.mark.parametrize("make_spec,scale", [(_bistable_sde, 1.0), (_lorenz63_sde, 10.0)])
    def test_matches_two_loop_reference_bit_for_bit(self, make_spec, scale):
        spec = make_spec()
        model = discretize_sde(spec)
        ref_propagate, ref_jacobian = _two_loop_reference(spec)
        rng = np.random.default_rng(3)
        d, dd = model.state_dim, model.noise_dim
        for n in (0, 1, 7):
            x = scale * rng.standard_normal(d)
            xi = np.sqrt(spec.dt) * rng.standard_normal(dd)
            assert model.propagate(n, x, xi).tobytes() == ref_propagate(n, x, xi).tobytes()
            assert model.full_jacobian(n, x, xi).tobytes() == ref_jacobian(n, x, xi).tobytes()
            xs = scale * rng.standard_normal((5, d))
            xis = np.sqrt(spec.dt) * rng.standard_normal((5, dd))
            assert model.propagate(n, xs, xis).tobytes() == ref_propagate(n, xs, xis).tobytes()


@pytest.mark.parametrize(
    "form",
    [lambda v: v, lambda v: [[v]], lambda v: np.array([v]), lambda v: np.float64(v)],
    ids=["float", "nested-list", "1-D", "numpy-scalar"],
)
def test_scalar_drift_jacobian_forms_give_one_linearization(form):
    spec = _bistable_sde()
    rng = np.random.default_rng(4)
    z = np.concatenate([[0.6], 0.1 * rng.standard_normal(spec.substeps)])
    ref = discretize_sde(spec).value_and_jacobian(2, z)
    other = dataclasses.replace(
        spec, drift_jacobian=lambda t, x: form(10.0 * (1.0 - 3.0 * x[0] ** 2))
    )
    value, jac = discretize_sde(other).value_and_jacobian(2, z)
    assert value.tobytes() == ref[0].tobytes() and jac.tobytes() == ref[1].tobytes()


def test_one_point_and_stacked_rows_agree_for_a_dense_volatility():
    # Each state component takes noise from all three Brownian dimensions, so
    # the noise term is a sum that a different contraction would round
    # differently.
    rng = np.random.default_rng(8)
    vol = rng.standard_normal((3, 3))
    spec = dataclasses.replace(_lorenz63_sde(), volatility=lambda t, x: vol, substeps=4)
    process = discretize_sde(spec)
    ref_propagate, _ = _two_loop_reference(spec)
    for n in (0, 2):
        zs = np.hstack([rng.standard_normal((6, 3)), 0.1 * rng.standard_normal((6, 12))])
        rows = process.forward(n, zs)
        for z, row in zip(zs, rows):
            assert process.value_and_jacobian(n, z)[0].tobytes() == row.tobytes()
            assert process.propagate(n, z[:3], z[3:]).tobytes() == row.tobytes()
            assert ref_propagate(n, z[:3], z[3:]).tobytes() == row.tobytes()


def _pendulum_process(jacobian):
    """A non-vectorized user model: a damped pendulum step driven in velocity."""
    dt = 0.05

    def propagate(n, x, xi):
        return np.array([x[0] + dt * x[1], x[1] - dt * np.sin(x[0]) + xi[0]])

    def jac(n, x, xi):
        return np.array([[1.0, dt, 0.0], [-dt * np.cos(x[0]), 1.0, 1.0]])

    return ProcessModel(
        propagate=propagate,
        noise_cov=np.eye(1),
        state_dim=2,
        noise_dim=1,
        jacobian=jac if jacobian else None,
    )


class TestValueAndJacobian:
    """One call gives the forward map's value and Jacobian at a point, bit for
    bit what the separate value and Jacobian paths give."""

    @pytest.mark.parametrize(
        "make_process",
        [
            lambda: discretize_sde(_bistable_sde()),
            lambda: discretize_sde(_lorenz63_sde()),
            lambda: turn_models(TurnModelSpec())[0],
            lambda: _pendulum_process(jacobian=True),
            lambda: _pendulum_process(jacobian=False),
        ],
        ids=["bistable", "lorenz63", "turn", "user-analytic", "user-differenced"],
    )
    def test_matches_forward_and_full_jacobian(self, make_process):
        process = make_process()
        d, dd = process.state_dim, process.noise_dim
        rng = np.random.default_rng(11)
        for n in (0, 3):
            for _ in range(5):
                z = np.concatenate([rng.standard_normal(d), 0.1 * rng.standard_normal(dd)])
                value, jac = process.value_and_jacobian(n, z)
                assert value.tobytes() == process.forward(n, z[None])[0].tobytes()
                assert jac.tobytes() == process.full_jacobian(n, z[:d], z[d:]).tobytes()

    @pytest.mark.parametrize("make_spec", [_bistable_sde, _lorenz63_sde])
    def test_sde_jacobian_matches_two_loop_reference(self, make_spec):
        spec = make_spec()
        process = discretize_sde(spec)
        _, ref_jacobian = _two_loop_reference(spec)
        d, dd = process.state_dim, process.noise_dim
        rng = np.random.default_rng(12)
        for n in (0, 5):
            x, xi = rng.standard_normal(d), 0.1 * rng.standard_normal(dd)
            jac = process.value_and_jacobian(n, np.concatenate([x, xi]))[1]
            assert jac.tobytes() == ref_jacobian(n, x, xi).tobytes()

    @pytest.mark.parametrize(
        "models",
        [
            lambda: bistable_models(BistableSpec(obs_kind="shifted_quadratic")),
            lambda: lorenz63_models(Lorenz63Spec()),
            lambda: turn_models(TurnModelSpec()),
        ],
        ids=["bistable", "lorenz63", "turn"],
    )
    def test_composed_map_joint_equals_value_and_chain_rule(self, models):
        process, obs = models()
        d, dd = process.state_dim, process.noise_dim
        psi = composed_observation(process, obs, 2)
        rng = np.random.default_rng(13)
        for _ in range(5):
            z = np.concatenate([rng.standard_normal(d), 0.1 * rng.standard_normal(dd)])
            if d == 5:  # the turn model: a position far from the radar
                z[:d] = [1e3, 3e2, 1e3, 0.0, -0.05] + z[:d]
            value, jac = psi.value_and_jacobian(z)
            x_next = process.forward(2, z[None])[0]
            chain = obs.at_step(3).value_and_jacobian(x_next)[1] @ process.full_jacobian(2, z[:d], z[d:])
            assert value.tobytes() == psi.rows(z[None])[0].tobytes()
            assert jac.tobytes() == chain.tobytes()
            assert jac.tobytes() == psi.value_and_jacobian(z)[1].tobytes()

    def test_non_finite_jacobian_raises_diverged(self):
        process = ProcessModel(
            propagate=lambda n, x, xi: x + xi,
            noise_cov=np.eye(1),
            state_dim=1,
            noise_dim=1,
            jacobian=lambda n, x, xi: np.array([[np.inf, 1.0]]),
        )
        obs = ObservationModel(
            observe=lambda n, x: x, obs_cov=np.eye(1), obs_dim=1, jacobian=lambda n, x: [[np.nan]]
        )
        z = np.array([0.2, 0.1])
        with pytest.raises(DivergedEvaluation, match="not finite"):
            process.value_and_jacobian(0, z)
        with pytest.raises(DivergedEvaluation, match="not finite"):
            obs.at_step(1).value_and_jacobian(z[:1])[1]
