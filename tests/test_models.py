"""Model abstractions: SDE discretization, augmentation, composed maps."""

import dataclasses

import numpy as np
import pytest

from gaussfilt import (
    BistableSpec,
    FilterKind,
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
    run_filter,
    turn_models,
)
from gaussfilt.errors import DimensionMismatch, DivergedEvaluation
from gaussfilt.gaussian import cholesky_factor
from gaussfilt.models import ObsFunction, central_difference, difference_step


def _analytic_maps():
    """name -> (map, its analytic Jacobian at a point, centre, sd) for the
    Lorenz-63 forward map and range observation, and the radar."""
    process, lorenz_obs = lorenz63_models(Lorenz63Spec())
    _, radar = turn_models(TurnModelSpec())
    forward = ObsFunction(lambda z: process.forward(0, z), out_dim=3, vectorized=True)
    return {
        "lorenz63-forward": (
            forward, lambda z: process.value_and_jacobian(0, z)[1], np.zeros(6), np.array([10.0] * 3 + [0.1] * 3)
        ),
        "lorenz63-range": (lorenz_obs.at_step(0), lambda x: lorenz_obs.jacobian(0, x), np.zeros(3), np.full(3, 10.0)),
        "radar": (
            radar.at_step(0),
            lambda x: radar.jacobian(0, x),
            np.array([1e3, 3e2, 1e3, 0.0, -0.05]),
            np.array([10.0, 3.0, 10.0, 3.0, 1e-2]),
        ),
    }


class TestFiniteDifferenceJacobian:
    def test_linear_map_exact(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        j = central_difference(ObsFunction(lambda x: a @ x, out_dim=3).rows, np.array([0.3, -0.7]))
        assert np.max(np.abs(j - a)) <= 1e-7

    def test_quadratic(self):
        j = central_difference(ObsFunction(lambda x: np.array([x[0] ** 2]), out_dim=1).rows, np.array([3.0]))
        assert np.isclose(j[0, 0], 6.0, atol=1e-5)

    @pytest.mark.parametrize("name", ["lorenz63-forward", "lorenz63-range", "radar"])
    def test_along_a_basis_matches_the_analytic_jacobian(self, name):
        # The derivatives along the columns of a random factor B, at prior
        # scales, are J @ B.
        fn, jacobian, centre, sd = _analytic_maps()[name]
        rng = np.random.default_rng(21)
        for _ in range(10):
            x = centre + sd * rng.standard_normal(len(sd))
            basis = np.tril(rng.standard_normal((len(sd), len(sd)))) * sd[:, None]
            exact = np.atleast_2d(jacobian(x)) @ basis
            numeric = central_difference(fn.rows, x, basis)
            assert np.max(np.abs(numeric - exact)) <= 1e-6 * np.max(np.abs(exact))

    @pytest.mark.parametrize("name, bound", [("lorenz63-forward", 1e-9), ("radar", 1e-8)])
    def test_step_balances_rounding_against_truncation(self, name, bound):
        # h = difference_step(x, basis, 1/3), the rounding-optimal step of a
        # central difference.  Over these 50 draws the worst relative errors
        # are 2.7e-11 (the Lorenz-63 forward map, quadratic, so rounding only)
        # and 1.2e-9 (the radar); the forward-difference step, power 1/2,
        # reached 6.4e-9 and 2.0e-7.
        fn, jacobian, centre, sd = _analytic_maps()[name]
        rng = np.random.default_rng(21)
        for _ in range(50):
            x = centre + sd * rng.standard_normal(len(sd))
            basis = np.tril(rng.standard_normal((len(sd), len(sd)))) * sd[:, None]
            exact = np.atleast_2d(jacobian(x)) @ basis
            numeric = central_difference(fn.rows, x, basis)
            assert np.max(np.abs(numeric - exact)) <= bound * np.max(np.abs(exact))

    def test_zero_basis_row_leaves_the_step_finite(self):
        # A coordinate the basis does not move (here one far from the origin)
        # stays out of the step's max: the step and derivatives stay finite.
        a = np.array([[1.0, 2.0, 0.0], [0.5, -1.0, 0.0]])
        fn = ObsFunction(lambda x: np.array([np.sin(x[0]), x[1] ** 2]) + a @ x, out_dim=2)
        x = np.array([0.3, -0.7, 1e300])
        basis = np.array([[1.0, 0.0], [0.5, 2.0], [0.0, 0.0]])
        assert difference_step(x, basis, 0.5) == difference_step(x[:2], basis[:2], 0.5)
        numeric = central_difference(fn.rows, x, basis)
        exact = (np.array([[np.cos(x[0]), 0.0, 0.0], [0.0, 2.0 * x[1], 0.0]]) + a) @ basis
        assert np.max(np.abs(numeric - exact)) <= 1e-6


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
            numeric = central_difference(lambda z: model.forward(0, z), np.concatenate([x, xi]))
            assert np.max(np.abs(analytic - numeric)) <= 1e-5 * (1 + np.max(np.abs(analytic)))

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            SdeSpec(drift=None, volatility=None, brownian_dim=1, dt=-1.0)

    @pytest.mark.parametrize("dt", [0.0, np.nan, np.inf, True])
    def test_dt_must_be_positive_and_finite(self, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            SdeSpec(drift=None, volatility=None, brownian_dim=1, dt=dt)

    @pytest.mark.parametrize("dt", ["0.1", [0.1], np.array([0.1]), np.array(0.1)])
    def test_dt_must_be_one_real_number(self, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            SdeSpec(drift=None, volatility=None, brownian_dim=1, dt=dt)

    def test_dt_is_stored_as_a_float(self):
        spec = SdeSpec(drift=None, volatility=None, brownian_dim=1, dt=np.float32(0.5))
        assert type(spec.dt) is float and spec.dt == 0.5

    @pytest.mark.parametrize("counts", [{"substeps": 0}, {"brownian_dim": -1}])
    def test_counts_must_be_in_range(self, counts):
        with pytest.raises(ValueError, match="substeps must be >= 1 and brownian_dim >= 0"):
            SdeSpec(drift=None, volatility=None, **{"brownian_dim": 1, "dt": 0.1, **counts})

    @pytest.mark.parametrize("name", ["brownian_dim", "substeps", "state_dim"])
    @pytest.mark.parametrize("value", [2.5, True, "2"])
    def test_counts_must_be_integers(self, name, value):
        counts = {"brownian_dim": 1, "substeps": 1, "state_dim": 1, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SdeSpec(drift=None, volatility=None, dt=0.1, **counts)

    def test_integral_float_counts_are_stored_as_ints(self):
        spec = SdeSpec(
            drift=lambda t, x: -x, volatility=lambda t, x: np.eye(1), brownian_dim=1.0, dt=0.1, substeps=2.0
        )
        assert (spec.brownian_dim, spec.substeps) == (1, 2)
        assert all(type(v) is int for v in (spec.brownian_dim, spec.substeps, spec.state_dim))
        assert discretize_sde(spec).noise_dim == 2


class TestAugment:
    def test_block_structure(self):
        model = ProcessModel(
            propagate=lambda n, x, xi: x + xi,
            noise_cov=np.array([[0.0025]]),
            state_dim=1,
        )
        aug = augment(Gaussian([0.8], [[0.02]]), model, 0)
        assert np.allclose(aug.mean, [0.8, 0.0])
        assert np.allclose(aug.cov, np.diag([0.02, 0.0025]))

    def test_state_marginal_preserved(self):
        model = ProcessModel(
            propagate=lambda n, x, xi: x,
            noise_cov=np.eye(3),
            state_dim=2,
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
        )
        with pytest.raises(DimensionMismatch):
            augment(Gaussian([0.0, 0.0], np.eye(2)), model, 0)

    @staticmethod
    def _carrying(mean, cov):
        """A belief as a kernel returns it, carrying its Cholesky factor."""
        cov = np.asarray(cov, dtype=float)
        return Gaussian._unchecked(np.asarray(mean, dtype=float), cov, np.linalg.cholesky(cov))

    def test_carries_the_block_stack_of_factors(self):
        noise_cov = np.array([[0.5, 0.1, 0.0], [0.1, 0.4, 0.2], [0.0, 0.2, 0.3]])
        model = ProcessModel(propagate=lambda n, x, xi: x + xi[..., :2], noise_cov=noise_cov, state_dim=2)
        assert model._noise_factor.tobytes() == cholesky_factor(noise_cov).tobytes()
        assert not model._noise_factor.flags.writeable
        prior = self._carrying([1.0, -1.0], [[2.0, 0.3], [0.3, 1.0]])
        aug = augment(prior, model, 0)
        want = np.zeros((5, 5))
        want[:2, :2], want[2:, 2:] = prior._factor, model._noise_factor
        assert aug._factor.tobytes() == want.tobytes()
        assert not aug._factor.flags.writeable
        assert aug.cov.tobytes() == np.block([[prior.cov, np.zeros((2, 3))], [np.zeros((3, 2)), noise_cov]]).tobytes()

    def test_carries_no_factor_without_both_parts(self):
        model = ProcessModel(propagate=lambda n, x, xi: x + xi, noise_cov=np.eye(1), state_dim=1)
        # a checked prior carries no factor
        assert augment(Gaussian([0.8], [[0.02]]), model, 0)._factor is None
        # a noise component with zero variance does not factor as given
        degenerate = ProcessModel(propagate=lambda n, x, xi: x + xi[..., :1], noise_cov=np.diag([1.0, 0.0]), state_dim=1)
        assert degenerate._noise_factor is None
        assert augment(self._carrying([0.8], [[0.02]]), degenerate, 0)._factor is None
        process, _ = turn_models(TurnModelSpec(q=0.0))
        assert process._noise_factor is None


class TestProcessModelNoiseCov:
    """noise_cov is checked when the model is built, so a bad one never
    reaches ``augment`` inside a filter run."""

    @pytest.mark.parametrize(
        "noise_cov, match",
        [
            (np.array([[1.0, 0.5], [0.0, 1.0]]), "symmetric"),
            (np.array([[1.0, 2.0], [2.0, 1.0]]), "positive semi-definite"),
            (np.ones((2, 3)), "shape"),
            (np.array([[np.nan, 0.0], [0.0, 1.0]]), "not finite"),
            (np.array([[np.inf, 0.0], [0.0, 1.0]]), "not finite"),
        ],
    )
    def test_rejected_at_construction(self, noise_cov, match):
        with pytest.raises(ValueError, match=match):
            ProcessModel(propagate=lambda n, x, xi: x, noise_cov=noise_cov, state_dim=1)

    def test_accepted_as_nested_lists(self):
        model = ProcessModel(propagate=lambda n, x, xi: x, noise_cov=[[0.5]], state_dim=1)
        assert model.noise_cov.dtype == float and model.noise_cov.shape == (1, 1)

    @pytest.mark.parametrize("noise_cov", [np.zeros((0, 0)), [[0.5]], np.eye(3)], ids=["none", "one", "three"])
    def test_noise_dim_is_the_covariance_size(self, noise_cov):
        model = ProcessModel(propagate=lambda n, x, xi: x, noise_cov=noise_cov, state_dim=1)
        assert model.noise_dim == np.shape(noise_cov)[0]

    @pytest.mark.parametrize(
        "state_dim", [True, 1.5, "1", 0, -1], ids=["bool", "fraction", "string", "zero", "negative"]
    )
    def test_bad_state_dim_rejected_at_construction(self, state_dim):
        with pytest.raises(ValueError, match="state_dim"):
            ProcessModel(propagate=lambda n, x, xi: x, noise_cov=[[0.5]], state_dim=state_dim)

    def test_integral_state_dim_is_stored_as_int(self):
        model = ProcessModel(propagate=lambda n, x, xi: x, noise_cov=[[0.5]], state_dim=1.0)
        assert type(model.state_dim) is int and model.state_dim == 1

    def test_replace_keeps_covariance_and_dimensions(self):
        model = ProcessModel(propagate=lambda n, x, xi: x, noise_cov=np.eye(3), state_dim=2)
        wrapped = dataclasses.replace(model, propagate=lambda n, x, xi: x + 1.0)
        assert wrapped.noise_cov is model.noise_cov
        assert (wrapped.state_dim, wrapped.noise_dim) == (2, 3)


class TestObservationModelObsCov:
    """obs_cov is checked when the model is built, so a bad one never
    reaches a measurement update inside a filter run."""

    @pytest.mark.parametrize(
        "obs_cov, match",
        [
            (np.array([[1.0, 0.5], [0.0, 1.0]]), "symmetric"),
            (np.array([[1.0, 2.0], [2.0, 1.0]]), "positive semi-definite"),
            (np.ones((2, 3)), "shape"),
            (np.array([[np.nan, 0.0], [0.0, 1.0]]), "not finite"),
            (np.array([[np.inf, 0.0], [0.0, 1.0]]), "not finite"),
        ],
    )
    def test_rejected_at_construction(self, obs_cov, match):
        with pytest.raises(ValueError, match=match):
            ObservationModel(observe=lambda n, x: x, obs_cov=obs_cov)

    def test_accepted_as_nested_lists(self):
        obs = ObservationModel(observe=lambda n, x: x, obs_cov=[[0.5, 0.1], [0.1, 0.5]])
        assert obs.obs_cov.dtype == float and obs.obs_cov.shape == (2, 2)
        assert obs.obs_dim == 2

    def test_replace_keeps_covariance_and_dimension(self):
        obs = ObservationModel(observe=lambda n, x: x, obs_cov=np.eye(2))
        wrapped = dataclasses.replace(obs, observe=lambda n, x: 2.0 * x)
        assert wrapped.obs_cov is obs.obs_cov and wrapped.obs_dim == 2


class TestComposedObservation:
    def _random_walk(self):
        return ProcessModel(
            propagate=lambda n, x, xi: x + xi,
            noise_cov=np.eye(1),
            state_dim=1,
        )

    def test_identity_composition(self):
        obs = ObservationModel(
            observe=lambda n, x: x,
            obs_cov=np.eye(1),
        )
        psi = composed_observation(self._random_walk(), obs, 0)
        assert np.allclose(psi.rows(np.array([[1.5, 0.25]]))[0], [1.75])

    def test_cubic_dynamics_identity_obs(self):
        beta = 10.0
        spec = SdeSpec(
            drift=lambda t, x: beta * x * (1.0 - x * x),
            volatility=lambda t, x: np.array([[0.5]]),
            brownian_dim=1,
            dt=0.01,
        )
        process = discretize_sde(spec)
        obs = ObservationModel(observe=lambda n, x: x, obs_cov=np.eye(1))
        psi = composed_observation(process, obs, 0)
        assert np.isclose(psi.rows(np.array([[0.8, 0.0]]))[0, 0], 0.8288)

    def test_static_dynamics_quadratic_obs(self):
        process = ProcessModel(
            propagate=lambda n, x, xi: x,
            noise_cov=np.eye(1),
            state_dim=1,
        )
        obs = ObservationModel(
            observe=lambda n, x: (x - 0.05) ** 2,
            obs_cov=np.eye(1),
        )
        psi = composed_observation(process, obs, 0)
        assert np.isclose(psi.rows(np.array([[0.3, 9.9]]))[0, 0], 0.0625)

    def test_chain_rule_jacobian(self):
        a = np.array([[0.9, 0.1], [0.0, 0.8]])
        propagate = lambda n, x, xi: a @ x + xi
        process = ProcessModel(
            propagate=propagate,
            noise_cov=np.eye(2),
            state_dim=2,
            linearize=lambda n, x, xi: (propagate(n, x, xi), np.hstack([a, np.eye(2)])),
        )
        h = np.array([[1.0, -1.0]])
        obs = ObservationModel(
            observe=lambda n, x: h @ x,
            obs_cov=np.eye(1),
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


A2 = np.array([[-0.5, 0.3], [0.2, -0.4]])
VOL2 = np.array([[0.4], [0.1]])


def _linear_sde_2d():
    """dx = A2 x dt + VOL2 dB: d = 2, one Brownian dimension, two substeps."""
    return SdeSpec(
        drift=lambda t, x: x @ A2.T,
        volatility=lambda t, x: VOL2,
        brownian_dim=1,
        dt=0.1,
        substeps=2,
        state_dim=2,
        drift_jacobian=lambda t, x: A2,
        volatility_state_independent=True,
        vectorized=True,
    )


@pytest.mark.parametrize(
    "callback,wrong,message",
    [
        ("drift", lambda t, x: (x @ A2.T)[..., :1], r"^drift returned shape \(1,\), not \(2,\)"),
        ("volatility", lambda t, x: VOL2[:, 0], r"^volatility returned shape \(2,\), not \(2, 1\)"),
        ("drift_jacobian", lambda t, x: np.diag(A2), r"^drift_jacobian returned shape \(2,\), not \(2, 2\)"),
    ],
    ids=["drift", "volatility", "drift_jacobian"],
)
def test_sde_callback_of_the_wrong_shape_is_rejected(callback, wrong, message):
    # Each wrong form broadcasts: a (1,) drift moves both components by one
    # value, a diagonal drift_jacobian gives a wrong Jacobian, and a (2,)
    # volatility drives the wrong noise.  The integrator must reject each
    # with the shapes, and a filter must end only the trajectory.
    process = discretize_sde(dataclasses.replace(_linear_sde_2d(), **{callback: wrong}))
    z = np.array([1.5, 2.0, 0.3, -0.2])
    with pytest.raises(DimensionMismatch, match=message):
        process.value_and_jacobian(0, z)
    obs = ObservationModel(
        observe=lambda n, x: x[..., :1], obs_cov=[[0.5]], jacobian=lambda n, x: [[1.0, 0.0]], vectorized=True
    )
    traj = run_filter(FilterKind("LGF"), process, obs, Gaussian([1.5, 2.0], np.eye(2)), [[0.5]])
    assert isinstance(traj.error, DimensionMismatch) and str(traj.error).startswith(f"{callback} returned shape")
    if callback != "drift_jacobian":  # the stacked rows check drift and volatility too
        with pytest.raises(DimensionMismatch, match=f"^{callback} returned shape"):
            process.forward(0, np.tile(z, (3, 1)))


def test_volatility_per_stacked_row_equals_the_shared_form():
    # For stacked rows (m, d) the volatility may return (m, d, N) or the one
    # (d, N) that every row shares; both drive the same noise.
    spec = _linear_sde_2d()
    per_row = dataclasses.replace(spec, volatility=lambda t, x: np.broadcast_to(VOL2, x.shape + (1,)))
    z = np.random.default_rng(6).standard_normal((4, 4))
    assert discretize_sde(per_row).forward(1, z).tobytes() == discretize_sde(spec).forward(1, z).tobytes()


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
        linearize=(lambda n, x, xi: (propagate(n, x, xi), jac(n, x, xi))) if jacobian else None,
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
        propagate = lambda n, x, xi: x + xi
        process = ProcessModel(
            propagate=propagate,
            noise_cov=np.eye(1),
            state_dim=1,
            linearize=lambda n, x, xi: (propagate(n, x, xi), np.array([[np.inf, 1.0]])),
        )
        obs = ObservationModel(
            observe=lambda n, x: x, obs_cov=np.eye(1), jacobian=lambda n, x: [[np.nan]]
        )
        z = np.array([0.2, 0.1])
        with pytest.raises(DivergedEvaluation, match="not finite"):
            process.value_and_jacobian(0, z)
        with pytest.raises(DivergedEvaluation, match="not finite"):
            obs.at_step(1).value_and_jacobian(z[:1])[1]

    def test_an_analytic_jacobian_is_the_maps_one_linearize_hook(self):
        # at_step turns jacobian(n, x) into the map's linearize: one row of
        # observe for the value and one call of J.  Without J, the value's row
        # and one stacked call of the 2k central-difference probes.
        h = np.array([[1.0, -2.0, 0.5]])
        x, basis = np.array([0.3, -0.7, 1.1]), np.array([[1.0, 0.0], [0.5, 2.0], [0.0, 1.0]])
        observed, jacobians = [], []

        def observe(n, xs):
            observed.append((n, xs.shape))
            return xs @ h.T

        def jacobian(n, x):
            jacobians.append((n, x.shape))
            return h

        assert "jacobian" not in {f.name for f in dataclasses.fields(ObsFunction)}
        hooked = ObservationModel(observe=observe, obs_cov=[[0.1]], jacobian=jacobian, vectorized=True).at_step(4)
        value, jac = hooked.value_and_jacobian(x, basis)
        assert observed == [(4, (1, 3))] and jacobians == [(4, (3,))]
        assert value.tobytes() == (x @ h.T).tobytes() and jac.tobytes() == (h @ basis).tobytes()
        observed.clear()
        plain = ObservationModel(observe=observe, obs_cov=[[0.1]], vectorized=True).at_step(4)
        value, jac = plain.value_and_jacobian(x, basis)
        assert observed == [(4, (1, 3)), (4, (4, 3))] and len(jacobians) == 1
        assert np.max(np.abs(jac - h @ basis)) <= 1e-9
