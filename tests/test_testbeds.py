"""Benchmark systems: bistable SDE, Lorenz-63, coordinated-turn radar."""

import numpy as np
import pytest

from gaussfilt import (
    BistableSpec,
    ExperimentConfig,
    FilterKind,
    Gaussian,
    Lorenz63Spec,
    ObservationModel,
    ProcessModel,
    SdeSpec,
    TurnModelSpec,
    bistable_models,
    discretize_sde,
    lorenz63_models,
    run_experiment,
    run_filter,
    simulate_truth,
    turn_models,
)
from gaussfilt.errors import DimensionMismatch, DivergedEvaluation
from gaussfilt.filters import ALL_FAMILIES
from gaussfilt.harness import _resolve_truth_x0, replicate_seed
from gaussfilt.models import central_difference
from gaussfilt.testbeds import wrap_angle


class TestBistable:
    def test_default_matches_transition_scenario(self):
        spec = BistableSpec()
        assert (spec.beta, spec.sigma, spec.dt, spec.substeps) == (10.0, 0.5, 0.01, 20)
        assert spec.obs_var == 0.03

    def test_single_substep_hand_value(self):
        spec = BistableSpec(substeps=1)
        process, _ = bistable_models(spec)
        assert np.isclose(process.propagate(0, np.array([0.8]), np.zeros(1))[0], 0.8288)

    def test_noise_cov_is_stacked_increments(self):
        process, _ = bistable_models(BistableSpec())
        assert process.noise_dim == 20
        assert np.allclose(process.noise_cov, 0.01 * np.eye(20))

    def test_quadratic_observation(self):
        _, obs = bistable_models(BistableSpec(obs_kind="shifted_quadratic"))
        assert np.isclose(obs.observe(0, np.array([0.3]))[0], 0.0625)
        assert np.isclose(obs.jacobian(0, np.array([0.3]))[0, 0], 0.5)

    def test_unknown_obs_kind(self):
        with pytest.raises(ValueError):
            BistableSpec(obs_kind="cubic")

    def test_deterministic_flow_settles_into_wells(self):
        process, _ = bistable_models(BistableSpec(sigma=0.0, substeps=1))
        for x0, target in ((0.3, 1.0), (-0.1, -1.0)):
            x = np.array([x0])
            for n in range(2000):
                x = process.propagate(n, x, np.zeros(1))
            assert abs(x[0] - target) <= 1e-6

    def test_truth_stays_in_envelope(self):
        # With sigma = 0.5, beta = 10 the diffusion essentially never
        # escapes [-2, 2] over 10^3 steps.
        process, obs = bistable_models(BistableSpec(substeps=1))
        inside = 0
        for seed in range(100):
            run = simulate_truth(process, obs, np.array([0.8]), 1000, np.random.default_rng(seed))
            inside += bool(np.max(np.abs(run.truth)) <= 2.0)
        assert inside >= 99

    def test_analytic_jacobians_match_finite_differences(self):
        process, obs = bistable_models(BistableSpec(substeps=3))
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.uniform(-1.5, 1.5, 1)
            xi = 0.05 * rng.standard_normal(3)
            analytic = process.full_jacobian(0, x, xi)
            numeric = central_difference(lambda z: process.forward(0, z), np.concatenate([x, xi]))
            assert np.max(np.abs(analytic - numeric)) <= 1e-5 * (1 + np.max(np.abs(analytic)))


class TestLorenz63:
    def test_defaults(self):
        spec = Lorenz63Spec()
        assert (spec.sigma, spec.rho) == (10.0, 28.0)
        assert np.isclose(spec.beta, 8.0 / 3.0)
        assert spec.g == (0.0, 0.0, 0.5)

    def test_observation_zero_at_shifted_origin(self):
        _, obs = lorenz63_models(Lorenz63Spec())
        assert np.isclose(obs.observe(0, np.array([0.5, 0.0, 0.0]))[0], 0.0)

    def test_noise_enters_only_third_component(self):
        process, _ = lorenz63_models(Lorenz63Spec())
        x = np.array([1.0, 1.0, 1.0])
        a = process.propagate(0, x, np.array([0.0, 0.0, 0.1]))
        b = process.propagate(0, x, np.zeros(3))
        assert np.allclose(a[:2], b[:2])
        assert a[2] != b[2]

    def test_chaotic_divergence(self):
        # Two noiseless trajectories separated by 1e-8 diverge by many
        # doublings over t in [0, 10]: positive largest Lyapunov exponent.
        process, _ = lorenz63_models(Lorenz63Spec(g=(0.0, 0.0, 0.0)))
        x = np.array([1.0, 1.0, 20.0])
        for n in range(500):  # settle onto the attractor
            x = process.propagate(n, x, np.zeros(3))
        y = x + np.array([1e-8, 0.0, 0.0])
        for n in range(1000):  # t = 10
            x = process.propagate(n, x, np.zeros(3))
            y = process.propagate(n, y, np.zeros(3))
        assert np.linalg.norm(x - y) >= 1e-8 * 2.0 ** 6

    def test_analytic_jacobians_match_finite_differences(self):
        process, obs = lorenz63_models(Lorenz63Spec())
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.uniform(-20, 20, 3)
            xi = 0.01 * rng.standard_normal(3)
            analytic = process.full_jacobian(0, x, xi)
            numeric = central_difference(lambda z: process.forward(0, z), np.concatenate([x, xi]))
            assert np.max(np.abs(analytic - numeric)) <= 1e-5 * (1 + np.max(np.abs(analytic)))
            jo = obs.jacobian(0, x)
            jo_num = central_difference(obs.at_step(0).rows, x)
            assert np.max(np.abs(jo - jo_num)) <= 1e-5 * (1 + np.max(np.abs(jo)))


def _transition_matrix(omega, dt):
    """The 5x5 coordinated-turn matrix at a turn rate omega != 0, the
    closed-form reference for the turn model's ``propagate``."""
    c, s = np.cos(omega * dt), np.sin(omega * dt)
    return np.array(
        [
            [1.0, s / omega, 0.0, (c - 1.0) / omega, 0.0],
            [0.0, c, 0.0, -s, 0.0],
            [0.0, (1.0 - c) / omega, 1.0, s / omega, 0.0],
            [0.0, s, 0.0, c, 0.0],
            [0.0, 0.0, 0.0, 0.0, 1.0],
        ]
    )


class TestTurnModel:
    def test_defaults(self):
        spec = TurnModelSpec()
        assert (spec.dt, spec.q) == (1.0, 1.75e-3)
        assert (spec.range_var, spec.bearing_var) == (100.0, 1e-5)

    def test_zero_rate_is_constant_velocity(self):
        process, _ = turn_models(TurnModelSpec())
        x = np.array([1.0, 2.0, 3.0, 4.0, 0.0])
        out = process.propagate(0, x, np.zeros(5))
        assert np.array_equal(out, [3.0, 2.0, 7.0, 4.0, 0.0])

    def test_continuity_at_small_rate(self):
        process, _ = turn_models(TurnModelSpec())
        rows = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0]])
        small, limit = (
            process.propagate(0, np.column_stack([rows, np.full(3, w)]), np.zeros((3, 5)))
            for w in (1e-9, 0.0)
        )
        assert np.max(np.abs(small - limit)) <= 1e-7

    def test_quarter_turn_structure(self):
        process, _ = turn_models(TurnModelSpec(dt=1.0))
        omega = 0.5 * np.pi
        out = process.propagate(0, np.array([1.0, 1.0, 0.0, 0.0, omega]), np.zeros(5))
        # velocity rotates by pi/2: (1, 0) -> (0, 1)
        assert np.allclose(out[[1, 3]], [np.cos(omega), np.sin(omega)], atol=1e-12)
        assert np.allclose(out[[1, 3]], [0.0, 1.0], atol=1e-12)
        # position advances by the chord 1/omega in each coordinate
        assert np.allclose(out[[0, 2]], [1.0 + 1.0 / omega, 1.0 / omega])

    def test_propagate_matches_matrix(self):
        process, _ = turn_models(TurnModelSpec())
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.standard_normal(5)
            f = _transition_matrix(x[4], 1.0)
            assert np.allclose(process.propagate(0, x, np.zeros(5)), f @ x)

    @staticmethod
    def _mixed_rows(rng, m):
        """m random states and noises; every third turn rate is 0 or +-1e-9."""
        x = rng.standard_normal((m, 5)) * [1e3, 10.0, 1e3, 10.0, 0.05]
        x[::3, 4] = rng.choice([0.0, 1e-9, -1e-9], size=x[::3].shape[0])
        return x, rng.standard_normal((m, 5))

    def test_stacked_rows_get_the_bytes_they_get_alone(self):
        process, obs = turn_models(TurnModelSpec())
        x, xi = self._mixed_rows(np.random.default_rng(4), 9)
        stacked_x, stacked_y = process.propagate(0, x, xi), obs.observe(0, x)
        for i in range(len(x)):
            for row in (x[i], x[i : i + 1]):
                alone = process.propagate(0, row, xi[i].reshape(row.shape))
                assert alone.tobytes() == stacked_x[i].tobytes()
                assert obs.observe(0, row).tobytes() == stacked_y[i].tobytes()

    @pytest.mark.parametrize("with_small_rates", [False, True])
    def test_propagate_equals_the_where_formula(self, with_small_rates):
        # The formula propagate had when every call took the limits through
        # np.where; the shortcut for calls with no small rate keeps its bytes.
        def where_formula(x, xi, dt):
            om = x[..., 4]
            small = np.abs(om) < 1e-8
            om_safe = np.where(small, 1.0, om)
            wd = om * dt
            c, s = np.cos(wd), np.sin(wd)
            swo = np.where(small, dt, s / om_safe)
            cwo_m1 = np.where(small, 0.0, (c - 1.0) / om_safe)
            one_m_cwo = np.where(small, 0.0, (1.0 - c) / om_safe)
            px, vx, py, vy = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
            out = np.stack(
                [
                    px + swo * vx + cwo_m1 * vy,
                    c * vx - s * vy,
                    py + one_m_cwo * vx + swo * vy,
                    s * vx + c * vy,
                    om,
                ],
                axis=-1,
            )
            return out + xi

        spec = TurnModelSpec(dt=0.7)
        process, _ = turn_models(spec)
        x, xi = self._mixed_rows(np.random.default_rng(5), 1000)
        if not with_small_rates:
            x[::3, 4] = 0.05
        assert process.propagate(0, x, xi).tobytes() == where_formula(x, xi, spec.dt).tobytes()

    def test_noise_cov_blocks(self):
        spec = TurnModelSpec()
        process, _ = turn_models(spec)
        g = process.noise_cov
        assert np.isclose(g[0, 0], 1.0 / 3.0)
        assert np.isclose(g[0, 1], 0.5)
        assert np.isclose(g[1, 1], 1.0)
        assert np.isclose(g[4, 4], spec.q)
        assert np.allclose(g[:2, 2:4], 0.0)

    def test_observation_and_jacobian(self):
        _, obs = turn_models(TurnModelSpec())
        x = np.array([3.0, 0.0, 4.0, 0.0, 0.0])
        y = obs.observe(0, x)
        assert np.isclose(y[0], 5.0)
        assert np.isclose(y[1], np.arctan2(4.0, 3.0))
        jo = obs.jacobian(0, x)
        jo_num = central_difference(obs.at_step(0).rows, x)
        assert np.max(np.abs(jo - jo_num)) <= 1e-5

    def test_bearing_innovation_wraps(self):
        _, obs = turn_models(TurnModelSpec())
        res = obs.at_step(0).residual(np.array([10.0, np.pi - 0.1]), np.array([10.0, -np.pi + 0.1]))
        assert abs(res[1] + 0.2) <= 1e-12

    def test_simulated_bearings_in_range(self):
        process, obs = turn_models(TurnModelSpec())
        run = simulate_truth(
            process, obs, np.array([1000.0, 300.0, 1000.0, 0.0, -3 * np.pi / 180]),
            200, np.random.default_rng(3),
        )
        bearings = run.observations[:, 1]
        assert np.all(bearings > -np.pi)
        assert np.all(bearings <= np.pi)


@pytest.mark.parametrize(
    "spec,fields",
    [(BistableSpec, {"beta": 0.0}), (BistableSpec, {"obs_var": 0.0}), (BistableSpec, {"dt": 0.0}),
     (Lorenz63Spec, {"dt": 0.0}), (Lorenz63Spec, {"obs_var": 0.0}), (Lorenz63Spec, {"obs_var": -0.5}),
     (TurnModelSpec, {"dt": 0.0}), (TurnModelSpec, {"dt": -1.0}), (TurnModelSpec, {"q": -1e-3}),
     (TurnModelSpec, {"range_var": 0.0}), (TurnModelSpec, {"bearing_var": 0.0})],
    ids=["bistable-beta", "bistable-obs-var", "bistable-dt", "lorenz-dt", "lorenz-obs-var", "lorenz-negative-obs-var",
         "turn-dt", "turn-negative-dt", "turn-q", "turn-range-var", "turn-bearing-var"],
)
def test_specs_reject_non_positive_parameters(spec, fields):
    # A zero step or observation variance is rejected where the spec is
    # built, with the parameter's name, not later by the model it would give.
    with pytest.raises(ValueError, match=next(iter(fields))):
        spec(**fields)


@pytest.mark.parametrize(
    "spec,fields",
    [(BistableSpec, {"beta": [10.0, 5.0]}), (TurnModelSpec, {"q": np.array([1e-3, 2e-3])}),
     (BistableSpec, {"obs_var": np.array(0.03)}), (Lorenz63Spec, {"g": (0.0, 0.0, "0.5")}),
     (Lorenz63Spec, {"g": (0.0, np.nan, 0.5)})],
    ids=["list-beta", "array-q", "zero-d-array-obs-var", "string-in-g", "nan-in-g"],
)
def test_specs_take_one_real_number_per_parameter(spec, fields):
    # A sequence or an array is not a number, even when NumPy would compare
    # or broadcast it; the parameter is named, not left to fail downstream.
    name = next(iter(fields))
    with pytest.raises(ValueError, match=f"^{name} must be (positive and )?finite, got"):
        spec(**fields)


def test_spec_parameters_are_stored_as_floats():
    spec = TurnModelSpec(dt=np.float64(2.0), q=0, range_var=np.float32(50.0))
    assert [type(v) for v in (spec.dt, spec.q, spec.range_var, spec.bearing_var)] == [float] * 4
    assert Lorenz63Spec(g=np.array([0, 0, 1])).g == (0.0, 0.0, 1.0)


class TestWrapAngle:
    def test_range(self):
        vals = wrap_angle(np.linspace(-10.0, 10.0, 1001))
        assert np.all(vals > -np.pi)
        assert np.all(vals <= np.pi)

    def test_identity_inside_range(self):
        assert np.isclose(wrap_angle(0.3), 0.3)
        assert np.isclose(wrap_angle(np.pi), np.pi)
        assert np.isclose(wrap_angle(-np.pi), np.pi)


class TestSimulateTruth:
    def test_noiseless_rollout_observes_truth(self):
        from gaussfilt.models import ObservationModel, ProcessModel

        process = ProcessModel(
            propagate=lambda n, x, xi: 0.9 * x + xi,
            noise_cov=np.zeros((1, 1)),
            state_dim=1,
        )
        obs = ObservationModel(
            observe=lambda n, x: np.asarray(x, dtype=float),
            obs_cov=np.zeros((1, 1)),
        )
        run = simulate_truth(process, obs, np.array([1.0]), 5, np.random.default_rng(5))
        assert np.allclose(run.truth[:, 0], 0.9 ** np.arange(6))
        assert np.allclose(run.observations[:, 0], run.truth[1:, 0])

    def test_same_seed_same_run(self):
        process, obs = bistable_models(BistableSpec())
        a = simulate_truth(process, obs, np.array([0.8]), 10, np.random.default_rng(5))
        b = simulate_truth(process, obs, np.array([0.8]), 10, np.random.default_rng(5))
        assert np.array_equal(a.truth, b.truth)
        assert np.array_equal(a.observations, b.observations)

    def test_shapes(self):
        process, obs = turn_models(TurnModelSpec())
        run = simulate_truth(process, obs, np.zeros(5) + [1.0, 0, 1, 0, 0], 7, np.random.default_rng(0))
        assert run.truth.shape == (8, 5)
        assert run.observations.shape == (7, 2)

    def test_steps_validated(self):
        process, obs = bistable_models(BistableSpec())
        with pytest.raises(ValueError):
            simulate_truth(process, obs, np.array([0.8]), 0, np.random.default_rng(0))

    @pytest.mark.parametrize("steps", [True, "2", 2.5])
    def test_steps_follow_the_integer_rule(self, steps):
        process, obs = bistable_models(BistableSpec())
        with pytest.raises(ValueError, match="steps must be an integer"):
            simulate_truth(process, obs, np.array([0.8]), steps, np.random.default_rng(0))

    def test_integral_float_steps_run_that_many_steps(self):
        process, obs = bistable_models(BistableSpec())
        run = simulate_truth(process, obs, np.array([0.8]), 2.0, np.random.default_rng(0))
        assert run.truth.shape == (3, 1)
        assert run.observations.shape == (2, 1)

    def test_wrap_that_changes_the_shape_names_the_truth_rollout(self):
        process, obs = turn_models(TurnModelSpec())
        bearing_only = ObservationModel(
            observe=obs.observe, obs_cov=obs.obs_cov, wrap_observation=lambda y: np.asarray(y)[..., 1],
            vectorized=True,
        )
        x0 = np.array([1000.0, 300.0, 1000.0, 0.0, 0.0])
        message = r"^truth rollout failed at step 1: wrap_observation returned shape \(1,\), not \(1, 2\)"
        with pytest.raises(DimensionMismatch, match=message):
            simulate_truth(process, bearing_only, x0, 3, np.random.default_rng(0))

    def test_vectorized_model_sees_stacked_rows(self):
        # Vectorized callables may index stacked rows; the truth must reach
        # them the way the filters do, as (1, d) and (1, D) rows.
        process = ProcessModel(
            propagate=lambda n, x, xi: np.column_stack([x[:, 0] + 0.1 * x[:, 1], 0.9 * x[:, 1]]) + xi,
            noise_cov=0.01 * np.eye(2),
            state_dim=2,
            vectorized=True,
        )
        obs = ObservationModel(
            observe=lambda n, x: np.hypot(x[:, 0], x[:, 1])[:, None],
            obs_cov=[[0.01]],
            vectorized=True,
        )
        run = simulate_truth(process, obs, np.array([3.0, 1.0]), 10, np.random.default_rng(2))
        assert run.truth.shape == (11, 2) and run.observations.shape == (10, 1)
        prior = Gaussian(np.array([3.0, 1.0]), 0.1 * np.eye(2))
        for family in ("CGF", "CGSF"):
            traj = run_filter(FilterKind(family), process, obs, prior, run.observations)
            assert traj.error is None
            assert np.isfinite(traj.means()).all() and len(traj.records) == 11

    def test_overflowing_truth_raises_diverged(self):
        process = ProcessModel(
            propagate=lambda n, x, xi: 1e100 * x + xi, noise_cov=[[1.0]], state_dim=1
        )
        obs = ObservationModel(observe=lambda n, x: x, obs_cov=[[1.0]])
        # x_n is about 1e100^n: the fourth step overflows
        with pytest.raises(DivergedEvaluation, match="^truth rollout diverged at step 4: .*not finite"):
            simulate_truth(process, obs, np.array([1.0]), 5, np.random.default_rng(0))


def _one_row_runs(process, obs, x0s, steps, seeds):
    return [simulate_truth(process, obs, x0, steps, np.random.default_rng(s)) for x0, s in zip(x0s, seeds)]


def _stacked_run(process, obs, x0s, steps, seeds):
    return simulate_truth(process, obs, np.array(x0s), steps, [np.random.default_rng(s) for s in seeds])


class TestStackedTruth:
    SEEDS = (3, 1, 4, 1, 5)  # rows 1 and 3 share a noise stream from different states

    @pytest.mark.parametrize(
        "models,x0s,wraps",
        [
            (bistable_models(BistableSpec()), [[0.8], [-0.8], [0.0], [1.2], [-0.3]], False),
            (lorenz63_models(Lorenz63Spec()), [[1.0, 1.0, 1.0], [-5.0, 2.0, 20.0], [0.5, 0.0, 0.0],
                                               [8.0, 8.0, 27.0], [-1.0, -3.0, 10.0]], False),
            # the second row crosses the negative x axis, so its bearing wraps at +-pi
            (turn_models(TurnModelSpec()), [[1e3, 3e2, 1e3, 0.0, -0.05], [-1e3, 0.0, 5.0, -3.0, 0.0],
                                            [500.0, -20.0, -800.0, 10.0, 0.01], [1e3, 0.0, 1.0, 0.0, 0.0],
                                            [-200.0, 5.0, -50.0, 5.0, -0.02]], True),
        ],
        ids=["bistable", "lorenz63", "tracking"],
    )
    def test_stacked_rows_equal_one_row_runs_byte_for_byte(self, models, x0s, wraps):
        process, obs = models
        stacked = _stacked_run(process, obs, x0s, 40, self.SEEDS)
        assert stacked.truth.shape == (5, 41, len(x0s[0]))
        assert stacked.observations.shape == (5, 40, obs.obs_dim)
        for r, alone in enumerate(_one_row_runs(process, obs, x0s, 40, self.SEEDS)):
            assert stacked.truth[r].tobytes() == alone.truth.tobytes()
            assert stacked.observations[r].tobytes() == alone.observations.tobytes()
        if wraps:
            bearings = stacked.observations[1, :, 1]
            assert bearings.max() > 3.0 and bearings.min() < -3.0

    def test_non_vectorized_model_stacks_byte_for_byte(self):
        a = np.array([[0.9, 0.2], [-0.1, 0.95]])
        process = ProcessModel(
            propagate=lambda n, x, xi: a @ np.sin(x) + xi, noise_cov=0.01 * np.eye(2), state_dim=2
        )
        obs = ObservationModel(observe=lambda n, x: np.hypot(*x), obs_cov=[[0.01]])
        x0s = [[1.0, 0.0], [0.3, -2.0], [2.0, 2.0], [-1.0, 0.5], [0.0, 0.0]]
        stacked = _stacked_run(process, obs, x0s, 15, self.SEEDS)
        for r, alone in enumerate(_one_row_runs(process, obs, x0s, 15, self.SEEDS)):
            assert stacked.truth[r].tobytes() == alone.truth.tobytes()
            assert stacked.observations[r].tobytes() == alone.observations.tobytes()

    def test_one_dimensional_x0_keeps_its_shapes(self):
        process, obs = lorenz63_models(Lorenz63Spec())
        alone = simulate_truth(process, obs, np.array([1.0, 1.0, 1.0]), 6, np.random.default_rng(9))
        assert alone.truth.shape == (7, 3) and alone.observations.shape == (6, 1)
        one_row = simulate_truth(process, obs, np.array([[1.0, 1.0, 1.0]]), 6, [np.random.default_rng(9)])
        assert one_row.truth.shape == (1, 7, 3) and one_row.observations.shape == (1, 6, 1)
        assert one_row.truth[0].tobytes() == alone.truth.tobytes()

    def test_one_generator_per_row(self):
        process, obs = bistable_models(BistableSpec())
        with pytest.raises(ValueError):
            simulate_truth(process, obs, np.zeros((3, 1)), 2, [np.random.default_rng(0)] * 2)

    def test_one_diverging_row_raises_diverged(self):
        process = ProcessModel(
            propagate=lambda n, x, xi: np.where(np.abs(x) > 5.0, 1e300 * x, x) + xi,
            noise_cov=[[1e-4]],
            state_dim=1,
            vectorized=True,
        )
        obs = ObservationModel(observe=lambda n, x: x, obs_cov=[[1.0]], vectorized=True)
        # the row from 10 reaches about 1e301 at step 1 and overflows at step 2
        with pytest.raises(DivergedEvaluation, match="^truth rollout diverged at step 2: .*not finite"):
            _stacked_run(process, obs, [[1.0], [10.0], [-1.0]], 5, (0, 1, 2))

    def test_wrong_shaped_output_names_the_truth_rollout(self):
        # A shape failure in the rollout names the truth and its step, as a
        # divergence does, so a run's error cannot be read as a filter's.
        process, obs = bistable_models(BistableSpec())
        doubled = ObservationModel(
            observe=lambda n, x: x if n < 3 else np.concatenate([x, x], axis=1), obs_cov=[[0.1]], vectorized=True
        )
        with pytest.raises(DimensionMismatch, match=r"^truth rollout failed at step 3: map returned shape \(2, 2\)"):
            _stacked_run(process, doubled, [[1.0], [-1.0]], 5, (0, 1))
        sde = SdeSpec(drift=lambda t, x: x[..., :1], volatility=lambda t, x: np.eye(2), brownian_dim=2, dt=0.1,
                      state_dim=2, vectorized=True)
        plane = ObservationModel(observe=lambda n, x: x, obs_cov=np.eye(2), vectorized=True)
        with pytest.raises(DimensionMismatch, match=r"^truth rollout failed at step 1: drift returned shape \(2, 1\)"):
            _stacked_run(discretize_sde(sde), plane, [[1.0, 0.0], [0.0, 1.0]], 3, (0, 1))

    def test_run_experiment_truths_equal_a_per_replicate_loop(self):
        raw = {
            "name": "stacked-truth",
            "testbed": "tracking",
            "params": {},
            "filters": [{"family": "CGF", "rule_degree": 3}],
            "replicates": 6,
            "steps": 5,
            "seed": 1,
            "prior": {"mean": [1e3, 3e2, 1e3, 0.0, -0.05], "cov": np.diag([100.0, 10.0, 100.0, 10.0, 1e-4]).tolist()},
            "truth_x0": "prior-sample",
        }
        config = ExperimentConfig.from_dict(raw)
        process, obs, prior, _ = config.build_models()
        result = run_experiment(config)
        for r in range(config.replicates):
            rng = np.random.default_rng(replicate_seed(config.seed, r))
            alone = simulate_truth(process, obs, _resolve_truth_x0(config, prior, rng), config.steps, rng)
            assert result.truths[r].tobytes() == alone.truth.tobytes()


class TestTurnInnovation:
    def test_is_wrapped_difference_on_stacked_rows(self):
        _, obs = turn_models(TurnModelSpec())
        rng = np.random.default_rng(4)
        y = np.column_stack([rng.uniform(500, 2000, 64), rng.uniform(-np.pi, np.pi, 64)])
        p = np.column_stack([rng.uniform(500, 2000, 64), rng.uniform(-np.pi, np.pi, 64)])
        y[:4, 1] = [np.pi, -np.pi, np.pi - 1e-12, -np.pi + 1e-12]
        p[:4, 1] = [-np.pi, np.pi, -np.pi + 1e-12, np.pi - 1e-12]
        res = obs.at_step(0).residual(y, p)
        assert res.tobytes() == obs.wrap_observation(y - p).tobytes()
        assert np.all(np.abs(res[:, 1]) <= np.pi)
        assert np.array_equal(res[:, 0], y[:, 0] - p[:, 0])


def test_noise_free_sde_runs_truth_and_every_family():
    # dx = -x dt with no Brownian motion (brownian_dim 0): three Euler
    # substeps of 0.1 make the exact linear map x' = 0.729 x with Q = 0, so
    # the truth needs the square root of an empty noise covariance, and
    # every Gaussian family is the Kalman filter of that map.
    sde = SdeSpec(drift=lambda t, x: -x, volatility=lambda t, x: np.zeros((1, 0)), brownian_dim=0, dt=0.1,
                  substeps=3, drift_jacobian=lambda t, x: [[-1.0]], volatility_state_independent=True,
                  vectorized=True)
    process = discretize_sde(sde)
    obs = ObservationModel(observe=lambda n, x: x, obs_cov=[[0.1]], jacobian=lambda n, x: [[1.0]], vectorized=True)
    assert process.noise_dim == 0
    run = simulate_truth(process, obs, np.array([1.0]), 5, np.random.default_rng(0))
    assert np.allclose(run.truth[:, 0], 0.729 ** np.arange(6), rtol=1e-14, atol=0.0)
    mean, var, kalman = 0.5, 0.4, []
    for y in run.observations[:, 0]:
        mean, var = 0.729 * mean, 0.729**2 * var
        gain = var / (var + 0.1)
        mean, var = mean + gain * (y - mean), (1.0 - gain) * var
        kalman.append((mean, var))
    kalman = np.array(kalman)
    for family in ALL_FAMILIES:
        kind = FilterKind(family, sample_count=100) if family.startswith("PG") else FilterKind(family)
        traj = run_filter(kind, process, obs, Gaussian([0.5], [[0.4]]), run.observations, np.random.default_rng(1))
        assert traj.error is None and len(traj.records) == 6, family
        moments = np.array([(r.posterior.mean[0], r.posterior.cov[0, 0]) for r in traj.records[1:]])
        if family.startswith(("LG", "CG")):
            assert np.allclose(moments, kalman, rtol=1e-14, atol=0.0), family
        elif family.startswith("VG"):  # BFGS's tolerance
            assert np.allclose(moments, kalman, rtol=1e-8, atol=0.0), family
