"""Filter construction and the sequential estimation loop."""

from dataclasses import replace

import numpy as np
import pytest

from gaussfilt import (
    BistableSpec,
    Diagnostics,
    FilterKind,
    Gaussian,
    ObservationModel,
    TurnModelSpec,
    VariationalSettings,
    bistable_models,
    conventional_step,
    run_filter,
    simulate_truth,
    smoothing_step,
    turn_models,
)
from gaussfilt.errors import DimensionMismatch, DivergedEvaluation, SingularMatrix
from gaussfilt.filters import ALL_FAMILIES
from gaussfilt.models import ObsFunction, ProcessModel, augment, composed_observation
from gaussfilt.updates import measurement_update_linear
from oracles import condition

A, GAMMA, R = 0.9, 0.1, 0.5


def scalar_linear_model():
    propagate = lambda n, x, xi: A * x + xi
    process = ProcessModel(
        propagate=propagate,
        noise_cov=np.array([[GAMMA]]),
        state_dim=1,
        linearize=lambda n, x, xi: (propagate(n, x, xi), np.array([[A, 1.0]])),
        vectorized=True,
    )
    obs = ObservationModel(
        observe=lambda n, x: np.asarray(x, dtype=float),
        obs_cov=np.array([[R]]),
        jacobian=lambda n, x: np.array([[1.0]]),
        vectorized=True,
    )
    return process, obs


def kalman_steps(mean, var, ys):
    """Closed-form scalar Kalman recursion for the test model."""
    out = []
    for y in ys:
        mean, var = A * mean, A * A * var + GAMMA
        gain = var / (var + R)
        mean = mean + gain * (y - mean)
        var = (1.0 - gain) * var
        out.append((mean, var))
    return out


class TestFilterKind:
    def test_labels(self):
        assert FilterKind("LGF").label() == "LGF"
        assert FilterKind("CGF", rule_degree=5).label() == "CGF5"
        assert FilterKind("PGSF", sample_count=200).label() == "PGSF200"

    def test_variational_labels(self):
        assert FilterKind("VGF").label() == "VGF"
        assert FilterKind("VGSF", variational=VariationalSettings()).label() == "VGSF"
        tight = VariationalSettings(grad_tol=1e-8, max_iter=50)
        assert FilterKind("VGF", variational=tight).label() == "VGF[grad_tol=1e-08;max_iter=50]"
        steps = VariationalSettings(max_iter=7, grad_tol=1e-3)
        assert FilterKind("VGSF", variational=steps).label() == "VGSF[grad_tol=0.001;max_iter=7]"

    def test_default_variational_settings_are_the_default(self):
        # Explicit default settings filter alike and compare equal; they are
        # stored as None only after the reader check has seen them.
        for family in ("VGF", "VGSF"):
            explicit = FilterKind(family, variational=VariationalSettings())
            assert explicit == FilterKind(family) and explicit.variational is None
            assert hash(explicit) == hash(FilterKind(family))
        tight = VariationalSettings(grad_tol=1e-8)
        assert FilterKind("VGF", variational=tight).variational is tight

    def test_validation(self):
        with pytest.raises(ValueError):
            FilterKind("EKF")
        with pytest.raises(ValueError):
            FilterKind("CGF", rule_degree=4)
        with pytest.raises(ValueError):
            FilterKind("PGF", sample_count=1)
        with pytest.raises(ValueError, match="must be an integer"):
            FilterKind("PGF", sample_count=2.5)
        with pytest.raises(ValueError, match="must be an integer"):
            VariationalSettings(max_iter=2.5)
        with pytest.raises(ValueError, match="LGF does not read sample_count"):
            FilterKind("LGF", sample_count=10)
        with pytest.raises(ValueError, match="PGF does not read variational"):
            FilterKind("PGF", variational=VariationalSettings())

    @pytest.mark.parametrize("variational", [{"grad_tol": 1e-3}, 5])
    def test_variational_must_be_settings_or_none(self, variational):
        with pytest.raises(ValueError, match="variational must be VariationalSettings or None"):
            FilterKind("VGF", variational=variational)

    @pytest.mark.parametrize("grad_tol", ["1e-6", [1e-6]])
    def test_grad_tol_must_be_a_number(self, grad_tol):
        with pytest.raises(ValueError, match="grad_tol must be positive and finite"):
            VariationalSettings(grad_tol=grad_tol)

    def test_grad_tol_must_not_be_a_bool(self):
        # a bool is a numbers.Real: True would run as tolerance 1
        with pytest.raises(ValueError, match="grad_tol must be positive and finite"):
            VariationalSettings(grad_tol=True)

    def test_a_numpy_grad_tol_labels_as_a_float_does(self):
        # Labels key the estimates, the CSV rows and the duplicate check, so
        # two kinds that compare equal must share one.
        numpy_kind = FilterKind("VGF", variational=VariationalSettings(grad_tol=np.float64(1e-6)))
        float_kind = FilterKind("VGF", variational=VariationalSettings(grad_tol=1e-6))
        assert numpy_kind == float_kind
        assert numpy_kind.label() == float_kind.label() == "VGF[grad_tol=1e-06]"
        assert type(numpy_kind.variational.grad_tol) is float

    def test_family_partitions(self):
        assert FilterKind("LGSF").is_smoothing
        assert not FilterKind("LGF").is_smoothing
        assert FilterKind("CGF").uses_points
        assert FilterKind("PGSF").kernel == "PG"
        assert FilterKind("CGSF").kernel == "CG"


class TestSingleStep:
    def test_lgf_matches_hand_kalman(self):
        process, obs = scalar_linear_model()
        prior = Gaussian([0.0], [[1.0]])
        out = conventional_step(FilterKind("LGF"), prior, process, obs, [1.0], 0)
        (mean, var), = kalman_steps(0.0, 1.0, [1.0])
        # predictive N(0, 0.91), gain 0.91/1.41
        assert np.isclose(mean, 0.91 / 1.41)
        assert np.isclose(out.mean[0], mean)
        assert np.isclose(out.cov[0, 0], var)

    def test_cgf_matches_lgf_on_linear_model(self):
        process, obs = scalar_linear_model()
        prior = Gaussian([0.0], [[1.0]])
        lgf = conventional_step(FilterKind("LGF"), prior, process, obs, [1.0], 0)
        cgf = conventional_step(FilterKind("CGF"), prior, process, obs, [1.0], 0)
        assert np.max(np.abs(cgf.mean - lgf.mean)) <= 1e-10
        assert np.max(np.abs(cgf.cov - lgf.cov)) <= 1e-10

    def test_uninformative_observation_gives_predictive(self):
        process, _ = scalar_linear_model()
        obs = ObservationModel(
            observe=lambda n, x: np.asarray(x, dtype=float),
            obs_cov=np.array([[1e15]]),
            jacobian=lambda n, x: np.array([[1.0]]),
        )
        prior = Gaussian([0.0], [[1.0]])
        out = conventional_step(FilterKind("LGF"), prior, process, obs, [5.0], 0)
        assert abs(out.mean[0]) <= 1e-6
        assert abs(out.cov[0, 0] - 0.91) <= 1e-6

    def test_smoothing_step_matches_conventional_on_linear_model(self):
        process, obs = scalar_linear_model()
        prior = Gaussian([0.0], [[1.0]])
        conv = conventional_step(FilterKind("LGF"), prior, process, obs, [1.0], 0)
        smth = smoothing_step(FilterKind("LGSF"), prior, process, obs, [1.0], 0)
        assert np.max(np.abs(smth.mean - conv.mean)) <= 1e-9
        assert np.max(np.abs(smth.cov - conv.cov)) <= 1e-9

    def test_noise_block_mean_nonzero_after_conditioning(self):
        # Conditioning [x; xi] on the next observation leaves a biased noise
        # block whenever the innovation and cross-covariance are nonzero.
        process, obs = scalar_linear_model()
        prior = Gaussian([0.0], [[1.0]])
        aug = augment(prior, process, 0)
        psi = composed_observation(process, obs, 0)
        conditioned = measurement_update_linear(aug, psi, [3.0], obs.obs_cov)
        assert abs(conditioned.mean[1]) > 0.01

    def test_smoothing_bias_analytic_value(self):
        # Random-walk model Phi(x, xi) = x + xi, identity observation,
        # prior N(0,1), Gamma = R = 1, y = 3: the conditioned noise mean is
        # Gamma (C + Gamma + R)^{-1} (y - xbar) = 1.  Cross-checked against
        # exact conditioning of the joint (x, xi, y).
        propagate = lambda n, x, xi: x + xi
        process = ProcessModel(
            propagate=propagate,
            noise_cov=np.array([[1.0]]),
            state_dim=1,
            linearize=lambda n, x, xi: (propagate(n, x, xi), np.array([[1.0, 1.0]])),
        )
        obs = ObservationModel(
            observe=lambda n, x: np.asarray(x, dtype=float),
            obs_cov=np.array([[1.0]]),
            jacobian=lambda n, x: np.array([[1.0]]),
        )
        aug = augment(Gaussian([0.0], [[1.0]]), process, 0)
        psi = composed_observation(process, obs, 0)
        conditioned = measurement_update_linear(aug, psi, [3.0], obs.obs_cov)
        assert abs(conditioned.mean[1] - 1.0) <= 1e-9

        # independent oracle: exact conditioning of the 3-variable joint
        joint = Gaussian(np.zeros(3), [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 3.0]])
        oracle = condition(joint, [3.0])
        assert abs(oracle.mean[1] - 1.0) <= 1e-12
        assert np.max(np.abs(conditioned.mean[:2] - oracle.mean)) <= 1e-9


class TestRunFilter:
    @pytest.mark.parametrize("family", ["LGF", "VGF", "CGF", "LGSF", "VGSF", "CGSF"])
    def test_deterministic_families_match_kalman(self, family):
        process, obs = scalar_linear_model()
        ys = [1.0, -0.3, 0.7, 0.2]
        traj = run_filter(FilterKind(family), process, obs, Gaussian([0.0], [[1.0]]), ys)
        assert traj.error is None
        oracle = kalman_steps(0.0, 1.0, ys)
        for rec, (mean, var) in zip(traj.records[1:], oracle):
            assert abs(rec.posterior.mean[0] - mean) <= 1e-6
            assert abs(rec.posterior.cov[0, 0] - var) <= 1e-6

    def test_two_step_values_frozen(self):
        # First step of the hand recursion: mean 0.91/1.41, var 0.91*0.5/1.41
        oracle = kalman_steps(0.0, 1.0, [1.0, 1.0])
        assert np.isclose(oracle[0][0], 0.6453900709219859)
        assert np.isclose(oracle[0][1], 0.32269503546099293)
        process, obs = scalar_linear_model()
        traj = run_filter(FilterKind("LGF"), process, obs, Gaussian([0.0], [[1.0]]), [1.0, 1.0])
        assert np.isclose(traj.records[1].posterior.mean[0], oracle[0][0])
        assert np.isclose(traj.records[1].posterior.cov[0, 0], oracle[0][1])
        assert np.isclose(traj.records[2].posterior.mean[0], oracle[1][0])

    def test_record_count_and_prior_record(self):
        process, obs = scalar_linear_model()
        prior = Gaussian([0.0], [[1.0]])
        traj = run_filter(FilterKind("LGF"), process, obs, prior, [1.0, 2.0, 3.0])
        assert len(traj.records) == 4
        assert traj.records[0].step == 0
        assert np.array_equal(traj.records[0].posterior.mean, prior.mean)

    def test_empty_observations_rejected(self):
        process, obs = scalar_linear_model()
        with pytest.raises(ValueError):
            run_filter(FilterKind("LGF"), process, obs, Gaussian([0.0], [[1.0]]), [])

    @pytest.mark.parametrize("family", ["PGF", "PGSF"])
    def test_sampling_filters_deterministic_given_seed(self, family):
        process, obs = scalar_linear_model()
        prior = Gaussian([0.0], [[1.0]])
        ys = [1.0, -0.3, 0.7]
        kind = FilterKind(family, sample_count=500)
        a = run_filter(kind, process, obs, prior, ys, np.random.default_rng(42))
        b = run_filter(kind, process, obs, prior, ys, np.random.default_rng(42))
        assert np.array_equal(a.means(), b.means())
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.posterior.cov, rb.posterior.cov)

    @pytest.mark.parametrize("family", ["PGF", "PGSF"])
    def test_sampling_filters_need_a_generator_at_their_first_step(self, family):
        # Both orderings draw their points before they push any through a model.
        process, obs = scalar_linear_model()
        rows = []
        process = replace(process, propagate=lambda n, x, xi: rows.append(n) or A * x + xi)
        obs = replace(obs, observe=lambda n, x: rows.append(n) or np.asarray(x, dtype=float))
        with pytest.raises(ValueError, match="random generator"):
            run_filter(FilterKind(family), process, obs, Gaussian([0.0], [[1.0]]), [1.0, -0.3])
        assert rows == []

    @pytest.mark.parametrize("family", ["PGF", "PGSF"])
    def test_a_sampling_family_without_a_generator_is_named_before_the_first_step(self, family):
        process, obs = scalar_linear_model()
        kind = FilterKind(family, sample_count=50)
        with pytest.raises(ValueError, match=f"^{kind.label()} draws its points from a random generator"):
            run_filter(kind, process, obs, Gaussian([0.0], [[1.0]]), [1.0, -0.3])

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_a_wrap_that_changes_the_residual_shape_aborts_the_trajectory(self, family):
        # The wrap drops the range: every residual it returns has the wrong
        # shape, which must end the trajectory with the shape rule's error,
        # not escape as NumPy's.
        process, obs = turn_models(TurnModelSpec())
        x0 = np.array([1000.0, 300.0, 1000.0, 0.0, -3 * np.pi / 180])
        ys = simulate_truth(process, obs, x0, 3, np.random.default_rng(0)).observations
        bearing_only = replace(obs, wrap_observation=lambda y: np.asarray(y)[..., 1])
        prior = Gaussian(x0, np.diag([100.0, 10.0, 100.0, 10.0, 1e-4]))
        traj = run_filter(FilterKind(family), process, bearing_only, prior, ys, np.random.default_rng(1))
        assert isinstance(traj.error, DimensionMismatch)
        assert str(traj.error).startswith("wrap_observation returned shape")
        assert len(traj.records) == 1

    @pytest.mark.parametrize("family", ["LGF", "VGF", "CGF", "LGSF", "VGSF", "CGSF"])
    def test_deterministic_families_never_draw(self, family):
        process, obs = scalar_linear_model()
        prior, ys = Gaussian([0.0], [[1.0]]), [1.0, -0.3, 0.7]
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        without = run_filter(FilterKind(family), process, obs, prior, ys)
        given = run_filter(FilterKind(family), process, obs, prior, ys, rng)
        assert without.error is None and len(without.records) == 4
        assert rng.bit_generator.state == state
        assert np.array_equal(without.means(), given.means())

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_posterior_covariances_psd(self, family):
        process, obs = scalar_linear_model()
        traj = run_filter(
            FilterKind(family, sample_count=300) if family in ("PGF", "PGSF") else FilterKind(family),
            process,
            obs,
            Gaussian([0.0], [[1.0]]),
            [1.0, -0.5, 0.2],
            np.random.default_rng(0),
        )
        assert traj.error is None
        for rec in traj.records:
            assert np.linalg.eigvalsh(rec.posterior.cov)[0] >= -1e-9

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_last_posterior_mean_is_writable(self, family):
        # LGSF and VGSF end a step in the linear time update, whose value
        # comes from the bistable model's read-only linearization memo.
        process, obs = bistable_models(BistableSpec())
        prior = Gaussian([0.8], [[0.02]])
        truth = simulate_truth(process, obs, prior.mean, 3, np.random.default_rng(5))
        kind = FilterKind(family, sample_count=200) if family in ("PGF", "PGSF") else FilterKind(family)
        traj = run_filter(kind, process, obs, prior, truth.observations, np.random.default_rng(0))
        assert traj.error is None and len(traj.records) == 4
        mean = traj.records[-1].posterior.mean
        assert mean.flags.writeable
        mean[0] += 1.0

    @pytest.mark.parametrize("family", ["PGF", "PGSF"])
    def test_sampling_filters_complete_a_diffuse_linear_walk(self, family):
        # A random walk observed directly, Q = R = 1, from N(0, 100): with the
        # prior's exact covariance beside the sample's cross and observation
        # covariances, PGF aborted 25 and PGSF 20 of these 50 runs.  Taking all
        # three from the points, none aborts, and every posterior variance is
        # within 25% of the Kalman filter's (at most 6.7% and 12% off).
        walk = ProcessModel(propagate=lambda n, x, xi: x + xi, noise_cov=[[1.0]], state_dim=1, vectorized=True)
        obs = ObservationModel(observe=lambda n, x: np.asarray(x, dtype=float), obs_cov=[[1.0]], vectorized=True)
        prior = Gaussian([0.0], [[100.0]])
        for seed in range(50):
            rng = np.random.default_rng(seed)
            truth = simulate_truth(walk, obs, 10.0 * rng.standard_normal(1), 5, rng)
            traj = run_filter(FilterKind(family), walk, obs, prior, truth.observations, rng)
            assert traj.error is None, f"seed {seed}: {traj.error}"
            var = 100.0
            for rec in traj.records[1:]:
                var = (var + 1.0) / (var + 2.0)  # predict with Q = 1, then update with R = 1
                assert abs(rec.posterior.cov[0, 0] / var - 1.0) <= 0.25

    @pytest.mark.parametrize("family", ["PGF", "PGSF"])
    def test_sampling_filters_track_the_kalman_mean_on_a_diffuse_linear_walk(self, family):
        # The walk above: the point update shifts the mean of its own points,
        # the one its cross covariance is taken about.  Shifting the prior's
        # exact mean instead put PGF up to 0.74 and PGSF up to 0.99 Kalman
        # posterior sd off over these 50 runs; from the points' mean, at most
        # 0.13 and 0.16.
        walk = ProcessModel(propagate=lambda n, x, xi: x + xi, noise_cov=[[1.0]], state_dim=1, vectorized=True)
        obs = ObservationModel(observe=lambda n, x: np.asarray(x, dtype=float), obs_cov=[[1.0]], vectorized=True)
        prior = Gaussian([0.0], [[100.0]])
        worst = 0.0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            truth = simulate_truth(walk, obs, 10.0 * rng.standard_normal(1), 5, rng)
            traj = run_filter(FilterKind(family), walk, obs, prior, truth.observations, rng)
            assert traj.error is None, f"seed {seed}: {traj.error}"
            mean, var = 0.0, 100.0
            for rec, y in zip(traj.records[1:], truth.observations):
                var += 1.0
                mean, var = mean + var / (var + 1.0) * (y[0] - mean), var / (var + 1.0)
                worst = max(worst, abs(rec.posterior.mean[0] - mean) / np.sqrt(var))
        assert worst <= 0.3, worst

    def test_variational_fallback_recorded(self):
        # An observation map whose misfit gradient explodes forces the
        # optimizer to give up; the filter must fall back to the linear
        # update and count the event instead of aborting.
        process, _ = scalar_linear_model()
        obs = ObservationModel(
            observe=lambda n, x: np.atleast_1d(1e8 * np.sin(1e8 * x[0])),
            obs_cov=np.array([[1.0]]),
        )
        from gaussfilt.updates import VariationalSettings

        kind = FilterKind("VGF", variational=VariationalSettings(grad_tol=1e-12, max_iter=2))
        traj = run_filter(kind, process, obs, Gaussian([0.0], [[1.0]]), [0.5])
        assert traj.error is None
        assert traj.records[1].diagnostics.fallbacks == 1

    @pytest.mark.parametrize("family", ["LGF", "LGSF", "VGF", "VGSF"])
    def test_non_finite_jacobian_aborts_the_trajectory(self, family):
        # A model Jacobian that is NaN must end the trajectory with a package
        # error, which run_experiment records, not escape as a plain error.
        good, obs = scalar_linear_model()
        process = ProcessModel(
            propagate=good.propagate,
            noise_cov=good.noise_cov,
            state_dim=1,
            linearize=lambda n, x, xi: (good.propagate(n, x, xi), np.array([[np.nan, 1.0]])),
            vectorized=True,
        )
        traj = run_filter(FilterKind(family), process, obs, Gaussian([0.0], [[1.0]]), [0.5, 0.2])
        assert isinstance(traj.error, DivergedEvaluation)
        assert "not finite" in str(traj.error)
        assert len(traj.records) == 1

    @pytest.mark.parametrize("family", ["LGF", "LGSF", "VGF", "VGSF"])
    def test_map_not_finite_at_the_prior_mean_aborts_the_trajectory(self, family):
        # The forward map leaves its domain around the prior mean, so VGSF's
        # misfit is not finite where BFGS starts; that too must end only the
        # trajectory.
        _, obs = scalar_linear_model()
        process = ProcessModel(
            propagate=lambda n, x, xi: np.where(np.abs(x) < 2.0, np.nan, x + xi),
            noise_cov=np.array([[GAMMA]]),
            state_dim=1,
            vectorized=True,
        )
        traj = run_filter(FilterKind(family), process, obs, Gaussian([0.0], [[1.0]]), [0.5, 0.2])
        assert isinstance(traj.error, DivergedEvaluation)
        assert len(traj.records) == 1

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_overflowing_innovation_covariance_aborts_the_trajectory(self, family):
        # A random walk observed through 1e200 x overflows the innovation
        # covariance; every family must end the trajectory with a package
        # error and let no exception or warning escape (VGF and VGSF reach it
        # through the linearized fallback).
        walk = ProcessModel(
            propagate=lambda n, x, xi: x + xi, noise_cov=[[1.0]], state_dim=1
        )
        obs = ObservationModel(observe=lambda n, x: 1e200 * x, obs_cov=[[1.0]])
        rng = np.random.default_rng(0)
        traj = run_filter(FilterKind(family), walk, obs, Gaussian([0.0], [[1.0]]), [1.0, 2.0], rng)
        assert isinstance(traj.error, SingularMatrix)
        assert str(traj.error).startswith("innovation covariance")
        assert len(traj.records) == 1

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_observation_noise_with_an_exact_component(self, family):
        # R = diag(1, 0) observes the second coordinate exactly, and
        # R = [[1, 1], [1, 1]] the difference x_1 - x_2.  Neither R factors,
        # so the variational misfit, which must invert it, raises and VGF and
        # VGSF fall back to the linear update at every step: their posteriors
        # are LGF's and LGSF's to the byte.  No family lets an exception
        # escape, and each puts the exactly observed quantity at its
        # observation.
        walk = ProcessModel(propagate=lambda n, x, xi: x + xi, noise_cov=np.eye(2), state_dim=2, vectorized=True)
        ys = [np.array([1.0, 0.5]), np.array([0.2, -0.3]), np.array([0.4, 0.1])]
        kind = FilterKind(family, sample_count=200) if family.startswith("PG") else FilterKind(family)
        for r, exact in ((np.diag([1.0, 0.0]), [0.0, 1.0]), (np.ones((2, 2)), [1.0, -1.0])):
            obs = ObservationModel(observe=lambda n, x: np.asarray(x, dtype=float), obs_cov=r, vectorized=True)
            prior = Gaussian([0.0, 0.0], np.eye(2))
            traj = run_filter(kind, walk, obs, prior, ys, np.random.default_rng(0))
            assert traj.error is None
            for rec, y in zip(traj.records[1:], ys):
                assert rec.diagnostics.fallbacks == (kind.kernel == "VG")
                assert abs(rec.posterior.mean @ exact - y @ exact) <= 1e-6
            if kind.kernel == "VG":
                linear = run_filter(FilterKind("LG" + family[2:]), walk, obs, prior, ys)
                for rec, lin in zip(traj.records, linear.records):
                    assert rec.posterior.mean.tobytes() == lin.posterior.mean.tobytes()
                    assert rec.posterior.cov.tobytes() == lin.posterior.cov.tobytes()

    @pytest.mark.parametrize(
        "output,family",
        [("observation", f) for f in ALL_FAMILIES]
        + [(out, f) for out in ("obs-jacobian", "process-jacobian") for f in ("LGF", "LGSF", "VGF", "VGSF")]
        + [("ragged-observation", f) for f in ("CGF", "PGF", "CGSF", "PGSF")],
    )
    def test_wrong_shaped_model_output_aborts_the_trajectory(self, output, family):
        # A scalar model that returns one output of the wrong shape: two
        # observation components (everywhere, or only at negative points), or
        # a Jacobian with one column too many.  The model boundary must reject
        # it with the shapes, ending only the trajectory.
        def observe(n, x):
            wrong = output == "observation" or (output == "ragged-observation" and x[0] < 0)
            return np.concatenate([x, x]) if wrong else x

        propagate = lambda n, x, xi: A * x + xi
        jac = lambda n, x, xi: [[A, 1.0, 0.0]] if output == "process-jacobian" else [[A, 1.0]]
        process = ProcessModel(
            propagate=propagate,
            noise_cov=[[GAMMA]],
            state_dim=1,
            linearize=lambda n, x, xi: (propagate(n, x, xi), jac(n, x, xi)),
        )
        obs = ObservationModel(
            observe=observe,
            obs_cov=[[R]],
            jacobian=lambda n, x: [[1.0, 0.0]] if output == "obs-jacobian" else [[1.0]],
        )
        rng = np.random.default_rng(0)
        kind = FilterKind(family, sample_count=50) if family in ("PGF", "PGSF") else FilterKind(family)
        traj = run_filter(kind, process, obs, Gaussian([0.0], [[1.0]]), [0.5, 0.2], rng)
        assert isinstance(traj.error, DimensionMismatch)
        assert len(traj.records) == 1
        named = {"obs-jacobian": "(1, 2), not", "process-jacobian": "(1, 3), not"}
        assert named.get(output, "map returned shape (") in str(traj.error)

    def test_transposed_stacked_observation_is_rejected(self):
        # A vectorized radar map that stacks its two components without
        # axis=-1 returns (2, m) for m points: the right size in the wrong
        # layout.  The stacked paths, CGF's and PGF's point sets and the
        # stacked truth rollout, must reject it with the shapes, not reshape it.
        process, obs = turn_models(TurnModelSpec())
        transposed = replace(obs, observe=lambda n, x: np.stack([np.hypot(x[..., 0], x[..., 2]),
                                                                 np.arctan2(x[..., 2], x[..., 0])]))
        x0 = np.array([1e3, 3e2, 1e3, 0.0, -0.05])
        rngs = [np.random.default_rng(r) for r in range(3)]
        with pytest.raises(DimensionMismatch, match=r"map returned shape \(2, 3\), not \(3, 2\)"):
            simulate_truth(process, transposed, np.tile(x0, (3, 1)), 2, rngs)
        ys = simulate_truth(process, obs, x0, 5, np.random.default_rng(0)).observations
        prior = Gaussian(x0, np.diag([100.0, 10.0, 100.0, 10.0, 1e-4]))
        for kind, m in ((FilterKind("CGF"), 10), (FilterKind("PGF", sample_count=50), 50)):
            traj = run_filter(kind, process, transposed, prior, ys, np.random.default_rng(0))
            assert isinstance(traj.error, DimensionMismatch)
            assert f"map returned shape (2, {m}), not ({m}, 2)" in str(traj.error)
            assert len(traj.records) == 1

    def test_linearize_hook_jacobian_is_checked(self):
        # A one-component map whose hook returns a Jacobian with a row too
        # many: the linearization must reject it along the basis, as it
        # rejects an analytic Jacobian, before any matrix is inverted.
        fn = ObsFunction(lambda x: x[:1], out_dim=1, linearize=lambda x, basis: (x[:1], np.eye(2) @ basis))
        prior = Gaussian([0.0, 0.0], np.eye(2))
        with pytest.raises(DimensionMismatch, match=r"Jacobian \(2, 2\), not \(1, 2\)"):
            measurement_update_linear(prior, fn, np.array([0.5]), np.array([[R]]), Diagnostics())

    @pytest.mark.parametrize(
        "y,error,match",
        [([1.0, 2.0], DimensionMismatch, r"observation 2 has shape \(2,\), not \(1,\)"),
         (np.nan, ValueError, "observation 2 is not finite")],
        ids=["wrong-length", "nan"],
    )
    def test_observations_are_checked_before_the_first_step(self, y, error, match):
        process, obs = scalar_linear_model()
        rows = []
        process = replace(process, propagate=lambda n, x, xi: rows.append(n) or A * x + xi)
        with pytest.raises(error, match=match):
            run_filter(FilterKind("LGF"), process, obs, Gaussian([0.0], [[1.0]]), [1.0, y])
        assert rows == []

    @pytest.mark.parametrize("family", ["VGF", "VGSF"])
    def test_non_finite_hessian_falls_back_without_warning(self, family):
        # An observation map that is finite at one point but not at stacked
        # points: the misfit and its gradient are finite, but the data-term
        # Hessian, whose probes go to the map in one stacked call, is not, so
        # every step falls back to the linearized update, silently.
        process, _ = bistable_models(BistableSpec())
        obs = ObservationModel(
            observe=lambda n, x: x if len(x) == 1 else np.full(x.shape, np.nan),
            obs_cov=[[0.03]],
            jacobian=lambda n, x: np.array([[1.0]]),
            vectorized=True,
        )
        run = simulate_truth(process, obs, np.array([0.8]), 3, np.random.default_rng(0))
        traj = run_filter(FilterKind(family), process, obs, Gaussian([0.8], [[0.02]]), run.observations)
        assert traj.error is None
        assert [r.diagnostics.fallbacks for r in traj.records[1:]] == [1, 1, 1]
