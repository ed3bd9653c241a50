"""Machine-independent counters on the per-step path: the kernels build no
checked Gaussian, a cubature, sampling or linearized step factors only the
covariances no kernel handed on a factor for, the variational update inverts
no prior factor, each deterministic cubature rule is built once, the
linearized filters run one Euler-Maruyama pass per linearization point, and
no step calls numpy.linalg's Cholesky, QR, solve or inverse: the counters
count the calls of ``lapack``'s."""

import math

import numpy as np
import pytest

from gaussfilt import (
    BistableSpec,
    DiscreteMeasure,
    FilterKind,
    Gaussian,
    SdeSpec,
    TurnModelSpec,
    bistable_models,
    cubature,
    discretize_sde,
    measurement_update_variational,
    run_filter,
    simulate_truth,
    standard_rule,
    turn_models,
)
from gaussfilt import lapack
from gaussfilt.cubature import symmetric_stencil
from gaussfilt.filters import ALL_FAMILIES, conventional_step, smoothing_step
from gaussfilt.models import ObsFunction, augment, composed_observation


def _counting(monkeypatch, cls):
    """Count the calls of ``cls.__post_init__`` for the rest of the test."""
    calls = []
    original = cls.__post_init__

    def counted(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    return calls


@pytest.fixture
def empty_rule_cache(monkeypatch):
    monkeypatch.setattr(cubature, "_RULES", {})


@pytest.mark.parametrize("family", ["CGF", "CGSF"])
def test_tracking_run_checks_no_gaussian(family, monkeypatch):
    process, obs = turn_models(TurnModelSpec())
    prior = Gaussian(
        [1e3, 3e2, 1e3, 0.0, -3.0 * math.pi / 180.0], np.diag([100.0, 10.0, 100.0, 10.0, 1e-4])
    )
    truth = simulate_truth(process, obs, prior.mean, 20, np.random.default_rng(3))
    checked = _counting(monkeypatch, Gaussian)
    traj = run_filter(FilterKind(family, rule_degree=3), process, obs, prior, truth.observations)
    assert traj.error is None and len(traj.records) == 21
    assert len(checked) == 0


def _counting_linalg(monkeypatch, name, module=lapack):
    """Count the calls of ``module.<name>`` for the rest of the test; every
    factorization, solve and inverse of a step goes through ``lapack``."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("testbed", ["bistable", "tracking"])
def test_no_step_calls_numpy_linalg_factorizations(testbed, monkeypatch):
    # The steps of all eight families factor, solve and invert through
    # ``lapack`` only, never through numpy.linalg's wrappers.
    if testbed == "bistable":
        process, obs = bistable_models(BistableSpec())
        prior = Gaussian([0.8], [[0.02]])
    else:
        process, obs = turn_models(TurnModelSpec())
        prior = Gaussian([1e3, 3e2, 1e3, 0.0, -0.05], np.diag([100.0, 10.0, 100.0, 10.0, 1e-4]))
    truth = simulate_truth(process, obs, prior.mean, 5, np.random.default_rng(5))
    counted = {name: _counting_linalg(monkeypatch, name, np.linalg) for name in ("cholesky", "qr", "solve", "inv")}
    for family in ALL_FAMILIES:
        traj = run_filter(FilterKind(family), process, obs, prior, truth.observations, np.random.default_rng(7))
        assert traj.error is None and len(traj.records) == 6
    assert {name: len(calls) for name, calls in counted.items()} == dict.fromkeys(counted, 0)


def _tracking_cubature_run(family):
    """A 20-step degree-3 run on the coordinated-turn testbed: its
    observations, its trajectory and the step from record n on observation y."""
    process, obs = turn_models(TurnModelSpec())
    prior = Gaussian(
        [1e3, 3e2, 1e3, 0.0, -3.0 * math.pi / 180.0], np.diag([100.0, 10.0, 100.0, 10.0, 1e-4])
    )
    truth = simulate_truth(process, obs, prior.mean, 20, np.random.default_rng(3))
    kind = FilterKind(family, rule_degree=3)
    traj = run_filter(kind, process, obs, prior, truth.observations)
    assert traj.error is None and len(traj.records) == 21
    step = smoothing_step if kind.is_smoothing else conventional_step
    return truth.observations, traj, lambda n, y: step(kind, traj.records[n].posterior, process, obs, y, n)


@pytest.mark.parametrize("family", ["CGF", "CGSF"])
def test_tracking_step_factors_each_covariance_once(family, monkeypatch):
    # Per step: the factor of N = R + Omega and the factor of the time
    # update's moments.  The augmented joint carries the block stack of the
    # posterior's and the noise's factors, and the square-root step hands on
    # L Pi^1/2; only the first step, from a prior that carries no factor,
    # factors the prior in ``augment``.  One QR, of the measurement
    # update's square-root array.  No eigvalsh: only repair_covariance's
    # abort message reads an eigenvalue.
    observations, traj, step = _tracking_cubature_run(family)
    counted = {name: _counting_linalg(monkeypatch, name) for name in ("cholesky", "qr_r")}
    counted["eigvalsh"] = _counting_linalg(monkeypatch, "eigvalsh", np.linalg)
    for n, y in enumerate(observations):
        for calls in counted.values():
            calls.clear()
        posterior = step(n, y)
        assert posterior.mean.tobytes() == traj.records[n + 1].posterior.mean.tobytes()
        factored = 3 if n == 0 else 2
        assert {name: len(calls) for name, calls in counted.items()} == {"cholesky": factored, "qr_r": 1, "eigvalsh": 0}


@pytest.mark.parametrize("family, maps", [("CGF", 1), ("CGSF", 2)])
def test_tracking_step_builds_few_maps_and_converts_no_kernel_array(family, maps, monkeypatch):
    # Per step: the observation map at n + 1, and for CGSF the composed map
    # around it; a push through the forward map builds none.  The one
    # conversion is cholesky_factor's, of the first step's prior, which
    # carries no factor; the kernels' own arrays are not converted again.
    observations, traj, step = _tracking_cubature_run(family)
    built, converted = [], []
    original_init = ObsFunction.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        original_init(self, *args, **kwargs)

    def counting(convert):
        def counted(*args):
            converted.append(convert.__name__)
            return convert(*args)

        return counted

    monkeypatch.setattr(ObsFunction, "__init__", counted_init)
    for name in ("atleast_1d", "atleast_2d"):
        monkeypatch.setattr(np, name, counting(getattr(np, name)))
    for n, y in enumerate(observations):
        built.clear()
        converted.clear()
        posterior = step(n, y)
        assert posterior.mean.tobytes() == traj.records[n + 1].posterior.mean.tobytes()
        assert (len(built), converted) == (maps, ["atleast_2d"] if n == 0 else [])


@pytest.mark.parametrize(
    "family, maps",
    [("LGF", 1), ("LGSF", 2), ("VGF", 1), ("VGSF", 2), ("CGF", 1), ("CGSF", 2), ("PGF", 1), ("PGSF", 2)],
)
def test_bistable_step_builds_one_observation_map(family, maps, monkeypatch):
    # Per step: the observation map at n + 1, and for an SF family the
    # composed map around it.  Linearizing or pushing points through the
    # forward map builds none, in any kernel.  The sampling families replay
    # the run's draws from a generator seeded alike.
    process, obs = bistable_models(BistableSpec())
    prior = Gaussian([0.8], [[0.02]])
    truth = simulate_truth(process, obs, prior.mean, 20, np.random.default_rng(5))
    kind = FilterKind(family)
    traj = run_filter(kind, process, obs, prior, truth.observations, np.random.default_rng(7))
    assert traj.error is None and len(traj.records) == 21
    step = smoothing_step if kind.is_smoothing else conventional_step
    rng, built = np.random.default_rng(7), []
    original_init = ObsFunction.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(ObsFunction, "__init__", counted_init)
    for n, y in enumerate(truth.observations):
        built.clear()
        posterior = step(kind, traj.records[n].posterior, process, obs, y, n, rng)
        assert posterior.mean.tobytes() == traj.records[n + 1].posterior.mean.tobytes()
        assert len(built) == maps


@pytest.mark.parametrize(
    "family, factored, inverted, square_root",
    [("LGF", 2, 0, 1), ("LGSF", 2, 0, 1), ("VGF", 4, 2, 0), ("VGSF", 4, 2, 0)],
    ids=["LGF-4-1", "LGSF-4-1", "VGF-5-2", "VGSF-5-2"],  # the ids these cases had before square_root
)
def test_bistable_linearized_step_factors_each_covariance_once(family, factored, inverted, square_root, monkeypatch):
    # Per step: the factor of the time update's covariance, and R's factor,
    # one QR of the square-root array and one solve against S^1/2 (LGF,
    # LGSF), or the factors of R, of I + H_d and of the posterior covariance
    # and the first two's inverses (VGF, VGSF).  The augmented joint, whose
    # factor the linearizations take as their basis, carries the block stack
    # of the posterior's and the noise's factors, and the square-root step
    # hands on its factor; only the first step, from a prior that carries no
    # factor, factors the prior in ``augment``.
    process, obs = bistable_models(BistableSpec())
    prior = Gaussian([0.8], [[0.02]])
    truth = simulate_truth(process, obs, prior.mean, 5, np.random.default_rng(5))
    kind = FilterKind(family)
    traj = run_filter(kind, process, obs, prior, truth.observations)
    assert traj.error is None
    step = smoothing_step if kind.is_smoothing else conventional_step
    counted = {name: _counting_linalg(monkeypatch, name) for name in ("cholesky", "inv", "solve", "qr_r")}
    for n, y in enumerate(truth.observations):
        for calls in counted.values():
            calls.clear()
        posterior = step(kind, traj.records[n].posterior, process, obs, y, n)
        assert posterior.mean.tobytes() == traj.records[n + 1].posterior.mean.tobytes()
        assert traj.records[n + 1].diagnostics.fallbacks == 0
        assert {name: len(calls) for name, calls in counted.items()} == {
            "cholesky": factored + (n == 0), "inv": inverted, "solve": square_root, "qr_r": square_root
        }


@pytest.mark.parametrize("family", ["PGF", "PGSF"])
def test_bistable_sampling_step_factors_each_covariance_once(family, monkeypatch):
    # Per step: the sample covariance's factor and its inverse, the factor of
    # N = R + Omega, one QR of the square-root array and one solve against
    # S^1/2, and the factor of the time update's covariance.  The augmented
    # joint carries the block stack of the posterior's and the noise's
    # factors, and the square-root step hands on its factor; only the first
    # step, from a prior that carries no factor, factors the prior in
    # ``augment``.  The steps replay the run's draws from a generator seeded alike.
    process, obs = bistable_models(BistableSpec())
    prior, kind = Gaussian([0.8], [[0.02]]), FilterKind(family)
    truth = simulate_truth(process, obs, prior.mean, 5, np.random.default_rng(5))
    traj = run_filter(kind, process, obs, prior, truth.observations, np.random.default_rng(7))
    assert traj.error is None
    step = smoothing_step if kind.is_smoothing else conventional_step
    counted = {name: _counting_linalg(monkeypatch, name) for name in ("cholesky", "inv", "solve", "qr_r")}
    counted["eigvalsh"] = _counting_linalg(monkeypatch, "eigvalsh", np.linalg)
    rng = np.random.default_rng(7)
    for n, y in enumerate(truth.observations):
        for calls in counted.values():
            calls.clear()
        posterior = step(kind, traj.records[n].posterior, process, obs, y, n, rng)
        assert posterior.mean.tobytes() == traj.records[n + 1].posterior.mean.tobytes()
        assert {name: len(calls) for name, calls in counted.items()} == {
            "cholesky": 4 if n == 0 else 3, "inv": 1, "solve": 1, "qr_r": 1, "eigvalsh": 0
        }


def test_variational_update_inverts_no_prior_factor(monkeypatch):
    # One bistable VGSF measurement update, in the 21-dim joint: Cholesky
    # factors of the prior state's (in ``augment``), of R, of I + H_d and of
    # the posterior covariance, and the inverses of R's factor and of
    # I + H_d's.  The Hessian is taken in the prior's whitened coordinates,
    # so the prior's factor is never inverted and nothing is solved against it.
    process, obs = bistable_models(BistableSpec())
    psi = composed_observation(process, obs, 0)
    counted = {name: _counting_linalg(monkeypatch, name) for name in ("cholesky", "inv", "solve")}
    prior = augment(Gaussian([0.8], [[0.02]]), process, 0)
    posterior = measurement_update_variational(prior, psi, np.array([0.95]), obs.obs_cov)
    assert posterior.dim == 21
    assert {name: len(calls) for name, calls in counted.items()} == {"cholesky": 4, "inv": 2, "solve": 0}


def test_each_deterministic_rule_is_built_once(empty_rule_cache, monkeypatch):
    built = _counting(monkeypatch, DiscreteMeasure)
    for _ in range(3):
        for degree in (3, 5):
            for k in (1, 4, 21):
                assert standard_rule(k, degree) is standard_rule(k, degree)
    assert len(built) == 6


def test_cached_rule_is_read_only():
    mu = standard_rule(3, degree=5)
    with pytest.raises(ValueError, match="read-only"):
        mu.points[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        mu.weights[0] = 1.0


def test_sampled_draws_are_fresh():
    rng = np.random.default_rng(0)
    a = standard_rule(3, samples=10, rng=rng)
    b = standard_rule(3, samples=10, rng=rng)
    assert not np.array_equal(a.points, b.points)


def test_cached_degree5_rule_equals_a_fresh_stencil(empty_rule_cache):
    k = 21
    fresh = symmetric_stencil(np.sqrt(k + 2.0) * np.eye(k), np.sqrt((k + 2.0) / 2.0) * np.eye(k))
    for _ in range(2):  # built, then taken from the cache
        assert standard_rule(k, degree=5).points.tobytes() == fresh.tobytes()


def test_vgsf_runs_one_substep_pass_per_linearization_point():
    # Each step's misfit evaluation points are the BFGS start and one accepted
    # point per iteration (this scenario never backtracks); each point costs
    # one pass of the 20 substeps, as do the stacked Hessian and the time
    # update.  A pass is counted as the drift calls of its substeps.
    spec = BistableSpec()
    _, obs = bistable_models(spec)
    calls = []

    def drift(t, x):
        calls.append(round(t / spec.dt) // spec.substeps)  # the filter step
        return spec.beta * x * (1.0 - x * x)

    process = discretize_sde(
        SdeSpec(
            drift=drift,
            volatility=lambda t, x: np.array([[spec.sigma]]),
            brownian_dim=1,
            dt=spec.dt,
            substeps=spec.substeps,
            drift_jacobian=lambda t, x: np.array([[spec.beta * (1.0 - 3.0 * x[0] ** 2)]]),
            volatility_state_independent=True,
            vectorized=True,
        )
    )
    prior = Gaussian([0.8], [[0.02]])
    truth = simulate_truth(process, obs, prior.mean, 20, np.random.default_rng(5))
    calls.clear()
    traj = run_filter(FilterKind("VGSF"), process, obs, prior, truth.observations)
    assert traj.error is None and len(traj.records) == 21
    for n, rec in enumerate(traj.records[1:]):
        assert rec.diagnostics.fallbacks == 0
        points = rec.diagnostics.bfgs_iterations + 1
        assert calls.count(n) <= spec.substeps * (points + 2)


def _counted_bistable_sde(calls, shared=None):
    """The bistable SDE of ``bistable_models`` with a drift that records the
    filter step of each call; ``shared`` supplies the one array that
    ``drift_jacobian`` and ``volatility`` return."""
    spec = BistableSpec()

    def drift(t, x):
        calls.append(round(t / spec.dt) // spec.substeps)
        return spec.beta * x * (1.0 - x * x)

    def drift_jacobian(t, x):
        if shared is None:
            return np.array([[spec.beta * (1.0 - 3.0 * x[0] ** 2)]])
        shared["jac"][0, 0] = spec.beta * (1.0 - 3.0 * x[0] ** 2)
        shared["returned"].append(shared["jac"].copy())
        return shared["jac"]

    vol = np.array([[spec.sigma]]) if shared is None else shared["vol"]
    return spec, SdeSpec(
        drift=drift,
        volatility=lambda t, x: vol,
        brownian_dim=1,
        dt=spec.dt,
        substeps=spec.substeps,
        drift_jacobian=drift_jacobian,
        volatility_state_independent=True,
        vectorized=True,
    )


def test_vgsf_time_update_reuses_the_last_linearization():
    # The time update linearizes at the minimizer, the point the last misfit
    # evaluation has just linearized; only the BFGS points and the stacked
    # Hessian cost a pass each.
    calls = []
    spec, sde = _counted_bistable_sde(calls)
    process = discretize_sde(sde)
    _, obs = bistable_models(spec)
    prior = Gaussian([0.8], [[0.02]])
    truth = simulate_truth(process, obs, prior.mean, 20, np.random.default_rng(5))
    calls.clear()
    traj = run_filter(FilterKind("VGSF"), process, obs, prior, truth.observations)
    assert traj.error is None and len(traj.records) == 21
    for n, rec in enumerate(traj.records[1:]):
        assert rec.diagnostics.fallbacks == 0
        points = rec.diagnostics.bfgs_iterations + 1
        assert calls.count(n) <= spec.substeps * (points + 1)


def test_linearization_memo_equals_a_fresh_pass():
    calls = []
    _, sde = _counted_bistable_sde(calls)
    process = discretize_sde(sde)
    rng = np.random.default_rng(2)
    z0, z1 = (np.concatenate([[0.7], 0.1 * rng.standard_normal(20)]) for _ in range(2))
    # Only a repeat of the point just before is a hit and runs no substeps.
    sequence = [(0, z0, 20), (0, z0, 0), (3, z0, 20), (3, z1, 20), (0, z1, 20), (0, z1, 0),
                (0, z0, 20), (0, z0 + 1e-15, 20)]
    for n, z, substeps in sequence:
        calls.clear()
        value, jac = process.value_and_jacobian(n, z.copy())
        assert len(calls) == substeps
        ref_value, ref_jac = discretize_sde(sde).value_and_jacobian(n, z)
        assert value.tobytes() == ref_value.tobytes() and jac.tobytes() == ref_jac.tobytes()


def test_models_from_one_spec_keep_their_own_memo():
    calls = []
    _, sde = _counted_bistable_sde(calls)
    first, second = discretize_sde(sde), discretize_sde(sde)
    z0 = np.concatenate([[0.8], np.full(20, 0.05)])
    z1 = np.concatenate([[-0.3], np.full(20, -0.02)])
    a = first.value_and_jacobian(1, z0)
    calls.clear()
    b = second.value_and_jacobian(1, z0)
    assert len(calls) == 20  # the second model ran its own pass
    assert a[0].tobytes() == b[0].tobytes() and a[1].tobytes() == b[1].tobytes()
    c = first.value_and_jacobian(1, z1)
    calls.clear()
    assert second.value_and_jacobian(1, z0)[0].tobytes() == b[0].tobytes()
    assert len(calls) == 0  # still its own last point, untouched by the first model's
    assert c[0].tobytes() != b[0].tobytes()


def test_linearization_is_read_only():
    _, sde = _counted_bistable_sde([])
    value, jac = discretize_sde(sde).value_and_jacobian(0, np.full(21, 0.1))
    with pytest.raises(ValueError, match="read-only"):
        value[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        jac[0, 0] = 1.0


def test_shared_model_arrays_are_not_written():
    # The model fills one drift-Jacobian array and returns one volatility
    # array on every call; a pass must leave both as the model left them.
    shared = {"jac": np.array([[0.0]]), "vol": np.array([[0.5]]), "returned": []}
    _, sde = _counted_bistable_sde([], shared)
    process = discretize_sde(sde)
    z = np.concatenate([[0.8], np.full(20, 0.05)])
    process.value_and_jacobian(0, z)
    assert len(shared["returned"]) == 20
    assert shared["jac"].tobytes() == shared["returned"][-1].tobytes()
    process.propagate(0, z[:1], z[1:])
    process.forward(0, np.tile(z, (4, 1)))
    assert shared["vol"].tobytes() == np.array([[0.5]]).tobytes()
