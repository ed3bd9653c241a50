"""Machine-independent counters on the per-step path: the kernels build no
checked Gaussian, each deterministic cubature rule is built once, and the
linearized filters run one Euler-Maruyama pass per linearization point."""

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
    cubature3,
    cubature5,
    discretize_sde,
    empirical,
    run_filter,
    simulate_truth,
    standard_rule,
    turn_models,
)
from gaussfilt.cubature import symmetric_stencil


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


def test_each_deterministic_rule_is_built_once(empty_rule_cache, monkeypatch):
    built = _counting(monkeypatch, DiscreteMeasure)
    for _ in range(3):
        for kind in (cubature3(), cubature5()):
            for k in (1, 4, 21):
                assert standard_rule(kind, k) is standard_rule(kind, k)
    assert len(built) == 6


def test_cached_rule_is_read_only():
    mu = standard_rule(cubature5(), 3)
    with pytest.raises(ValueError, match="read-only"):
        mu.points[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        mu.weights[0] = 1.0


def test_empirical_draws_are_fresh():
    rng = np.random.default_rng(0)
    a = standard_rule(empirical(10), 3, rng)
    b = standard_rule(empirical(10), 3, rng)
    assert not np.array_equal(a.points, b.points)


def test_cached_degree5_rule_equals_a_fresh_stencil(empty_rule_cache):
    k = 21
    fresh = symmetric_stencil(np.full(k, np.sqrt(k + 2.0)), np.full(k, np.sqrt((k + 2.0) / 2.0)))
    for _ in range(2):  # built, then taken from the cache
        assert standard_rule(cubature5(), k).points.tobytes() == fresh.tobytes()


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
