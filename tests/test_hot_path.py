"""Machine-independent counters on the per-step path: the kernels build no
checked Gaussian, and each deterministic cubature rule is built once."""

import math

import numpy as np
import pytest

from gaussfilt import (
    DiscreteMeasure,
    FilterKind,
    Gaussian,
    TurnModelSpec,
    cubature,
    cubature3,
    cubature5,
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
