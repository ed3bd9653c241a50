"""Mirror invariance of the filters on coordinated-turn radar tracking.

Mirroring the plane across the y axis maps (px, vx, omega) to their
negatives and a bearing theta to wrap(pi - theta); range, py and vy stay.
The turn model and the noise covariances are invariant under that map, so
every filter must give mirrored estimates on mirrored data.  The scenarios
put the target near the negative x axis, where the observed bearing wraps
at +-pi while the mirrored bearing stays near 0.
"""

import numpy as np
import pytest

from gaussfilt import (
    FilterKind,
    Gaussian,
    TurnModelSpec,
    measurement_update_points,
    run_filter,
    simulate_truth,
    standard_rule,
    turn_models,
)
from gaussfilt.testbeds import wrap_angle

MIRROR = np.array([-1.0, -1.0, 1.0, 1.0, -1.0])
X0 = np.array([-1000.0, -10.0, 40.0, -2.0, 0.01])
PRIOR_COV = np.diag([100.0, 10.0, 100.0, 10.0, 1e-4])
STEPS = 25
SEEDS = (0, 1)

DETERMINISTIC_KINDS = [FilterKind(f) for f in ("LGF", "LGSF", "VGF", "VGSF")] + [
    FilterKind(f, rule_degree=d) for d in (3, 5) for f in ("CGF", "CGSF")
]


def mirror_observations(ys):
    out = np.array(ys, dtype=float)
    out[..., 1] = wrap_angle(np.pi - out[..., 1])
    return out


@pytest.fixture(scope="module")
def scenarios():
    process, obs = turn_models(TurnModelSpec())
    truths = [
        simulate_truth(process, obs, X0, STEPS, np.random.default_rng(seed)) for seed in SEEDS
    ]
    # The scenarios must exercise the wrap: the bearing crosses +-pi.
    for t in truths:
        assert np.any(np.abs(np.diff(t.observations[:, 1])) > np.pi)
    return process, obs, truths


def position_rmse(traj, truth):
    est = traj.means()
    return float(np.sqrt(np.mean(np.sum((est[1:, [0, 2]] - truth[1:, [0, 2]]) ** 2, axis=1))))


@pytest.mark.parametrize("kind", DETERMINISTIC_KINDS, ids=lambda k: k.label())
def test_tracking_rmse_mirror_invariant(scenarios, kind):
    process, obs, truths = scenarios
    for t in truths:
        original = run_filter(kind, process, obs, Gaussian(X0, PRIOR_COV), t.observations)
        mirrored = run_filter(
            kind, process, obs, Gaussian(MIRROR * X0, PRIOR_COV), mirror_observations(t.observations)
        )
        assert original.error is None and mirrored.error is None
        a = position_rmse(original, t.truth)
        b = position_rmse(mirrored, t.truth * MIRROR)
        assert abs(a - b) <= 1e-3 * a


@pytest.mark.parametrize("degree", [3, 5], ids=["degree3", "degree5"])
def test_point_update_across_bearing_wrap_is_mirror_image(degree):
    # At py = 0 the prior's points fall on both sides of the negative x
    # axis, so their predicted bearings straddle +-pi.
    _, obs = turn_models(TurnModelSpec())
    obs_map = obs.at_step(1)
    mean = np.array([-1000.0, -10.0, 0.0, -2.0, 0.01])
    y = np.array([1001.0, -np.pi + 0.004])
    rule = standard_rule(mean.shape[0], degree)
    post = measurement_update_points(Gaussian(mean, PRIOR_COV), obs_map, y, obs.obs_cov, rule)
    post_m = measurement_update_points(
        Gaussian(MIRROR * mean, PRIOR_COV), obs_map, mirror_observations(y), obs.obs_cov, rule
    )
    assert np.allclose(post_m.mean, MIRROR * post.mean, rtol=1e-9, atol=1e-9)
    assert np.allclose(post_m.cov, np.outer(MIRROR, MIRROR) * post.cov, rtol=1e-9, atol=1e-12)
    # The bearing pulls py below the axis by about 1000 * 0.004 = 4 m.
    assert -5.0 < post.mean[2] < -2.0


@pytest.mark.parametrize("family", ["VGF", "VGSF"])
def test_variational_fallbacks_mirror_invariant(family):
    # Forty steps near the negative x axis: the bearing's rounding near pi
    # (4.4e-16 absolute, against ~1e-18 near 0) must not decide whether the
    # optimizer gives up in one frame only.
    process, obs = turn_models(TurnModelSpec())
    t = simulate_truth(process, obs, X0, 40, np.random.default_rng(2))
    kind = FilterKind(family)
    original = run_filter(kind, process, obs, Gaussian(X0, PRIOR_COV), t.observations)
    mirrored = run_filter(
        kind, process, obs, Gaussian(MIRROR * X0, PRIOR_COV), mirror_observations(t.observations)
    )
    assert original.error is None and mirrored.error is None
    fallbacks = [[rec.diagnostics.fallbacks for rec in traj.records] for traj in (original, mirrored)]
    assert fallbacks[0] == fallbacks[1]
    a = position_rmse(original, t.truth)
    b = position_rmse(mirrored, t.truth * MIRROR)
    assert abs(a - b) <= 1e-3 * a
