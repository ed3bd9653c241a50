"""Property tests on random PSD priors: the point-based kernels agree with
the linear (Kalman) kernels on linear maps, posteriors stay PSD, and every
kernel returns a Gaussian that passes the public ``Gaussian`` check, which
the kernels themselves skip.

Dimensions run over k = 1..8, so the degree-5 rule also meets its negative
axis weights (k > 4).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gaussfilt import (
    Diagnostics,
    Gaussian,
    ProcessModel,
    augment,
    cubature3,
    cubature5,
    measurement_update_linear,
    measurement_update_points,
    time_update_linear,
    time_update_points,
)
from gaussfilt.models import ObsFunction

RULES = [cubature3(), cubature5()]
BOUNDED = settings(max_examples=50, deadline=None)


def _matrix(rows, cols):
    return arrays(float, (rows, cols), elements=st.floats(-2.0, 2.0))


@st.composite
def psd(draw, k):
    """A k x k covariance A A^T + 0.1 I with bounded random A."""
    a = draw(_matrix(k, k))
    return a @ a.T + 0.1 * np.eye(k)


@st.composite
def gaussians(draw, k):
    mean = draw(arrays(float, k, elements=st.floats(-5.0, 5.0)))
    return Gaussian(mean, draw(psd(k)))


def assert_agree(a: Gaussian, b: Gaussian):
    for got, want in ((a.mean, b.mean), (a.cov, b.cov)):
        assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))


def assert_psd(g: Gaussian):
    assert np.linalg.eigvalsh(g.cov)[0] >= -1e-12 * max(1.0, np.trace(g.cov))


@st.composite
def linear_measurement_cases(draw):
    k = draw(st.integers(1, 8))
    out = draw(st.integers(1, 3))
    h = draw(_matrix(out, k))
    obs_map = ObsFunction(fn=lambda xs: xs @ h.T, jacobian=lambda x: h, vectorized=True, out_dim=out)
    y = draw(arrays(float, out, elements=st.floats(-10.0, 10.0)))
    return draw(gaussians(k)), obs_map, y, draw(psd(out))


@st.composite
def linear_time_cases(draw):
    d = draw(st.integers(1, 4))
    dd = draw(st.integers(1, 8 - d))
    a, b = draw(_matrix(d, d)), draw(_matrix(d, dd))
    process = ProcessModel(
        propagate=lambda n, x, xi: x @ a.T + xi @ b.T,
        noise_cov=draw(psd(dd)),
        state_dim=d,
        noise_dim=dd,
        jacobian=lambda n, x, xi: np.hstack([a, b]),
        vectorized=True,
    )
    # A full joint covariance, as conditioning on the next observation leaves.
    return draw(gaussians(d + dd)), process


@BOUNDED
@given(linear_measurement_cases())
def test_point_measurement_update_is_kalman_on_linear_maps(case):
    prior, obs_map, y, r = case
    exact = measurement_update_linear(prior, obs_map, y, r)
    assert_psd(exact)
    for rule in RULES:
        post = measurement_update_points(prior, obs_map, y, r, rule)
        assert_agree(post, exact)
        assert_psd(post)


@BOUNDED
@given(linear_time_cases())
def test_point_time_update_is_exact_on_linear_maps(case):
    aug, process = case
    exact = time_update_linear(aug, process, 0)
    assert_psd(exact)
    for rule in RULES:
        pred = time_update_points(aug, process, 0, rule)
        assert_agree(pred, exact)
        assert_psd(pred)


def assert_passes_public_check(g: Gaussian):
    checked = Gaussian(g.mean, g.cov)
    assert checked.mean.tobytes() == g.mean.tobytes() and checked.cov.tobytes() == g.cov.tobytes()


def _full_rank_map(h, out):
    # A dominant leading block keeps H of full row rank, so H P H^T is
    # positive definite even when the observation is exact.
    h[:, :out] += 10.0 * np.eye(out)
    return ObsFunction(fn=lambda xs: xs @ h.T, jacobian=lambda x: h, vectorized=True, out_dim=out)


@st.composite
def exact_or_noisy_observations(draw, k):
    """A full-row-rank linear map of a k-dim belief, an observation, and its
    noise covariance: random, or zero.  An exact observation leaves a
    singular posterior whose zero eigenvalues come out of the update as
    rounding of either sign, so ``repair_covariance`` shifts the negative ones."""
    out = draw(st.integers(1, min(3, k)))
    obs_map = _full_rank_map(draw(_matrix(out, k)), out)
    y = draw(arrays(float, out, elements=st.floats(-10.0, 10.0)))
    return obs_map, y, draw(psd(out)) * draw(st.sampled_from([0.0, 1.0]))


# The linear and the point measurement updates, as (prior, map, y, R, diag) -> posterior.
MEASUREMENT_UPDATES = [measurement_update_linear] + [
    lambda prior, obs_map, y, r, diag, rule=rule: measurement_update_points(prior, obs_map, y, r, rule, diag=diag)
    for rule in RULES
]


@BOUNDED
@given(st.integers(1, 8).flatmap(lambda k: st.tuples(gaussians(k), exact_or_noisy_observations(k))))
def test_measurement_updates_pass_the_public_check(case):
    prior, (obs_map, y, r) = case
    for update in MEASUREMENT_UPDATES:
        assert_passes_public_check(update(prior, obs_map, y, r, None))


@BOUNDED
@given(linear_time_cases(), st.data())
def test_augment_and_time_updates_pass_the_public_check(case, data):
    joint, process = case
    # Also propagate a joint left singular by an exact observation, as the
    # noise-conditioning ordering does.
    obs_map, y, r = data.draw(exact_or_noisy_observations(joint.dim))
    conditioned = measurement_update_linear(joint, obs_map, y, r)
    d = process.state_dim
    state = Gaussian(joint.mean[:d], joint.cov[:d, :d])
    assert_passes_public_check(augment(state, process, 0))
    for belief in (joint, conditioned):
        assert_passes_public_check(time_update_linear(belief, process, 0))
        for rule in RULES:
            assert_passes_public_check(time_update_points(belief, process, 0, rule))


def test_exact_observations_exercise_the_repair():
    # The property tests above include covariances that repair_covariance
    # shifted: with exact observations, every measurement kernel shifts some.
    rng = np.random.default_rng(0)
    shifted = [0] * len(MEASUREMENT_UPDATES)
    for k in range(1, 9):
        for _ in range(4):
            a = rng.uniform(-2.0, 2.0, (k, k))
            prior = Gaussian(rng.uniform(-5.0, 5.0, k), a @ a.T + 0.1 * np.eye(k))
            out = min(k, 2)
            obs_map = _full_rank_map(rng.uniform(-2.0, 2.0, (out, k)), out)
            y, r = rng.uniform(-10.0, 10.0, out), np.zeros((out, out))
            for i, update in enumerate(MEASUREMENT_UPDATES):
                diag = Diagnostics()  # only repair_covariance counts here: the prior is definite
                assert_passes_public_check(update(prior, obs_map, y, r, diag))
                shifted[i] += diag.jitters
    assert min(shifted) > 0, shifted
