"""Property tests on random PSD priors: the point-based kernels agree with
the linear (Kalman) kernels on linear maps, and posteriors stay PSD.

Dimensions run over k = 1..8, so the degree-5 rule also meets its negative
axis weights (k > 4).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gaussfilt import (
    AugmentedGaussian,
    Gaussian,
    ProcessModel,
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
    return AugmentedGaussian(draw(gaussians(d + dd)), d), process


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
