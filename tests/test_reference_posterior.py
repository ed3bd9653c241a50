"""An exact reference posterior for the bistable testbed.

A point-mass (grid) filter (Bucy & Senne 1971; Kitagawa 1987) on [-3, 3]
applies the testbed's own Euler-Maruyama substep, read off a one-substep
process model, as a transition matrix on the grid, once per substep (as
matrix-vector products), then multiplies by the observation likelihood.  It
is checked twice: halving its spacing leaves the moments unchanged, and on a
linear drift it is the closed-form Kalman filter of the discretized model.
Every filter family is then compared with it, in exact-posterior sd.
"""

import dataclasses

import numpy as np
import pytest

from gaussfilt import FilterKind, Gaussian, run_filter, simulate_truth
from gaussfilt.filters import ALL_FAMILIES
from gaussfilt.models import SdeSpec, discretize_sde
from gaussfilt.testbeds import BistableSpec, bistable_models

SPEC = BistableSpec()
PRIOR_MEAN, PRIOR_VAR, STEPS = 0.8, 0.02, 20
TRUTH_SEEDS = (0, 1, 2)


def substep_kernel(process, nodes):
    """Transition matrix of one substep of a one-substep scalar ``process``
    with additive noise: column j is the density of x' given x = nodes[j],
    times the grid spacing."""
    zeros = np.zeros_like(nodes)
    mean = process.forward(0, np.column_stack([nodes, zeros]))[:, 0]
    gain = process.forward(0, np.column_stack([nodes, zeros + 1.0]))[:, 0] - mean
    sd = np.abs(gain) * np.sqrt(process.noise_cov[0, 0])
    kernel = nodes[:, None] - mean
    kernel /= sd
    kernel *= kernel
    kernel *= -0.5
    np.exp(kernel, out=kernel)
    kernel *= (nodes[1] - nodes[0]) / (np.sqrt(2.0 * np.pi) * sd)
    return kernel


def grid_filter(one_substep, substeps, obs, observations, n_nodes):
    """Posterior (mean, variance) after each observation, from the prior
    N(PRIOR_MEAN, PRIOR_VAR), on ``n_nodes`` equally spaced nodes."""
    nodes = np.linspace(-3.0, 3.0, n_nodes)
    kernel = substep_kernel(one_substep, nodes)
    r = obs.obs_cov[0, 0]
    density = np.exp(-0.5 * (nodes - PRIOR_MEAN) ** 2 / PRIOR_VAR)
    moments = []
    for k, y in enumerate(observations):
        for _ in range(substeps):
            density = kernel @ density
        predicted = obs.at_step(k + 1).rows(nodes[:, None])[:, 0]
        density = density * np.exp(-0.5 * (y[0] - predicted) ** 2 / r)
        density /= density.sum()
        mean = density @ nodes
        moments.append((mean, density @ (nodes - mean) ** 2))
    return np.array(moments)


def _bistable_truth(seed):
    process, obs = bistable_models(SPEC)
    rng = np.random.default_rng(seed)
    x0 = PRIOR_MEAN + np.sqrt(PRIOR_VAR) * rng.standard_normal(1)
    return simulate_truth(process, obs, x0, STEPS, rng).observations


@pytest.fixture(scope="module")
def exact():
    """The 1,201-node posteriors of the bistable truths, by seed."""
    one_substep, obs = bistable_models(dataclasses.replace(SPEC, substeps=1))
    return {
        seed: grid_filter(one_substep, SPEC.substeps, obs, _bistable_truth(seed), 1201)
        for seed in TRUTH_SEEDS
    }


def test_halving_the_spacing_leaves_the_moments(exact):
    one_substep, obs = bistable_models(dataclasses.replace(SPEC, substeps=1))
    fine = grid_filter(one_substep, SPEC.substeps, obs, _bistable_truth(TRUTH_SEEDS[0]), 2401)
    coarse = exact[TRUTH_SEEDS[0]]
    # measured: 6e-15 sd and 7e-16 relative
    assert np.max(np.abs(coarse[:, 0] - fine[:, 0]) / np.sqrt(fine[:, 1])) <= 1e-9
    assert np.max(np.abs(coarse[:, 1] / fine[:, 1] - 1.0)) <= 1e-9


def test_is_the_kalman_filter_on_a_linear_drift():
    a, vol = 2.0, np.array([[SPEC.sigma]])

    def process(substeps):
        return discretize_sde(SdeSpec(
            drift=lambda t, x: -a * x, volatility=lambda t, x: vol, brownian_dim=1,
            dt=SPEC.dt, substeps=substeps, vectorized=True,
        ))

    _, obs = bistable_models(SPEC)
    rng = np.random.default_rng(4)
    ys = simulate_truth(process(SPEC.substeps), obs, np.array([PRIOR_MEAN]), STEPS, rng).observations
    grid = grid_filter(process(1), SPEC.substeps, obs, ys, 1201)
    # The discretized model over one interval: x' = f x + N(0, q).
    phi = 1.0 - a * SPEC.dt
    f = phi ** SPEC.substeps
    q = SPEC.sigma ** 2 * SPEC.dt * sum(phi ** (2 * j) for j in range(SPEC.substeps))
    r = obs.obs_cov[0, 0]
    m, p = PRIOR_MEAN, PRIOR_VAR
    # measured: 1.3e-15 sd and 4e-16 relative
    for (y,), (grid_mean, grid_var) in zip(ys, grid):
        m, p = f * m, f * f * p + q
        gain = p / (p + r)
        m, p = m + gain * (y - m), (1.0 - gain) * p
        assert abs(grid_mean - m) <= 1e-9 * np.sqrt(p)
        assert abs(grid_var / p - 1.0) <= 1e-9


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_every_family_stays_near_the_exact_posterior(exact, family):
    # Measured over 8 truths: mean errors up to 0.25 sd (LGF, VGF), per-step
    # variance ratios 0.77-1.26 and their geometric means 0.93-1.04.
    process, obs = bistable_models(SPEC)
    kind = FilterKind(family, sample_count=1000)
    for seed in TRUTH_SEEDS:
        traj = run_filter(kind, process, obs, Gaussian([PRIOR_MEAN], [[PRIOR_VAR]]),
                          _bistable_truth(seed), np.random.default_rng(100 + seed))
        assert traj.error is None
        means = traj.means()[1:, 0]
        variances = np.array([rec.posterior.cov[0, 0] for rec in traj.records[1:]])
        exact_mean, exact_var = exact[seed].T
        assert np.max(np.abs(means - exact_mean) / np.sqrt(exact_var)) <= 0.5
        ratio = variances / exact_var
        assert 0.6 <= ratio.min() and ratio.max() <= 1.6
        assert 0.85 <= np.exp(np.mean(np.log(ratio))) <= 1.15


def _mean_error(exact, family):
    """Mean |filter mean - exact mean| in exact-posterior sd over the truths' steps."""
    process, obs = bistable_models(SPEC)
    errors = []
    for seed in TRUTH_SEEDS:
        traj = run_filter(FilterKind(family), process, obs, Gaussian([PRIOR_MEAN], [[PRIOR_VAR]]),
                          _bistable_truth(seed), np.random.default_rng(100 + seed))
        assert traj.error is None
        exact_mean, exact_var = exact[seed].T
        errors.append(np.abs(traj.means()[1:, 0] - exact_mean) / np.sqrt(exact_var))
    return np.mean(errors)


@pytest.mark.parametrize("kernel", ["LG", "VG", "CG"])
def test_conditioning_on_the_next_observation_brings_the_mean_closer(exact, kernel):
    # The paper's claim, on the narrow prior: each smoothing family's mean is
    # nearer the exact posterior mean than its conventional twin's.  Measured
    # (F against SF): LG 0.1116 / 0.1061, VG 0.1116 / 0.0983, CG 0.0189 /
    # 0.0124.  The PG pair is not asserted: on these truths PGSF reads 0.0414
    # against PGF's 0.0410, and on 16 truths of 10 steps 0.0407 against 0.0463.
    assert _mean_error(exact, kernel + "SF") <= _mean_error(exact, kernel + "F")
