"""The deterministic filters in other units and about another origin.

In the frame x' = D x + a, with D diagonal and positive, the conjugated
models and the prior N(D m + a, D P D) pose the same filtering problem on the
same observations: for the SDE testbeds the drift D b(D^-1 (x' - a)) and
volatility D s(...), for tracking the forward map D f(D^-1 (x' - a), D^-1 xi')
+ a with noise covariance D Gamma D; and the observation map h(D^-1 (x' - a)).
Every deterministic family must then return D m + a and D P D at each step,
up to rounding.  The turn model has no Jacobian, so tracking also checks the
differences taken along the prior factor's columns.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaussfilt import (
    BistableSpec,
    FilterKind,
    Gaussian,
    Lorenz63Spec,
    ProcessModel,
    TurnModelSpec,
    bistable_models,
    discretize_sde,
    lorenz63_models,
    run_filter,
    simulate_truth,
    testbeds,
    turn_models,
)

STEPS = 5

# testbed -> (model constructor, spec, prior mean, prior covariance)
CASES = {
    "bistable": (bistable_models, BistableSpec(), [0.8], [[0.02]]),
    "lorenz63": (lorenz63_models, Lorenz63Spec(), [1.0, 1.0, 1.0], np.eye(3)),
    "tracking": (
        turn_models,
        TurnModelSpec(),
        [1e3, 3e2, 1e3, 0.0, -3.0 * np.pi / 180.0],
        np.diag([100.0, 10.0, 100.0, 10.0, 1e-4]),
    ),
}

# The largest move of any step's mean, in posterior sd, and of its variances,
# relative, per family on the SDE testbeds.  Worst cases reached over 520
# random and extreme frames: LGF, LGSF, CGF3 and CGSF3 1.9e-11 and 2.6e-11;
# VGF 5.5e-7 and 6.3e-7; VGSF 9.2e-7 and 3.8e-6, all on Lorenz-63.
TOLERANCES = {
    "LGF": (1e-9, 1e-9),
    "LGSF": (1e-9, 1e-9),
    "CGF": (1e-9, 1e-9),
    "CGSF": (1e-9, 1e-9),
    "VGF": (1e-5, 1e-5),
    "VGSF": (1e-5, 5e-5),
}
# On tracking, LGF, LGSF, VGF and VGSF difference the turn model along the
# prior factor's columns; the rounding of x, up to 1e4 sd from the origin,
# sets their floor.  Worst cases reached over 302 random and extreme frames
# with the central difference's step power 1/3: LGF 2.7e-8 and 3.5e-8, LGSF
# 2.3e-8 and 4.3e-8, VGF 2.1e-7 and 4.5e-7, VGSF 1.2e-6 and 1.8e-6 (BFGS's
# tolerance bounds these two).  With power 1/2, over 800 frames: LGF 2.2e-6
# and 3.2e-6, LGSF 2.1e-6 and 4.1e-6, VGF 2.4e-6 and 3.9e-6, VGSF 2.4e-6 and
# 4.9e-6.  CGF3 and CGSF3 difference nothing: 7.1e-12 and 4.9e-12.
TRACKING_TOLERANCES = {
    **TOLERANCES,
    "LGF": (1e-5, 2e-5),
    "LGSF": (1e-5, 2e-5),
    "VGF": (1e-5, 2e-5),
}


def _sde_and_obs(make_models, spec):
    """The ``SdeSpec`` that ``make_models`` discretizes, and its observation model."""
    with mock.patch.object(testbeds, "discretize_sde", wraps=discretize_sde) as disc:
        _, obs = make_models(spec)
    return disc.call_args.args[0], obs


def in_frame(sde, obs, scale, shift):
    """The process and observation models in the frame x' = scale * x + shift."""
    back = lambda x: (x - shift) / scale
    conjugated = dataclasses.replace(
        sde,
        drift=lambda t, x: scale * sde.drift(t, back(x)),
        volatility=lambda t, x: scale[:, None] * sde.volatility(t, back(x)),
        drift_jacobian=lambda t, x: scale[:, None] * np.atleast_2d(sde.drift_jacobian(t, back(x))) / scale,
    )
    observed = dataclasses.replace(
        obs,
        observe=lambda n, x: obs.observe(n, back(x)),
        jacobian=lambda n, x: np.atleast_2d(obs.jacobian(n, back(x))) / scale,
    )
    return discretize_sde(conjugated), observed


def turn_in_frame(process, obs, scale, shift):
    """The turn model and radar in the frame x' = scale * x + shift."""
    back = lambda x: (x - shift) / scale
    moved = ProcessModel(
        propagate=lambda n, x, xi: scale * process.propagate(n, back(x), xi / scale) + shift,
        noise_cov=scale[:, None] * process.noise_cov * scale,
        state_dim=process.state_dim,
        vectorized=process.vectorized,
    )
    observed = dataclasses.replace(
        obs,
        observe=lambda n, x: obs.observe(n, back(x)),
        jacobian=lambda n, x: np.atleast_2d(obs.jacobian(n, back(x))) / scale,
    )
    return moved, observed


def _models(testbed, scale, shift, spec=None):
    """The testbed's models, with ``spec`` in place of its own if given, and
    the same models in the frame x' = scale * x + shift."""
    make_models, spec = CASES[testbed][0], spec or CASES[testbed][1]
    if testbed == "tracking":
        process, obs = make_models(spec)
        return (process, obs), turn_in_frame(process, obs, scale, shift)
    sde, obs = _sde_and_obs(make_models, spec)
    return (discretize_sde(sde), obs), in_frame(sde, obs, scale, shift)


def frame_moves(kind, testbed, scale, offset_sd, seed, spec=None, steps=STEPS):
    """The largest move of the means, in posterior sd, and of the variances,
    relative, from the original frame to x' = scale * x + a, where a is
    ``offset_sd`` prior sd of the new frame, over ``steps`` steps of the
    testbed with ``spec`` (default: its own); and the jitters both frames
    counted."""
    mean, cov = (np.array(v) for v in CASES[testbed][2:])
    shift = offset_sd * scale * np.sqrt(np.diag(cov))
    (process, obs), (moved_process, moved_obs) = _models(testbed, scale, shift, spec)
    truth = simulate_truth(process, obs, mean, steps, np.random.default_rng(seed))
    original = run_filter(kind, process, obs, Gaussian(mean, cov), truth.observations)
    moved_prior = Gaussian(scale * mean + shift, scale[:, None] * cov * scale)
    moved = run_filter(kind, moved_process, moved_obs, moved_prior, truth.observations)
    assert original.error is None and moved.error is None
    sd = np.sqrt([r.posterior.cov.diagonal() for r in original.records])
    mean_move = np.abs((moved.means() - shift) / scale - original.means()) / sd
    var_back = np.array([r.posterior.cov.diagonal() for r in moved.records]) / scale ** 2
    var_move = np.abs(var_back / sd ** 2 - 1.0)
    jitters = sum(r.diagnostics.jitters for r in original.records + moved.records)
    return float(mean_move.max()), float(var_move.max()), jitters


def assert_within_tolerance(kind, testbed, moves):
    table = TRACKING_TOLERANCES if testbed == "tracking" else TOLERANCES
    mean_tol, var_tol = table[kind.family]
    assert moves[0] <= mean_tol and moves[1] <= var_tol


@st.composite
def frames(draw):
    """A testbed, a diagonal D with entries from 1e-6 to 1e6, an offset of
    up to 1e4 prior sd per component, and a truth seed."""
    testbed = draw(st.sampled_from(sorted(CASES)))
    d = len(CASES[testbed][2])
    scale = 10.0 ** np.array(draw(st.lists(st.floats(-6.0, 6.0), min_size=d, max_size=d)))
    offset_sd = np.array(draw(st.lists(st.floats(-1e4, 1e4), min_size=d, max_size=d)))
    return testbed, scale, offset_sd, draw(st.integers(0, 3))


KINDS = [FilterKind(f) for f in ("LGF", "LGSF", "VGF", "VGSF")] + [
    FilterKind(f, rule_degree=3) for f in ("CGF", "CGSF")
]


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label())
@settings(max_examples=60, deadline=None)
@given(frames())
# Rounding in the state, 1e4 sd from the origin, hid VGSF's last BFGS decrease
# at step 2 here; its failed line search sent the step to the linear update.
@example(("lorenz63", np.array([33.770630848670365, 10**0.5, 1.018151721718182]), np.array([7762.0, 5181.0, 9187.25]), 1))
def test_estimates_map_through_a_change_of_units_and_origin(kind, frame):
    assert_within_tolerance(kind, frame[0], frame_moves(kind, *frame))


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label())
@pytest.mark.parametrize(
    "testbed, scale, offset_sd",
    [
        ("lorenz63", [1e6, 1e-6, 1e3], [0.0, 0.0, 0.0]),
        ("lorenz63", [1e-6, 1e6, 1.0], [1e4, 1e4, 0.0]),
        ("bistable", [1e-4], [0.0]),
        ("bistable", [1.0], [1e4]),
    ],
    ids=["lorenz-mixed-units", "lorenz-mixed-units-far-origin", "bistable-small-units", "bistable-far-origin"],
)
def test_frames_that_moved_the_x_space_hessian(kind, testbed, scale, offset_sd):
    # With the Hessian differenced in x, VGF and VGSF moved 0.14-0.19 sd and
    # 52-67% in variance in the Lorenz-63 frames, and VGSF 4.8% and 9.2e-5
    # in variance in the bistable ones.
    moves = frame_moves(kind, testbed, np.array(scale), np.array(offset_sd), 0)
    assert_within_tolerance(kind, testbed, moves)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label())
@pytest.mark.parametrize(
    "scale, offset_sd",
    [
        ([1e3] * 5, [0.0] * 5),
        ([1e-6, 1e6, 1e-6, 1e6, 1.0], [1e4, -1e4, 1e4, -1e4, 0.0]),
    ],
    ids=["tracking-millimetres", "tracking-mixed-units-far-origin"],
)
def test_frames_that_moved_the_x_unit_differences(kind, scale, offset_sd):
    # With the turn model differenced in x units, LGF, LGSF, VGF and VGSF
    # moved 7.0e-4 to 3.7e-3 sd in millimetres, and LGF and VGF 0.060 sd and
    # 15% in variance in the mixed frame; along the prior factor's columns,
    # at most 8.8e-7 sd and 1.3e-6 in variance with step power 1/2, and
    # 7.5e-7 sd and 9.8e-7 (VGSF; LGF and LGSF 1.6e-8) with power 1/3.
    moves = frame_moves(kind, "tracking", np.array(scale), np.array(offset_sd), 0)
    assert_within_tolerance(kind, "tracking", moves)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.label())
def test_singular_joint_in_mixed_units_far_from_the_origin(kind):
    # With no turn-rate noise (q = 0) the augmented joint has a zero row at
    # every step.  A jitter of eps trace(C)/d I, in the units of the joint's
    # largest block, moved LGF, LGSF, VGF and VGSF 4.8 sd here (variances up
    # to 5e25 times) and CGF3 and CGSF3 2e7 sd, with 40 to 129 jitters per
    # frame.  The zero row now gets a zero row in the factor, and no jitter:
    # worst moves 1.8e-6 sd and 2.7e-6 in variance (VGSF), 2.8e-8 and
    # 3.1e-8 (LGF, LGSF) and 2e-11 (CGF3, CGSF3).
    moves = frame_moves(
        kind,
        "tracking",
        np.array([1e-6, 1e6, 1e-6, 1e6, 1.0]),
        np.array([1e4, -1e4, 1e4, -1e4, 0.0]),
        1,
        TurnModelSpec(q=0.0),
        40,
    )
    assert_within_tolerance(kind, "tracking", moves)
    assert moves[2] == 0
