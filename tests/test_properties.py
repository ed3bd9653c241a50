"""Property tests on random PSD priors: the point-based kernels agree with
the linear (Kalman) kernels on linear maps, posteriors stay PSD, and every
kernel returns a Gaussian that passes the public ``Gaussian`` check, which
the kernels themselves skip.

Dimensions run over k = 1..8, so the degree-5 rule also meets its negative
axis weights (k > 4).  Whole runs on linear-Gaussian models from diffuse
priors, up to 10^300 times the observation noise, match the closed-form
Kalman filter.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gaussfilt import (
    BistableSpec,
    Diagnostics,
    FilterKind,
    Gaussian,
    ObservationModel,
    ProcessModel,
    TurnModelSpec,
    augment,
    bistable_models,
    cholesky_factor,
    gaussian,
    measurement_update_linear,
    measurement_update_points,
    run_filter,
    simulate_truth,
    standard_rule,
    time_update_linear,
    time_update_points,
    turn_models,
)
from gaussfilt.errors import NotPositiveDefinite
from gaussfilt.filters import ALL_FAMILIES
from gaussfilt.gaussian import repair_covariance
from gaussfilt.models import ObsFunction
from oracles import condition

DEGREES = (3, 5)
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
    obs_map = ObsFunction(fn=lambda xs: xs @ h.T, linearize=lambda x, b: (x @ h.T, h @ b), vectorized=True, out_dim=out)
    y = draw(arrays(float, out, elements=st.floats(-10.0, 10.0)))
    return draw(gaussians(k)), obs_map, y, draw(psd(out))


@st.composite
def linear_time_cases(draw):
    d = draw(st.integers(1, 4))
    dd = draw(st.integers(1, 8 - d))
    a, b = draw(_matrix(d, d)), draw(_matrix(d, dd))
    propagate = lambda n, x, xi: x @ a.T + xi @ b.T
    process = ProcessModel(
        propagate=propagate,
        noise_cov=draw(psd(dd)),
        state_dim=d,
        linearize=lambda n, x, xi: (propagate(n, x, xi), np.hstack([a, b])),
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
    for degree in DEGREES:
        post = measurement_update_points(prior, obs_map, y, r, standard_rule(prior.dim, degree))
        assert_agree(post, exact)
        assert_psd(post)


@BOUNDED
@given(linear_time_cases())
def test_point_time_update_is_exact_on_linear_maps(case):
    aug, process = case
    exact = time_update_linear(aug, process, 0)
    assert_psd(exact)
    for degree in DEGREES:
        pred = time_update_points(aug, process, 0, standard_rule(aug.dim, degree))
        assert_agree(pred, exact)
        assert_psd(pred)


@BOUNDED
@given(st.integers(2, 8).flatmap(lambda k: st.tuples(gaussians(k), st.integers(1, k - 1))), st.data())
def test_condition_is_the_closed_form_conditional(case, data):
    # The leading k - len(y) components given the trailing len(y), against
    # m_x + C_xy C_yy^-1 (y - m_y) and C_xx - C_xy C_yy^-1 C_yx.
    joint, observed = case
    y = data.draw(arrays(float, observed, elements=st.floats(-10.0, 10.0)))
    k = joint.dim - observed
    c, m = joint.cov, joint.mean
    gain = np.linalg.solve(c[k:, k:], c[k:, :k]).T
    shrunk = c[:k, :k] - gain @ c[k:, :k]
    want = Gaussian(m[:k] + gain @ (y - m[k:]), 0.5 * (shrunk + shrunk.T))
    assert_agree(condition(joint, y), want)


def assert_passes_public_check(g: Gaussian):
    checked = Gaussian(g.mean, g.cov)
    assert checked.mean.tobytes() == g.mean.tobytes() and checked.cov.tobytes() == g.cov.tobytes()
    # A kernel-built belief is its factor: lower triangular with a
    # nonnegative diagonal, read-only, and the covariance is its Gram matrix.
    if g._factor is not None:
        assert not np.triu(g._factor, 1).any() and (np.diagonal(g._factor) >= 0.0).all()
        assert g.cov.tobytes() == (g._factor @ g._factor.T).tobytes()
        assert not g._factor.flags.writeable


def _full_rank_map(h, out):
    # A dominant leading block keeps H of full row rank, so H P H^T is
    # positive definite even when the observation is exact.
    h[:, :out] += 10.0 * np.eye(out)
    return ObsFunction(fn=lambda xs: xs @ h.T, linearize=lambda x, b: (x @ h.T, h @ b), vectorized=True, out_dim=out)


@st.composite
def exact_or_noisy_observations(draw, k):
    """A full-row-rank linear map of a k-dim belief, an observation, and its
    noise covariance: random, or zero.  An exact observation leaves a
    singular posterior whose zero eigenvalues come out of the update as
    rounding of either sign, so ``repair_covariance`` jitters it on the
    prior's scale when it does not factor."""
    out = draw(st.integers(1, min(3, k)))
    obs_map = _full_rank_map(draw(_matrix(out, k)), out)
    y = draw(arrays(float, out, elements=st.floats(-10.0, 10.0)))
    return obs_map, y, draw(psd(out)) * draw(st.sampled_from([0.0, 1.0]))


# The linear and the point measurement updates, as (prior, map, y, R, diag) -> posterior.
MEASUREMENT_UPDATES = [measurement_update_linear] + [
    lambda prior, obs_map, y, r, diag, degree=degree: measurement_update_points(
        prior, obs_map, y, r, standard_rule(prior.dim, degree), diag=diag
    )
    for degree in DEGREES
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
        predicted = time_update_linear(belief, process, 0)
        assert_passes_public_check(predicted)
        # the joint of a belief that carries a factor carries one too
        assert_passes_public_check(augment(predicted, process, 0))
        for degree in DEGREES:
            assert_passes_public_check(time_update_points(belief, process, 0, standard_rule(belief.dim, degree)))


@pytest.mark.parametrize("testbed", ["bistable", "tracking"])
def test_every_kernel_built_belief_is_its_factor(testbed, monkeypatch):
    # Four steps of all eight families: every Gaussian a kernel or augment
    # builds carries a factor, and the run forms no posterior's covariance
    # until the check below reads it.
    if testbed == "bistable":
        (process, obs), prior = bistable_models(BistableSpec()), Gaussian([0.8], [[0.02]])
    else:
        process, obs = turn_models(TurnModelSpec())
        prior = Gaussian([1e3, 3e2, 1e3, 0.0, -0.05], np.diag([100.0, 10.0, 100.0, 10.0, 1e-4]))
    truth = simulate_truth(process, obs, prior.mean, 4, np.random.default_rng(3))
    built = []
    original = Gaussian._unchecked

    def recorded(cls, *args, **kwargs):
        g = original(*args, **kwargs)
        built.append(g)
        return g

    monkeypatch.setattr(Gaussian, "_unchecked", classmethod(recorded))
    for family in ALL_FAMILIES:
        built.clear()
        traj = run_filter(FilterKind(family), process, obs, prior, truth.observations, np.random.default_rng(5))
        assert traj.error is None and len(traj.records) == 5
        assert all("cov" not in vars(rec.posterior) for rec in traj.records[1:])
        assert {id(rec.posterior) for rec in traj.records[1:]} <= {id(g) for g in built}
        for g in built:
            assert g._factor is not None
            assert_passes_public_check(g)


def test_exact_observations_exercise_the_repair(monkeypatch):
    # The property tests above include covariances that repair_covariance
    # jittered: with exact observations, the linear and the degree-3 kernels
    # leave Pi^1/2 with an exactly zero pivot in some cases, and the
    # posterior goes through the repair.  Only repair_covariance's own
    # jitters count, not those of N+ (R = 0 does not factor, so every
    # square-root step clips it).  The degree-5 rule's Omega, rounding
    # though it is, leaves no zero pivot: its factor is carried unrepaired,
    # and its posterior is the closed-form conditional to rounding.
    repaired = Diagnostics()
    original = gaussian.repair_covariance
    monkeypatch.setattr(gaussian, "repair_covariance", lambda c, scale, diag=None: original(c, scale, repaired))
    rng = np.random.default_rng(0)
    jittered = [0] * len(MEASUREMENT_UPDATES)
    for k in range(1, 9):
        for _ in range(4):
            a = rng.uniform(-2.0, 2.0, (k, k))
            prior = Gaussian(rng.uniform(-5.0, 5.0, k), a @ a.T + 0.1 * np.eye(k))
            out = min(k, 2)
            h = rng.uniform(-2.0, 2.0, (out, k))
            obs_map = _full_rank_map(h, out)  # h gains its dominant block in place
            y, r = rng.uniform(-10.0, 10.0, out), np.zeros((out, out))
            gain = np.linalg.solve(h @ prior.cov @ h.T, h @ prior.cov).T
            mean = prior.mean + gain @ (y - h @ prior.mean)
            cov = prior.cov - gain @ h @ prior.cov
            for i, update in enumerate(MEASUREMENT_UPDATES):
                repaired.jitters = 0
                posterior = update(prior, obs_map, y, r, Diagnostics())
                jittered[i] += repaired.jitters
                assert_passes_public_check(posterior)
            assert np.max(np.abs(posterior.mean - mean)) <= 1e-13 * max(1.0, np.max(np.abs(mean)))
            assert np.max(np.abs(posterior.cov - cov)) <= 1e-13 * max(1.0, np.max(np.abs(cov)))
    assert jittered[0] > 0 and jittered[1] > 0 and jittered[2] == 0, jittered


@st.composite
def unfactorable_covariances(draw):
    """A symmetric C with the scale it is repaired on, its own |diagonal|:
    rank-deficient, with zero rows, and either indefinite by rounding (a
    negative eigenvalue of 1e-14 of the scale), far from positive
    semi-definite (a negative diagonal entry), or with a zero diagonal entry
    beside a nonzero row.  The first two are repaired, the last two raise."""
    k = draw(st.integers(1, 6))
    entries = st.one_of(st.just(0.0), st.floats(0.01, 2.0), st.floats(-2.0, -0.01))  # no underflow
    b = draw(arrays(float, (k, draw(st.integers(0, k - 1))), elements=entries))
    b[draw(arrays(bool, k))] = 0.0  # zero rows
    c = b @ b.T
    kind = draw(st.sampled_from(["rank-deficient", "rounding", "indefinite", "zero-diagonal"]))
    i = draw(st.integers(0, k - 1))
    if kind == "rounding":
        v = np.sqrt(np.diagonal(c)) * draw(arrays(float, k, elements=st.floats(-1.0, 1.0)))
        c = c - 1e-14 * np.outer(v, v)
    elif kind == "indefinite":
        c[i, i] = -abs(c[i, i]) - 0.5
    elif kind == "zero-diagonal" and c[i].any():
        c[i, i] = 0.0
    return c, np.abs(np.diagonal(c))


@settings(max_examples=300, deadline=None)
@given(unfactorable_covariances(), arrays(float, 6, elements=st.floats(-6.0, 6.0)))
def test_repair_does_not_depend_on_units(case, exponents):
    # In units x' = D x, C becomes D C D and its scale D^2 scale.  The repair
    # maps through to rounding, and raises in both frames or in neither.  A
    # singular matrix may factor at eps = 0 in one frame and take the first
    # rung, 1e-12 of the scale, in the other: the bound allows that.
    c, scale = case
    d = 10.0 ** exponents[: len(scale)]
    try:
        cov, factor = repair_covariance(c, scale)
    except NotPositiveDefinite:
        with pytest.raises(NotPositiveDefinite, match="beyond repair"):
            repair_covariance(d[:, None] * c * d, d**2 * scale)
        return
    moved, moved_factor = repair_covariance(d[:, None] * c * d, d**2 * scale)
    assert np.all(np.abs(moved / np.outer(d, d) - cov) <= 1e-10 * np.sqrt(np.outer(scale, scale)))
    for cov, factor in ((cov, factor), (moved, moved_factor)):
        assert factor.tobytes() == cholesky_factor(cov).tobytes()
        Gaussian(np.zeros(len(scale)), cov)


# Per family, the largest prior scale 10^e it is held to.  The linear update
# is exact; VGF's BFGS fails on a diffuse prior and its linear fallback is
# exact too.  VGSF's covariance comes from a central-difference Hessian along
# the joint's factor, whose state columns are sqrt(P0) long and whose noise
# columns are not: where BFGS does not fail (y at its prediction) the noise
# block is lost to rounding from about 1e28, a 20% variance excess at 1e32.
# The point families evaluate the map at points sqrt(P0) from the mean, so
# their regression carries an error of about eps sqrt(P0): O(1) sd from 1e30.
DIFFUSE_REACH = {"LGF": 300, "LGSF": 300, "VGF": 300, "VGSF": 24, "CGF3": 20, "CGSF3": 20, "CGF5": 20, "CGSF5": 20}


def diffuse_tolerance(family, scale):
    """The largest error allowed in a posterior mean or covariance, in
    posterior sd: rounding for LG; BFGS's stop and the central-difference
    Hessian for VG (measured up to 2.3e-3); and 1e-14 sqrt(P0) above
    rounding for CG (measured up to 3.7e-6 at 1e20)."""
    return {"LG": 1e-9, "VG": 1e-2, "CG": 1e-9 + 1e-14 * np.sqrt(scale)}[family[:2]]


def kalman_filter(f, g, q, h, r, m, p, ys):
    """The closed-form posteriors (mean, covariance) of x' = F x + G xi,
    y = H x + eta, with the update in information form, which cancels
    nothing when the prior is diffuse and H has full column rank."""
    posteriors = []
    for y in ys:
        m, p = f @ m, f @ p @ f.T + g @ q @ g.T
        info = np.linalg.inv(p)
        p = np.linalg.inv(info + h.T @ np.linalg.solve(r, h))
        m = p @ (info @ m + h.T @ np.linalg.solve(r, y))
        posteriors.append((m, 0.5 * (p + p.T)))
    return posteriors


@st.composite
def diffuse_linear_runs(draw):
    """A linear-Gaussian model with state dimension 1..3, noise dimension 1..2
    and observation dimension d..3; a prior N(m0, 10^e C0) with e in 0..300;
    and three observations.  F and the leading block of H are the identity
    plus at most 0.3 per entry, so both are invertible."""
    d, dd = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    out = draw(st.integers(d, 3))

    def near_identity(rows):
        return np.eye(rows, d) + draw(arrays(float, (rows, d), elements=st.floats(-0.3, 0.3)))

    f, h = near_identity(d), near_identity(out)
    g = draw(_matrix(d, dd))
    q, r, c0 = draw(psd(dd)), draw(psd(out)), draw(psd(d))
    m0 = draw(arrays(float, d, elements=st.floats(-5.0, 5.0)))
    ys = draw(st.lists(arrays(float, out, elements=st.floats(-10.0, 10.0)), min_size=3, max_size=3))
    return (f, g, q, h, r, m0, c0, ys), draw(st.integers(0, 300))


# The 1-D random walk with unit noises, observed at 1, from P0 = 1e20 and 1e300.
WALK = tuple(np.eye(1) for _ in range(5)) + (np.zeros(1), np.eye(1), [np.ones(1)] * 3)


@settings(max_examples=100, deadline=None)
@given(diffuse_linear_runs())
@example((WALK, 20))
@example((WALK, 300))
def test_runs_from_diffuse_priors_are_the_kalman_filter(case):
    # Each deterministic family, up to its reach; the degree-5 rule only
    # where the joint's dimension is at most 4, as its axis weights are
    # negative above that.
    (f, g, q, h, r, m0, c0, ys), exponent = case
    d, dd = g.shape
    process = ProcessModel(
        propagate=lambda n, x, xi: x @ f.T + xi @ g.T,
        noise_cov=q,
        state_dim=d,
        linearize=lambda n, x, xi: (x @ f.T + xi @ g.T, np.hstack([f, g])),
        vectorized=True,
    )
    obs = ObservationModel(observe=lambda n, x: x @ h.T, obs_cov=r, jacobian=lambda n, x: h, vectorized=True)
    scale = 10.0 ** exponent
    exact = kalman_filter(f, g, q, h, r, m0, scale * c0, ys)
    for family, reach in DIFFUSE_REACH.items():
        if exponent > reach or (family.endswith("5") and d + dd > 4):
            continue
        kind = FilterKind(family.rstrip("35"), rule_degree=int(family[-1])) if family[:2] == "CG" else FilterKind(family)
        traj = run_filter(kind, process, obs, Gaussian(m0, scale * c0), ys)
        assert traj.error is None, family
        tol = diffuse_tolerance(family, scale)
        for rec, (m, p) in zip(traj.records[1:], exact):
            sd = np.sqrt(np.diagonal(p))
            assert rec.diagnostics.jitters == 0, family
            assert np.max(np.abs(rec.posterior.mean - m) / sd) <= tol, family
            assert np.max(np.abs(rec.posterior.cov - p) / np.outer(sd, sd)) <= tol, family
