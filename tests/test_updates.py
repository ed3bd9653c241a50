"""Time/measurement update kernels and the BFGS optimizer."""

import dataclasses

import numpy as np
import pytest
from scipy.linalg import cho_solve, solve_triangular

from gaussfilt import (
    BistableSpec,
    FilterKind,
    Gaussian,
    TurnModelSpec,
    VariationalSettings,
    bfgs_minimize,
    bistable_models,
    measurement_update_linear,
    measurement_update_points,
    measurement_update_variational,
    run_filter,
    simulate_truth,
    time_update_linear,
    time_update_points,
    turn_models,
)
from gaussfilt.errors import DivergedEvaluation, OptimizerStopped
from gaussfilt.gaussian import _conditioning_terms, _inverse_factor
from gaussfilt.models import (
    ObservationModel,
    ObsFunction,
    ProcessModel,
    augment,
    central_difference,
    composed_observation,
)
from gaussfilt.cubature import standard_rule, symmetric_stencil, transform, weighted_moments
from gaussfilt.gaussian import cholesky_factor
from gaussfilt.updates import WhitenedMisfit, _kalman_update, numerical_hessian


def linear_process(a, gamma):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    d = a.shape[0]
    return ProcessModel(
        propagate=lambda n, x, xi: a @ x + xi,
        noise_cov=np.atleast_2d(np.asarray(gamma, dtype=float)),
        state_dim=d,
        jacobian=lambda n, x, xi: np.hstack([a, np.eye(d)]),
    )


def identity_obs(d=1):
    return ObsFunction(
        fn=lambda x: np.atleast_1d(x),
        jacobian=lambda x: np.eye(d),
        out_dim=d,
    )


class TestNumericalDerivatives:
    def test_gradient_of_quadratic(self):
        a = np.array([[3.0, 1.0], [1.0, 2.0]])

        def f(x):
            return 0.5 * float(x @ a @ x)

        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal(2)
            g = central_difference(lambda xs: [f(v) for v in xs], x)[0]
            exact = a @ x
            assert np.max(np.abs(g - exact)) <= 1e-5 * (1.0 + np.max(np.abs(exact)))

    def test_hessian_of_quadratic(self):
        a = np.array([[3.0, 1.0], [1.0, 2.0]])

        def f(x):
            return 0.5 * float(x @ a @ x)

        rows = lambda xs: np.array([f(v) for v in xs])
        x = np.array([0.7, -0.2])
        h = numerical_hessian(rows, x, np.eye(2))
        assert np.max(np.abs(h - a)) <= 1e-4
        # along the columns of a basis B, the Hessian of u -> f(x + B u)
        basis = np.array([[2.0, 0.0], [-1.0, 0.5]])
        h = numerical_hessian(rows, x, basis)
        assert np.max(np.abs(h - basis.T @ a @ basis)) <= 1e-4

    @pytest.mark.parametrize("k", [1, 2, 5, 21])
    def test_hessian_matches_loop_reference_bit_for_bit(self, k):
        rng = np.random.default_rng(k)
        a = rng.standard_normal((k, k))

        def f_batch(xs):
            return np.sum(np.sin(xs @ a) ** 2, axis=1) + np.exp(0.1 * xs[:, 0]) * xs[:, -1] ** 3

        x = 10.0 ** rng.uniform(-3.0, 3.0, k) * rng.choice([-1.0, 1.0], k)
        basis = np.tril(rng.standard_normal((k, k))) * 10.0 ** rng.uniform(-3.0, 3.0, k)
        for b in (np.eye(k), basis):
            assert np.array_equal(numerical_hessian(f_batch, x, b), _loop_hessian(f_batch, x, b))

    @pytest.mark.parametrize("k", [1, 3, 21])
    def test_hessian_probes_are_the_symmetric_stencil(self, k):
        rng = np.random.default_rng(k)
        x = np.linspace(-2.0, 3.0, k)
        basis = np.tril(rng.standard_normal((k, k)))
        seen = []
        numerical_hessian(lambda xs: seen.append(xs.copy()) or np.zeros(xs.shape[0]), x, basis)
        steps = _hessian_step(x, basis) * basis.T
        assert seen[0].tobytes() == (x + symmetric_stencil(steps, steps)).tobytes()

    def test_hessian_is_taken_in_whitened_units(self):
        # In the frame y = D x, the Hessian of f(D^-1 y) along the columns of
        # D B is the Hessian of f along B: the step does not depend on units.
        rng = np.random.default_rng(4)
        a = rng.standard_normal((4, 4))
        f = lambda xs: np.sum(np.sin(xs @ a) ** 2, axis=1)
        x, basis = rng.standard_normal(4), np.tril(rng.standard_normal((4, 4))) + 3.0 * np.eye(4)
        d = 10.0 ** np.array([-6.0, -2.0, 3.0, 6.0])
        ref = numerical_hessian(f, x, basis)
        moved = numerical_hessian(lambda ys: f(ys / d), d * x, d[:, None] * basis)
        assert np.max(np.abs(moved - ref)) <= 1e-6 * np.max(np.abs(ref))


def _hessian_step(x, basis):
    """The step h = (eps (1 + max_j |x_j| / |e_j^T basis|))^(1/4) that
    ``numerical_hessian`` takes along every column of ``basis``."""
    return (np.finfo(float).eps * (1.0 + np.max(np.abs(x) / np.linalg.norm(basis, axis=1)))) ** 0.25


def _loop_hessian(f_batch, x, basis):
    """numerical_hessian written as per-probe loops, as the reference for the
    indexed construction: each probe is x plus one scaled column of
    ``basis``, or plus the sum of two."""
    h = _hessian_step(x, basis)
    k = basis.shape[1]
    cols = [h * basis[:, i] for i in range(k)]
    probes = [x]
    for i in range(k):
        probes += [x + cols[i], x + (0.0 - cols[i])]
    pair_index = {}
    for i in range(k):
        for j in range(i + 1, k):
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    pair_index[(i, j, si > 0, sj > 0)] = len(probes)
                    probes.append(x + (si * cols[i] + sj * cols[j]))
    vals = f_batch(np.asarray(probes))
    hess = np.empty((k, k))
    f0 = vals[0]
    for i in range(k):
        fp, fm = vals[1 + 2 * i], vals[2 + 2 * i]
        hess[i, i] = (fp - 2.0 * f0 + fm) / (h * h)
    for i in range(k):
        for j in range(i + 1, k):
            fpp = vals[pair_index[(i, j, True, True)]]
            fpm = vals[pair_index[(i, j, True, False)]]
            fmp = vals[pair_index[(i, j, False, True)]]
            fmm = vals[pair_index[(i, j, False, False)]]
            hess[i, j] = hess[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
    return hess


class TestSolveLower:
    """The two lower-triangular solves the kernels whiten with agree with
    SciPy's solve_triangular and cho_solve where no rounding occurs:
    L x = b as W b, for the W = L^-1 that ``_inverse_factor`` forms from
    L L^T, and L L^T x = b as the shift that ``_conditioning_terms`` returns
    for a unit cross covariance."""

    @staticmethod
    def _solve_lower(lower, b, cholesky=False):
        s = lower @ lower.T
        if cholesky:
            return _conditioning_terms(s, np.eye(s.shape[0]), b)[0]
        return _inverse_factor(s, "L L^T") @ b

    @pytest.mark.parametrize("k", [1, 2, 21])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("rhs", ["1-D", "2-D", "2-D view"])
    def test_matches_scipy_byte_for_byte(self, k, order, rhs):
        # A power-of-two diagonal that strictly dominates its column (so an LU
        # solve takes no pivot), dyadic off-diagonals and a nonzero integer
        # solution: every operation of the Cholesky factorization, of any
        # substitution or LU solve and of the products is exact, so both
        # sides must return that solution to the byte.
        rng = np.random.default_rng(k)
        layout = {
            "1-D": lambda v: v,
            "2-D": np.ascontiguousarray,
            "2-D view": lambda v: np.ascontiguousarray(v.T).T,
        }[rhs]
        shape = {"1-D": (k,), "2-D": (k, 4), "2-D view": (k, 7)}[rhs]
        for _ in range(5):
            d = 2.0 ** rng.integers(0, 3, k)
            a = np.tril(rng.integers(-1, 2, (k, k)) * d / 2, -1) + np.diag(d)
            lower = np.array(a, order=order)
            exact = rng.choice([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], shape)
            b = layout(lower @ exact)
            x, ref = self._solve_lower(lower, b), solve_triangular(lower, b, lower=True)
            assert x.shape == ref.shape and x.tobytes() == ref.tobytes()
            assert np.array_equal(ref, exact)
            b = layout(lower @ (lower.T @ exact))
            x, ref = self._solve_lower(lower, b, cholesky=True), cho_solve((lower, True), b)
            assert x.shape == ref.shape and x.tobytes() == ref.tobytes()
            assert np.array_equal(ref, exact)


class TestBfgsMinimize:
    def test_convex_quadratic(self):
        x, _ = bfgs_minimize(lambda v: float(v @ v), np.array([3.0, -4.0]))
        assert np.max(np.abs(x)) <= 1e-6

    def test_flat_quartic(self):
        x, _ = bfgs_minimize(lambda v: (v[0] - 2.0) ** 4 + 1.0, np.array([0.0]))
        assert abs(x[0] - 2.0) <= 1e-3

    def test_rosenbrock(self):
        def rosen(v):
            return 100.0 * (v[1] - v[0] ** 2) ** 2 + (1.0 - v[0]) ** 2

        settings = VariationalSettings(grad_tol=1e-8, max_iter=500)
        x, _ = bfgs_minimize(rosen, np.array([-1.2, 1.0]), settings)
        assert np.max(np.abs(x - 1.0)) <= 1e-4

    def test_iteration_budget_enforced(self):
        def rosen(v):
            return 100.0 * (v[1] - v[0] ** 2) ** 2 + (1.0 - v[0]) ** 2

        with pytest.raises(OptimizerStopped, match="after 3 iterations") as raised:
            bfgs_minimize(rosen, np.array([-1.2, 1.0]), VariationalSettings(grad_tol=1e-10, max_iter=3))
        assert raised.value.iterations == 3

    def test_nonfinite_start_rejected(self):
        with pytest.raises(DivergedEvaluation):
            bfgs_minimize(lambda v: np.inf, np.array([0.0]))

    def test_analytic_gradient_agrees(self):
        def f(v):
            return float(v @ v) + float(np.sin(v[0]))

        def grad(v):
            return 2.0 * v + np.array([np.cos(v[0]), 0.0])

        xa, _ = bfgs_minimize(f, np.array([2.0, -1.0]))
        xb, _ = bfgs_minimize(f, np.array([2.0, -1.0]), grad=grad)
        assert np.allclose(xa, xb, atol=1e-6)

    def test_step_lost_in_rounding_is_rejected(self):
        # The Armijo bound fx + 1e-4 * alpha * slope rounds to fx here, so a
        # step that leaves f unchanged would pass it; it must not count as
        # a decrease.
        with pytest.raises(OptimizerStopped, match="no Armijo step after 40 halvings"):
            bfgs_minimize(
                lambda v: 1.0,
                np.array([0.0]),
                VariationalSettings(grad_tol=1e-12),
                grad=lambda v: np.array([1e-10]),
            )


class TestTimeUpdateLinear:
    def test_linear_model_exact(self):
        a = np.array([[0.9]])
        process = linear_process(a, [[0.1]])
        aug = augment(Gaussian([1.0], [[1.0]]), process, 0)
        out = time_update_linear(aug, process, 0)
        assert np.allclose(out.mean, [0.9])
        assert np.allclose(out.cov, [[0.81 + 0.1]])

    def test_scalar_hand_example(self):
        # Phi(x, xi) = 2x + xi with C = 1, Gamma = 0.5 maps N(1,1) to N(2, 4.5)
        process = linear_process([[2.0]], [[0.5]])
        aug = augment(Gaussian([1.0], [[1.0]]), process, 0)
        out = time_update_linear(aug, process, 0)
        assert np.allclose(out.mean, [2.0])
        assert np.allclose(out.cov, [[4.5]])

    def test_biased_noise_mean_carried(self):
        process = linear_process([[1.0]], [[1.0]])
        aug = Gaussian([1.0, 0.3], np.eye(2))
        out = time_update_linear(aug, process, 0)
        assert np.allclose(out.mean, [1.3])


class TestTimeUpdatePoints:
    def test_matches_linear_on_linear_model(self):
        a = np.array([[0.9, 0.2], [0.0, 0.8]])
        process = linear_process(a, 0.1 * np.eye(2))
        prior = Gaussian([1.0, -1.0], [[1.0, 0.2], [0.2, 0.5]])
        aug = augment(prior, process, 0)
        lin = time_update_linear(aug, process, 0)
        for degree in (3, 5):
            pts = time_update_points(aug, process, 0, standard_rule(aug.dim, degree))
            assert np.max(np.abs(pts.mean - lin.mean)) <= 1e-10
            assert np.max(np.abs(pts.cov - lin.cov)) <= 1e-10

    def test_square_map_second_moment(self):
        # x ~ N(0,1) pushed through x^2 has mean E[x^2] = 1; the degree-5
        # rule integrates x^2 and x^4 exactly.
        process = ProcessModel(
            propagate=lambda n, x, xi: x ** 2,
            noise_cov=np.zeros((0, 0)),
            state_dim=1,
        )
        aug = Gaussian([0.0], [[1.0]])
        out = time_update_points(aug, process, 0, standard_rule(aug.dim, degree=5))
        assert np.isclose(out.mean[0], 1.0)

    def test_sampled_matches_linear_within_mc_error(self):
        a = np.array([[0.9]])
        process = linear_process(a, [[0.1]])
        aug = augment(Gaussian([1.0], [[1.0]]), process, 0)
        lin = time_update_linear(aug, process, 0)
        n = 10 ** 5
        out = time_update_points(aug, process, 0, standard_rule(aug.dim, samples=n, rng=np.random.default_rng(0)))
        se_mean = np.sqrt(lin.cov[0, 0] / n)
        assert abs(out.mean[0] - lin.mean[0]) <= 4.0 * se_mean
        se_var = lin.cov[0, 0] * np.sqrt(2.0 / n)
        assert abs(out.cov[0, 0] - lin.cov[0, 0]) <= 4.0 * se_var


class TestMeasurementUpdateLinear:
    def test_scalar_kalman(self):
        out = measurement_update_linear(Gaussian([0.0], [[1.0]]), identity_obs(), [2.0], [[1.0]])
        assert np.allclose(out.mean, [1.0])
        assert np.allclose(out.cov, [[0.5]])

    def test_uninformative_limit(self):
        prior = Gaussian([0.3], [[1.5]])
        out = measurement_update_linear(prior, identity_obs(), [100.0], [[1e12]])
        assert abs(out.mean[0] - 0.3) <= 1e-6
        assert abs(out.cov[0, 0] - 1.5) <= 1e-6

    def test_zero_innovation(self):
        prior = Gaussian([0.7], [[2.0]])
        out = measurement_update_linear(prior, identity_obs(), [0.7], [[1.0]])
        assert np.allclose(out.mean, [0.7])
        assert out.cov[0, 0] < prior.cov[0, 0]


class TestMeasurementUpdatePoints:
    def test_matches_linear_on_linear_map(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            d = 2
            a = rng.standard_normal((d, d))
            prior = Gaussian(rng.standard_normal(d), a @ a.T + 0.5 * np.eye(d))
            h = rng.standard_normal((1, d))
            obs = ObsFunction(fn=lambda x, h=h: h @ x, jacobian=lambda x, h=h: h, out_dim=1)
            y, r = rng.standard_normal(1), [[0.5]]
            lin = measurement_update_linear(prior, obs, y, r)
            pts = measurement_update_points(prior, obs, y, r, standard_rule(d, degree=3))
            assert np.max(np.abs(pts.mean - lin.mean)) <= 1e-10
            assert np.max(np.abs(pts.cov - lin.cov)) <= 1e-10

    def test_constant_map_leaves_prior(self):
        prior = Gaussian([0.5], [[2.0]])
        obs = ObsFunction(fn=lambda x: np.array([3.0]), out_dim=1)
        out = measurement_update_points(prior, obs, [10.0], [[1.0]], standard_rule(1, degree=3))
        assert np.allclose(out.mean, prior.mean)
        assert np.allclose(out.cov, prior.cov)

    def test_even_map_odd_moment_cancellation(self):
        # For a symmetric measure and phi(x) = x^2, the cross-covariance
        # vanishes, so the posterior equals the prior.
        prior = Gaussian([0.0], [[1.0]])
        obs = ObsFunction(fn=lambda x: np.atleast_1d(x) ** 2, out_dim=1)
        out = measurement_update_points(prior, obs, [1.0], [[1.0]], standard_rule(1, degree=5))
        assert np.allclose(out.mean, [0.0])
        assert np.allclose(out.cov, [[1.0]])

    def test_psd_posterior_on_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            d = int(rng.integers(1, 4))
            a = rng.standard_normal((d, d))
            prior = Gaussian(rng.standard_normal(d), a @ a.T + 0.3 * np.eye(d))
            h = rng.standard_normal((1, d))
            obs = ObsFunction(
                fn=lambda x, h=h: np.tanh(h @ np.atleast_1d(x)),
                out_dim=1,
            )
            out = measurement_update_points(prior, obs, rng.standard_normal(1), [[0.4]], standard_rule(d, degree=3))
            assert np.linalg.eigvalsh(out.cov)[0] >= -1e-9


class TestMeasurementUpdateVariational:
    def test_scalar_kalman(self):
        out = measurement_update_variational(Gaussian([0.0], [[1.0]]), identity_obs(), [2.0], [[1.0]])
        assert np.max(np.abs(out.mean - 1.0)) <= 1e-6
        assert np.max(np.abs(out.cov - 0.5)) <= 1e-6

    def test_matches_linear_on_linear_map(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            d = 2
            a = rng.standard_normal((d, d))
            prior = Gaussian(rng.standard_normal(d), a @ a.T + 0.5 * np.eye(d))
            h = rng.standard_normal((1, d))
            obs = ObsFunction(fn=lambda x, h=h: h @ x, jacobian=lambda x, h=h: h, out_dim=1)
            y, r = rng.standard_normal(1), [[0.5]]
            lin = measurement_update_linear(prior, obs, y, r)
            var = measurement_update_variational(prior, obs, y, r)
            assert np.max(np.abs(var.mean - lin.mean)) <= 1e-6
            assert np.max(np.abs(var.cov - lin.cov)) <= 1e-6

    @pytest.mark.parametrize("k", [1, 2, 5, 21])
    def test_matches_linear_on_linear_map_in_k_dimensions(self, k):
        # Criterion 9's agreement, up to the bistable augmented dimension.
        rng = np.random.default_rng(9)
        settings = VariationalSettings(grad_tol=1e-8, max_iter=500)
        for _ in range(10):
            a = rng.standard_normal((k, k))
            prior = Gaussian(rng.standard_normal(k), a @ a.T + 0.5 * np.eye(k))
            h = rng.standard_normal((1, k))
            obs = ObsFunction(fn=lambda x, h=h: h @ x, jacobian=lambda x, h=h: h, out_dim=1)
            y, r = rng.standard_normal(1), np.array([[0.4 + rng.random()]])
            lin = measurement_update_linear(prior, obs, y, r)
            var = measurement_update_variational(prior, obs, y, r, settings)
            assert np.max(np.abs(var.mean - lin.mean)) <= 1e-6
            assert np.max(np.abs(var.cov - lin.cov)) <= 1e-6

    def test_consistent_observation_keeps_mean(self):
        prior = Gaussian([0.4], [[1.0]])
        obs = ObsFunction(fn=lambda x: np.atleast_1d(3.0 * x), jacobian=lambda x: [[3.0]], out_dim=1)
        out = measurement_update_variational(prior, obs, [1.2], [[1.0]])
        assert abs(out.mean[0] - 0.4) <= 1e-6

    def test_gain_consistency_three_kernels(self):
        # Linear, cubature, and variational updates all realize the same
        # conditional-Gaussian posterior on a linear observation map.
        prior = Gaussian([1.0, -0.5], [[2.0, 0.4], [0.4, 1.0]])
        h = np.array([[1.0, 2.0]])
        obs = ObsFunction(fn=lambda x: h @ x, jacobian=lambda x: h, out_dim=1)
        y, r = [0.3], [[0.7]]
        lin = measurement_update_linear(prior, obs, y, r)
        for other in (
            measurement_update_points(prior, obs, y, r, standard_rule(2, degree=3)),
            measurement_update_points(prior, obs, y, r, standard_rule(2, degree=5)),
            measurement_update_variational(prior, obs, y, r),
        ):
            assert np.max(np.abs(other.mean - lin.mean)) <= 1e-6
            assert np.max(np.abs(other.cov - lin.cov)) <= 1e-6


def _stacked_points_update(prior, obs_map, y, r, mu):
    # The stacked formula the kernel replaced: the full (k + p)^2 covariance
    # of [x, z], whose state, cross and observation blocks all enter the
    # update, centred on the points' mean [x̄, z̄].
    zpts = obs_map.rows(mu.points)
    zpts = zpts[0] + obs_map.residual(zpts, zpts[0])
    mean, cov = weighted_moments(mu.weights, np.hstack([mu.points, zpts]))
    k = prior.dim
    return _kalman_update(mean[:k], cov[:k, :k], obs_map, y, r, mean[k:], cov[:k, k:], cov[k:, k:], None)


class TestPointMoments:
    @pytest.mark.parametrize(
        "case,degree",
        [("bistable", 5), ("bistable", None), ("tracking", 3), ("tracking", 5)],
        ids=["degree5-k21", "empirical-1000-k21", "tracking-bearing-near-pi-degree3",
             "tracking-bearing-near-pi-degree5"],
    )
    def test_matches_the_stacked_formula(self, case, degree):
        if case == "bistable":
            prior, obs_map, y, r = _bistable_case()
        else:
            prior, obs_map, y, r = _tracking_case(py=3.0)
        if degree is None:
            rule = standard_rule(prior.dim, samples=1000, rng=np.random.default_rng(8))
        else:
            rule = standard_rule(prior.dim, degree)
        if degree == 5:
            assert rule.size == 2 * prior.dim ** 2 + 1 and rule.weights.min() < 0.0
        mu = transform(rule, prior.mean, cholesky_factor(prior.cov))
        if case == "tracking":
            bearings = obs_map.rows(mu.points)[:, 1]
            assert bearings.max() > 3.0 and bearings.min() < -3.0  # the points straddle +-pi
        expected = _stacked_points_update(prior, obs_map, y, r, mu)
        saved = [a.copy() for a in (rule.weights, rule.points, prior.mean, prior.cov)]
        for _ in range(2):
            post = measurement_update_points(prior, obs_map, y, r, rule)
            # relative to the update itself, the shift of the mean and the shrink of the covariance
            for got, want, base in ((post.mean, expected.mean, prior.mean), (post.cov, expected.cov, prior.cov)):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want - base))
        for before, after in zip(saved, (rule.weights, rule.points, prior.mean, prior.cov)):
            assert before.tobytes() == after.tobytes()


def _bistable_case():
    process, obs = bistable_models(BistableSpec())
    prior = augment(Gaussian([0.8], [[0.02]]), process, 0)
    return prior, composed_observation(process, obs, 0), np.array([0.95]), obs.obs_cov


def _tracking_case(py=40.0):
    process, obs = turn_models(TurnModelSpec())
    x0 = np.array([-1000.0, -10.0, py, -2.0, 0.01])
    prior = augment(Gaussian(x0, np.diag([100.0, 10.0, 100.0, 10.0, 1e-4])), process, 0)
    obs_map = composed_observation(process, obs, 0)
    return prior, obs_map, obs_map(prior.mean) + np.array([15.0, 0.01]), obs.obs_cov


class TestWhitenedVariational:
    @pytest.mark.parametrize("case", [_bistable_case, _tracking_case], ids=["bistable", "tracking"])
    def test_chain_rule_gradient_matches_finite_differences(self, case):
        prior, obs_map, y, r = case()
        misfit = WhitenedMisfit(prior, obs_map, y, r)
        rng = np.random.default_rng(3)
        for u in (np.zeros(prior.dim), 0.5 * rng.standard_normal(prior.dim)):
            expected = central_difference(misfit.at_u, u)[0]
            got = misfit.gradient(u)
            assert np.linalg.norm(got - expected) <= 1e-5 * np.linalg.norm(expected)

    def test_bistable_vgsf_needs_few_iterations(self):
        # In whitened coordinates the prior's noise block (precision 100)
        # no longer dominates the curvature BFGS starts from.
        process, obs = bistable_models(BistableSpec())
        truth = simulate_truth(process, obs, np.array([0.8]), 20, np.random.default_rng(5))
        traj = run_filter(FilterKind("VGSF"), process, obs, Gaussian([0.8], [[0.02]]), truth.observations)
        assert traj.error is None
        iterations = [rec.diagnostics.bfgs_iterations for rec in traj.records[1:]]
        assert np.mean(iterations) <= 6.0

    def test_tolerance_below_noise_floor_falls_back_quickly(self):
        # grad_tol = 1e-8 is below the gradient's rounding at positions ~1e3:
        # BFGS must give up when no step lowers the misfit, not iterate on
        # steps whose decrease is lost in rounding.
        process, obs = turn_models(TurnModelSpec())
        x0 = np.array([1e3, 3e2, 1e3, 0.0, -3.0 * np.pi / 180.0])
        truth = simulate_truth(process, obs, x0, 20, np.random.default_rng(7))
        calls = [0]

        def counted(n, x, xi):
            calls[0] += 1
            return process.propagate(n, x, xi)

        counting = dataclasses.replace(process, propagate=counted)
        kind = FilterKind("VGSF", variational=VariationalSettings(grad_tol=1e-8))
        prior = Gaussian(x0, np.diag([100.0, 10.0, 100.0, 10.0, 1e-4]))
        traj = run_filter(kind, counting, obs, prior, truth.observations)
        assert traj.error is None
        assert calls[0] < 10_000


def _model_pair(nonlinear, vectorized):
    """A 2-D process and observation model without Jacobians.  The maps are
    written elementwise on ``x[..., i]``, so one point and stacked rows give
    the same floating-point results and only the evaluation path differs."""
    if nonlinear:
        def propagate(n, x, xi):
            return np.sin(x) + 0.5 * x + xi

        def observe(n, x):
            return np.stack([np.tanh(x[..., 0]), x[..., 1] ** 2 + x[..., 0]], axis=-1)
    else:
        def propagate(n, x, xi):
            x1, x2 = x[..., 0], x[..., 1]
            return np.stack([0.9 * x1 + 0.2 * x2, 0.8 * x2 - 0.1 * x1], axis=-1) + xi

        def observe(n, x):
            return np.stack([x[..., 0] - 0.5 * x[..., 1], 0.3 * x[..., 0] + 2.0 * x[..., 1]], axis=-1)

    process = ProcessModel(propagate, 0.1 * np.eye(2), 2, vectorized=vectorized)
    obs = ObservationModel(observe, np.diag([0.3, 0.5]), vectorized=vectorized)
    return process, obs


@pytest.mark.parametrize("nonlinear", [False, True], ids=["linear", "nonlinear"])
class TestVectorizedFlag:
    """A vectorized model and the same model looped row by row give the same
    posteriors through every kernel and finite-difference fallback."""

    prior = Gaussian([0.4, -0.3], [[0.5, 0.1], [0.1, 0.3]])
    y = np.array([0.2, 0.7])

    @staticmethod
    def assert_same(a, b):
        assert np.allclose(a.mean, b.mean, rtol=1e-12, atol=1e-14)
        assert np.allclose(a.cov, b.cov, rtol=1e-12, atol=1e-14)

    def both(self, nonlinear):
        return _model_pair(nonlinear, True), _model_pair(nonlinear, False)

    def test_time_updates(self, nonlinear):
        (pv, _), (pl, _) = self.both(nonlinear)
        aug_v, aug_l = augment(self.prior, pv, 0), augment(self.prior, pl, 0)
        for degree in (3, 5):
            rule = standard_rule(aug_v.dim, degree)
            self.assert_same(time_update_points(aug_v, pv, 0, rule), time_update_points(aug_l, pl, 0, rule))
        self.assert_same(time_update_linear(aug_v, pv, 0), time_update_linear(aug_l, pl, 0))

    def test_jacobian_fallbacks(self, nonlinear):
        (pv, ov), (pl, ol) = self.both(nonlinear)
        x, xi = self.prior.mean, np.array([0.05, -0.02])
        assert np.allclose(pv.full_jacobian(0, x, xi), pl.full_jacobian(0, x, xi), rtol=1e-12, atol=1e-14)
        jv, jl = ov.at_step(1).value_and_jacobian(x)[1], ol.at_step(1).value_and_jacobian(x)[1]
        assert np.allclose(jv, jl, rtol=1e-12, atol=1e-14)

    def test_measurement_updates(self, nonlinear):
        (pv, ov), (pl, ol) = self.both(nonlinear)
        r = ov.obs_cov
        cases = [
            (self.prior, ov.at_step(1), ol.at_step(1)),
            (augment(self.prior, pv, 0), composed_observation(pv, ov, 0), composed_observation(pl, ol, 0)),
        ]
        for prior, map_v, map_l in cases:
            for degree in (3, 5):
                rule = standard_rule(prior.dim, degree)
                self.assert_same(
                    measurement_update_points(prior, map_v, self.y, r, rule),
                    measurement_update_points(prior, map_l, self.y, r, rule),
                )
            self.assert_same(
                measurement_update_linear(prior, map_v, self.y, r),
                measurement_update_linear(prior, map_l, self.y, r),
            )
            self.assert_same(
                measurement_update_variational(prior, map_v, self.y, r),
                measurement_update_variational(prior, map_l, self.y, r),
            )


def test_fallback_keeps_its_bfgs_iterations():
    # grad_tol = 1e-300 is never met: each step's BFGS runs its 3 iterations,
    # raises, and the step falls back to the linear update.
    process, obs = bistable_models(BistableSpec())
    truth = simulate_truth(process, obs, np.array([0.8]), 5, np.random.default_rng(0))
    kind = FilterKind("VGSF", variational=VariationalSettings(grad_tol=1e-300, max_iter=3))
    traj = run_filter(kind, process, obs, Gaussian([0.8], [[0.02]]), truth.observations)
    assert traj.error is None
    per_step = [(r.diagnostics.fallbacks, r.diagnostics.bfgs_iterations) for r in traj.records[1:]]
    assert per_step == [(1, 3)] * 5
