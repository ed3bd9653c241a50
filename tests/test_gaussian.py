"""Gaussian algebra: factorization, conditioning, quadratic forms."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import gaussfilt
from gaussfilt import Gaussian, cholesky_factor, quadratic_form
from gaussfilt.diagnostics import Diagnostics
from gaussfilt.errors import NotPositiveDefinite, SingularMatrix
from gaussfilt.gaussian import _factor_of, _factored, repair_covariance, symmetrize
from oracles import condition


class TestGaussianInvariants:
    def test_accepts_valid(self):
        g = Gaussian([1.0, 2.0], [[2.0, 0.5], [0.5, 1.0]])
        assert g.dim == 2

    @pytest.mark.parametrize("scale", [1e-20, 1.0, 1e20])
    def test_rejects_asymmetric(self, scale):
        # 2% asymmetric at any scale: the tolerance is relative to the matrix
        with pytest.raises(ValueError, match="symmetric"):
            Gaussian([0.0, 0.0], scale * np.array([[1.0, 0.5], [0.49, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive semi-definite"):
            Gaussian([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="incompatible"):
            Gaussian([0.0, 0.0], [[1.0]])

    @pytest.mark.parametrize(
        "mean, cov, match",
        [
            ([0.0], [[np.nan]], "covariance is not finite"),
            ([0.0], [[np.inf]], "covariance is not finite"),
            ([0.0, 0.0], [[1.0, np.nan], [np.nan, 1.0]], "covariance is not finite"),
            ([np.nan], [[1.0]], "mean is not finite"),
            ([0.0, np.inf], np.eye(2), "mean is not finite"),
        ],
        ids=["nan-cov", "inf-cov", "nan-off-diagonal", "nan-mean", "inf-mean"],
    )
    def test_rejects_non_finite(self, mean, cov, match):
        with pytest.raises(ValueError, match=match):
            Gaussian(mean, cov)

    @pytest.mark.parametrize("mean", [[[0.8, 0.1]], [[0.8]], np.zeros((1, 1, 1))])
    def test_rejects_a_mean_that_is_not_a_vector(self, mean):
        with pytest.raises(ValueError, match="mean must be a vector"):
            Gaussian(mean, [[0.02]])

    def test_scalar_inputs_promoted(self):
        g = Gaussian(0.8, 0.02)
        assert g.mean.shape == (1,)
        assert g.cov.shape == (1, 1)


class TestCholeskyFactor:
    def test_identity(self):
        assert np.allclose(cholesky_factor(np.eye(2)), np.eye(2))

    def test_known_factor(self):
        # [[4,2],[2,3]] factors as [[2,0],[1,sqrt(2)]]
        s = cholesky_factor(np.array([[4.0, 2.0], [2.0, 3.0]]))
        assert np.allclose(s, [[2.0, 0.0], [1.0, np.sqrt(2.0)]])

    def test_roundtrip_random_psd(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            d = rng.integers(1, 6)
            a = rng.standard_normal((d, d))
            c = a @ a.T
            s = cholesky_factor(c)
            err = np.max(np.abs(s @ s.T - c))
            assert err <= 1e-9 * (1.0 + np.max(np.abs(c)))

    def test_rank_deficient_uses_jitter(self):
        diag = Diagnostics()
        c = np.array([[1.0, 1.0], [1.0, 1.0]])
        s = cholesky_factor(c, diag)
        assert np.max(np.abs(s @ s.T - c)) <= 1e-6
        assert diag.jitters == 1

    def test_hopeless_matrix_raises(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky_factor(np.array([[-1.0, 0.0], [0.0, -1.0]]))

    @pytest.mark.parametrize(
        "c",
        [
            [[np.nan]],
            [[1.0, np.nan], [np.nan, 1.0]],
            [[np.inf, 0.0], [0.0, 1.0]],
            [[-1.0, 0.0], [0.0, np.nan]],
        ],
        ids=["nan", "nan-off-diagonal", "inf", "nan-after-failure"],
    )
    def test_non_finite_raises_without_jitter(self, c):
        diag = Diagnostics()
        with pytest.raises(NotPositiveDefinite):
            cholesky_factor(np.array(c), diag)
        assert diag.jitters == 0


class TestRepairCovariance:
    """C + eps diag(scale) and its factor, for the least eps in (0,) + JITTER_LADDER that factors."""

    def test_psd_untouched(self):
        c = np.array([[2.0, 0.5], [0.5, 1.0]])
        diag = Diagnostics()
        cov, factor = repair_covariance(c, np.diagonal(c), diag)
        assert cov.tobytes() == c.tobytes() and factor.tobytes() == np.linalg.cholesky(c).tobytes()
        assert diag.jitters == 0

    def test_tiny_negative_eigenvalue_lifted(self):
        # -1e-9 against a unit scale takes eps = 1e-8; against its own
        # |diagonal| it is as negative as the coordinate's whole variance.
        c = np.diag([1.0, -1e-9])
        diag = Diagnostics()
        cov, factor = repair_covariance(c, np.ones(2), diag)
        assert np.array_equal(cov, c + 1e-8 * np.eye(2)) and diag.jitters == 1
        assert np.array_equal(factor @ factor.T, cov)
        with pytest.raises(NotPositiveDefinite, match="beyond repair"):
            repair_covariance(c, np.abs(np.diagonal(c)))

    def test_shift_absorbed_by_rounding_is_repeated(self):
        # An all-rounding posterior that a measurement update with an exact
        # observation made from a prior of unit scale: a shift by its least
        # eigenvalue cancelled the diagonal to exactly zero and left the
        # off-diagonal entries.  The prior's scale repairs it at the first rung.
        c = np.array([[-4.163336342344337e-17, -3.846918741797563e-65],
                      [-3.846918741797563e-65, -4.163336342344337e-17]])
        diag = Diagnostics()
        cov, factor = repair_covariance(c, np.ones(2), diag)
        assert np.array_equal(cov, c + 1e-12 * np.eye(2))
        Gaussian(np.zeros(2), cov)
        assert diag.jitters == 1

    def test_large_negative_eigenvalue_raises(self):
        with pytest.raises(NotPositiveDefinite, match=r"eigenvalue -0\.5, beyond repair"):
            repair_covariance(np.diag([1.0, -0.5]), [1.0, 0.5])

    def test_large_negative_eigenvalue_raises_in_any_units(self):
        # The threshold was -1e-6 max(trace, 1), absolute below a unit trace,
        # so this matrix was "repaired" to diag(1.5e-6, 0).
        c = 1e-6 * np.diag([1.0, -0.5])
        with pytest.raises(NotPositiveDefinite, match="beyond repair"):
            repair_covariance(c, np.abs(np.diagonal(c)))

    def test_zero_scale_coordinate_gets_a_zero_row(self):
        c = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        diag = Diagnostics()
        cov, factor = repair_covariance(c, np.abs(np.diagonal(c)), diag)
        assert np.array_equal(cov, c + 1e-12 * np.diag([1.0, 1.0, 0.0])) and diag.jitters == 1
        assert np.array_equal(factor[2], np.zeros(3)) and np.array_equal(factor[:, 2], np.zeros(3))
        assert factor[:2, :2].tobytes() == np.linalg.cholesky(cov[:2, :2]).tobytes()

    def test_zero_rows_alone_take_no_jitter(self):
        c = np.diag([2.0, 0.0])
        diag = Diagnostics()
        cov, factor = repair_covariance(c, np.abs(np.diagonal(c)), diag)
        assert np.array_equal(cov, c) and np.array_equal(factor, np.diag([np.sqrt(2.0), 0.0]))
        assert diag.jitters == 0

    def test_underflowed_row_at_zero_scale_is_zeroed(self):
        # The points' covariance of a map with entries near 1e-206: the
        # diagonal underflowed to zero beside a subnormal cross entry.
        c = np.array([[1.13128433e-137, -8.2724222e-310, -8.2724222e-310],
                      [-8.2724222e-310, 0.0, 0.0],
                      [-8.2724222e-310, 0.0, 0.0]])
        diag = Diagnostics()
        cov, factor = repair_covariance(c, np.abs(np.diagonal(c)), diag)
        assert np.array_equal(cov, np.diag([c[0, 0], 0.0, 0.0])) and diag.jitters == 0
        assert factor.tobytes() == cholesky_factor(cov).tobytes()

    def test_nonzero_row_at_zero_scale_raises(self):
        c = np.array([[0.0, 1e-20], [1e-20, 1.0]])
        with pytest.raises(NotPositiveDefinite, match="beyond repair"):
            repair_covariance(c, np.abs(np.diagonal(c)))

    def test_repaired_output_carries_its_factor(self):
        c = np.array([[1.0, 1.0], [1.0, 1.0]])
        diag = Diagnostics()
        cov, factor = repair_covariance(c, np.abs(np.diagonal(c)), diag)
        assert np.array_equal(cov, c + 1e-12 * np.eye(2)) and diag.jitters == 1
        assert factor.tobytes() == cholesky_factor(cov, diag).tobytes() and diag.jitters == 1

    @pytest.mark.parametrize(
        "c",
        [[[np.nan]], [[np.inf]], [[1.0, 0.0], [0.0, np.nan]]],
        ids=["nan", "inf", "nan-diagonal"],
    )
    def test_non_finite_raises_without_jitter(self, c):
        diag = Diagnostics()
        with pytest.raises(NotPositiveDefinite):
            repair_covariance(np.array(c), np.ones(len(c)), diag)
        assert diag.jitters == 0


class TestFactored:
    """The one factorization that settles every covariance a kernel forms,
    and the belief built from the factor it gives."""

    def test_factorable_matrix_gives_its_cholesky_factor(self):
        c = np.array([[2.0, 0.5], [0.5, 1.0]])
        diag = Diagnostics()
        g = Gaussian._unchecked(np.zeros(2), _factored(c, diag))
        assert g._factor.tobytes() == np.linalg.cholesky(c).tobytes() and diag.jitters == 0
        assert _factor_of(g, diag) is g._factor and diag.jitters == 0
        with pytest.raises(ValueError, match="read-only"):
            g._factor[0, 0] = 1.0

    def test_covariance_is_formed_on_first_read_and_kept(self):
        factor = np.array([[2.0, 0.0], [0.5, 1.0]])
        g = Gaussian._unchecked(np.zeros(2), factor)
        assert "cov" not in vars(g)
        assert g.cov.tobytes() == (factor @ factor.T).tobytes()
        assert vars(g)["cov"] is g.cov
        with pytest.raises(AttributeError):
            g.variance

    def test_unfactorable_matrix_takes_the_repair_path(self):
        # Singular and PSD: the factorization fails, and repair_covariance
        # jitters it once on its own |diagonal|.
        c = np.array([[1.0, 1.0], [1.0, 1.0]])
        diag = Diagnostics()
        factor = _factored(c, diag)
        assert factor.tobytes() == repair_covariance(c, np.abs(np.diagonal(c)))[1].tobytes()
        assert diag.jitters == 1

    def test_repair_takes_the_scale_given(self):
        # A posterior left all rounding by an exact observation is repaired on
        # the scale of the prior it came from, not on its own diagonal.
        c = np.array([[-1e-17, 0.0], [0.0, 1.0]])
        diag = Diagnostics()
        factor = _factored(c, diag, np.array([4.0, 1.0]))
        assert factor.tobytes() == np.linalg.cholesky(c + np.diag(1e-12 * np.array([4.0, 1.0]))).tobytes()
        assert diag.jitters == 1
        with pytest.raises(NotPositiveDefinite, match="beyond repair"):
            _factored(c, None)

    def test_factorable_matrix_with_a_negative_eigenvalue_is_accepted_as_is(self):
        # Products B B^T of rank k - 1 whose rounding leaves eigvalsh a
        # negative least eigenvalue and the factorization a positive pivot:
        # the contract accepts them unshifted, and the belief they give
        # passes the public check.
        rng = np.random.default_rng(0)
        accepted = 0
        for _ in range(200):
            k = int(rng.integers(2, 9))
            b = rng.uniform(-2.0, 2.0, (k, k - 1))
            c = symmetrize(b @ b.T)
            try:
                factor = np.linalg.cholesky(c)
            except np.linalg.LinAlgError:
                continue
            if np.linalg.eigvalsh(c)[0] >= 0.0:
                continue
            diag = Diagnostics()
            g = Gaussian._unchecked(np.zeros(k), _factored(c, diag))
            assert g._factor.tobytes() == factor.tobytes()
            assert diag.jitters == 0
            Gaussian(g.mean, g.cov)
            accepted += 1
        assert accepted > 0

    def test_non_finite_matrix_raises_as_repair_does(self):
        diag = Diagnostics()
        with pytest.raises(NotPositiveDefinite, match="not finite"):
            _factored(np.array([[1.0, np.nan], [np.nan, 1.0]]), diag)
        assert diag.jitters == 0


class TestCondition:
    def test_independent_blocks_unchanged(self):
        j = Gaussian([1.0, 2.0], np.diag([3.0, 4.0]))
        out = condition(j, [7.0])
        assert np.allclose(out.mean, [1.0])
        assert np.allclose(out.cov, [[3.0]])

    def test_zero_innovation_moves_no_mean(self):
        j = Gaussian([1.0, 2.0], [[1.0, 0.5], [0.5, 2.0]])
        out = condition(j, [2.0])
        assert np.allclose(out.mean, [1.0])
        assert np.allclose(out.cov, [[1.0 - 0.25 / 2.0]])

    def test_scalar_example(self):
        # x|y for unit variances, cross-cov 0.5, y = 2: mean 1.0, cov 0.75
        j = Gaussian([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]])
        out = condition(j, [2.0])
        assert np.allclose(out.mean, [1.0])
        assert np.allclose(out.cov, [[0.75]])

    @pytest.mark.parametrize("y", [[], [1.0, 2.0], [1.0, 2.0, 3.0], [[1.0]]], ids=["empty", "all", "longer", "matrix"])
    def test_observed_block_must_fit_inside(self, y):
        # y conditions the trailing len(y) components, so 0 < len(y) < dim.
        with pytest.raises(ValueError, match="does not fit"):
            condition(Gaussian([0.0, 0.0], np.eye(2)), y)

    def test_matches_closed_form_on_a_three_block_joint(self):
        # The noise-conditioning joint [x, xi, y] of a random walk with unit
        # prior, noise and observation variances, as criterion 3 builds it.
        c = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 3.0]])
        out = condition(Gaussian(np.zeros(3), c), [3.0])
        assert np.allclose(out.mean, [1.0, 1.0], rtol=0.0, atol=1e-12)
        assert np.allclose(out.cov, c[:2, :2] - np.outer(c[:2, 2], c[2, :2]) / 3.0, rtol=0.0, atol=1e-12)

    def test_singular_y_block_raises(self):
        j = Gaussian([0.0, 0.0], np.diag([1.0, 0.0]))
        with pytest.raises(SingularMatrix, match="innovation covariance is singular"):
            condition(j, [1.0])

    def test_never_increases_covariance(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            total = rng.integers(2, 7)
            split = rng.integers(1, total)
            a = rng.standard_normal((total, total))
            c = a @ a.T + 0.1 * np.eye(total)
            j = Gaussian(rng.standard_normal(total), c)
            out = condition(j, rng.standard_normal(total - split))
            shrink = c[:split, :split] - out.cov
            assert np.linalg.eigvalsh(symmetrize(shrink))[0] >= -1e-9

    def test_matches_monte_carlo_conditional(self):
        # Sample X|Y=y from the returned moments and compare against the
        # analytic conditional of an independently constructed joint.
        rng = np.random.default_rng(2)
        total, split = 5, 3
        a = rng.standard_normal((total, total))
        c = a @ a.T + 0.5 * np.eye(total)
        mean = rng.standard_normal(total)
        y = rng.standard_normal(total - split)
        j = Gaussian(mean, c)
        out = condition(j, y)
        n = 10 ** 5
        draws = rng.multivariate_normal(out.mean, out.cov, size=n)
        se_mean = np.sqrt(np.diag(out.cov) / n)
        assert np.all(np.abs(draws.mean(axis=0) - out.mean) <= 4.0 * se_mean)
        emp_cov = np.cov(draws.T)
        scale = np.sqrt(np.outer(np.diag(out.cov), np.diag(out.cov)))
        assert np.max(np.abs(emp_cov - out.cov) / scale) <= 4.0 * np.sqrt(2.0 / n) * 3.0


class TestQuadraticForm:
    def test_zero_vector(self):
        assert quadratic_form([0.0, 0.0], np.eye(2)) == 0.0

    def test_scalar_division(self):
        assert np.isclose(quadratic_form([1.0], [[4.0]]), 0.25)

    def test_identity_metric(self):
        assert np.isclose(quadratic_form([1.0, 1.0], np.eye(2)), 2.0)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            d = rng.integers(1, 6)
            a = rng.standard_normal((d, d))
            sigma = a @ a.T + 0.1 * np.eye(d)
            v = rng.standard_normal(d)
            assert quadratic_form(v, sigma) >= 0.0

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            quadratic_form([1.0, 1.0], np.zeros((2, 2)))


def test_filter_steps_load_no_scipy():
    # The Gaussian algebra runs on numpy.linalg alone: a fresh interpreter
    # that runs one linearized and one cubature step has imported no SciPy.
    script = textwrap.dedent(
        """
        import sys
        import numpy as np
        from gaussfilt import BistableSpec, FilterKind, Gaussian, bistable_models, run_filter
        from gaussfilt import simulate_truth

        process, obs = bistable_models(BistableSpec())
        prior = Gaussian([0.8], [[0.02]])
        truth = simulate_truth(process, obs, prior.mean, 1, np.random.default_rng(0))
        for kind in (FilterKind("LGF"), FilterKind("CGSF", rule_degree=3)):
            traj = run_filter(kind, process, obs, prior, truth.observations)
            assert traj.error is None and len(traj.records) == 2, traj.error
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """
    )
    src = str(Path(gaussfilt.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"
