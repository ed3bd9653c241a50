"""Cubature rules, sampled measures, transport, and the moment oracle."""

import numpy as np
import pytest

from gaussfilt import DiscreteMeasure
from gaussfilt.cubature import standard_rule, symmetric_stencil, transform, weighted_moments
from gaussfilt.errors import DimensionMismatch
from moments import moment_defect


class TestDiscreteMeasure:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to one"):
            DiscreteMeasure([0.5, 0.4], [[0.0], [1.0]])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([1.0], [[0.0], [1.0]])

    def test_negative_weights_allowed(self):
        DiscreteMeasure([1.5, -0.5], [[0.0], [1.0]])

    @pytest.mark.parametrize(
        "weights, points",
        [([np.nan, 0.5], [[0.0], [1.0]]), ([0.5, 0.5], [[0.0], [np.inf]]), ([0.5, 0.5], [[np.nan], [1.0]])],
        ids=["nan-weight", "infinite-point", "nan-point"],
    )
    def test_non_finite_rejected(self, weights, points):
        with pytest.raises(ValueError, match="finite"):
            DiscreteMeasure(weights, points)


class TestStandardRule:
    def test_degree3_k1(self):
        mu = standard_rule(1, degree=3)
        assert sorted(mu.points[:, 0]) == [-1.0, 1.0]
        assert np.allclose(mu.weights, 0.5)

    def test_degree5_k1_matches_three_point_hermite(self):
        mu = standard_rule(1, degree=5)
        pts = sorted(mu.points[:, 0])
        assert np.allclose(pts, [-np.sqrt(3.0), 0.0, np.sqrt(3.0)])
        order = np.argsort(mu.points[:, 0])
        assert np.allclose(mu.weights[order], [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0])

    @pytest.mark.parametrize("k", range(1, 7))
    def test_support_sizes(self, k):
        assert standard_rule(k, degree=3).size == 2 * k
        assert standard_rule(k, degree=5).size == 2 * k * k + 1

    @pytest.mark.parametrize("k", range(1, 7))
    def test_moment_exactness(self, k):
        assert moment_defect(standard_rule(k, degree=3), 3) <= 1e-12
        assert moment_defect(standard_rule(k, degree=5), 5) <= 1e-12

    def test_degree5_negative_weights_beyond_dim4(self):
        mu = standard_rule(5, degree=5)
        assert np.min(mu.weights) < 0.0

    def test_invalid_dimension(self):
        with pytest.raises(ValueError, match="dimension must be >= 1, got 0"):
            standard_rule(0, degree=3)
        with pytest.raises(ValueError, match="dimension must be >= 1, got 0"):
            standard_rule(0, samples=10, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("degree", [None, 1, 4, 7])
    def test_unknown_degree(self, degree):
        with pytest.raises(ValueError, match="degree must be 3 or 5"):
            standard_rule(2, degree)

    def test_sampled_requires_rng(self):
        with pytest.raises(ValueError, match="random generator"):
            standard_rule(2, samples=10)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_sampled_requires_a_positive_count(self, samples):
        with pytest.raises(ValueError, match="samples >= 1"):
            standard_rule(2, samples=samples, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("samples", [2.5, True, "3"])
    def test_sampled_count_must_be_an_integer(self, samples):
        with pytest.raises(ValueError, match="samples must be an integer"):
            standard_rule(2, samples=samples, rng=np.random.default_rng(0))

    def test_sampled_count_may_be_an_integral_float(self):
        mu = standard_rule(2, samples=3.0, rng=np.random.default_rng(0))
        assert mu.size == 3 and np.array_equal(mu.weights, np.full(3, 1.0 / 3.0))

    @pytest.mark.parametrize("k", [2.5, True, "3"])
    @pytest.mark.parametrize("samples", [None, 4])
    def test_dimension_must_be_an_integer(self, k, samples):
        # True must not find the cached k = 1 rule either
        standard_rule(1, degree=3)
        rng = None if samples is None else np.random.default_rng(0)
        with pytest.raises(ValueError, match="dimension must be an integer"):
            standard_rule(k, None if samples else 3, samples=samples, rng=rng)

    def test_dimension_may_be_an_integral_float(self):
        assert standard_rule(2.0, 3) is standard_rule(2, 3)
        assert standard_rule(2.0, samples=3, rng=np.random.default_rng(0)).dim == 2

    def test_sampled_takes_no_degree(self):
        with pytest.raises(ValueError, match="not a degree"):
            standard_rule(2, 3, samples=4, rng=np.random.default_rng(0))

    def test_sampled_moments_converge(self):
        rng = np.random.default_rng(0)
        for n in (10 ** 3, 10 ** 5):
            mu = standard_rule(3, samples=n, rng=rng)
            mean, cov = weighted_moments(mu.weights, mu.points)
            band = 4.0 / np.sqrt(n)
            assert np.max(np.abs(mean)) <= band
            assert np.max(np.abs(cov - np.eye(3))) <= band * np.sqrt(2.0) * 2.0


class TestTransform:
    def test_identity(self):
        mu = standard_rule(2, degree=3)
        out = transform(mu, np.zeros(2), np.eye(2))
        assert np.array_equal(out.points, mu.points)

    def test_scalar_affine(self):
        mu = standard_rule(1, degree=3)
        out = transform(mu, [2.0], [[3.0]])
        assert sorted(out.points[:, 0]) == [-1.0, 5.0]

    def test_pushes_moments_exactly(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 3))
        m = rng.standard_normal(3)
        mu = transform(standard_rule(3, degree=3), m, a)
        mean, cov = weighted_moments(mu.weights, mu.points)
        assert np.max(np.abs(mean - m)) <= 1e-12 * (1 + np.max(np.abs(m)))
        assert np.max(np.abs(cov - a @ a.T)) <= 1e-12 * (1 + np.max(np.abs(a @ a.T)))

    @pytest.mark.parametrize("measure", ["degree-5", "sample"])
    def test_points_are_contiguous_and_the_plain_product(self, measure):
        # S^T is made C-ordered before the product, which BLAS then runs
        # faster; the points keep the bytes of m + points @ S^T.
        rng = np.random.default_rng(2)
        k = 21
        mu = standard_rule(k, 5) if measure == "degree-5" else standard_rule(k, samples=1000, rng=rng)
        for _ in range(20):
            s = np.linalg.cholesky(np.cov(rng.standard_normal((k, 2 * k))))  # C-ordered, as a kernel's factor
            m = rng.standard_normal(k)
            out = transform(mu, m, s)
            assert out.points.flags.c_contiguous
            assert out.points.tobytes() == (m + mu.points @ s.T).tobytes()

    def test_dimension_mismatch(self):
        mu = standard_rule(2, degree=3)
        with pytest.raises(DimensionMismatch):
            transform(mu, np.zeros(3), np.eye(3))


class TestMoments:
    def test_single_point(self):
        mu = DiscreteMeasure([1.0], [[2.0, 3.0]])
        mean, cov = weighted_moments(mu.weights, mu.points)
        assert np.allclose(mean, [2.0, 3.0])
        assert np.allclose(cov, 0.0)

    def test_degree3_k2_standard(self):
        mu = standard_rule(2, degree=3)
        mean, cov = weighted_moments(mu.weights, mu.points)
        assert np.allclose(mean, 0.0)
        assert np.allclose(cov, np.eye(2))

    def test_two_point_hand_sum(self):
        mean, cov = weighted_moments(np.array([0.5, 0.5]), np.array([[-1.0], [1.0]]))
        assert np.allclose(mean, [0.0])
        assert np.allclose(cov, [[1.0]])


class TestMomentDefect:
    def test_degree3_exact_at_degree3(self):
        assert moment_defect(standard_rule(2, degree=3), 3) <= 1e-12

    def test_degree3_k1_fourth_moment_defect(self):
        # The two-point rule gives E[x^4] = 1 against the Gaussian's 3.
        assert np.isclose(moment_defect(standard_rule(1, degree=3), 4), 2.0)

    def test_degree5_exact_at_degree5(self):
        assert moment_defect(standard_rule(2, degree=5), 5) <= 1e-12

    def test_guard(self):
        mu = standard_rule(2, degree=3)
        with pytest.raises(ValueError, match="guard"):
            moment_defect(mu, 7)


def _loop_degree5_rule(k):
    """The degree-5 rule built point by point, as the reference for the
    stencil construction."""
    pts = [np.zeros(k)]
    wts = [2.0 / (k + 2)]
    w_axis = (4.0 - k) / (2.0 * (k + 2) ** 2)
    r_axis = np.sqrt(k + 2.0)
    for i in range(k):
        for sign in (1.0, -1.0):
            e = np.zeros(k)
            e[i] = sign * r_axis
            pts.append(e)
            wts.append(w_axis)
    w_pair = 1.0 / (k + 2) ** 2
    r_pair = np.sqrt((k + 2.0) / 2.0)
    for i in range(k):
        for j in range(i + 1, k):
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    e = np.zeros(k)
                    e[i], e[j] = si * r_pair, sj * r_pair
                    pts.append(e)
                    wts.append(w_pair)
    return np.array(wts), np.array(pts)


class TestSymmetricStencil:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8, 21])
    def test_degree5_matches_loop_reference_bit_for_bit(self, k):
        mu = standard_rule(k, degree=5)
        wts, pts = _loop_degree5_rule(k)
        assert mu.points.shape == pts.shape == (2 * k * k + 1, k)
        assert mu.points.tobytes() == pts.tobytes()
        assert mu.weights.tobytes() == wts.tobytes()

    def test_layout(self):
        out = symmetric_stencil(np.diag([1.0, 2.0, 3.0]), np.diag([10.0, 20.0, 30.0]))
        assert out.shape == (1 + 6 + 12, 3)
        assert np.array_equal(out[:7], [[0, 0, 0], [1, 0, 0], [-1, 0, 0], [0, 2, 0],
                                        [0, -2, 0], [0, 0, 3], [0, 0, -3]])
        # pairs (0,1), (0,2), (1,2), each in sign order ++, +-, -+, --
        assert np.array_equal(out[7:11], [[10, 20, 0], [10, -20, 0], [-10, 20, 0], [-10, -20, 0]])
        assert np.array_equal(out[11:15], [[10, 0, 30], [10, 0, -30], [-10, 0, 30], [-10, 0, -30]])
        assert np.array_equal(out[15:], [[0, 20, 30], [0, 20, -30], [0, -20, 30], [0, -20, -30]])
        assert not np.signbit(out[out == 0.0]).any()  # +0.0 off the axes, as the rules print

    def test_direction_rows(self):
        # two directions in three dimensions: +-a_i, then +-b_0 +-b_1
        a, b = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0]]), np.array([[0.0, 1.0, 1.0], [4.0, 0.0, 0.0]])
        out = symmetric_stencil(a, b)
        assert np.array_equal(out, [[0, 0, 0], a[0], -a[0], a[1], -a[1],
                                    b[0] + b[1], b[0] - b[1], b[1] - b[0], -b[0] - b[1]])
