"""Discrete measures approximating Gaussians.

Deterministic cubature rules of degree 3 (2k points) and degree 5
(2k^2 + 1 points) for the standard Gaussian, empirical (Monte Carlo)
measures, affine transport, and a moment-matching oracle.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

import numpy as np

from .errors import DimensionMismatch, InvalidDimension, Unsupported

CUBATURE3 = "cubature3"
CUBATURE5 = "cubature5"
EMPIRICAL = "empirical"


@dataclass(frozen=True)
class RuleKind:
    """Tag selecting a rule family; sample_count only applies to empirical."""

    tag: str
    sample_count: int | None = None

    def __post_init__(self):
        if self.tag not in (CUBATURE3, CUBATURE5, EMPIRICAL):
            raise ValueError(f"unknown rule tag {self.tag!r}")
        if self.tag == EMPIRICAL:
            if self.sample_count is None or self.sample_count < 2:
                raise ValueError("empirical rule needs sample_count >= 2")


def cubature3() -> RuleKind:
    return RuleKind(CUBATURE3)


def cubature5() -> RuleKind:
    return RuleKind(CUBATURE5)


def empirical(n: int) -> RuleKind:
    return RuleKind(EMPIRICAL, n)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted point set; weights sum to one but may be negative."""

    weights: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        p = np.atleast_2d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "points", p)
        if w.shape[0] != p.shape[0] or w.shape[0] < 1:
            raise ValueError("weights and points must have equal positive length")
        if abs(w.sum() - 1.0) > 1e-12 * max(1.0, np.abs(w).sum()):
            raise ValueError("weights must sum to one")

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def size(self) -> int:
        return self.points.shape[0]


def standard_rule(kind: RuleKind, k: int, rng: np.random.Generator | None = None) -> DiscreteMeasure:
    """Discrete measure approximating the k-dimensional standard Gaussian.

    Degree 3: the 2k symmetric points +-sqrt(k) e_i, equal weights.
    Degree 5: a 2k^2+1 point fully-symmetric rule -- the origin, the axis
    points +-sqrt(k+2) e_i, and the diagonal points
    sqrt((k+2)/2) (+-e_i +- e_j).  Axis weights go negative for k > 4;
    downstream moment estimates then rely on covariance repair.
    Empirical: sample_count i.i.d. standard-normal draws, equal weights.
    """
    if k < 1:
        raise InvalidDimension(f"dimension must be >= 1, got {k}")
    if kind.tag == CUBATURE3:
        pts = np.vstack([np.sqrt(k) * np.eye(k), -np.sqrt(k) * np.eye(k)])
        wts = np.full(2 * k, 1.0 / (2 * k))
        return DiscreteMeasure(wts, pts)
    if kind.tag == CUBATURE5:
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
        for i, j in combinations(range(k), 2):
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    e = np.zeros(k)
                    e[i], e[j] = si * r_pair, sj * r_pair
                    pts.append(e)
                    wts.append(w_pair)
        return DiscreteMeasure(np.array(wts), np.array(pts))
    if rng is None:
        raise ValueError("empirical rule requires a random generator")
    n = kind.sample_count
    return DiscreteMeasure(np.full(n, 1.0 / n), rng.standard_normal((n, k)))


def transform(mu: DiscreteMeasure, m: np.ndarray, s: np.ndarray) -> DiscreteMeasure:
    """Affine push-forward x -> m + S x; turns a standard-Gaussian measure
    into one for N(m, S S^T)."""
    m = np.atleast_1d(np.asarray(m, dtype=float))
    s = np.atleast_2d(np.asarray(s, dtype=float))
    if s.shape != (mu.dim, mu.dim) or m.shape[0] != mu.dim:
        raise DimensionMismatch(
            f"transform of {mu.dim}-dim measure with m {m.shape}, S {s.shape}"
        )
    return DiscreteMeasure(mu.weights, mu.points @ s.T + m)


def moments(mu: DiscreteMeasure) -> tuple[np.ndarray, np.ndarray]:
    """Weighted mean and (symmetrized) covariance of the point set."""
    return weighted_moments(mu.weights, mu.points)


def weighted_moments(weights: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and (symmetrized) covariance of stacked points (m, k) under m
    weights that sum to one, without building a DiscreteMeasure."""
    mean = weights @ points
    dev = points - mean
    cov = (weights * dev.T) @ dev
    return mean, 0.5 * (cov + cov.T)


def _multi_indices(k: int, degree: int) -> Iterator[tuple[int, ...]]:
    if k == 0:
        yield ()
        return
    for head in range(degree + 1):
        for tail in _multi_indices(k - 1, degree - head):
            yield (head,) + tail


def _gaussian_moment(alpha: tuple[int, ...]) -> float:
    # Product of 1-D standard-normal moments: (a-1)!! for even a, else 0.
    out = 1.0
    for a in alpha:
        if a % 2 == 1:
            return 0.0
        for m in range(a - 1, 0, -2):
            out *= m
    return out


def moment_defect(mu: DiscreteMeasure, degree: int) -> float:
    """Worst absolute mismatch against standard-Gaussian moments over all
    monomials of total degree <= degree."""
    if degree > 6 or mu.dim > 6:
        raise Unsupported("moment_defect guard: degree <= 6 and dimension <= 6")
    worst = 0.0
    for alpha in _multi_indices(mu.dim, degree):
        vals = np.prod(mu.points ** np.array(alpha), axis=1)
        defect = abs(float(mu.weights @ vals) - _gaussian_moment(alpha))
        worst = max(worst, defect)
    return worst
