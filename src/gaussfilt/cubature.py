"""Discrete measures approximating Gaussians.

Deterministic cubature rules of degree 3 (2k points) and degree 5
(2k^2 + 1 points) for the standard Gaussian, sampled (Monte Carlo)
measures, affine transport and weighted moments.

The degree-5 rule's points and the probes of ``updates.numerical_hessian``
are one fully symmetric stencil (Stroud 1971), built by
``symmetric_stencil`` from different axis and pair directions.
"""

from dataclasses import dataclass

import numpy as np

from .errors import as_integer, as_shape


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
        if not (np.isfinite(w).all() and np.isfinite(p).all()):
            raise ValueError("weights and points must be finite")
        if abs(w.sum() - 1.0) > 1e-12 * max(1.0, np.abs(w).sum()):
            raise ValueError("weights must sum to one")

    @classmethod
    def _unchecked(cls, weights: np.ndarray, points: np.ndarray) -> "DiscreteMeasure":
        """The constructor for float arrays whose weights come from a
        validated measure or sum to one by construction; skips ``__post_init__``."""
        mu = object.__new__(cls)
        object.__setattr__(mu, "weights", weights)
        object.__setattr__(mu, "points", points)
        return mu

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def size(self) -> int:
        return self.points.shape[0]


def symmetric_stencil(a_axis: np.ndarray, a_pair: np.ndarray) -> np.ndarray:
    """The (1 + 2k + 4 k(k-1)/2, n) offsets of the fully symmetric stencil
    along k direction rows of length n: the origin, then +a_axis[i] and
    -a_axis[i] for each i, then +-a_pair[i] +-a_pair[j] in sign order
    (++, +-, -+, --) for each pair i < j in row-major order.  Every offset
    is formed by subtraction from +0.0, never by negation, so the rows of
    scaled identities hold +0.0 off their axes."""
    k, n = a_axis.shape
    iu, ju = np.triu_indices(k, 1)
    out = np.zeros((1 + 2 * k + 4 * iu.size, n))
    # Views of the axis and pair rows, indexed (axis or pair, sign, coordinate).
    axes = out[1:1 + 2 * k].reshape(k, 2, n)
    pairs = out[1 + 2 * k:].reshape(iu.size, 4, n)
    axes[:, 0] = a_axis
    axes[:, 1] = 0.0 - a_axis
    ai, aj = a_pair[iu], a_pair[ju]
    pairs[:, 0] = ai + aj
    pairs[:, 1] = ai - aj
    pairs[:, 2] = aj - ai
    pairs[:, 3] = (0.0 - ai) - aj
    return out


# Deterministic rules by (degree, k), built on first use; their arrays are read-only.
_RULES: dict = {}


def standard_rule(
    k: int,
    degree: int | None = None,
    *,
    samples: int | None = None,
    rng: np.random.Generator | None = None,
) -> DiscreteMeasure:
    """Discrete measure approximating the k-dimensional standard Gaussian:
    the cubature rule of ``degree`` (3 or 5), or, given ``samples``, that
    many fresh i.i.d. standard-normal draws from ``rng``, equal weights.

    Degree 3: the 2k symmetric points +-sqrt(k) e_i, equal weights.
    Degree 5: a 2k^2+1 point fully-symmetric rule -- the origin, the axis
    points +-sqrt(k+2) e_i, and the diagonal points
    sqrt((k+2)/2) (+-e_i +- e_j), in ``symmetric_stencil`` order.  Axis
    weights go negative for k > 4, so the moments they estimate can be
    indefinite, and abort a time update unless ``repair_covariance`` mends them.
    Both are built once per (degree, k) and returned, read-only, on every
    later call.
    """
    k = as_integer(k, "dimension")  # before the lookup: (3, True) would find the k = 1 rule
    rule = _RULES.get((degree, k)) if samples is None else None
    if rule is not None:
        return rule
    if k < 1:
        raise ValueError(f"dimension must be >= 1, got {k}")
    if samples is not None:
        samples = as_integer(samples, "samples")
        if rng is None or degree is not None or samples < 1:
            raise ValueError("a sampled measure takes a random generator and samples >= 1, not a degree")
        return DiscreteMeasure._unchecked(np.full(samples, 1.0 / samples), rng.standard_normal((samples, k)))
    if degree == 3:
        axes = np.sqrt(k) * np.eye(k)
        pts = np.vstack([axes, 0.0 - axes])  # as symmetric_stencil: +0.0 off the axes
        rule = DiscreteMeasure(np.full(2 * k, 1.0 / (2 * k)), pts)
    elif degree == 5:
        pts = symmetric_stencil(np.sqrt(k + 2.0) * np.eye(k), np.sqrt((k + 2.0) / 2.0) * np.eye(k))
        w = [2.0 / (k + 2), (4.0 - k) / (2.0 * (k + 2) ** 2), 1.0 / (k + 2) ** 2]
        rule = DiscreteMeasure(np.repeat(w, [1, 2 * k, 2 * k * (k - 1)]), pts)
    else:
        raise ValueError(f"rule degree must be 3 or 5, got {degree!r}")
    rule.weights.flags.writeable = False
    rule.points.flags.writeable = False
    _RULES[(degree, k)] = rule
    return rule


def transform(mu: DiscreteMeasure, m: np.ndarray, s: np.ndarray) -> DiscreteMeasure:
    """Affine push-forward x -> m + S x; turns a standard-Gaussian measure
    into one for N(m, S S^T); m must be (k,) and S (k, k) (``as_shape``)."""
    m = as_shape(m, (mu.dim,), "transform mean")
    s = as_shape(s, (mu.dim, mu.dim), "transform factor")
    pts = mu.points @ s.T
    pts += m  # in place: a wide point set allocates one (m, k) array, not two
    return DiscreteMeasure._unchecked(mu.weights, pts)


def weighted_moments(weights: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of stacked points (m, k) under m weights that sum
    to one, without building a DiscreteMeasure.  The covariance is the
    product as it rounds, symmetric only up to rounding; the caller
    symmetrizes it once, where it is used."""
    mean = weights @ points
    dev = points - mean
    return mean, (weights * dev.T) @ dev
