"""A moment-matching oracle for discrete measures: how far a measure's
monomial moments are from the standard Gaussian's."""

from typing import Iterator

import numpy as np


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


def moment_defect(mu, degree: int) -> float:
    """Worst absolute mismatch of the ``cubature.DiscreteMeasure`` ``mu``
    against standard-Gaussian moments over all monomials of total degree <=
    degree; ValueError beyond degree 6 or dimension 6."""
    if degree > 6 or mu.dim > 6:
        raise ValueError("moment_defect guard: degree <= 6 and dimension <= 6")
    worst = 0.0
    for alpha in _multi_indices(mu.dim, degree):
        vals = np.prod(mu.points ** np.array(alpha), axis=1)
        defect = abs(float(mu.weights @ vals) - _gaussian_moment(alpha))
        worst = max(worst, defect)
    return worst
