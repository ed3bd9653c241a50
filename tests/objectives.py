"""Test objectives for ``bfgs_minimize``, which takes one (value, gradient) call per point."""

import numpy as np

from gaussfilt.models import central_difference


def with_difference_gradient(f):
    """The (value, gradient) objective of a one-point f, its gradient from
    ``central_difference`` along the identity."""
    rows = lambda vs: np.array([f(v) for v in vs], dtype=float)
    return lambda v: (f(v), central_difference(rows, v)[0])
