"""Cholesky, QR, solve and inverse by the LAPACK gufuncs ``numpy.linalg``
wraps, called directly: at a step's orders (2 to 22) the wrapper's checks,
copies and error context cost more than LAPACK does.

Each returns the bytes ``numpy.linalg`` returns, or None exactly where it
raises LinAlgError, read from the same invalid-operation flag.  Operands are
float arrays of the right shapes, unchecked.  The gufuncs are bound at
import, which fails on a NumPy older than 2.0.
"""

import numpy as np
from numpy.linalg import _umath_linalg

_CHOLESKY_LO = _umath_linalg.cholesky_lo
_QR_R_RAW = _umath_linalg.qr_r_raw
_SOLVE1 = _umath_linalg.solve1
_INV = _umath_linalg.inv


def _flagged(gufunc, *args):
    """gufunc(*args), or None where it raises the invalid flag."""
    with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
        try:
            return gufunc(*args)
        except FloatingPointError:
            return None


def cholesky(c):
    """The lower Cholesky factor of c, or None (c not positive definite)."""
    return _flagged(_CHOLESKY_LO, c)


def qr_r(a):
    """The R of a's QR, as ``numpy.linalg.qr`` returns it for mode "r", or
    None; overwrites ``a``."""
    if _flagged(_QR_R_RAW, a) is None:
        return None
    return np.triu(a[: min(a.shape)])


def solve(a, b):
    """x with a x = b for a vector b, or None (a singular)."""
    return _flagged(_SOLVE1, a, b)


def inv(a):
    """a^-1, or None (a singular)."""
    return _flagged(_INV, a)
