"""``gaussfilt.lapack`` against ``numpy.linalg``: the same bytes where
``numpy.linalg`` returns, None exactly where it raises LinAlgError, and no
floating-point warning either way."""

import warnings

import numpy as np
import pytest

from gaussfilt import lapack

ORDERS = range(23)  # the orders a step factors are 2 to 22; 0 and 1 are edge cases


def _linalg(fn, *args):
    """fn(*args), or None where it raises LinAlgError."""
    try:
        return fn(*args)
    except np.linalg.LinAlgError:
        return None


def _same(got, want):
    if want is None:
        return got is None
    return got is not None and got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _spd(rng, n):
    b = rng.standard_normal((n, n + 1))
    return b @ b.T


def _square_root_array(rng, p, k):
    """The (k + p) x (p + k) array ``updates._square_root_update`` factors:
    [[A^T, I], [N^1/2^T, 0]]."""
    array = np.eye(k + p, p + k, p)
    array[:k, :p] = rng.standard_normal((p, k)).T
    array[k:, :p] = np.linalg.cholesky(_spd(rng, p)).T
    return array


@pytest.mark.parametrize("n", ORDERS)
def test_cholesky_of_spd_matrices(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        c = _spd(rng, n)
        assert _same(lapack.cholesky(c), np.linalg.cholesky(c))


@pytest.mark.parametrize("n", ORDERS)
def test_inverse_and_solve_of_general_and_triangular_matrices(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(20):
        general = rng.standard_normal((n, n))
        triangular = np.linalg.cholesky(_spd(rng, n))
        b = rng.standard_normal(n)
        for a in (general, triangular):
            assert _same(lapack.inv(a), np.linalg.inv(a))
            assert _same(lapack.solve(a, b), np.linalg.solve(a, b))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_qr_r_of_square_root_arrays(p):
    rng = np.random.default_rng(p)
    for k in range(1, 22):
        for _ in range(5):
            array = _square_root_array(rng, p, k)
            want = np.linalg.qr(array, mode="r")
            assert _same(lapack.qr_r(array), want)


@pytest.mark.parametrize("shape", [(0, 0), (1, 1), (5, 3), (3, 5), (22, 22)])
def test_qr_r_of_any_shape(shape):
    array = np.random.default_rng(0).standard_normal(shape)
    want = np.linalg.qr(array, mode="r")
    assert _same(lapack.qr_r(array), want)


NAN, INF = np.nan, np.inf

# Each case fails in numpy.linalg; the comparison below pins it.
FAILING = {
    "cholesky": [
        np.array([[1.0, 2.0], [2.0, 1.0]]),  # indefinite
        np.array([[1.0, 1.0], [1.0, 1.0]]),  # positive semi-definite of rank one
        np.array([[-1.0]]),
    ],
    "inv": [
        np.zeros((3, 3)),
        np.array([[1.0, 2.0], [2.0, 4.0]]),  # rank one
        np.array([[1.0, 0.0], [3.0, 0.0]]),  # triangular with a zero pivot
    ],
    "solve": [
        np.zeros((3, 3)),
        np.array([[1.0, 2.0], [2.0, 4.0]]),
        np.array([[1.0, 0.0], [3.0, 0.0]]),
    ],
}

# Non-finite entries: whatever numpy.linalg does with each, lapack does too
# (its Cholesky factorization, for one, lets a NaN through).
NON_FINITE = [
    np.array([[INF, 0.0], [0.0, 1.0]]),
    np.array([[1.0, INF], [INF, 1.0]]),
    np.array([[NAN, 0.0], [0.0, 1.0]]),
    np.array([[1.0, NAN], [NAN, 1.0]]),
    np.array([[INF, NAN], [NAN, -INF]]),
]


# Each lapack function and the numpy.linalg call it stands for.
PAIRS = {
    "cholesky": (lapack.cholesky, np.linalg.cholesky),
    "inv": (lapack.inv, np.linalg.inv),
    "solve": (lapack.solve, np.linalg.solve),
    "qr_r": (lapack.qr_r, lambda a: np.linalg.qr(a, mode="r")),
}


def _both(name, a):
    """lapack's and numpy.linalg's results for the function ``name`` on a
    square ``a``, each on its own copies, as ``qr_r`` overwrites its operand."""
    ours, theirs = PAIRS[name]
    args = (a, np.arange(1.0, a.shape[0] + 1.0)) if name == "solve" else (a,)
    return ours(*(x.copy() for x in args)), _linalg(theirs, *(x.copy() for x in args))


@pytest.mark.parametrize("name", sorted(FAILING))
def test_none_where_numpy_linalg_raises(name):
    # Under the default floating-point settings, with warnings as errors: a
    # failure must leak no RuntimeWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in FAILING[name]:
            got, want = _both(name, a)
            assert want is None and got is None


@pytest.mark.parametrize("outer", [{}, {"over": "ignore", "invalid": "ignore"}, {"all": "raise"}],
                         ids=["default", "run_filter", "raise"])
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_non_finite_input_matches_numpy_linalg(name, outer):
    # The same result or failure as numpy.linalg whatever settings the
    # caller runs under, ``run_filter``'s among them.
    with warnings.catch_warnings(), np.errstate(**outer):
        warnings.simplefilter("error")
        for a in NON_FINITE + FAILING.get(name, []):
            got, want = _both(name, a)
            assert _same(got, want)


def test_caller_floating_point_settings_are_restored():
    before = np.geterr()
    assert lapack.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]])) is None
    assert np.geterr() == before


def test_qr_r_overwrites_its_operand():
    array = _square_root_array(np.random.default_rng(0), 2, 5)
    original = array.copy()
    r = lapack.qr_r(array)
    assert not np.array_equal(array, original)
    assert r.tobytes() == np.triu(array).tobytes()
