"""The package's rules for the numbers and counts a user hands in."""

from fractions import Fraction

import numpy as np
import pytest

from gaussfilt import FilterKind
from gaussfilt.errors import as_integer, as_real


@pytest.mark.parametrize("value", [0.5, 2, np.float32(0.5), np.int64(3), Fraction(1, 4), -1.5, 0.0])
def test_a_finite_real_number_is_returned_as_a_float(value):
    out = as_real(value, "x")
    assert type(out) is float and out == float(value)


@pytest.mark.parametrize(
    "value",
    [True, np.bool_(False), "0.5", [0.5], (0.5,), np.array(0.5), np.array([0.5]), None, 1j,
     np.nan, np.inf, -np.inf, 10**400, -Fraction(10**400, 3)],
)
def test_anything_else_is_rejected_with_its_name_and_value(value):
    with pytest.raises(ValueError, match=r"^x must be finite, got "):
        as_real(value, "x")


@pytest.mark.parametrize("value", [0.0, -0.0, -1e-300, -2])
def test_positive_rejects_zero_and_below(value):
    with pytest.raises(ValueError, match=r"^dt must be positive and finite, got "):
        as_real(value, "dt", positive=True)


def test_positive_takes_the_smallest_positive_float():
    assert as_real(5e-324, "dt", positive=True) == 5e-324


def test_positive_rejects_a_positive_number_that_rounds_to_zero():
    with pytest.raises(ValueError, match=r"^dt must be positive and finite, got Fraction\(1, "):
        as_real(Fraction(1, 10**400), "dt", positive=True)


@pytest.mark.parametrize("value, expected", [(3, 3), (np.int64(3), 3), (10**30, 10**30), (3.0, 3),
                                             (np.float32(3.0), 3), (Fraction(6, 2), 3)])
def test_an_integer_or_a_whole_real_number_is_returned_exactly(value, expected):
    out = as_integer(value, "n")
    assert type(out) is int and out == expected


@pytest.mark.parametrize("value", [np.float32(2.5), Fraction(5, 2), 2.5, np.nan, np.inf])
def test_a_fraction_is_rejected_not_truncated(value):
    with pytest.raises(ValueError, match=r"^n must be an integer, got "):
        as_integer(value, "n")


@pytest.mark.parametrize("value", [True, np.bool_(True), "3", [3], None])
def test_a_bool_a_string_or_a_sequence_is_rejected_as_a_value(value):
    with pytest.raises(ValueError, match=r"^n must be an integer, got "):
        as_integer(value, "n")


def test_a_sample_count_is_not_truncated():
    with pytest.raises(ValueError, match="sample_count must be an integer"):
        FilterKind("PGF", sample_count=np.float32(1000.7))
