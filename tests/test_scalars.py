"""Scalar parsing, formatting, and numeric-mode behavior."""

from fractions import Fraction

import pytest

from cellnash import errors, scalars


def test_parse_integers_stay_int():
    assert scalars.parse_scalar(3) == 3
    assert isinstance(scalars.parse_scalar(3), int)
    assert scalars.parse_scalar(-7) == -7


def test_parse_fraction_strings():
    assert scalars.parse_scalar("2/3") == Fraction(2, 3)
    assert scalars.parse_scalar("-5/2") == Fraction(-5, 2)
    assert scalars.parse_scalar("4/2") == 2
    assert isinstance(scalars.parse_scalar("4/2"), int)


def test_parse_decimal_strings():
    assert scalars.parse_scalar("0.25") == Fraction(1, 4)
    assert scalars.parse_scalar("-1.5") == Fraction(-3, 2)


def test_parse_rejects_zero_denominator():
    with pytest.raises(errors.ParseError):
        scalars.parse_scalar("1/0")


def test_parse_rejects_garbage():
    with pytest.raises(errors.ParseError):
        scalars.parse_scalar("one half")


def test_parse_rejects_bool():
    with pytest.raises(errors.ParseError):
        scalars.parse_scalar(True)


def test_float_rejected_in_rational_mode():
    with pytest.raises(errors.ParseError):
        scalars.parse_scalar(0.5)


def test_float_allowed_in_float_mode():
    with scalars.numeric_mode(scalars.FLOAT):
        assert scalars.parse_scalar(0.5) == 0.5
        assert scalars.parse_scalar("1/4") == 0.25


@pytest.mark.parametrize(
    "value",
    [
        float("nan"),
        float("inf"),
        float("-inf"),
        pytest.param(10**400, id="int-1e400"),
        pytest.param(-(10**400), id="int-minus-1e400"),
        "1e400",
        "-1e400",
        pytest.param(Fraction(10**400, 3), id="fraction-1e400/3"),
    ],
)
def test_float_mode_rejects_non_finite_and_overflowing_values(value):
    with scalars.numeric_mode(scalars.FLOAT):
        with pytest.raises(errors.ParseError):
            scalars.parse_scalar(value)


def test_rational_mode_keeps_large_values_exact():
    assert scalars.parse_scalar(10**400) == 10**400
    assert scalars.parse_scalar("1e400") == 10**400


def test_mode_context_restores():
    assert scalars.get_numeric_mode() == scalars.RATIONAL
    with scalars.numeric_mode(scalars.FLOAT):
        assert scalars.get_numeric_mode() == scalars.FLOAT
    assert scalars.get_numeric_mode() == scalars.RATIONAL


def test_format_canonical_fractions():
    assert scalars.format_scalar(Fraction(3, 2)) == "3/2"
    assert scalars.format_scalar(Fraction(4, 2)) == "2"
    assert scalars.format_scalar(7) == "7"
    assert scalars.format_scalar(-Fraction(1, 3)) == "-1/3"


def test_exact_div():
    assert scalars.exact_div(1, 3) == Fraction(1, 3)
    assert scalars.exact_div(4, 2) == 2
    assert isinstance(scalars.exact_div(4, 2), int)


def test_comparisons_exact_in_rational_mode():
    assert scalars.is_zero(0)
    assert scalars.is_zero(Fraction(0))
    assert not scalars.is_zero(Fraction(1, 10**9))
    assert scalars.is_positive(Fraction(1, 10**12))
    assert scalars.strictly_greater(Fraction(1, 3), Fraction(1, 3) - Fraction(1, 10**15))


def test_comparisons_tolerant_in_float_mode():
    with scalars.numeric_mode(scalars.FLOAT):
        assert scalars.is_zero(1e-12)
        assert not scalars.is_zero(1e-6)
        assert scalars.less_equal(1.0 + 1e-12, 1.0)
        assert not scalars.strictly_greater(1.0 + 1e-12, 1.0)
