"""Scalar parsing and formatting."""

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


def test_rational_mode_keeps_large_values_exact():
    assert scalars.parse_scalar(10**400) == 10**400
    assert scalars.parse_scalar("1e400") == 10**400


def test_format_canonical_fractions():
    assert scalars.format_scalar(Fraction(3, 2)) == "3/2"
    assert scalars.format_scalar(Fraction(4, 2)) == "2"
    assert scalars.format_scalar(7) == "7"
    assert scalars.format_scalar(-Fraction(1, 3)) == "-1/3"


def test_exact_div():
    assert scalars.exact_div(1, 3) == Fraction(1, 3)
    assert scalars.exact_div(4, 2) == 2
    assert isinstance(scalars.exact_div(4, 2), int)


def test_decimal_strings_keep_to_the_digit_limit():
    # 4300 digits by default, on the reduced numerator and denominator
    assert scalars.parse_scalar("9e4299") == 9 * 10**4299
    assert scalars.parse_scalar("5e-4300") == Fraction(1, 2 * 10**4299)
    for text in (
        "1e4300",
        "1e-4300",
        "1e30000000",
        "-1e-30000000",
        "9" * 4300 + ".9",  # no exponent: 4301 digits
        "1e" + "9" * 5000,  # an exponent too long to read
    ):
        with pytest.raises(errors.ParseError):
            scalars.parse_scalar(text)


def test_format_float_as_its_exact_fraction():
    assert scalars.format_scalar(0.1) == "3602879701896397/36028797018963968"
    assert scalars.format_scalar(0.5) == "1/2"
    assert scalars.format_scalar(-2.0) == "-2"
    assert scalars.parse_scalar(scalars.format_scalar(0.1)) == 0.1
