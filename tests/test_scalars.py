"""Scalar parsing and formatting."""

import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cellnash import errors, parse_game, scalars, serialize_game
from cellnash.cli import EXIT_OK, run_cli

from conftest import MATCHING_PENNIES, as_float_game, make_game


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


def test_parse_fraction_objects_come_back_canonical():
    assert scalars.parse_scalar(Fraction(2, 4)) == Fraction(1, 2)
    assert scalars.parse_scalar(Fraction(4, 2)) == 2
    assert isinstance(scalars.parse_scalar(Fraction(4, 2)), int)


@pytest.mark.parametrize("bad", [None, 1j, [1]], ids=["None", "complex", "list"])
def test_parse_rejects_unsupported_types(bad):
    with pytest.raises(errors.ParseError) as info:
        scalars.parse_scalar(bad)
    assert str(info.value) == f"cannot parse scalar of type {type(bad).__name__}"


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


DIGITS = st.text(alphabet="0123456789", min_size=1, max_size=8)


def _outcome(parse, text):
    """(type, value) of a parse, or the message of its ParseError."""
    try:
        value = parse(text)
    except errors.ParseError as exc:
        return ("error", str(exc))
    return (type(value), value)


def _full_parser(text):
    return scalars._canonical(scalars._parse_string(text))


@given(
    st.one_of(
        st.text(
            alphabet=list("0123456789") + ["-", "+", "/", ".", "e", "_", " ", "\u0663"],
            max_size=12,
        ),
        st.builds(  # the canonical forms, -?[0-9]+ and -?[0-9]+/[0-9]+
            "{}{}{}".format,
            st.sampled_from(["", "-"]),
            DIGITS,
            st.one_of(st.just(""), DIGITS.map("/{}".format)),
        ),
    )
)
@settings(derandomize=True, max_examples=3000, deadline=None)
def test_canonical_decoding_matches_the_full_parser(text):
    # value, type and error message are the full parser's, whichever path
    # parse_scalar takes
    assert _outcome(scalars.parse_scalar, text) == _outcome(_full_parser, text)


@pytest.mark.parametrize(
    "text",
    [
        "-0",
        "007",
        "-0/5",
        "4/2",
        "1/0",
        "3/",
        "--3",
        "3/-4",
        "9" * 4300,
        "1" + "0" * 4300,  # int() refuses 4301 digits
        "-" + "7" * 4300 + "/" + "3" * 4300,
        "1" + "0" * 4300 + "/3",
    ],
    ids=[
        "-0", "007", "-0/5", "4/2", "1/0", "3/", "--3", "3/-4",
        "4300-digits", "4301-digits", "4300-digit-p/q", "4301-digit-p",
    ],
)
def test_canonical_decoding_edge_cases(text):
    assert _outcome(scalars.parse_scalar, text) == _outcome(_full_parser, text)


def test_canonical_strings_skip_the_full_parser(monkeypatch, capsys):
    def full_parser(text):
        raise AssertionError(f"{text!r} took the full parser")

    monkeypatch.setattr(scalars, "_parse_string", full_parser)
    fractions = make_game(
        (2, 2),
        ((Fraction(1, 3), -2, Fraction(-5, 2), 0), (7, Fraction(9, 4), 1, -1)),
        name="fractions",
    )
    for game in (MATCHING_PENNIES, fractions, as_float_game(fractions)):
        parsed = parse_game(serialize_game(game))
        assert parsed == game
        assert serialize_game(parsed) == serialize_game(game)
    game_file = os.path.join(os.path.dirname(__file__), "data", "matching_pennies.json")
    assert run_cli(["solve", game_file, "--eps", "9/10"]) == EXIT_OK
    assert '"eps_target": "9/10"' in capsys.readouterr().out
