"""Exact scalar values.

Payoffs and probabilities are exact rationals (``int`` or
``fractions.Fraction``), so every comparison downstream is decidable and
repeat runs are bit-for-bit reproducible.  Input arrives as integers or
as ``p/q`` and decimal strings; numerators and denominators are limited
both ways to the digits Python converts between integers and strings
(``sys.get_int_max_str_digits()``, 4300 by default).  Payoff arithmetic
reads a float passed straight to the library as the exact binary
fraction it holds (:func:`exact`, :func:`as_integers`).
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction
from typing import Sequence, Union

from .errors import ParameterOutOfRange, ParseError

Scalar = Union[int, Fraction, float]


def _canonical(value: Fraction) -> Scalar:
    # integers stay plain ints: cheaper arithmetic, identical comparisons
    if value.denominator == 1:
        return value.numerator
    return value


@functools.cache
def _power_of_ten(digits: int) -> int:
    return 10**digits


def parse_scalar(value) -> Scalar:
    """Turn JSON-level input into an exact Scalar.

    Accepts integers, Fractions, and strings in ``p/q`` or decimal form.
    The canonical strings :func:`format_scalar` writes (``"-3"``,
    ``"3/4"``) are decoded with ``int()`` directly; every other spelling
    goes through ``Fraction``'s parser, with the same limits and errors.
    Floats are refused rather than guessed at.  A string whose reduced
    numerator or denominator has more digits than the digit limit is
    refused; one whose exponent alone rules it out is refused before it
    is built, so ``"1e30000000"`` costs nothing.
    """
    if isinstance(value, str):
        # the forms format_scalar writes, -?[0-9]+ and -?[0-9]+/[0-9]+,
        # skip Fraction's regex; any other spelling, a zero denominator
        # and a part int() refuses past the digit limit take the full
        # parser, which words every error
        num, slash, den = value.partition("/")
        if (
            value.isascii()
            and (num[1:] if num[:1] == "-" else num).isdigit()
            and (den.isdigit() or not slash)
        ):
            try:
                if not slash:
                    return int(num)
                q = int(den)
                if q:
                    return _canonical(Fraction(int(num), q))
            except ValueError:
                pass
        return _canonical(_parse_string(value))
    if isinstance(value, bool):
        raise ParseError(f"expected a number, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        raise ParseError(
            f"float {value!r} not allowed; write it as 'p/q' or a decimal string"
        )
    if isinstance(value, Fraction):
        return _canonical(value)
    raise ParseError(f"cannot parse scalar of type {type(value).__name__}")


def _parse_string(text: str) -> Fraction:
    limit = sys.get_int_max_str_digits()  # 0: no limit
    exponent = "e" in text or "E" in text
    if limit and exponent:
        mantissa, _, power = text.lower().partition("e")
        # the mantissa's digits can cancel at most as many digits of the
        # power of ten, so a larger exponent can never fit the limit
        try:
            shift = abs(int(power))
        except ValueError:
            raise ParseError(f"cannot parse scalar {text!r}") from None
        if shift > limit + sum(c.isdigit() for c in mantissa):
            raise ParseError(f"{text!r} has more than {limit} digits")
    try:
        parsed = Fraction(text.strip())
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {text!r}") from None
    except ValueError:
        raise ParseError(f"cannot parse scalar {text!r}") from None
    # without an exponent, neither part has more digits than the text
    if (
        limit
        and (exponent or len(text) > limit)
        and max(abs(parsed.numerator), parsed.denominator) >= _power_of_ten(limit)
    ):
        raise ParseError(f"{text!r} has more than {limit} digits")
    return parsed


def format_scalar(value: Scalar) -> str:
    """JSON-ready form: the canonical ``p/q`` (or integer) string.

    A float renders as the exact binary fraction it holds, the value the
    arithmetic used, so :func:`parse_scalar` reads back the same number.
    A rational whose numerator or denominator has more digits than Python
    converts to a string (``sys.get_int_max_str_digits()``) is an error,
    as an over-long integer is on input.
    """
    if isinstance(value, float):
        value = _canonical(Fraction(value))
    try:
        return str(value)
    except ValueError:
        raise ParameterOutOfRange(
            "result has more digits than Python converts to a string"
        ) from None


def exact(values: Sequence[Scalar]) -> Sequence[Scalar]:
    """``values`` with each float replaced by the exact ``Fraction`` it
    holds; a sequence without floats comes back as it is."""
    if float not in set(map(type, values)):
        return values
    return [Fraction(v) if isinstance(v, float) else v for v in values]


def as_integers(values: Sequence[Scalar]) -> tuple[Sequence[int], int]:
    """Integer numerators over the least common denominator, so that
    ``values[k] == numerators[k] / denominator``.

    An all-``int`` sequence comes back as it is, with denominator 1;
    floats enter through their exact ``Fraction``.
    """
    if set(map(type, values)) == {int}:
        return values, 1
    values = exact(values)
    den = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def exact_div(value: Scalar, divisor: int) -> Scalar:
    """Exact quotient: an ``int`` when it divides evenly, else a Fraction."""
    return _canonical(Fraction(value) / divisor)
