"""Scalar values and the process-wide numeric mode.

Payoffs and probabilities are exact rationals by default (``int`` or
``fractions.Fraction``), so every comparison downstream is decidable and
repeat runs are bit-for-bit reproducible.  An opt-in float mode trades
exactness for speed; in that mode order comparisons and zero tests use a
fixed absolute tolerance.

The mode is process-global: set it once (CLI flag or
:func:`set_numeric_mode`) before building games.  Mixing values produced
under different modes is not supported.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import ParameterOutOfRange, ParseError

Scalar = Union[int, Fraction, float]

RATIONAL = "rational"
FLOAT = "float"

#: absolute tolerance for comparisons in float mode
TOLERANCE = 1e-9

_mode = RATIONAL


def set_numeric_mode(mode: str) -> None:
    global _mode
    if mode not in (RATIONAL, FLOAT):
        raise ParseError(f"unknown numeric mode {mode!r}")
    _mode = mode


def get_numeric_mode() -> str:
    return _mode


@contextmanager
def numeric_mode(mode: str):
    """Temporarily switch the numeric mode (used by tests)."""
    previous = _mode
    set_numeric_mode(mode)
    try:
        yield
    finally:
        set_numeric_mode(previous)


def _canonical(value: Fraction) -> Scalar:
    # integers stay plain ints: cheaper arithmetic, identical comparisons
    if value.denominator == 1:
        return value.numerator
    return value


def parse_scalar(value) -> Scalar:
    """Turn JSON-level input into a Scalar under the current mode.

    Accepts integers, strings in ``p/q`` or decimal form, and (in float
    mode only) floats.  Rational mode rejects floats outright rather than
    guessing an intended fraction.  Float mode returns only finite floats.
    """
    if isinstance(value, bool):
        raise ParseError(f"expected a number, got {value!r}")
    if isinstance(value, int):
        return _finite(value) if _mode == FLOAT else value
    if isinstance(value, float):
        if _mode == RATIONAL:
            raise ParseError(
                f"float {value!r} not allowed in rational mode; "
                "write it as 'p/q' or a decimal string"
            )
        return _finite(value)
    if isinstance(value, Fraction):
        return _finite(value) if _mode == FLOAT else _canonical(value)
    if isinstance(value, str):
        try:
            parsed = Fraction(value.strip())
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in {value!r}") from None
        except ValueError:
            raise ParseError(f"cannot parse scalar {value!r}") from None
        return _finite(parsed) if _mode == FLOAT else _canonical(parsed)
    raise ParseError(f"cannot parse scalar of type {type(value).__name__}")


def _finite(value) -> float:
    try:
        result = float(value)
    except OverflowError:
        result = math.inf
    if not math.isfinite(result):
        raise ParseError("scalar is not a finite float")
    return result


def format_scalar(value: Scalar):
    """JSON-ready form: ``p/q`` string in rational mode, number in float mode.

    A rational whose numerator or denominator has more digits than Python
    converts to a string (``sys.get_int_max_str_digits()``) is an error,
    as an over-long integer is on input.
    """
    if isinstance(value, float):
        return value
    try:
        return str(value)
    except ValueError:
        raise ParameterOutOfRange(
            "result has more digits than Python converts to a string"
        ) from None


def as_integers(values: Sequence[Scalar]) -> tuple[Sequence[int], int]:
    """Integer numerators over the least common denominator, so that
    ``values[k] == numerators[k] / denominator``.

    An all-``int`` sequence comes back as it is, with denominator 1;
    floats enter through their exact ``Fraction``.
    """
    if set(map(type, values)) == {int}:
        return values, 1
    exact = [Fraction(v) if isinstance(v, float) else v for v in values]
    den = math.lcm(*[v.denominator for v in exact])
    return [v.numerator * (den // v.denominator) for v in exact], den


def exact_div(value: Scalar, divisor: int) -> Scalar:
    """Divide without falling into floats in rational mode."""
    if isinstance(value, float):
        return value / divisor
    return _canonical(Fraction(value) / divisor)


def is_positive(value: Scalar) -> bool:
    """Strictly positive; float mode requires clearing the tolerance."""
    if isinstance(value, float):
        return value > TOLERANCE
    return value > 0


def is_zero(value: Scalar) -> bool:
    if isinstance(value, float):
        return abs(value) <= TOLERANCE
    return value == 0


def less_equal(a: Scalar, b: Scalar) -> bool:
    """``a <= b``, slackened by the tolerance in float mode."""
    if isinstance(a, float) or isinstance(b, float):
        return a <= b + TOLERANCE
    return a <= b


def strictly_greater(a: Scalar, b: Scalar) -> bool:
    """``a > b`` with a tolerance margin in float mode."""
    if isinstance(a, float) or isinstance(b, float):
        return a > b + TOLERANCE
    return a > b


def sums_to_one(values: Iterable[Scalar]) -> bool:
    total = sum(values)
    if isinstance(total, float):
        return abs(total - 1.0) <= TOLERANCE
    return total == 1


def is_nonnegative(value: Scalar) -> bool:
    if isinstance(value, float):
        return value >= -TOLERANCE
    return value >= 0
