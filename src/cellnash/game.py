"""Finite normal-form games, mixed profiles, and gain tables.

The gain table is the engine of the whole package: for a profile it
records, per player and pure strategy, how much that player would gain
by deviating to the pure strategy (clamped at zero).  A profile is an
exact equilibrium precisely when the summed best gains vanish, and the
``up`` flags mark players whose best gain exceeds an equal share of the
total — the case split the refinement loop reports for each chosen cell.

All arithmetic is exact: it reads a float payoff or probability as the
exact binary fraction it holds.  Expected and deviation payoffs, gain
tables (:func:`deviation_sums`) and grid labels sum on integers,
common-denominator numerators, and divide only the values they report.
Each integer form is made once: a :class:`Game` keeps its payoff
tensors' and a :class:`MixedProfile` its strategy vectors', built when
the object is, and an all-``int`` tensor or vector is its own form, not
a copy.  A profile whose maker already holds its reduced form (a grid's
vertex profiles and barycenters, support enumeration's equilibria) is
handed it by ``_profile`` and derives nothing; ``_reduced`` makes that
form, and the entries, from numerators over a known denominator, one
gcd per vector.  Every gain reads one integer core, ``_rows``, whose
best gains the search reads lifted onto one scale, ``_lifted_gains``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence

from . import scalars
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidDistribution,
    NegativeEpsilon,
    ParameterOutOfRange,
    ParseError,
    ShapeError,
)
from .scalars import Scalar


# bool is an int; a float must also be finite, which the classes check
_NUMBER_TYPES = frozenset((int, bool, Fraction, float))
_INT = frozenset((int,))


@functools.cache
def _ones(count: int) -> tuple[int, ...]:
    # the denominators of an all-int game or profile, one shared tuple
    return (1,) * count


def _cached():
    # an integer form made once in __post_init__; kept out of the
    # generated __init__, ==, hash and repr
    return field(init=False, repr=False, compare=False)


def _not_a_tuple(value) -> str:
    if isinstance(value, Sequence):
        return f"is a {type(value).__name__}, not a tuple"
    return "is not a sequence"


@dataclass(frozen=True, slots=True)
class Game:
    """Dense payoff tensors over named strategies.

    ``payoffs[i]`` is player ``i``'s tensor flattened row-major with the
    last player's strategy varying fastest.  ``strategy_names``, each of
    its name groups, ``payoffs`` and each tensor must be tuples, else
    :class:`ShapeError`.  ``name`` and every strategy name must be a
    ``str``, and a payoff an ``int`` (``bool`` included), a ``Fraction``
    or a finite float: anything else, NaN and the infinities included, is
    a :class:`ParseError`.

    ``integer_payoffs[i]`` and ``payoff_scales[i]`` are player ``i``'s
    tensor as integer numerators over their least common denominator,
    made once here; an all-``int`` tensor is its own integer form, the
    same tuple, with scale 1.
    """

    strategy_names: tuple[tuple[str, ...], ...]
    payoffs: tuple[tuple[Scalar, ...], ...]  # one flat tensor per player
    name: str = ""
    integer_payoffs: tuple[tuple[int, ...], ...] = _cached()
    payoff_scales: tuple[int, ...] = _cached()
    shape: tuple[int, ...] = _cached()
    strides: tuple[int, ...] = _cached()

    def __post_init__(self):
        # a list would leave the frozen game unhashable
        if type(self.strategy_names) is not tuple:
            raise ShapeError(f"strategy_names {_not_a_tuple(self.strategy_names)}")
        if not self.strategy_names:
            raise ShapeError("a game needs at least one player")
        if not isinstance(self.name, str):
            raise ParseError("field 'name' must be a string")
        for i, names in enumerate(self.strategy_names):
            if type(names) is not tuple:
                raise ShapeError(f"strategy names {names!r} {_not_a_tuple(names)}")
            if not names:
                raise ShapeError("every player needs at least one strategy")
            if not all(isinstance(s, str) for s in names):
                raise ParseError(f"strategies[{i}] must contain strings")
            if len(set(names)) != len(names):
                raise ShapeError(f"duplicate strategy names in {names}")
        shape = tuple(len(names) for names in self.strategy_names)
        size = math.prod(shape)
        if type(self.payoffs) is not tuple:
            raise ShapeError(f"payoffs {_not_a_tuple(self.payoffs)}")
        if len(self.payoffs) != len(shape):
            raise ShapeError(
                f"expected {len(shape)} payoff tensors, got {len(self.payoffs)}"
            )
        for i, tensor in enumerate(self.payoffs):
            if type(tensor) is not tuple:
                raise ShapeError(
                    f"payoff tensor {i} is a {type(tensor).__name__}, not a tuple"
                )
            if len(tensor) != size:
                raise ShapeError(
                    f"payoff tensor {i} has {len(tensor)} entries, expected {size}"
                )
        # an integer game costs one type scan and no copy; others a
        # second scan and one integer tensor per player
        if _INT.issuperset(map(type, itertools.chain(*self.payoffs))):
            tensors, scales = self.payoffs, _ones(len(shape))
        else:
            types = set(map(type, itertools.chain(*self.payoffs)))
            if float in types or not types <= _NUMBER_TYPES:
                for v in itertools.chain(*self.payoffs):
                    if type(v) not in _NUMBER_TYPES:
                        raise ParseError(f"payoff {v!r} is not a number")
                    if isinstance(v, float) and not math.isfinite(v):
                        raise ParseError(f"payoff {v} is not finite")
            forms = [scalars.as_integers(tensor) for tensor in self.payoffs]
            tensors = tuple(tuple(nums) for nums, _ in forms)
            scales = tuple(scale for _, scale in forms)
        # running products of the later players' strategy counts
        strides = tuple(itertools.accumulate(shape[:0:-1], operator.mul, initial=1))
        _set_integer_payoffs(self, tensors)
        _set_payoff_scales(self, scales)
        _set_shape(self, shape)
        _set_strides(self, strides[::-1])

    @property
    def num_players(self) -> int:
        return len(self.strategy_names)

    def payoff(self, player: int, pure: Sequence[int]) -> Scalar:
        """Payoff to ``player`` at a pure strategy combination."""
        _check_player(self, player)
        return self.payoffs[player][self.flat_index(pure)]

    def flat_index(self, pure: Sequence[int]) -> int:
        """A pure combination's position in the tensors: one ``int`` in
        range per player, else a DimensionMismatch or IndexOutOfRange.  A
        ``pure`` that is not a sequence is a DimensionMismatch too."""
        if not isinstance(pure, Sequence):
            raise DimensionMismatch(f"pure profile {pure!r} is not a sequence")
        if len(pure) != len(self.shape):
            raise DimensionMismatch("pure profile length != player count")
        idx = 0
        for stride, s, count in zip(self.strides, pure, self.shape):
            if type(s) is not int or not 0 <= s < count:
                raise IndexOutOfRange(f"strategy index {s!r} out of range")
            idx += stride * s
        return idx


# __post_init__ stores its forms through the slots' own setters: the
# frozen class refuses setattr, and object.__setattr__ costs twice as much
_set_integer_payoffs = Game.integer_payoffs.__set__
_set_payoff_scales = Game.payoff_scales.__set__
_set_shape = Game.shape.__set__
_set_strides = Game.strides.__set__


@dataclass(frozen=True, slots=True)
class PureProfile:
    """One strategy index per player; ``choices`` must be a tuple, else
    :class:`ShapeError`."""

    choices: tuple[int, ...]

    def __post_init__(self):
        # a list would leave the frozen profile unhashable
        if type(self.choices) is not tuple:
            raise ShapeError(f"choices {self.choices!r} {_not_a_tuple(self.choices)}")

    def as_mixed(self, game: Game) -> MixedProfile:
        game.flat_index(self.choices)  # refuses what Game.payoff refuses
        return MixedProfile(
            tuple(
                tuple(1 if t == s else 0 for t in range(count))
                for s, count in zip(self.choices, game.shape)
            )
        )


@dataclass(frozen=True, slots=True)
class MixedProfile:
    """One probability vector per player, validated on construction.

    ``dist`` and each vector must be tuples, and an entry that is not an
    int, Fraction or float is invalid, as in Game.  ``numerators[i]`` and
    ``denominators[i]`` are player ``i``'s vector as integers over their
    least common denominator; the check runs on them (numerators at least
    0 that sum to the denominator).  An all-``int`` vector is its own
    integer form, the same tuple, with denominator 1.
    """

    dist: tuple[tuple[Scalar, ...], ...]
    numerators: tuple[tuple[int, ...], ...] = _cached()
    denominators: tuple[int, ...] = _cached()

    def __post_init__(self):
        dist = self.dist
        if type(dist) is not tuple:
            raise InvalidDistribution(f"dist {dist!r} {_not_a_tuple(dist)}")
        # an int vector is valid exactly when it is pure, one 1 and the
        # rest 0, and a profile of such vectors is its own integer form
        for vector in dist:
            if not (
                type(vector) is tuple
                and vector.count(0) == len(vector) - 1
                and 1 in vector
            ):
                break
        else:
            if _INT.issuperset(map(type, itertools.chain.from_iterable(dist))):
                _set_numerators(self, dist)
                _set_denominators(self, _ones(len(dist)))
                return
        forms = [_integer_vector(vector) for vector in dist]
        _set_numerators(self, tuple(nums for nums, _ in forms))
        _set_denominators(self, tuple(den for _, den in forms))

    def support(self, player: int) -> tuple[int, ...]:
        return tuple(s for s, k in enumerate(self.numerators[player]) if k)


_set_dist = MixedProfile.dist.__set__
_set_numerators = MixedProfile.numerators.__set__
_set_denominators = MixedProfile.denominators.__set__


def _profile(dist, numerators, denominators) -> MixedProfile:
    """A :class:`MixedProfile` handed its integer form instead of deriving
    it: per player the numerators over their least common denominator,
    reduced as ``__post_init__`` makes them.  Only for a ``dist`` known
    valid, whose reduced form the caller already holds."""
    sigma = object.__new__(MixedProfile)
    _set_dist(sigma, dist)
    _set_numerators(sigma, numerators)
    _set_denominators(sigma, denominators)
    return sigma


def _integer_vector(vector) -> tuple[tuple[int, ...], int]:
    """A strategy vector's numerators over their least common denominator,
    once the vector is checked to be a probability vector."""
    if type(vector) is not tuple:
        raise InvalidDistribution(f"strategy vector {vector!r} {_not_a_tuple(vector)}")
    types = set(map(type, vector))
    if not types <= _NUMBER_TYPES:
        bad = next(p for p in vector if type(p) not in _NUMBER_TYPES)
        raise InvalidDistribution(f"probability {bad!r} is not a number")
    if float in types:
        for p in vector:
            if not p >= 0:  # also refuses NaN
                raise InvalidDistribution(f"negative probability {p}")
    try:  # floats as the exact fractions they hold
        nums, den = scalars.as_integers(vector)
    except OverflowError:  # only +inf gets here, and it has no exact value
        raise InvalidDistribution("infinite probability") from None
    if min(nums, default=0) < 0:
        bad = next(p for p, k in zip(vector, nums) if k < 0)
        raise InvalidDistribution(f"negative probability {bad}")
    if sum(nums) != den:
        total = scalars.exact_div(sum(nums), den)
        raise InvalidDistribution(f"probabilities sum to {total}, expected 1")
    return tuple(nums), den


@dataclass(frozen=True, slots=True)
class GainTable:
    """Per-strategy deviation gains, per-player best gains, their sum,
    and the players whose best gain exceeds an equal share of the sum."""

    gains: tuple[tuple[Scalar, ...], ...]
    best: tuple[Scalar, ...]
    total: Scalar
    up: tuple[bool, ...]


def check_profile(game: Game, sigma: MixedProfile) -> None:
    if len(sigma.dist) != game.num_players:
        raise DimensionMismatch(
            f"profile has {len(sigma.dist)} vectors for {game.num_players} players"
        )
    for vector, count in zip(sigma.dist, game.shape):
        if len(vector) != count:
            raise DimensionMismatch(
                f"strategy vector of length {len(vector)}, expected {count}"
            )


def _check_player(game: Game, player: int) -> None:
    if type(player) is not int or not 0 <= player < game.num_players:
        raise IndexOutOfRange(f"player {player!r} out of range")


def evaluate_payoff(game: Game, sigma: MixedProfile, player: int) -> Scalar:
    """Expected payoff: the payoff tensor contracted with every player's
    strategy vector.  Zero-probability strategies are skipped, which is
    exact and makes pure profiles cheap.  The sum runs on the integer
    forms and is divided once."""
    check_profile(game, sigma)
    _check_player(game, player)
    tensor = game.integer_payoffs[player]
    (total,) = deviation_sums(tensor, _supports(game, sigma.numerators), [0])
    den = game.payoff_scales[player] * math.prod(sigma.denominators)
    return scalars.exact_div(total, den)


def deviation_payoffs(game: Game, sigma: MixedProfile, player: int) -> tuple[Scalar, ...]:
    """Expected payoff to ``player`` after switching to each pure strategy,
    computed in one pass over the other players' supports, on integers."""
    check_profile(game, sigma)
    _check_player(game, player)
    others = _supports(game, sigma.numerators)
    del others[player]
    stride = game.strides[player]
    offsets = range(0, game.shape[player] * stride, stride)
    devs = deviation_sums(game.integer_payoffs[player], others, offsets)
    dens = sigma.denominators
    return _ratios(devs, game.payoff_scales[player] * math.prod(dens) // dens[player])


def _supports(game: Game, numerators) -> list[list[tuple[int, int]]]:
    # per player, the (tensor offset, numerator) pairs of the supported strategies
    return [
        [(s * stride, k) for s, k in enumerate(nums) if k]
        for nums, stride in zip(numerators, game.strides)
    ]


def deviation_sums(
    tensor: Sequence[Scalar],
    others: Sequence[Sequence[tuple[int, Scalar]]],
    offsets: Sequence[int],
) -> list[Scalar]:
    """Deviation payoffs from a flat payoff tensor.

    ``others`` holds, per other player, the ``(tensor offset, weight)``
    pairs of their supported strategies, and ``offsets`` the tensor
    offsets of the deviating player's strategies.  ``out[s]`` sums, over
    every combination of one pair per other player, the weights' product
    times the tensor entry at the offsets' sum plus ``offsets[s]``.
    Integer weights and payoffs give integer sums.
    """
    out: list[Scalar] = [0] * len(offsets)
    for combo in itertools.product(*others):
        weight: Scalar = 1
        base = 0
        for offset, k in combo:
            weight *= k
            base += offset
        for s, offset in enumerate(offsets):
            out[s] += weight * tensor[base + offset]
    return out


def _rows(game: Game, numerators, denominators) -> Iterator[tuple]:
    """Per player, lazily, ``(nums, den, scale, devs)`` at the weights
    ``nums[s] / den`` (reduced or not; shapes unchecked): ``scale`` the
    payoff tensor's denominator and ``devs[s]`` the deviation payoff to
    ``s`` times ``scale`` and every other ``den``, a positive shared
    factor that keeps argmins and ties exact."""
    supports = _supports(game, numerators)
    players = zip(
        numerators,
        denominators,
        game.integer_payoffs,
        game.payoff_scales,
        game.shape,
        game.strides,
    )
    for i, (nums, den, tensor, scale, count, stride) in enumerate(players):
        others = supports[:i] + supports[i + 1 :]
        devs = deviation_sums(tensor, others, range(0, count * stride, stride))
        yield nums, den, scale, devs


def _lifted_gains(game: Game, rows) -> list[int]:
    """Per player, the best gain ``den * max(devs) - own`` of one of
    :func:`_rows`' rows (at least 0: ``own`` weighs ``devs`` by ``nums``,
    which sum to ``den``) times ``lcm(payoff scales) // scale``: the best
    gain times ``lcm * prod(den)``, a factor shared by every player and
    every profile over the same denominators."""
    lcm = math.lcm(*game.payoff_scales)
    return [
        (den * max(devs) - sum(map(operator.mul, nums, devs))) * (lcm // scale)
        for nums, den, scale, devs in rows
    ]


def gain_table(game: Game, sigma: MixedProfile) -> GainTable:
    """Deviation gains at ``sigma``.

    ``gains[i][s]`` is how much player ``i`` would gain by moving all
    mass to pure strategy ``s`` (never negative); ``best[i]`` is the
    largest such gain, ``total`` their sum over players, and ``up[i]``
    says whether ``best[i]`` strictly exceeds ``total / (n + 1)``.

    Sums run on integers, in :func:`_rows`: each strategy vector and
    payoff tensor over its common denominator, so a player's gains share
    one denominator and only the reported values become Fractions; the
    best gains are :func:`_lifted_gains`.
    """
    check_profile(game, sigma)
    rows = list(_rows(game, sigma.numerators, sigma.denominators))
    lifted = _lifted_gains(game, rows)
    total = sum(lifted)
    den_all = math.prod(sigma.denominators)
    lcm = math.lcm(*game.payoff_scales)
    *best, total_value = _ratios(lifted + [total], lcm * den_all)
    gains = []
    for nums, den, scale, devs in rows:
        # devs[s] * den is the deviation payoff to s times scale * den_all,
        # and own the expected payoff on that scale: devs' weighted average
        own = sum(map(operator.mul, nums, devs))
        gains.append(_ratios([max(den * d - own, 0) for d in devs], scale * den_all))
    up = up_flags(lifted, total)
    return GainTable(gains=tuple(gains), best=tuple(best), total=total_value, up=up)


def up_flags(lifted: Sequence[int], total: int) -> tuple[bool, ...]:
    """Per player, whether the lifted best gain beats ``total / (n + 1)``."""
    n = len(lifted)
    return tuple((n + 1) * b > total for b in lifted)


def _ratios(nums: Sequence[int], den: int) -> tuple[Scalar, ...]:
    """``k / den`` for each ``k``: an int where it divides, else a Fraction."""
    if den == 1:
        return tuple(nums)
    return tuple(Fraction(k, den) if k % den else k // den for k in nums)


def _reduced(nums: Sequence[int], den: int) -> tuple:
    """The vector ``nums / den`` (numerators at least 0) as :func:`_profile`
    takes it: its entries and its form reduced by ``g = gcd(den, *nums)``,
    as ``MixedProfile.__post_init__`` makes it."""
    g = math.gcd(den, *nums)
    reduced, den = tuple(k // g for k in nums), den // g
    return _ratios(reduced, den), reduced, den


def max_regret(game: Game, sigma: MixedProfile) -> Scalar:
    """Largest single-player deviation gain at ``sigma``."""
    return max(gain_table(game, sigma).best)


def is_equilibrium(game: Game, sigma: MixedProfile, eps: Scalar) -> bool:
    """True when no player can gain more than ``eps`` by a pure deviation.

    Pure deviations suffice: a mixed deviation's payoff is an average of
    pure ones, so its gain never beats the best pure gain.  The test runs
    on :func:`_rows`' integers, with ``eps`` read as the exact
    ratio it holds (a float's binary value); no gain table is built, and
    the rows are summed one player at a time, stopping at the first
    player that can gain more.
    """
    check_eps(eps)
    check_profile(game, sigma)
    rows = _rows(game, sigma.numerators, sigma.denominators)
    den_all = math.prod(sigma.denominators)
    num, den_eps = eps.as_integer_ratio()
    # as in gain_table: den * max(devs) - own is the best gain times
    # scale * den_all, so the bound is eps times that factor
    return all(
        den_eps * (den * max(devs) - sum(map(operator.mul, nums, devs)))
        <= num * scale * den_all
        for nums, den, scale, devs in rows
    )


def check_eps(eps: Scalar, name: str = "eps") -> None:
    """Refuse an eps that is not an int, Fraction or float, a NaN or
    infinite float one (no exact value), and a negative one."""
    if not isinstance(eps, (int, Fraction, float)):
        raise ParameterOutOfRange(f"{name} {eps!r} is not an int, Fraction or float")
    if isinstance(eps, float) and not math.isfinite(eps):
        raise ParameterOutOfRange(f"{name} {eps} is not finite")
    if eps < 0:
        raise NegativeEpsilon(f"{name} {eps} is negative")
