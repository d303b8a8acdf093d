"""Finite normal-form games, mixed profiles, and gain tables.

The gain table is the engine of the whole package: for a profile it
records, per player and pure strategy, how much that player would gain
by deviating to the pure strategy (clamped at zero).  A profile is an
exact equilibrium precisely when the summed best gains vanish, and the
``up`` flags mark players whose best gain exceeds an equal share of the
total — the case split the refinement loop reports for each chosen cell.

All arithmetic is exact: it reads a float payoff or probability as the
exact binary fraction it holds.  Gain tables and grid labels sum on
integers (:func:`deviation_sums` over common-denominator numerators) and
make Fractions only for the values they report.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

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


@dataclass(frozen=True)
class Game:
    """Dense payoff tensors over named strategies.

    ``payoffs[i]`` is player ``i``'s tensor flattened row-major with the
    last player's strategy varying fastest; ``payoffs`` and each tensor
    must be tuples, else :class:`ShapeError`.  A payoff is an ``int``
    (``bool`` included), a ``Fraction`` or a finite float: anything else,
    NaN and the infinities included, is a :class:`ParseError`.
    """

    strategy_names: tuple[tuple[str, ...], ...]
    payoffs: tuple[tuple[Scalar, ...], ...]  # one flat tensor per player
    name: str = ""

    def __post_init__(self):
        if not self.strategy_names:
            raise ShapeError("a game needs at least one player")
        for names in self.strategy_names:
            if not names:
                raise ShapeError("every player needs at least one strategy")
            if len(set(names)) != len(names):
                raise ShapeError(f"duplicate strategy names in {names}")
        shape = tuple(len(names) for names in self.strategy_names)
        size = math.prod(shape)
        if len(self.payoffs) != len(shape):
            raise ShapeError(
                f"expected {len(shape)} payoff tensors, got {len(self.payoffs)}"
            )
        for i, tensor in enumerate(self.payoffs):
            # a list would leave the frozen game unhashable
            if type(tensor) is not tuple:
                raise ShapeError(
                    f"payoff tensor {i} is a {type(tensor).__name__}, not a tuple"
                )
            if len(tensor) != size:
                raise ShapeError(
                    f"payoff tensor {i} has {len(tensor)} entries, expected {size}"
                )
        if type(self.payoffs) is not tuple:
            raise ShapeError(f"payoffs is a {type(self.payoffs).__name__}, not a tuple")
        # an exact game costs one type scan; floats and strays a second
        types = set(map(type, itertools.chain(*self.payoffs)))
        if float in types or not types <= _NUMBER_TYPES:
            for v in itertools.chain(*self.payoffs):
                if type(v) not in _NUMBER_TYPES:
                    raise ParseError(f"payoff {v!r} is not a number")
                if isinstance(v, float) and not math.isfinite(v):
                    raise ParseError(f"payoff {v} is not finite")
        # running products of the later players' strategy counts
        strides = tuple(itertools.accumulate(shape[:0:-1], operator.mul, initial=1))
        object.__setattr__(self, "_shape", shape)
        object.__setattr__(self, "_strides", strides[::-1])

    @property
    def num_players(self) -> int:
        return len(self.strategy_names)

    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    @property
    def strides(self) -> tuple[int, ...]:
        return self._strides

    def payoff(self, player: int, pure: Sequence[int]) -> Scalar:
        """Payoff to ``player`` at a pure strategy combination."""
        if not 0 <= player < len(self.payoffs):
            raise IndexOutOfRange(f"player index {player} out of range")
        idx = 0
        for stride, s, count in zip(self._strides, pure, self._shape):
            if not 0 <= s < count:
                raise IndexOutOfRange(f"strategy index {s} out of range")
            idx += stride * s
        return self.payoffs[player][idx]

    def flat_index(self, pure: Sequence[int]) -> int:
        idx = 0
        for stride, s in zip(self._strides, pure):
            idx += stride * s
        return idx


@dataclass(frozen=True)
class PureProfile:
    """One strategy index per player."""

    choices: tuple[int, ...]

    def as_mixed(self, game: Game) -> MixedProfile:
        if len(self.choices) != game.num_players:
            raise DimensionMismatch("pure profile length != player count")
        dists = []
        for s, count in zip(self.choices, game.shape):
            if not 0 <= s < count:
                raise IndexOutOfRange(f"strategy index {s} out of range")
            dists.append(tuple(1 if t == s else 0 for t in range(count)))
        return MixedProfile(tuple(dists))


@dataclass(frozen=True)
class MixedProfile:
    """One probability vector per player; validated on construction: an
    entry that is not an int, Fraction or float is invalid, as in Game."""

    dist: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        for vector in self.dist:
            try:
                types = set(map(type, vector))
            except TypeError:
                raise InvalidDistribution(
                    f"strategy vector {vector!r} is not a sequence"
                ) from None
            if not types <= _NUMBER_TYPES:
                bad = next(p for p in vector if type(p) not in _NUMBER_TYPES)
                raise InvalidDistribution(f"probability {bad!r} is not a number")
            for p in vector:
                if not p >= 0:  # also refuses NaN
                    raise InvalidDistribution(f"negative probability {p}")
            try:  # floats as the exact fractions they hold
                total = sum(map(Fraction, vector) if float in types else vector)
            except OverflowError:  # only +inf gets here, and it has no exact value
                raise InvalidDistribution("infinite probability") from None
            if total != 1:
                raise InvalidDistribution(f"probabilities sum to {total}, expected 1")

    def support(self, player: int) -> tuple[int, ...]:
        return tuple(s for s, p in enumerate(self.dist[player]) if p > 0)


@dataclass(frozen=True)
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
    exact and makes pure profiles cheap."""
    check_profile(game, sigma)
    _check_player(game, player)
    supports = [
        [(s * stride, p) for s, p in enumerate(scalars.exact(vector)) if p]
        for vector, stride in zip(sigma.dist, game.strides)
    ]
    return deviation_sums(scalars.exact(game.payoffs[player]), supports, [0])[0]


def deviation_payoffs(game: Game, sigma: MixedProfile, player: int) -> tuple[Scalar, ...]:
    """Expected payoff to ``player`` after switching to each pure strategy,
    computed in one pass over the other players' supports."""
    check_profile(game, sigma)
    _check_player(game, player)
    others = [
        [(s * stride, p) for s, p in enumerate(scalars.exact(vector)) if p]
        for j, (vector, stride) in enumerate(zip(sigma.dist, game.strides))
        if j != player
    ]
    offsets = [s * game.strides[player] for s in range(game.shape[player])]
    return tuple(deviation_sums(scalars.exact(game.payoffs[player]), others, offsets))


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


def deviation_rows(game: Game, sigma: MixedProfile) -> list[tuple]:
    """Per player ``(nums, den, scale, devs)``: weights ``nums[s] / den``,
    the payoff tensor's common denominator ``scale``, and ``devs[s]``, the
    deviation payoff to ``s`` times ``scale`` and every other player's
    ``den``.  That factor is positive and shared, so argmins and ties are
    exact."""
    check_profile(game, sigma)
    vectors = [scalars.as_integers(vector) for vector in sigma.dist]
    supports = [
        [(s * stride, k) for s, k in enumerate(nums) if k]
        for (nums, _), stride in zip(vectors, game.strides)
    ]
    rows = []
    players = zip(vectors, game.shape, game.strides)
    for i, ((nums, den), count, stride) in enumerate(players):
        tensor, scale = scalars.as_integers(game.payoffs[i])
        offsets = range(0, count * stride, stride)
        devs = deviation_sums(tensor, supports[:i] + supports[i + 1 :], offsets)
        rows.append((nums, den, scale, devs))
    return rows


def gain_table(game: Game, sigma: MixedProfile) -> GainTable:
    """Deviation gains at ``sigma``.

    ``gains[i][s]`` is how much player ``i`` would gain by moving all
    mass to pure strategy ``s`` (never negative); ``best[i]`` is the
    largest such gain, ``total`` their sum over players, and ``up[i]``
    says whether ``best[i]`` strictly exceeds ``total / (n + 1)``.

    Sums run on integers, in :func:`deviation_rows`: each strategy vector
    and payoff tensor over its common denominator, so a player's gains
    share one denominator and only the reported values become Fractions.
    """
    n = game.num_players
    rows = deviation_rows(game, sigma)
    _, dens, scales, _ = zip(*rows)
    den_all = math.prod(dens)
    gains = []
    best = []
    for nums, den, scale, devs in rows:
        # devs[s] * den is the deviation payoff to s times scale * den_all,
        # and own the expected payoff on that scale: devs' weighted average
        own = sum(map(operator.mul, nums, devs))
        row = [max(den * d - own, 0) for d in devs]
        gains.append(_ratios(row, scale * den_all))
        best.append(max(row))
    # best[i] / (scales[i] * den_all), summed over the lcm of the scales
    lcm = math.lcm(*scales)
    lifted = [b * (lcm // scale) for b, scale in zip(best, scales)]
    total = sum(lifted)
    *best_values, total_value = _ratios(lifted + [total], lcm * den_all)
    return GainTable(
        gains=tuple(gains),
        best=tuple(best_values),
        total=total_value,
        up=tuple((n + 1) * b > total for b in lifted),
    )


def _ratios(nums: Sequence[int], den: int) -> tuple[Scalar, ...]:
    """``k / den`` for each ``k``: an int where it divides, else a Fraction."""
    if den == 1:
        return tuple(nums)
    return tuple(Fraction(k, den) if k % den else k // den for k in nums)


def max_regret(game: Game, sigma: MixedProfile) -> Scalar:
    """Largest single-player deviation gain at ``sigma``."""
    return max(gain_table(game, sigma).best)


def is_equilibrium(game: Game, sigma: MixedProfile, eps: Scalar) -> bool:
    """True when no player can gain more than ``eps`` by a pure deviation.

    Pure deviations suffice: a mixed deviation's payoff is an average of
    pure ones, so its gain never beats the best pure gain.  The test runs
    on :func:`deviation_rows`' integers, with ``eps`` read as the exact
    ratio it holds (a float's binary value); no gain table is built, and
    the comparisons stop at the first player that can gain more.
    """
    check_eps(eps)
    rows = deviation_rows(game, sigma)
    den_all = math.prod(row[1] for row in rows)
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
