"""Independent checks: grid scans, support enumeration, profile audits.

Nothing here reuses the labeling or search machinery — results come from
direct payoff comparisons and small exact linear systems, so they can
vouch for the solver's output rather than echo it.

The grid scan sums on integer forms made once: each vertex's lattice
numerators, which its grid keeps, and the payoff tensors the game
keeps.  It sums one deviation vector per player and tuple of the other
players' vertices, so a lattice profile costs one dot product per
player, and it builds a gain table only for the profile it returns.

Support enumeration settles every support pair with a single strategy on
either side by pure best replies, computed once per game.  It eliminates
each other pair's indifference systems once, on the integer payoffs, and
drops a side's candidates that have a negative weight or leave part of
the opponent's support short of a best reply (summed on integer weights)
before solving the other side; only kept mixtures become Fractions.  Its
``degenerate`` flag is set when a singular system yields an equilibrium
or a pure equilibrium has a tie among either player's best replies.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import scalars
from .errors import ParameterOutOfRange
from .game import (
    Game,
    GainTable,
    MixedProfile,
    _profile,
    check_eps,
    deviation_sums,
    gain_table,
)
from .linalg import affine_solution, eliminate
from .scalars import Scalar
from .subdivision import lattice_profile, player_triangulations


@dataclass(frozen=True)
class OracleResult:
    profile: MixedProfile
    max_regret: Scalar
    method: str


def grid_min_regret(
    game: Game,
    resolutions: Sequence[int] | int,
    budget: Optional[int] = None,
) -> OracleResult:
    """Exhaustive scan of every lattice profile, keeping the first
    profile (lexicographic vertex order) with the smallest max regret.

    Player ``i``'s deviation payoffs depend only on the other players'
    vertices, so they are summed once per player and tuple of those, on
    the player's integer payoffs and each vertex's lattice numerators.  A
    profile's regret for player ``i`` is then one dot product, and all
    regrets share one positive scale (the lcm of the payoff scales times
    every resolution), so max regrets compare as integers.  Only the
    winner's gain table is built, for the reported regret.
    """
    tris = player_triangulations(game, resolutions, budget)
    counts = [len(t.numerators) for t in tris]
    steps = [math.prod(counts[j + 1 :]) for j in range(len(tris))]
    # per player and vertex: its offset into the profile list, its lattice
    # numerators, and its support as (payoff tensor offset, numerator) pairs
    axes = []
    for tri, step, stride in zip(tris, steps, game.strides):
        axis = []
        for v, nums in enumerate(tri.numerators):
            pairs = [(s * stride, k) for s, k in enumerate(nums) if k]
            axis.append((v * step, nums, pairs))
        axes.append(axis)
    lcm = math.lcm(*game.payoff_scales)
    worst = [0] * math.prod(counts)  # each profile's max regret, scaled
    for i, axis in enumerate(axes):
        tensor = game.integer_payoffs[i]
        m = tris[i].resolution
        lift = lcm // game.payoff_scales[i]
        offsets = range(0, game.shape[i] * game.strides[i], game.strides[i])
        for combo in itertools.product(*axes[:i], *axes[i + 1 :]):
            devs = deviation_sums(tensor, [pairs for _, _, pairs in combo], offsets)
            top = m * max(devs)
            base = sum(offset for offset, _, _ in combo)
            for offset, nums, _ in axis:
                # m * max(devs) - own: the best gain on the shared scale
                regret = (top - sum(map(operator.mul, nums, devs))) * lift
                if regret > worst[base + offset]:
                    worst[base + offset] = regret
    first = worst.index(min(worst))  # the first minimum, as a strict < keeps
    profile = lattice_profile(
        tris, [first // step % count for step, count in zip(steps, counts)]
    )
    return OracleResult(
        profile=profile, max_regret=max(gain_table(game, profile).best), method="GRID"
    )


def verify_profile(
    game: Game, sigma: MixedProfile, eps: Scalar
) -> tuple[bool, GainTable]:
    """Recompute the gain table from scratch and test the regret bound."""
    check_eps(eps)
    table = gain_table(game, sigma)
    return max(table.best) <= eps, table


@dataclass(frozen=True)
class SupportEnumerationResult:
    equilibria: tuple[MixedProfile, ...]
    degenerate: bool


@functools.lru_cache(maxsize=16)
def _supports(count: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every support of two strategies or more out of ``count``, with its bitmask."""
    return tuple(
        (support, sum(1 << s for s in support))
        for size in range(2, count + 1)
        for support in itertools.combinations(range(count), size)
    )


def _best_replies(values: Sequence[int]) -> int:
    """Bitmask of the indices where ``values`` is largest."""
    top = max(values)
    mask = 0
    for r, v in enumerate(values):
        if v == top:
            mask |= 1 << r
    return mask


@functools.lru_cache(maxsize=256)
def _unit(s: int, count: int) -> tuple[int, ...]:
    return tuple(int(r == s) for r in range(count))


def _mixtures(
    payoffs: Sequence[Sequence[int]],
    own: tuple[int, ...],
    replies: int,
    other: tuple[int, ...],
    count: int,
) -> tuple[list[tuple], bool]:
    """Mixtures over ``other`` that equalize ``payoffs`` across ``own``
    and leave every reply in the bitmask ``replies`` a best reply, each
    embedded in ``count`` strategies with its reduced integer form as
    ``(mixture, numerators, denominator)``, and whether the system is
    singular.

    ``payoffs[r][s]`` is the replying player's payoff for reply ``r``
    against the mixing player's strategy ``s``.  Unknowns are the weights
    plus the common payoff.  A regular system's solution is read off the
    reduced rows as integer weights over their lcm, a positive multiple of
    the mixture, so the argmax is exact.  A singular consistent one gives
    the ends of its one-parameter family inside the probability box, or
    its particular solution when the family is larger.
    """
    k = len(other)
    aug = [[payoffs[s][b] for b in other] + [-1, 0] for s in own]
    aug.append([1] * k + [0, 1])
    pivots = eliminate(aug)
    if pivots is None:
        return [], False
    singular = len(pivots) <= k
    if not singular:
        # row r reads weight r as aug[r][-1] over its positive pivot aug[r][r]
        lcm = math.lcm(*(aug[r][r] for r in range(k)))
        solutions = [([aug[r][-1] * (lcm // aug[r][r]) for r in range(k)], lcm)]
    else:
        particular, basis = affine_solution(aug, pivots, k + 1)
        point = particular[:k]
        ends = [point]
        if len(basis) == 1:
            # one-parameter family: walk to both ends of the probability box
            direction = basis[0][:k]
            lo = hi = None
            for p, d in zip(point, direction):
                if not d:
                    if p < 0:
                        return [], True
                    continue
                bound = -p / d
                if d > 0:
                    lo = bound if lo is None else max(lo, bound)
                else:
                    hi = bound if hi is None else min(hi, bound)
            if lo is None or hi is None or lo > hi:
                return [], True
            ends = [[p + lam * d for p, d in zip(point, direction)] for lam in {lo, hi}]
        solutions = [scalars.as_integers(end) for end in ends]
    kept = []
    for weights, den in solutions:
        if min(weights) < 0:
            continue
        terms = [(s, w) for s, w in zip(other, weights) if w]
        best = _best_replies([sum(row[s] * w for s, w in terms) for row in payoffs])
        if not replies & ~best:
            # the mixture and its reduced integer form, embedded alike
            g = math.gcd(den, *weights)
            mixture: list[Scalar] = [0] * count
            nums = [0] * count
            for s, w in zip(other, weights):
                mixture[s] = Fraction(w, den)
                nums[s] = w // g
            kept.append((tuple(mixture), tuple(nums), den // g))
    return kept, singular


def support_enumeration_2p(game: Game) -> SupportEnumerationResult:
    """Exact equilibria of a two-player game by support enumeration.

    A support pair with a single strategy on either side can only yield
    pure profiles: (a, b) is an equilibrium exactly when a is a best reply
    to b and b to a, computed once.  For every pair of supports with two
    strategies or more on both sides, each side's mixture must equalize
    the opponent's payoffs across the opponent's support and keep that
    whole support best replies; the second side is solved only when a
    candidate of the first is kept, and every pair of kept candidates is
    an equilibrium.  Equilibria are de-duplicated by value, the first
    found kept, and sorted.

    Degenerate games are flagged and represented by the family endpoints
    of their singular systems: the flag is set when a singular system
    yields an equilibrium, and when some pure equilibrium (a, b) has a
    tie among a's best replies to b or among b's best replies to a.
    """
    if game.num_players != 2:
        raise ParameterOutOfRange(
            f"support enumeration needs 2 players, game has {game.num_players}"
        )
    # integer payoffs: a positive scaling keeps every solution and best reply
    rows, cols = game.shape
    t1, t2 = game.integer_payoffs
    u1 = [t1[a * cols : (a + 1) * cols] for a in range(rows)]
    u2t = [t2[b::cols] for b in range(cols)]  # u2t[b][a]: player 2's payoff
    # row_best[b] is player 1's best replies to b, col_best[a] player 2's to a
    row_best = [_best_replies(t1[b::cols]) for b in range(cols)]
    col_best = [_best_replies(t2[a * cols : (a + 1) * cols]) for a in range(rows)]
    found: dict = {}  # each equilibrium's dist: its integer form
    degenerate = False
    for a, b in itertools.product(range(rows), range(cols)):
        if row_best[b] >> a & 1 and col_best[a] >> b & 1:
            pure = (_unit(a, rows), _unit(b, cols))
            found[pure] = pure, (1, 1)
            # x & (x - 1) is nonzero when the mask x has two bits or more
            if row_best[b] & (row_best[b] - 1) or col_best[a] & (col_best[a] - 1):
                degenerate = True
    for own, own_mask in _supports(rows):
        for other, other_mask in _supports(cols):
            qs, q_singular = _mixtures(u1, own, own_mask, other, cols)
            if not qs:
                continue
            ps, p_singular = _mixtures(u2t, other, other_mask, own, rows)
            # a singular system only signals degeneracy once a candidate
            # from its family is a real equilibrium
            if ps and (q_singular or p_singular):
                degenerate = True
            # setdefault keeps the first of equal profiles: a pure
            # equilibrium's int entries win over a boundary mixture's Fractions
            for (p, p_nums, p_den), (q, q_nums, q_den) in itertools.product(ps, qs):
                found.setdefault((p, q), ((p_nums, q_nums), (p_den, q_den)))
    return SupportEnumerationResult(
        equilibria=tuple(_profile(key, *found[key]) for key in sorted(found)),
        degenerate=degenerate,
    )
