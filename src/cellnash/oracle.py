"""Independent checks: grid scans, support enumeration, profile audits.

Nothing here reuses the labeling or search machinery — results come from
direct payoff comparisons and small exact linear systems, so they can
vouch for the solver's output rather than echo it.

The grid scan makes its integer forms once per scan: each vertex's
lattice numerators, and the payoff tensors the game keeps.  It sums one
deviation vector per player and tuple of the other players' vertices, so
a lattice profile costs one dot product per player, and it builds a gain
table only for the profile it returns.

Support enumeration settles every support pair with a single strategy on
either side by pure best replies, computed once per game; it solves
indifference systems only for pairs with two strategies or more on both
sides, and drops each side's candidates that would leave some strategy
of the opponent's support short of a best reply before solving the other
side.  Its ``degenerate`` flag is set when a singular system yields an
equilibrium or a pure equilibrium has a tie among either player's best
replies.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

from . import scalars
from .errors import ParameterOutOfRange
from .game import (
    Game,
    GainTable,
    MixedProfile,
    check_eps,
    deviation_sums,
    gain_table,
)
from .linalg import solve_affine
from .scalars import Scalar
from .subdivision import player_triangulations


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
    vertices, so they are summed once per player and tuple of the other
    players' vertices, on integers: the player's integer payoffs, and
    each vertex's weights as its lattice numerators over the resolution.
    A profile's regret for player ``i`` is then one dot product, and all
    regrets share one positive scale (the lcm of the payoff scales times
    every resolution), so the profiles' max regrets compare as integers.
    Only the winner's gain table is built, for the reported regret.
    """
    tris = player_triangulations(game, resolutions, budget)
    counts = [len(t.vertices) for t in tris]
    steps = [math.prod(counts[j + 1 :]) for j in range(len(tris))]
    # per player and vertex: its offset into the profile list, its lattice
    # numerators, and its support as (payoff tensor offset, numerator) pairs
    axes = []
    for tri, step, stride in zip(tris, steps, game.strides):
        axis = []
        for v, vertex in enumerate(tri.vertices):
            nums = [int(p * tri.resolution) for p in vertex]
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
    profile = MixedProfile(
        tuple(
            tri.vertices[first // step % count]
            for tri, step, count in zip(tris, steps, counts)
        )
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


def _pure_payoff_matrices(game: Game) -> tuple[list[list[int]], list[list[int]]]:
    # each player's payoffs scaled to integers: a positive scaling keeps
    # every indifference system's solutions and every best response
    rows, cols = game.shape
    u1, u2 = game.integer_payoffs
    return (
        [[u1[a * cols + b] for b in range(cols)] for a in range(rows)],
        [[u2[a * cols + b] for b in range(cols)] for a in range(rows)],
    )


def _embed(weights: dict[int, Scalar], count: int) -> tuple[Scalar, ...]:
    return tuple(weights.get(s, 0) for s in range(count))


def _mix_candidates(
    payoff_rows: list[list[Scalar]], own: tuple[int, ...], other: tuple[int, ...]
) -> tuple[list[list[Scalar]], bool] | None:
    """Mixtures over ``other`` equalizing ``payoff_rows`` across ``own``.

    Both supports have two strategies or more.  Unknowns are the mixture
    weights plus the common payoff value.  The unique solution is returned
    when the system is regular; a singular but consistent system yields
    the endpoints of its solution family inside the probability box (or
    the particular solution for families of dimension two and up) plus a
    degeneracy marker.  Returns None when inconsistent.
    """
    k = len(other)
    matrix: list[list[Scalar]] = []
    rhs: list[Scalar] = []
    for s in own:
        matrix.append([payoff_rows[s][b] for b in other] + [-1])
        rhs.append(0)
    matrix.append([1] * k + [0])
    rhs.append(1)
    solved = solve_affine(matrix, rhs)
    if solved is None:
        return None
    particular, basis = solved
    if not basis:
        return [particular[:k]], False
    if len(basis) == 1:
        # one-parameter family: walk to both ends of the probability box
        direction = basis[0][:k]
        point = particular[:k]
        lo, hi = None, None
        for p, d in zip(point, direction):
            if d == 0:
                if p < 0:
                    return None
                continue
            bound = -p / d
            if d > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
        if lo is None or hi is None or lo > hi:
            return None
        ends = {tuple(p + lam * d for p, d in zip(point, direction)) for lam in (lo, hi)}
        return [list(end) for end in sorted(ends)], True
    return [particular[:k]], True


def _best_replies(values: Sequence[int]) -> int:
    """Bitmask of the indices where ``values`` is largest."""
    top = max(values)
    return sum(1 << r for r, v in enumerate(values) if v == top)


def _mask(support: tuple[int, ...]) -> int:
    return sum(1 << s for s in support)


def _candidates(
    raws: list[list[Scalar]],
    support: tuple[int, ...],
    count: int,
    payoffs: list[list[int]],
    replies: int,
) -> list[tuple[Scalar, ...]]:
    """The valid mixtures among ``raws``, embedded, against which every
    reply in the bitmask ``replies`` is a best reply.

    ``payoffs[r][s]`` is the replying player's payoff for reply ``r``
    against the mixing player's strategy ``s``; the sums run over integer
    weights, a positive multiple of the mixture, so the argmax is exact.
    """
    out = []
    for raw in raws:
        if any(v < 0 for v in raw):
            continue
        mixture = _embed(dict(zip(support, raw)), count)
        weights, _ = scalars.as_integers(mixture)
        terms = [(s, w) for s, w in enumerate(weights) if w]
        best = _best_replies([sum(row[s] * w for s, w in terms) for row in payoffs])
        if not replies & ~best:
            out.append(mixture)
    return out


def support_enumeration_2p(game: Game) -> SupportEnumerationResult:
    """Exact equilibria of a two-player game by support enumeration.

    A support pair with a single strategy on either side can only yield
    pure profiles, so those pairs reduce to pure best replies, computed
    once: (a, b) is an equilibrium exactly when a is a best reply to b and
    b to a.  For every pair of supports with two strategies or more on
    both sides, solve the indifference systems for each side's mixture and
    keep solutions that are valid distributions.  A mixture equalizes its
    opponent's payoffs across the opponent's support, so it is kept only
    when that whole support consists of best replies to it; the second
    side is solved only when some candidate of the first side is kept, and
    every pair of kept candidates is an equilibrium.

    Degenerate games are flagged and represented by the family endpoints
    of their singular systems: the flag is set when a singular system
    yields an equilibrium, and when some pure equilibrium (a, b) has a
    tie among a's best replies to b or among b's best replies to a.
    """
    if game.num_players != 2:
        raise ParameterOutOfRange(
            f"support enumeration needs 2 players, game has {game.num_players}"
        )
    rows, cols = game.shape
    u1, u2 = _pure_payoff_matrices(game)
    u2t = [[u2[a][b] for a in range(rows)] for b in range(cols)]
    # row_best[b] is player 1's best replies to b, col_best[a] player 2's to a
    row_best = [_best_replies(column) for column in zip(*u1)]
    col_best = [_best_replies(row) for row in u2]
    found: dict = {}
    degenerate = False
    for a, b in itertools.product(range(rows), range(cols)):
        if row_best[b] >> a & 1 and col_best[a] >> b & 1:
            key = (_embed({a: 1}, rows), _embed({b: 1}, cols))
            found[key] = MixedProfile(key)
            # x & (x - 1) is nonzero when the mask x has two bits or more
            if row_best[b] & (row_best[b] - 1) or col_best[a] & (col_best[a] - 1):
                degenerate = True
    row_supports, col_supports = (
        [c for size in range(2, k + 1) for c in itertools.combinations(range(k), size)]
        for k in game.shape
    )
    for own in row_supports:
        own_mask = _mask(own)
        for other in col_supports:
            q_result = _mix_candidates(u1, own, other)
            if q_result is None:
                continue
            q_raws, q_degen = q_result
            qs = _candidates(q_raws, other, cols, u1, own_mask)
            if not qs:
                continue
            p_result = _mix_candidates(u2t, other, own)
            if p_result is None:
                continue
            p_raws, p_degen = p_result
            ps = _candidates(p_raws, own, rows, u2t, _mask(other))
            # a singular system only signals degeneracy once a candidate
            # from its family is a real equilibrium
            if ps and (q_degen or p_degen):
                degenerate = True
            for q in qs:
                for p in ps:
                    key = (p, q)
                    if key not in found:
                        found[key] = MixedProfile(key)
    ordered = sorted(found)
    return SupportEnumerationResult(
        equilibria=tuple(found[k] for k in ordered), degenerate=degenerate
    )
