"""Independent checks: grid scans, support enumeration, profile audits.

Nothing here reuses the labeling or search machinery — results come from
direct payoff comparisons and small exact linear systems, so they can
vouch for the solver's output rather than echo it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from . import scalars
from .errors import ParameterOutOfRange
from .game import Game, GainTable, MixedProfile, check_eps, gain_table
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
    profile (lexicographic vertex order) with the smallest max regret."""
    tris = player_triangulations(game, resolutions, budget)
    best_profile = None
    best_regret = None
    for combo in itertools.product(*(t.vertices for t in tris)):
        profile = MixedProfile(tuple(combo))
        regret = max(gain_table(game, profile).best)
        if best_regret is None or regret < best_regret:
            best_profile = profile
            best_regret = regret
    return OracleResult(profile=best_profile, max_regret=best_regret, method="GRID")


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
    u1, u2 = (scalars.as_integers(tensor)[0] for tensor in game.payoffs)
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

    Unknowns are the mixture weights plus the common payoff value.  The
    unique solution is returned when the system is regular; a singular but
    consistent system yields the endpoints of its solution family inside
    the probability box (or the particular solution for families of
    dimension two and up) plus a degeneracy marker.  Returns None when
    inconsistent.
    """
    k = len(other)
    if len(own) == 1:
        if k == 1:
            return [[1]], False
        # a single indifference row constrains nothing: the family is the
        # whole simplex, represented by its vertices
        return [
            [1 if i == j else 0 for i in range(k)] for j in range(k)
        ], True
    if k == 1:
        # weights are forced; consistent only when the rows tie
        v0 = payoff_rows[own[0]][other[0]]
        if any(payoff_rows[s][other[0]] != v0 for s in own[1:]):
            return None
        return [[1]], True
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


def _best_responses(
    payoffs: list[list[int]], mixture: tuple[Scalar, ...]
) -> tuple[int, int]:
    """Bitmasks of the best replies to ``mixture`` and of its support.

    ``payoffs[r][s]`` is the replying player's payoff for reply ``r``
    against the mixing player's strategy ``s``; the sums run over integer
    weights, a positive multiple of ``mixture``, so the argmax is exact.
    """
    weights, _ = scalars.as_integers(mixture)
    support = [(s, w) for s, w in enumerate(weights) if w]
    values = [sum(row[s] * w for s, w in support) for row in payoffs]
    top = max(values)
    best = sum(1 << r for r, v in enumerate(values) if v == top)
    return best, sum(1 << s for s, _ in support)


def _candidates(
    raws: list[list[Scalar]],
    support: tuple[int, ...],
    count: int,
    payoffs: list[list[int]],
    seen: dict,
) -> list[tuple[tuple[Scalar, ...], int, int]]:
    # each valid mixture, embedded once, with the opponent's best replies
    # and its own support; ``seen`` keeps them across support pairs
    out = []
    for raw in raws:
        if any(v < 0 for v in raw):
            continue
        mixture = _embed(dict(zip(support, raw)), count)
        if mixture not in seen:
            seen[mixture] = _best_responses(payoffs, mixture)
        out.append((mixture, *seen[mixture]))
    return out


def support_enumeration_2p(game: Game) -> SupportEnumerationResult:
    """Exact equilibria of a two-player game by support enumeration.

    For every support pair, solve the indifference systems for each
    side's mixture and keep solutions that are valid distributions.  A
    pair (p, q) is an equilibrium exactly when each support lies inside
    the set of best replies to the other mixture.  Degenerate games
    (singular systems with solution families) are flagged and represented
    by the family endpoints.
    """
    if game.num_players != 2:
        raise ParameterOutOfRange(
            f"support enumeration needs 2 players, game has {game.num_players}"
        )
    rows, cols = game.shape
    u1, u2 = _pure_payoff_matrices(game)
    u2t = [[u2[a][b] for a in range(rows)] for b in range(cols)]
    found: dict = {}
    degenerate = False
    row_seen: dict = {}
    col_seen: dict = {}
    row_supports, col_supports = (
        [c for size in range(1, k + 1) for c in itertools.combinations(range(k), size)]
        for k in game.shape
    )
    for own in row_supports:
        for other in col_supports:
            q_result = _mix_candidates(u1, own, other)
            if q_result is None:
                continue
            q_raws, q_degen = q_result
            qs = _candidates(q_raws, other, cols, u1, col_seen)
            if not qs:
                continue
            p_result = _mix_candidates(u2t, other, own)
            if p_result is None:
                continue
            p_raws, p_degen = p_result
            ps = _candidates(p_raws, own, rows, u2t, row_seen)
            for q, row_best, q_support in qs:
                for p, col_best, p_support in ps:
                    if p_support & ~row_best or q_support & ~col_best:
                        continue
                    # a singular system only signals degeneracy once a
                    # candidate from its family is a real equilibrium
                    if q_degen or p_degen:
                        degenerate = True
                    key = (p, q)
                    if key not in found:
                        found[key] = MixedProfile((p, q))
    ordered = sorted(found)
    return SupportEnumerationResult(
        equilibria=tuple(found[k] for k in ordered), degenerate=degenerate
    )
