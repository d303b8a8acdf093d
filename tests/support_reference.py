"""Reference support enumeration for the oracle tests.

``support_enumeration_2p`` settles the support pairs with a singleton
side by pure best replies, prunes each side's candidates by the replies
they must leave optimal, and solves its systems with the package's
fraction-free ``eliminate``.  This is the plain form it replaced, and it
shares none of that: every support pair goes through the indifference
systems (``_mix_candidates``, with its singleton branches), solved by the
Fraction Gauss–Jordan of ``linalg_reference``, and every (p, q)
candidate pair is embedded afresh and checked by recomputing both
players' integer payoff sums against the pair.  A difference between the
two is a difference in the elimination, the pure pairs, the pruning, the
embedding or the ``degenerate`` rule.
"""

from __future__ import annotations

import itertools

from cellnash import scalars
from cellnash.game import Game, MixedProfile
from cellnash.oracle import SupportEnumerationResult
from cellnash.scalars import Scalar

from linalg_reference import reference_solve_affine


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
    solved = reference_solve_affine(matrix, rhs)
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


def reference_support_enumeration(game: Game) -> SupportEnumerationResult:
    rows, cols = game.shape
    u1, u2 = _pure_payoff_matrices(game)
    u2t = [[u2[a][b] for a in range(rows)] for b in range(cols)]
    found: dict = {}
    degenerate = False
    row_supports = [
        combo
        for size in range(1, rows + 1)
        for combo in itertools.combinations(range(rows), size)
    ]
    col_supports = [
        combo
        for size in range(1, cols + 1)
        for combo in itertools.combinations(range(cols), size)
    ]
    for own in row_supports:
        for other in col_supports:
            q_result = _mix_candidates(u1, own, other)
            if q_result is None:
                continue
            q_list, q_degen = q_result
            p_result = _mix_candidates(u2t, other, own)
            if p_result is None:
                continue
            p_list, p_degen = p_result
            for q_raw in q_list:
                if any(v < 0 for v in q_raw):
                    continue
                q = _embed(dict(zip(other, q_raw)), cols)
                for p_raw in p_list:
                    if any(v < 0 for v in p_raw):
                        continue
                    p = _embed(dict(zip(own, p_raw)), rows)
                    if is_exact_equilibrium(u1, u2, p, q):
                        if q_degen or p_degen:
                            degenerate = True
                        key = (p, q)
                        if key not in found:
                            found[key] = MixedProfile((p, q))
    ordered = sorted(found)
    return SupportEnumerationResult(
        equilibria=tuple(found[k] for k in ordered), degenerate=degenerate
    )


def is_exact_equilibrium(
    u1: list[list[int]],
    u2: list[list[int]],
    p: tuple[Scalar, ...],
    q: tuple[Scalar, ...],
) -> bool:
    # direct best-response test on integers: with p == pn / pd and
    # q == qn / qd, row_values are row 1's payoffs against q times qd and
    # base1 is player 1's payoff times pd * qd (likewise for player 2)
    pn, pd = scalars.as_integers(p)
    qn, qd = scalars.as_integers(q)
    q_support = [(b, k) for b, k in enumerate(qn) if k]
    p_support = [(a, k) for a, k in enumerate(pn) if k]
    row_values = [sum(row[b] * k for b, k in q_support) for row in u1]
    base1 = sum(k * row_values[a] for a, k in p_support)
    if any(v * pd > base1 for v in row_values):
        return False
    col_values = [
        sum(u2[a][b] * k for a, k in p_support) for b in range(len(qn))
    ]
    base2 = sum(k * col_values[b] for b, k in q_support)
    if any(v * qd > base2 for v in col_values):
        return False
    return True
