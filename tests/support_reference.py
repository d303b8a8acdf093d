"""Reference support enumeration for the oracle tests.

``support_enumeration_2p`` decides each candidate pair by best-reply sets
that it keeps per mixture.  This is the pairwise form it replaced: every
(p, q) candidate pair is embedded afresh and checked by recomputing both
players' integer payoff sums against the pair.  It shares the
indifference systems (``_mix_candidates``) with the package, so a
difference between the two is a difference in the equilibrium test, the
embedding or the ``degenerate`` rule.
"""

from __future__ import annotations

import itertools

from cellnash import scalars
from cellnash.game import Game, MixedProfile
from cellnash.oracle import (
    SupportEnumerationResult,
    _embed,
    _mix_candidates,
    _pure_payoff_matrices,
)
from cellnash.scalars import Scalar


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
