"""Independent audit of the certificate scan, built from payoffs alone.

A root function gives every profile one label per player: a supported
strategy with zero deviation gain.  The package pins one such function
(cheapest supported deviation, lowest index on ties); any other choice
among the zero-gain supported strategies is an equally valid root
function.  This module recomputes both from ``Game.payoff`` and the
Kuhn grid, without the package's labeling or search code, and
answers two questions per grid:

* which cells the pinned labels complete (what the scan must report);
* which cells *some* root function could complete, found by a bipartite
  matching of the cell's vertex profiles onto the pure profiles.

A grid with no certificate is then a *forced* miss when no root function
could complete any cell, and a *rule-blocked* miss when some other root
function could but the pinned tie-break does not.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from cellnash.game import Game
from cellnash.subdivision import triangulate

FORCED = "forced"
RULE_BLOCKED = "rule-blocked"


@dataclass(frozen=True)
class GridAudit:
    """What the audit found at one grid resolution.

    ``certified`` lists, in lexicographic order, the cell factors whose
    pinned labels hit every pure profile exactly once; ``completable``
    counts the cells that some root function could complete.
    """

    certified: tuple[tuple[int, ...], ...]
    completable: int

    @property
    def miss_class(self):
        """None when the pinned labels certify a cell, else the kind of miss."""
        if self.certified:
            return None
        return RULE_BLOCKED if self.completable else FORCED


def _zero_gain_labels(game: Game, dist, player: int):
    """Deviation payoffs of ``player`` at the mixed profile ``dist``, then
    the pinned label and every supported strategy with zero gain."""
    others = [
        range(k) if j != player else (0,) for j, k in enumerate(game.shape)
    ]
    devs = [0] * game.shape[player]
    for combo in itertools.product(*others):
        weight = 1
        for j, s in enumerate(combo):
            if j != player:
                weight *= dist[j][s]
        if not weight:
            continue
        for s in range(game.shape[player]):
            pure = combo[:player] + (s,) + combo[player + 1 :]
            devs[s] += weight * game.payoff(player, pure)
    support = [s for s, p in enumerate(dist[player]) if p > 0]
    own = sum(dist[player][s] * devs[s] for s in support)
    pinned = min(support, key=lambda s: (devs[s], s))
    return pinned, tuple(s for s in support if devs[s] <= own)


def pinned_label(game: Game, dist) -> tuple[int, ...]:
    """The pinned root label at the mixed profile ``dist``."""
    return tuple(
        _zero_gain_labels(game, dist, i)[0] for i in range(game.num_players)
    )


def _has_perfect_matching(options) -> bool:
    """Kuhn's augmenting paths: can row ``k`` take a column from
    ``options[k]`` with every column used at most once?"""
    owner = {}

    def augment(row, seen):
        for col in options[row]:
            if col not in seen:
                seen.add(col)
                if col not in owner or augment(owner[col], seen):
                    owner[col] = row
                    return True
        return False

    return all(augment(row, set()) for row in range(len(options)))


def audit_grid(game: Game, m: int) -> GridAudit:
    """Audit every product cell of the grid with resolution ``m`` per player."""
    tris = [triangulate(k - 1, m) for k in game.shape]
    vertices = [tri.vertices for tri in tris]
    pure_count = math.prod(game.shape)
    memo = {}

    def labels(key):
        if key not in memo:
            dist = [points[v] for points, v in zip(vertices, key)]
            per_player = [
                _zero_gain_labels(game, dist, i) for i in range(game.num_players)
            ]
            pinned = tuple(p for p, _ in per_player)
            allowed = tuple(itertools.product(*(z for _, z in per_player)))
            memo[key] = (pinned, allowed)
        return memo[key]

    certified = []
    completable = 0
    for factor in itertools.product(*(range(len(t.cells)) for t in tris)):
        keys = list(
            itertools.product(*(t.cells[c] for t, c in zip(tris, factor)))
        )
        pinned = {labels(key)[0] for key in keys}
        if len(pinned) == pure_count:
            certified.append(factor)
        if _has_perfect_matching([labels(key)[1] for key in keys]):
            completable += 1
    return GridAudit(certified=tuple(certified), completable=completable)


def has_pure_opponent_tie(game: Game) -> bool:
    """True when some player earns the same payoff from two of their
    strategies against one pure profile of the other players."""
    for i, count in enumerate(game.shape):
        others = [range(k) if j != i else (0,) for j, k in enumerate(game.shape)]
        for combo in itertools.product(*others):
            values = {
                game.payoff(i, combo[:i] + (s,) + combo[i + 1 :])
                for s in range(count)
            }
            if len(values) < count:
                return True
    return False
