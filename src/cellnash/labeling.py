"""Zero-gain labels and the straight-line motion they induce.

Every profile gets a pure label per player: the supported strategy whose
deviation payoff is smallest.  Averaging guarantees the minimum never
beats the profile's own payoff, so the labeled strategy always has zero
deviation gain.  Ties break to the lowest strategy index, which keeps
labels deterministic and grids reproducible.

A whole grid is labeled per player: player ``i``'s deviation payoffs
depend only on the other players' vertices, and player ``i``'s own vertex
only picks the support the label is drawn from.  :func:`grid_labels`
therefore computes one deviation vector per player and per tuple of the
other players' vertices, and one argmin per distinct support in it.

Moving each player's vector along the segment toward the degenerate
vector on their label sweeps grid cells onto pure profiles; cells whose
vertex labels cover every pure profile exactly once are the certificates
the search module looks for.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from .errors import ParameterOutOfRange
from .game import (
    Game,
    MixedProfile,
    PureProfile,
    deviation_payoffs,
    evaluate_payoff,
    support_or_raise,
)
from . import scalars
from .scalars import Scalar
from .subdivision import Triangulation


def root_label(game: Game, sigma: MixedProfile) -> PureProfile:
    """Per player, the supported strategy with the smallest deviation
    payoff (lowest index on ties)."""
    choices = []
    for i in range(game.num_players):
        support = support_or_raise(sigma, i)
        devs = deviation_payoffs(game, sigma, i)
        best_s = support[0]
        best_v = devs[best_s]
        for s in support[1:]:
            if scalars.strictly_greater(best_v, devs[s]):
                best_s = s
                best_v = devs[s]
        choices.append(best_s)
    return PureProfile(tuple(choices))


def grid_labels(game: Game, tris: Sequence[Triangulation]) -> list[int]:
    """``game.flat_index`` of :func:`root_label` at every vertex profile of
    the grid, row-major over the players' vertex lists (the last player's
    vertex varies fastest).

    Per player ``i`` and tuple of the other players' vertices, the
    deviation payoffs are computed once and the label is taken once per
    distinct support among player ``i``'s vertices; a profile's label is
    the sum of its players' ``game.strides[i] * choice``.
    """
    counts = [len(t.vertices) for t in tris]
    steps = [math.prod(counts[j + 1 :]) for j in range(len(tris))]
    labels = [0] * math.prod(counts)
    for i, tri in enumerate(tris):
        supports = [
            tuple(s for s, p in enumerate(vertex) if scalars.is_positive(p))
            for vertex in tri.vertices
        ]
        ids: dict[tuple[int, ...], int] = {}
        support_ids = [ids.setdefault(support, len(ids)) for support in supports]
        own = [v * steps[i] for v in range(counts[i])]
        # player i's own vector does not enter its deviation payoffs, so
        # any of its vertices stands in for all of them
        axes = [
            [(v * steps[j], vertex) for v, vertex in enumerate(t.vertices)]
            if j != i
            else [(0, tri.vertices[0])]
            for j, t in enumerate(tris)
        ]
        for combo in itertools.product(*axes):
            sigma = MixedProfile(tuple(vertex for _, vertex in combo))
            devs = deviation_payoffs(game, sigma, i)
            picks = []
            for support in ids:  # root_label's rule
                best_s = support[0]
                for s in support[1:]:
                    if scalars.strictly_greater(devs[best_s], devs[s]):
                        best_s = s
                picks.append(game.strides[i] * best_s)
            base = sum(offset for offset, _ in combo)
            for offset, sid in zip(own, support_ids):
                labels[base + offset] += picks[sid]
    return labels


def root_motion(game: Game, sigma: MixedProfile, t: Scalar) -> MixedProfile:
    """Point at parameter ``t`` on the segment from ``sigma`` to the
    degenerate profile on its label.  ``t=0`` returns ``sigma`` itself,
    ``t=1`` the fully moved profile."""
    if not 0 <= t <= 1:
        raise ParameterOutOfRange(f"t={t} outside [0, 1]")
    label = root_label(game, sigma)
    dists = []
    for vector, target in zip(sigma.dist, label.choices):
        moved = tuple(
            p + t * ((1 if s == target else 0) - p) for s, p in enumerate(vector)
        )
        dists.append(moved)
    return MixedProfile(tuple(dists))


def check_root_properties(game: Game, sigma: MixedProfile) -> bool:
    """Re-derive the label laws from scratch: the label is supported, its
    deviation gain is zero, and it puts no mass outside the support."""
    label = root_label(game, sigma)
    for i, s in enumerate(label.choices):
        support = support_or_raise(sigma, i)
        if s not in support:
            return False
        base = evaluate_payoff(game, sigma, i)
        dev = deviation_payoffs(game, sigma, i)[s]
        gain = max(dev - base, 0)
        if not scalars.is_zero(gain):
            return False
    return True
