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
other players' vertices, and one argmin per distinct support in it.  It
sums on integers: each vertex's weights over their common denominator
and each payoff tensor over its own, which scales a deviation vector by
a positive constant and so keeps its argmin and its ties exactly.

Moving each player's vector along the segment toward the degenerate
vector on their label sweeps grid cells onto pure profiles; cells whose
vertex labels cover every pure profile exactly once are the certificates
the search module looks for.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from .errors import ParameterOutOfRange
from .game import (
    Game,
    MixedProfile,
    PureProfile,
    deviation_payoffs,
    deviation_rows,
    deviation_sums,
    evaluate_payoff,
)
from . import scalars
from .scalars import Scalar
from .subdivision import Triangulation


def root_label(game: Game, sigma: MixedProfile) -> PureProfile:
    """Per player, the supported strategy with the smallest deviation
    payoff (lowest index on ties).

    The deviation payoffs are :func:`~cellnash.game.deviation_rows`,
    the integer rows :func:`~cellnash.game.gain_table` reads: each is a
    positive multiple of the exact row, which keeps every argmin and tie.
    """
    choices = [
        min(sigma.support(i), key=devs.__getitem__)  # first minimum wins
        for i, (_, _, _, devs) in enumerate(deviation_rows(game, sigma))
    ]
    return PureProfile(tuple(choices))


def grid_labels(game: Game, tris: Sequence[Triangulation]) -> list[int]:
    """``game.flat_index`` of :func:`root_label` at every vertex profile of
    the grid, row-major over the players' vertex lists (the last player's
    vertex varies fastest).

    Per player ``i`` and tuple of the other players' vertices, the
    deviation payoffs are summed once, on integers, and the label is
    taken once per distinct support among player ``i``'s vertices; a
    profile's label is the sum of its players' ``game.strides[i] *
    choice``.
    """
    counts = [len(t.vertices) for t in tris]
    steps = [math.prod(counts[j + 1 :]) for j in range(len(tris))]
    labels = [0] * math.prod(counts)
    # per player and vertex: its offset into the label list, and its
    # support as (payoff tensor offset, integer weight) pairs
    axes = []
    for tri, step, stride in zip(tris, steps, game.strides):
        axis = []
        for v, vertex in enumerate(tri.vertices):
            nums, _ = scalars.as_integers(vertex)
            axis.append((v * step, [(s * stride, k) for s, k in enumerate(nums) if k]))
        axes.append(axis)
    for i, axis in enumerate(axes):
        tensor = game.integer_payoffs[i]
        offsets = [s * game.strides[i] for s in range(game.shape[i])]
        ids: dict[tuple[int, ...], int] = {}
        support_ids = [
            ids.setdefault(tuple(s for s, p in enumerate(vertex) if p), len(ids))
            for vertex in tris[i].vertices
        ]
        for combo in itertools.product(*axes[:i], *axes[i + 1 :]):
            devs = deviation_sums(tensor, [weights for _, weights in combo], offsets)
            # root_label's rule: min keeps the first, lowest-index minimum
            picks = [
                game.strides[i] * min(support, key=devs.__getitem__) for support in ids
            ]
            base = sum(offset for offset, _ in combo)
            for (offset, _), sid in zip(axis, support_ids):
                labels[base + offset] += picks[sid]
    return labels


def root_motion(game: Game, sigma: MixedProfile, t: Scalar) -> MixedProfile:
    """Point at parameter ``t`` on the segment from ``sigma`` to the
    degenerate profile on its label.  ``t=0`` returns ``sigma`` itself,
    ``t=1`` the fully moved profile.  A ``t`` that is not an int, Fraction
    or float, or lies outside [0, 1], is a :class:`ParameterOutOfRange`."""
    if not isinstance(t, (int, Fraction, float)):
        raise ParameterOutOfRange(f"t {t!r} is not an int, Fraction or float")
    if not 0 <= t <= 1:  # also refuses NaN
        raise ParameterOutOfRange(f"t={t} outside [0, 1]")
    t = scalars.exact([t])[0]
    targets = root_label(game, sigma).choices
    return MixedProfile(
        tuple(
            tuple(p + t * ((s == target) - p) for s, p in enumerate(vector))
            for vector, target in zip(map(scalars.exact, sigma.dist), targets)
        )
    )


def check_root_properties(game: Game, sigma: MixedProfile) -> bool:
    """Re-derive the label laws from scratch: the label is supported, its
    deviation gain is zero, and it puts no mass outside the support."""
    for i, s in enumerate(root_label(game, sigma).choices):
        if s not in sigma.support(i):
            return False
        # a positive gain: the deviation payoff beats the expected payoff
        if deviation_payoffs(game, sigma, i)[s] > evaluate_payoff(game, sigma, i):
            return False
    return True
