"""Zero-gain labels and the straight-line motion they induce.

Every profile gets a pure label per player: the supported strategy whose
deviation payoff is smallest.  Averaging guarantees the minimum never
beats the profile's own payoff, so the labeled strategy always has zero
deviation gain.  Ties break to the lowest strategy index, which keeps
labels deterministic and grids reproducible.

A whole grid is labeled a row at a time, a row being the last player's
vertex axis at one tuple of the other players' vertices.  Player ``i``'s
deviation payoffs depend only on the other players' vertices, and player
``i``'s own vertex only picks the support the label is drawn from.
:func:`grid_labels` therefore contracts each payoff tensor with the other
players' vertex weights one axis at a time, so vertex tuples with a common
prefix share their partial sums.  The last axis is contracted a whole
row at once, as a sum of vertex-weight columns scaled by the remaining
payoffs; for the last player's own payoffs that axis is the second-to-
last player's.  One argmin per distinct support over those deviation
rows gives a row of picks, and a row of labels is the elementwise sum of
one pick row per player, summed once per distinct combination.  The sums
are on integers: the vertex weights over their grid's common denominator
and each payoff tensor over its own, which scales a deviation row by a
positive constant and so keeps its argmin and its ties exactly.  The
weights, supports and columns come with each grid; nothing is memoized.

Moving each player's vector along the segment toward the degenerate
vector on their label sweeps grid cells onto pure profiles; cells whose
vertex labels cover every pure profile exactly once are the certificates
the search module looks for.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import partial, reduce
from typing import Sequence

from .errors import DimensionMismatch, ParameterOutOfRange
from .game import (
    Game,
    MixedProfile,
    PureProfile,
    _rows,
    check_profile,
    deviation_payoffs,
    evaluate_payoff,
)
from . import scalars
from .scalars import Scalar
from .subdivision import Triangulation


def root_label(game: Game, sigma: MixedProfile) -> PureProfile:
    """Per player, the supported strategy with the smallest deviation
    payoff (lowest index on ties).

    The deviation payoffs are the integer rows
    :func:`~cellnash.game.gain_table` reads: each is a positive multiple
    of the exact row, which keeps every argmin and tie.
    """
    check_profile(game, sigma)
    rows = _rows(game, sigma.numerators, sigma.denominators)
    choices = [
        min(sigma.support(i), key=devs.__getitem__)  # first minimum wins
        for i, (*_, devs) in enumerate(rows)
    ]
    return PureProfile(tuple(choices))


def grid_labels(game: Game, tris: Sequence[Triangulation]) -> list[int]:
    """``game.flat_index`` of :func:`root_label` at every vertex profile of
    the grid, row-major over the players' vertex lists (the last player's
    vertex varies fastest): :func:`label_rows` laid out in order.  ``tris``
    holds one triangulation per player, of dimension one less than the
    player's strategy count; any other count or dimension is a
    :class:`DimensionMismatch`.
    """
    rows, keys = label_rows(game, tris)
    return list(itertools.chain.from_iterable(map(rows.__getitem__, keys)))


def label_rows(game: Game, tris: Sequence[Triangulation]) -> tuple[list, list[int]]:
    """:func:`grid_labels` a row at a time, a row being the last player's
    vertex axis at one tuple of the other players' vertices: the distinct
    rows in first-seen order, and per such tuple, row-major, its row's
    index.  Each distinct combination of the players' pick rows is summed
    once, and distinct combinations give distinct rows.
    """
    _check_grid(game, tris)
    # per player: a table of distinct rows, and each output row's key in it
    parts = [_pick_rows(game, tris, i) for i in range(len(tris) - 1)]
    parts.append(_last_rows(game, tris))
    tables = [table for table, _ in parts]
    found: dict[tuple, int] = {}
    keys = [found.setdefault(c, len(found)) for c in zip(*(k for _, k in parts))]
    return [list(reduce(_add, map(operator.getitem, tables, c))) for c in found], keys


def _check_grid(game: Game, tris: Sequence[Triangulation]) -> None:
    if len(tris) != game.num_players:
        raise DimensionMismatch(
            f"{len(tris)} triangulations for a game with {game.num_players} players"
        )
    for i, (tri, count) in enumerate(zip(tris, game.shape)):
        if tri.dim != count - 1:
            raise DimensionMismatch(
                f"grid of dimension {tri.dim} for player {i} with {count} strategies"
            )


def _pick_rows(game: Game, tris: Sequence[Triangulation], i: int) -> tuple[list, list]:
    """Player ``i``'s (not the last player's) distinct rows of
    ``game.strides[i] * choice`` along the last player's vertices, and
    per output row, in order, the index of its row."""
    *prefix, last = tris
    counts = [len(t.numerators) for t in prefix]
    outer, inner = math.prod(counts[:i]), math.prod(counts[i + 1 :])
    count, stride, supports = game.shape[i], game.strides[i], tris[i].supports
    blocks = _contract(game.integer_payoffs[i], game, tris, len(prefix), keep=i)
    found: dict[tuple[int, ...], int] = {}
    picks = []  # per tuple of the other prefix players' vertices, per support
    for o in range(outer):
        for u in range(inner):
            # one deviation row per strategy, along the last player's vertices
            devs = [
                _along(last.columns, blocks[(o * count + s) * inner + u])
                for s in range(count)
            ]
            rows = (tuple(_argmins(devs, support, stride)) for support in supports)
            picks.append([found.setdefault(row, len(found)) for row in rows])
    keys = [
        picks[o * inner + u][sid]
        for o in range(outer)
        for sid in tris[i].support_ids
        for u in range(inner)
    ]
    return list(found), keys


def _last_rows(game: Game, tris: Sequence[Triangulation]) -> tuple[dict, list]:
    """The last player's distinct rows of choices, keyed by the choice
    per support, and per output row, in order, its key.  The deviation
    rows run along the second-to-last player's vertices, so one argmin
    per support covers that many output rows."""
    *prefix, last = tris
    if prefix:
        count, columns = game.shape[-1], prefix[-1].columns
        blocks = _contract(game.integer_payoffs[-1], game, tris, len(prefix) - 1)
        rows = [
            [_along(columns, block[s::count]) for s in range(count)] for block in blocks
        ]
    else:  # one player: the deviation payoffs are the payoffs, rows of one
        rows = [list(zip(game.integer_payoffs[0]))]
    keys = []
    for devs in rows:
        keys += zip(*(_argmins(devs, support, 1) for support in last.supports))
    ids = last.support_ids
    return {key: tuple(map(key.__getitem__, ids)) for key in set(keys)}, keys


def _contract(tensor, game: Game, tris: Sequence[Triangulation], stop: int, keep=None):
    """``tensor`` summed over each player ``j < stop`` against their
    vertex weights, one axis at a time, except that player ``keep``'s
    axis is only split by strategy.  Returns the remaining sub-tensors,
    row-major over the players' vertices (``keep``'s strategies)."""
    blocks = [tensor]
    for j in range(stop):
        size = game.strides[j]
        # each block's sub-tensors, one per strategy of player j
        split = [
            [block[s : s + size] for s in range(0, len(block), size)]
            for block in blocks
        ]
        if j == keep:
            blocks = list(itertools.chain.from_iterable(split))
        else:
            blocks = [_along(parts, w) for parts in split for w in tris[j].numerators]
    return blocks


def _along(rows, weights):
    # the elementwise sum of k * rows[t] over the weights k = weights[t] != 0
    scaled = [
        row if k == 1 else map(k.__mul__, row) for k, row in zip(weights, rows) if k
    ]
    if not scaled:
        return [0] * len(rows[0])
    return list(reduce(_add, scaled))


def _argmins(rows, support, stride):
    """Per position, ``stride`` times the strategy ``s`` of the ascending
    ``support`` with the smallest ``rows[s]`` entry there, the first on
    ties (:func:`root_label`'s rule)."""
    if len(support) == 1:
        return [stride * support[0]] * len(rows[support[0]])
    if len(support) == 2:
        a, b = support
        # b only where it is strictly smaller
        picks = (stride * a, stride * b)
        return list(map(picks.__getitem__, map(operator.gt, rows[a], rows[b])))
    values = [stride * s for s in support]
    return [values[r.index(min(r))] for r in zip(*map(rows.__getitem__, support))]


_add = partial(map, operator.add)  # elementwise, lazily


def motion_parameter(t: Scalar) -> Scalar:
    """``t`` as the exact number it holds; a ``t`` that is not an int,
    Fraction or float, or lies outside [0, 1], is a
    :class:`ParameterOutOfRange`."""
    if not isinstance(t, (int, Fraction, float)):
        raise ParameterOutOfRange(f"t {t!r} is not an int, Fraction or float")
    if not 0 <= t <= 1:  # also refuses NaN
        raise ParameterOutOfRange(f"t={t} outside [0, 1]")
    return scalars.exact([t])[0]


def root_motion(game: Game, sigma: MixedProfile, t: Scalar) -> MixedProfile:
    """Point at parameter ``t`` on the segment from ``sigma`` to the
    degenerate profile on its label.  ``t=0`` returns ``sigma`` itself,
    ``t=1`` the fully moved profile.  A bad ``t`` is refused by
    :func:`motion_parameter`."""
    t = motion_parameter(t)
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
