"""Signed volume bookkeeping for single-player games.

Slide every grid vertex along the segment toward the pure strategy it is
labeled with.  Each cell's signed volume becomes a polynomial in the
motion parameter ``t`` (entries of the edge matrix are linear in ``t``),
and because the motion keeps boundary faces inside themselves, the sum
over all cells stays identically one.  At ``t = 1`` a cell's volume is
nonzero exactly when its vertex labels are pairwise distinct — that is,
when the cell is a certificate.  This module computes those polynomials
exactly, on the grid's integer numerators: a cell's polynomial has degree
at most the grid's dimension ``d``, so :func:`~cellnash.linalg.determinant`
reads it at ``t = 0..d`` and Newton's forward differences give back its
integer coefficients.  It checks the constancy claim coefficient by
coefficient.  The numeric :func:`moved_cell_volume`, which moves a cell's
vertices with :func:`~cellnash.labeling.root_motion`, is the independent
check on them.

Multi-player products are out of scope here; the search module covers
them combinatorially.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import zip_longest
from typing import Sequence

from .errors import DimensionMismatch, NotSinglePlayer, ParameterOutOfRange
from .game import Game
from .labeling import grid_labels, motion_parameter, root_motion
from .linalg import determinant
from . import scalars
from .scalars import Scalar
from .subdivision import Triangulation, lattice_profile

Poly = tuple[Scalar, ...]  # coefficients, constant term first


def _poly_add(a: Poly, b: Poly) -> Poly:
    return tuple(x + y for x, y in zip_longest(a, b, fillvalue=0))


def _poly_eval(a: Poly, t: Scalar) -> Scalar:
    t = scalars.exact([t])[0]  # a float t as the exact fraction it holds
    result: Scalar = 0
    for c in reversed(a):
        result = result * t + c
    return result


def _poly_trim(a: Poly) -> Poly:
    end = len(a)
    while end > 1 and a[end - 1] == 0:
        end -= 1
    return a[:end]


def _interpolate(values: Sequence[int]) -> Poly:
    """``d! * p`` for the polynomial ``p`` of degree <= ``d`` that reads
    ``values[k]`` at ``k``: ``sum_k (d!/k!) D^k p(0) t(t-1)...(t-k+1)``."""
    d = len(values) - 1
    out, falling, diffs = [0] * (d + 1), [1], list(values)
    for k in range(d + 1):
        weight = math.factorial(d) // math.factorial(k) * diffs[0]
        for i, c in enumerate(falling):
            out[i] += weight * c
        # falling * (t - k), and the next row of differences
        falling = [a - k * b for a, b in zip([0] + falling, falling + [0])]
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return tuple(out)


def _check_grid(game: Game, tri: Triangulation) -> None:
    if game.num_players != 1:
        raise NotSinglePlayer(
            f"volume bookkeeping needs 1 player, game has {game.num_players}"
        )
    if tri.dim != game.shape[0] - 1:
        raise DimensionMismatch(
            f"grid of dimension {tri.dim} for a game with {game.shape[0]} strategies"
        )


def _volume_polynomial(
    tri: Triangulation, cell: Sequence[int], labels: Sequence[int]
) -> Poly:
    """Signed volume of the moved cell as an exact polynomial in ``t``,
    oriented so the value at ``t = 0`` is positive."""
    # vertex r with label l_r moves to v_r + t*(e_{l_r} - v_r); over the
    # grid's denominator m each edge-matrix entry is an integer linear in t
    m, axes = tri.resolution, range(1, tri.dim + 1)
    n0, *others = (tri.numerators[v] for v in cell)
    l0 = labels[0]
    matrix = [
        [(nr[c] - n0[c], m * ((c == lr) - (c == l0)) - nr[c] + n0[c]) for c in axes]
        for nr, lr in zip(others, labels[1:])
    ]
    # the determinant has degree at most d in t: read it at t = 0..d
    values = [
        int(determinant([[a + k * b for a, b in row] for row in matrix]))
        for k in range(tri.dim + 1)
    ]
    scale = math.factorial(tri.dim) * m**tri.dim
    poly = _poly_trim(_interpolate(values))
    return tuple(Fraction(c, scale if values[0] > 0 else -scale) for c in poly)


_moved: tuple = (None, {})  # the last (game, grid, t) and its moved vertices


def moved_cell_volume(
    game: Game, tri: Triangulation, cell_index: int, t: Scalar
) -> Scalar:
    """Signed volume of one moved cell at parameter ``t``: each vertex
    moved by :func:`~cellnash.labeling.root_motion`, then a numeric
    determinant rather than the polynomial form.  The vertices moved for
    the last ``(game, tri, t)``, compared by value, are kept, so a walk
    over all cells moves each vertex once."""
    global _moved
    _check_grid(game, tri)
    if type(cell_index) is not int or not 0 <= cell_index < len(tri.cells):
        raise ParameterOutOfRange(f"cell index {cell_index!r} out of range")
    key, points = _moved
    if key != (game, tri, t):
        _moved = key, points = (game, tri, t), {}
    cell = tri.cells[cell_index]
    for v in cell:
        if v not in points:
            points[v] = root_motion(game, lattice_profile((tri,), (v,)), t).dist[0]
    value = determinant(_edges([points[v] for v in cell]))
    orientation = determinant(_edges([tri.numerators[v] for v in cell]))
    return value if orientation > 0 else -value


def _edges(points: Sequence[Sequence[Scalar]]) -> list[list[Scalar]]:
    # each point minus the first, less coordinate 0, which the others fix
    return [[p - q for p, q in zip(point[1:], points[0][1:])] for point in points[1:]]


@dataclass(frozen=True)
class VolumePolynomial:
    """Exact per-cell volume polynomials and their sum."""

    cell_polys: tuple[Poly, ...]
    total: Poly
    nonzero_cells_at_one: tuple[int, ...]

    @property
    def is_constant(self) -> bool:
        return all(c == 0 for c in self.total[1:])

    def value_at(self, t: Scalar) -> Scalar:
        return _poly_eval(self.total, motion_parameter(t))

    def cell_values_at(self, t: Scalar) -> tuple[Scalar, ...]:
        t = motion_parameter(t)
        return tuple(_poly_eval(p, t) for p in self.cell_polys)


def total_volume_polynomial(game: Game, tri: Triangulation) -> VolumePolynomial:
    """Per-cell polynomials, their sum, and the cells still spanning
    volume at ``t = 1``.  The grid is labeled once, by
    :func:`~cellnash.labeling.grid_labels`."""
    _check_grid(game, tri)
    labels = grid_labels(game, (tri,))
    polys = tuple(
        _volume_polynomial(tri, cell, [labels[v] for v in cell]) for cell in tri.cells
    )
    total = reduce(_poly_add, polys, (Fraction(0),))
    nonzero = tuple(idx for idx, p in enumerate(polys) if _poly_eval(p, 1) != 0)
    return VolumePolynomial(
        cell_polys=polys, total=_poly_trim(total), nonzero_cells_at_one=nonzero
    )
