"""Signed volume bookkeeping for single-player games.

Slide every grid vertex along the segment toward the pure strategy it is
labeled with.  Each cell's signed volume becomes a polynomial in the
motion parameter ``t`` (entries of the edge matrix are linear in ``t``),
and because the motion keeps boundary faces inside themselves, the sum
over all cells stays identically one.  At ``t = 1`` a cell's volume is
nonzero exactly when its vertex labels are pairwise distinct — that is,
when the cell is a certificate.  This module computes those polynomials
exactly and checks the constancy claim coefficient by coefficient.

Multi-player products are out of scope here; the search module covers
them combinatorially.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import NotSinglePlayer, ParameterOutOfRange
from .game import Game, MixedProfile
from .labeling import grid_labels, root_label
from .linalg import determinant
from .scalars import Scalar
from .subdivision import Triangulation

Poly = tuple[Fraction, ...]  # coefficients, constant term first


def _poly_add(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return tuple(
        (a[i] if i < len(a) else Fraction(0)) + (b[i] if i < len(b) else Fraction(0))
        for i in range(n)
    )


def _poly_mul(a: Poly, b: Poly) -> Poly:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


def _poly_scale(a: Poly, factor: Fraction) -> Poly:
    return tuple(c * factor for c in a)


def _poly_eval(a: Poly, t: Scalar) -> Scalar:
    result: Scalar = 0
    for c in reversed(a):
        result = result * t + c
    return result


def _poly_trim(a: Poly) -> Poly:
    end = len(a)
    while end > 1 and a[end - 1] == 0:
        end -= 1
    return a[:end]


def _poly_det(matrix: list[list[Poly]]) -> Poly:
    """Determinant with polynomial entries, by first-column expansion."""
    n = len(matrix)
    if n == 0:
        return (Fraction(1),)
    if n == 1:
        return matrix[0][0]
    total: Poly = (Fraction(0),)
    for r in range(n):
        minor = [row[1:] for i, row in enumerate(matrix) if i != r]
        term = _poly_mul(matrix[r][0], _poly_det(minor))
        if r % 2:
            term = _poly_scale(term, Fraction(-1))
        total = _poly_add(total, term)
    return total


def _check_single_player(game: Game) -> None:
    if game.num_players != 1:
        raise NotSinglePlayer(
            f"volume bookkeeping needs 1 player, game has {game.num_players}"
        )


def _single_player_cell(game: Game, tri: Triangulation, cell_index: int):
    _check_single_player(game)
    if not 0 <= cell_index < len(tri.cells):
        raise ParameterOutOfRange(f"cell index {cell_index} out of range")
    cell = tri.cells[cell_index]
    labels = [
        root_label(game, MixedProfile((tri.vertices[v],))).choices[0] for v in cell
    ]
    return cell, labels


def _moved_coordinate_polys(
    vertex: Sequence[Scalar], label: int
) -> list[Poly]:
    # coordinate c moves linearly from vertex[c] to 1 if c == label else 0
    polys = []
    for c, start in enumerate(vertex):
        start = Fraction(start)
        target = Fraction(1 if c == label else 0)
        polys.append(_poly_trim((start, target - start)))
    return polys


def cell_volume_polynomial(
    game: Game, tri: Triangulation, cell_index: int
) -> Poly:
    """Signed volume of the moved cell as an exact polynomial in ``t``,
    oriented so the value at ``t = 0`` is positive."""
    return _volume_polynomial(tri, *_single_player_cell(game, tri, cell_index))


def _volume_polynomial(
    tri: Triangulation, cell: Sequence[int], labels: Sequence[int]
) -> Poly:
    # labels[k] is the label of vertex cell[k]
    moved = [
        _moved_coordinate_polys(tri.vertices[v], lab) for v, lab in zip(cell, labels)
    ]
    dim = tri.dim
    if dim == 0:
        return (Fraction(1),)
    base = moved[0]
    matrix = []
    for row in moved[1:]:
        matrix.append(
            [
                _poly_trim(_poly_add(row[c], _poly_scale(base[c], Fraction(-1))))
                for c in range(1, dim + 1)
            ]
        )
    poly = _poly_trim(_poly_det(matrix))
    if poly[0] < 0:
        poly = _poly_scale(poly, Fraction(-1))
    return poly


def moved_cell_volume(
    game: Game, tri: Triangulation, cell_index: int, t: Scalar
) -> Scalar:
    """Signed volume of one moved cell at parameter ``t``, computed from a
    numeric determinant rather than the polynomial form."""
    if not 0 <= t <= 1:
        raise ParameterOutOfRange(f"t={t} outside [0, 1]")
    return _moved_volume(tri, *_single_player_cell(game, tri, cell_index), t)


def moved_volumes(game: Game, tri: Triangulation, t: Scalar) -> tuple[Scalar, ...]:
    """:func:`moved_cell_volume` of every cell, from one labeling of the grid."""
    if not 0 <= t <= 1:
        raise ParameterOutOfRange(f"t={t} outside [0, 1]")
    _check_single_player(game)
    labels = grid_labels(game, (tri,))
    return tuple(
        _moved_volume(tri, cell, [labels[v] for v in cell], t) for cell in tri.cells
    )


def _moved_volume(
    tri: Triangulation, cell: Sequence[int], labels: Sequence[int], t: Scalar
) -> Scalar:
    dim = tri.dim
    if dim == 0:
        return 1
    vertices = [tri.vertices[v] for v in cell]

    def moved_point(vertex, label):
        return [
            p + t * ((1 if c == label else 0) - p) for c, p in enumerate(vertex)
        ]

    points = [moved_point(v, lab) for v, lab in zip(vertices, labels)]
    matrix = [
        [points[r][c] - points[0][c] for c in range(1, dim + 1)]
        for r in range(1, dim + 1)
    ]
    value = determinant(matrix)
    start = [
        [vertices[r][c] - vertices[0][c] for c in range(1, dim + 1)]
        for r in range(1, dim + 1)
    ]
    if determinant(start) < 0:
        value = -value
    return value


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
        return _poly_eval(self.total, t)


def total_volume_polynomial(game: Game, tri: Triangulation) -> VolumePolynomial:
    """Per-cell polynomials, their sum, and the cells still spanning
    volume at ``t = 1``.  The grid is labeled once, by
    :func:`~cellnash.labeling.grid_labels`."""
    _check_single_player(game)
    labels = grid_labels(game, (tri,))
    polys = tuple(
        _volume_polynomial(tri, cell, [labels[v] for v in cell]) for cell in tri.cells
    )
    total: Poly = (Fraction(0),)
    for p in polys:
        total = _poly_add(total, p)
    nonzero = tuple(
        idx for idx, p in enumerate(polys) if _poly_eval(p, 1) != 0
    )
    return VolumePolynomial(
        cell_polys=polys, total=_poly_trim(total), nonzero_cells_at_one=nonzero
    )
