"""Reference helpers for the grid and gain tests.

The package's solver, command line and oracles do not need these, so
they live with the tests: a point locator and a cell volume for checking
the Kuhn grid's geometry, a generator of every product cell, the
deviation profile that the reference gain table evaluates directly, and
the per-profile grid scan that the oracle's shared-row scan replaced.
The locator and the volume read a grid's lattice numerators and do
their linear algebra with ``tests/linalg_reference.py``, not with the
package's fraction-free core.  The barycenter, diameter and cell
classification here are the ``Fraction`` formulas the package's integer
ones replaced: they read a cell's exact points and full gain tables.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from cellnash.errors import IndexOutOfRange
from cellnash.game import Game, MixedProfile, check_profile, gain_table
from cellnash.scalars import Scalar, exact_div
from cellnash.search import PLAYER_UP_EVERYWHERE, SOME_PLAYER_NOT_UP
from cellnash.subdivision import (
    ProductCell,
    Triangulation,
    build_product_cell,
    player_triangulations,
)
from linalg_reference import reference_determinant, reference_solve_affine


def product_cells(game: Game, resolutions: Sequence[int] | int) -> Iterator[ProductCell]:
    """Yield every product cell in lexicographic factor order."""
    tris = player_triangulations(game, resolutions)
    for factor in itertools.product(*(range(len(t.cells)) for t in tris)):
        yield build_product_cell(tris, factor)


def simplex_cell_volume(tri: Triangulation, cell_index: int) -> Fraction:
    """Cell volume normalized so the whole simplex has volume one."""
    m = tri.resolution
    base, *others = (tri.numerators[v] for v in tri.cells[cell_index])
    edges = [[Fraction(k[c] - base[c], m) for c in range(1, tri.dim + 1)] for k in others]
    return abs(reference_determinant(edges))


def locate_point(tri: Triangulation, point: Sequence[Scalar]) -> list[int]:
    """Indices of cells containing the barycentric ``point``."""
    hits = []
    m = tri.resolution
    for idx, cell in enumerate(tri.cells):
        matrix = [
            [Fraction(tri.numerators[v][c], m) for v in cell] for c in range(tri.dim + 1)
        ]
        matrix.append([1] * len(cell))
        solved = reference_solve_affine(matrix, list(point) + [1])
        if solved is None:
            continue
        weights, basis = solved
        if basis:
            continue  # degenerate cell; cannot happen for a real grid
        if all(w >= 0 for w in weights):
            hits.append(idx)
    return hits


def deviation_profile(
    game: Game, sigma: MixedProfile, player: int, strategy: int
) -> MixedProfile:
    """Copy of ``sigma`` with ``player`` switched to the pure ``strategy``."""
    check_profile(game, sigma)
    if not 0 <= player < game.num_players:
        raise IndexOutOfRange(f"player {player} out of range")
    count = game.shape[player]
    if not 0 <= strategy < count:
        raise IndexOutOfRange(f"strategy {strategy} out of range for player {player}")
    replaced = tuple(1 if t == strategy else 0 for t in range(count))
    dists = tuple(
        replaced if j == player else vector for j, vector in enumerate(sigma.dist)
    )
    return MixedProfile(dists)


def grid_min_regret_reference(
    game: Game, resolutions: Sequence[int] | int, budget: Optional[int] = None
) -> tuple[MixedProfile, Scalar]:
    """The first lattice profile (lexicographic vertex order) with the
    smallest max regret, and that regret: one gain table per profile."""
    tris = player_triangulations(game, resolutions, budget)
    best_profile = None
    best_regret = None
    for combo in itertools.product(*(t.vertices for t in tris)):
        profile = MixedProfile(tuple(combo))
        regret = max(gain_table(game, profile).best)
        if best_regret is None or regret < best_regret:
            best_profile = profile
            best_regret = regret
    return best_profile, best_regret


def reference_representative(cell: ProductCell) -> MixedProfile:
    """Per player, the average of the factor cell's exact vertices."""
    return MixedProfile(
        tuple(
            tuple(exact_div(sum(column), len(group)) for column in zip(*group))
            for group in cell.factor_vertices
        )
    )


def reference_cell_diameter(cell: ProductCell) -> float:
    """Each factor's largest squared distance between exact vertices,
    summed as a Fraction, then its square root."""
    worst: Scalar = 0
    for group in cell.factor_vertices:
        worst = worst + max(
            (
                sum((pa - pb) * (pa - pb) for pa, pb in zip(a, b))
                for a, b in itertools.combinations(group, 2)
            ),
            default=0,
        )
    return math.sqrt(float(worst))


def reference_classification(game: Game, cell: ProductCell) -> tuple:
    """``(case, witnesses, player)`` from a full gain table per vertex
    profile, with witnesses as their ``dist``."""
    tables = [gain_table(game, profile) for profile in cell.vertex_profiles]
    for i in range(game.num_players):
        if all(table.up[i] for table in tables):
            return PLAYER_UP_EVERYWHERE, None, i
    witnesses = []
    for i in range(game.num_players):
        for profile, table in zip(cell.vertex_profiles, tables):
            if not table.up[i]:
                witnesses.append(profile.dist)
                break
    return SOME_PLAYER_NOT_UP, tuple(witnesses), None
