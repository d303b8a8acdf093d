"""Kuhn triangulations of strategy simplices and their products.

A player's strategy simplex at resolution ``m`` is cut along the lattice
of points ``k/m``, with integer numerators ``k >= 0`` summing to ``m``.
Cells are built in those numerators: from every lattice point with mass
on coordinate 0, for every order of the axes ``1..d``, move one unit of
mass from coordinate ``a - 1`` to coordinate ``a``; each walk in which no
coordinate goes negative visits the vertices of one cell.  That yields
``m**d`` simplices on ``C(m+d, d)`` lattice vertices, every cell with the
same volume, and shared faces matching exactly — no hanging nodes.

A product cell combines one cell per player; its vertex profiles are all
combinations of the factor cells' vertices, which is exactly one profile
per pure strategy combination.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .errors import BudgetExceeded, ParameterOutOfRange, ResolutionZero
from .game import Game, MixedProfile
from .scalars import Scalar

DEFAULT_BUDGET = 10_000_000


def default_budget() -> int:
    """The cap on vertex profiles and product cells: ``NASH_BUDGET`` if
    set, else ``DEFAULT_BUDGET``."""
    raw = os.environ.get("NASH_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise ParameterOutOfRange(f"NASH_BUDGET={raw!r} is not an integer") from None
    if value < 1:
        raise ParameterOutOfRange(f"NASH_BUDGET={value} must be >= 1")
    return value


@dataclass(frozen=True)
class Triangulation:
    """All cells of one player's simplex grid.

    ``vertices`` are exact barycentric points in lexicographic order of
    their ``k/m`` numerators; each cell is an ascending tuple of vertex
    indices, and the cell list is sorted.
    """

    dim: int  # simplex dimension: strategy count minus one
    resolution: int
    vertices: tuple[tuple[Scalar, ...], ...]
    cells: tuple[tuple[int, ...], ...]


def _lattice_vertices(dim: int, resolution: int) -> list[tuple[int, ...]]:
    """Numerator vectors of length dim+1 summing to m, in lexicographic order."""
    if dim == 0:
        return [(resolution,)]
    return [
        (k,) + rest
        for k in range(resolution + 1)
        for rest in _lattice_vertices(dim - 1, resolution - k)
    ]


def _coordinate(k: int, m: int) -> Scalar:
    # keep exact ints at the corners so degenerate vectors stay cheap
    if k == 0:
        return 0
    if k == m:
        return 1
    return Fraction(k, m)


def triangulate(dim: int, resolution: int) -> Triangulation:
    """Build the grid for a ``dim``-dimensional strategy simplex."""
    if dim < 0:
        raise ResolutionZero(f"dimension {dim} is negative")
    if resolution < 1:
        raise ResolutionZero(f"resolution {resolution} must be >= 1")
    m = resolution
    numerators = _lattice_vertices(dim, m)
    index = {v: i for i, v in enumerate(numerators)}
    vertices = tuple(
        tuple(_coordinate(k, m) for k in v) for v in numerators
    )
    cells: list[tuple[int, ...]] = []
    for base in numerators:
        if base[0] == 0:
            continue
        for order in itertools.permutations(range(1, dim + 1)):
            point = list(base)
            cell = [index[base]]
            for axis in order:
                point[axis - 1] -= 1
                if point[axis - 1] < 0:
                    break
                point[axis] += 1
                cell.append(index[tuple(point)])
            else:
                cells.append(tuple(sorted(cell)))
    cells.sort()
    expected = m**dim
    assert len(cells) == expected, f"expected {expected} cells, built {len(cells)}"
    return Triangulation(
        dim=dim, resolution=m, vertices=vertices, cells=tuple(cells)
    )


@dataclass(frozen=True)
class ProductCell:
    """One grid cell per player, combined.

    ``vertex_profiles`` holds every combination of factor-cell vertices in
    lexicographic order over the per-factor vertex positions; there are as
    many of them as pure strategy combinations.
    """

    factor: tuple[int, ...]  # cell index per player
    factor_vertices: tuple[tuple[tuple[Scalar, ...], ...], ...]  # per player
    vertex_profiles: tuple[MixedProfile, ...]


def build_product_cell(
    triangulations: Sequence[Triangulation], factor: Sequence[int]
) -> ProductCell:
    factor = tuple(factor)
    factor_vertices = tuple(
        tuple(tri.vertices[v] for v in tri.cells[c])
        for tri, c in zip(triangulations, factor)
    )
    profiles = tuple(
        MixedProfile(tuple(combo))
        for combo in itertools.product(*factor_vertices)
    )
    return ProductCell(
        factor=factor, factor_vertices=factor_vertices, vertex_profiles=profiles
    )


def player_triangulations(
    game: Game,
    resolutions: Sequence[int] | int,
    budget: Optional[int] = None,
) -> tuple[Triangulation, ...]:
    """One triangulation per player; a single int applies to everyone.

    Every grid in the package is built here.  A grid whose vertex profile
    count or product cell count exceeds ``budget`` (``None`` means
    :func:`default_budget`; below 1 is :class:`ParameterOutOfRange`) is
    refused with :class:`BudgetExceeded` before any triangulation exists:
    player ``i`` with ``k`` strategies has ``C(m_i + k - 1, k - 1)``
    lattice vertices and ``m_i ** (k - 1)`` cells, and the profiles and
    product cells are their products.  ``needed`` is the larger count.
    """
    if isinstance(resolutions, int):
        resolutions = (resolutions,) * game.num_players
    resolutions = tuple(resolutions)
    if len(resolutions) != game.num_players:
        raise ResolutionZero(
            f"{len(resolutions)} resolutions for {game.num_players} players"
        )
    for m in resolutions:
        if m < 1:
            raise ResolutionZero(f"resolution {m} must be >= 1")
    if budget is None:
        budget = default_budget()
    elif budget < 1:
        raise ParameterOutOfRange(f"budget {budget} must be >= 1")
    profiles = math.prod(
        math.comb(m + count - 1, count - 1)
        for count, m in zip(game.shape, resolutions)
    )
    cells = math.prod(m ** (count - 1) for count, m in zip(game.shape, resolutions))
    needed = max(profiles, cells)
    if needed > budget:
        raise BudgetExceeded(needed, budget)
    return tuple(
        triangulate(count - 1, m) for count, m in zip(game.shape, resolutions)
    )


def vertex_profile_count(triangulations: Sequence[Triangulation]) -> int:
    return math.prod(len(tri.vertices) for tri in triangulations)


def product_cells(
    game: Game, resolutions: Sequence[int] | int
) -> Iterator[ProductCell]:
    """Yield every product cell in lexicographic factor order."""
    tris = player_triangulations(game, resolutions)
    for factor in itertools.product(*(range(len(t.cells)) for t in tris)):
        yield build_product_cell(tris, factor)


def cell_diameter(cell: ProductCell) -> float:
    """Largest Euclidean distance between two vertex profiles, over the
    concatenated strategy vectors.  Vertex profiles are all combinations
    of the factor cells' vertices, so the largest squared distance is the
    sum of each factor's largest.  Returned as a float: diameters are
    square roots and generally irrational."""
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


def simplex_cell_volume(tri: Triangulation, cell_index: int) -> Fraction:
    """Cell volume normalized so the whole simplex has volume one."""
    from .linalg import determinant

    cell = tri.cells[cell_index]
    base = tri.vertices[cell[0]]
    edges = [
        [tri.vertices[v][c] - base[c] for c in range(1, tri.dim + 1)]
        for v in cell[1:]
    ]
    det = determinant(edges)
    return abs(Fraction(det))


def locate_point(tri: Triangulation, point: Sequence[Scalar]) -> list[int]:
    """Indices of cells containing the barycentric ``point``."""
    from .linalg import solve_affine

    hits = []
    for idx, cell in enumerate(tri.cells):
        matrix = [
            [tri.vertices[v][c] for v in cell] for c in range(tri.dim + 1)
        ]
        matrix.append([1] * len(cell))
        rhs = list(point) + [1]
        solved = solve_affine(matrix, rhs)
        if solved is None:
            continue
        weights, basis = solved
        if basis:
            continue  # degenerate cell; cannot happen for a real grid
        if all(w >= 0 for w in weights):
            hits.append(idx)
    return hits
