"""Kuhn triangulations of strategy simplices and their products.

A player's strategy simplex at resolution ``m`` is cut along the lattice
of points ``k/m``, with integer numerators ``k >= 0`` summing to ``m``.
Cells are built in those numerators.  Axis ``a`` in ``1..d`` moves one
unit of mass from coordinate ``a - 1`` to coordinate ``a``.  From each
lattice point with mass on coordinate 0, a depth-first walk takes every
axis once, and may take axis ``a`` only while coordinate ``a - 1`` holds
mass; it runs without recursion, on one point it steps and undoes in
place.  The lowest unused axis always may, so
no walk dead-ends and each finished walk is one cell: ``m**d`` simplices
on ``C(m+d, d)`` lattice vertices, every cell with the same volume, and
shared faces matching exactly — no hanging nodes.

A grid is held in integers only, and exact points are made on demand.
It depends only on its dimension and resolution, never on payoffs, so
each one is built once per process and shared: one memo keeps the grids
used last while they hold at most ``GRID_MEMO_LIMIT`` integers together.
One check, of resolutions and budget, comes before that memo.  A grid
also holds the scan's form, derived on its first read: per vertex its
*star*, the cells that hold it, cut into windows of ``2**STAR_WINDOW``
consecutive cells, each piece a bitset relative to its window's first
cell (:class:`Stars`).  So the stars hold at most a window's bits per
(cell, vertex) entry, linear in the cells; one bitset per star would
span up to ``2*m**(dim-1)`` cells, and a full-width one every cell.

A product cell combines one cell per player; its vertex profiles are all
combinations of the factor cells' vertices, which is exactly one profile
per pure strategy combination.  It holds its factor and, per factor, the
grid's numerators of its vertices and the resolution, nothing else: its
points and vertex profiles are made from those on each access, each
profile's integer form straight from the grid (``k // g`` over
``m // g``, ``g = gcd(m, *k)``), and its diameter and barycenter are
summed on integers and divided once.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    IndexOutOfRange,
    ParameterOutOfRange,
    ResolutionZero,
)
from .game import Game, MixedProfile, _cached, _profile, _ratios, _reduced
from .scalars import Scalar

DEFAULT_BUDGET = 10_000_000
GRID_MEMO_LIMIT = DEFAULT_BUDGET  # integers the memoized grids hold together
STAR_WINDOW = 8  # a star window spans 2**STAR_WINDOW consecutive cells


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


def check_int(value, name: str) -> None:
    """Refuse a ``value`` that is not an ``int`` as
    :class:`ParameterOutOfRange`; a ``bool`` is refused too."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterOutOfRange(f"{name} {value!r} is not an integer")


class Stars(NamedTuple):
    """A grid's vertex stars, cut into windows of ``2**window``
    consecutive cells.  ``vertices[w]`` are the vertices that the cells
    of window ``w`` hold, ascending; ``bits[w]`` has per such vertex a
    piece, the bitset whose bit ``k`` is set when the window's cell ``k``
    holds it.  A vertex's star is its pieces over the windows.  A piece
    is at most a window wide, and each (cell, vertex) entry adds to one
    piece, so the stars hold at most ``(dim + 1) * len(cells)`` pieces."""

    window: int
    vertices: tuple[tuple[int, ...], ...]
    bits: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Triangulation:
    """All cells of one player's simplex grid, in integers: each vertex's
    ``numerators`` over ``resolution`` in lexicographic order, and each
    cell as an ascending tuple of vertex indices, the cells sorted.  The
    labeler's form is derived on construction: the distinct vertex
    ``supports``, each vertex's index into them, and ``columns[s]``,
    every vertex's numerator on strategy ``s``.  The scan's form,
    :attr:`stars`, is derived on its first read and then held."""

    dim: int  # simplex dimension: strategy count minus one
    resolution: int
    numerators: tuple[tuple[int, ...], ...]
    cells: tuple[tuple[int, ...], ...]
    supports: tuple[tuple[int, ...], ...] = _cached()
    support_ids: tuple[int, ...] = _cached()
    columns: tuple[tuple[int, ...], ...] = _cached()

    def __post_init__(self):
        strategies = range(self.dim + 1)
        found: dict[tuple[int, ...], int] = {}
        ids = tuple(
            found.setdefault(tuple(itertools.compress(strategies, k)), len(found))
            for k in self.numerators
        )
        object.__setattr__(self, "supports", tuple(found))
        object.__setattr__(self, "support_ids", ids)
        object.__setattr__(self, "columns", tuple(zip(*self.numerators)))

    @functools.cached_property
    def stars(self) -> Stars:
        """Each vertex's star, the cells that hold it, in windows of
        ``2**STAR_WINDOW`` consecutive cells.  Not a field, so it is
        outside ``==``, hash and repr like the labeler's form."""
        span = 1 << STAR_WINDOW
        steps = [1 << k for k in range(span)]
        vertices, bits = [], []
        for base in range(0, len(self.cells), span):
            held: dict[int, int] = {}  # vertex -> its cells in this window
            get = held.get
            for cell, step in zip(self.cells[base : base + span], steps):
                for v in cell:
                    held[v] = get(v, 0) | step
            order = sorted(held)
            vertices.append(tuple(order))
            bits.append(tuple(map(held.__getitem__, order)))
        return Stars(STAR_WINDOW, tuple(vertices), tuple(bits))

    def point(self, v: int) -> tuple[Scalar, ...]:
        """Vertex ``v`` as an exact point, with ``int`` corners."""
        return _ratios(self.numerators[v], self.resolution)

    @property
    def vertices(self) -> tuple[tuple[Scalar, ...], ...]:
        """Every vertex's :meth:`point`, made anew on each access."""
        return tuple(map(self.point, range(len(self.numerators))))


def _lattice_vertices(dim: int, resolution: int) -> list[tuple[int, ...]]:
    """Numerator vectors of length dim+1 summing to m, in lexicographic order."""
    if dim == 0:
        return [(resolution,)]
    return [
        (k,) + rest
        for k in range(resolution + 1)
        for rest in _lattice_vertices(dim - 1, resolution - k)
    ]


def triangulate(dim: int, resolution: int) -> Triangulation:
    """The grid for a ``dim``-dimensional strategy simplex, built once per
    process while it stays in the grid memo.

    ``dim`` or ``resolution`` other than an ``int`` (a ``bool`` too) is a
    :class:`ParameterOutOfRange`.  The rest is :func:`player_triangulations`'
    check for one player with ``dim + 1`` strategies under
    :func:`default_budget`: a grid with more than that many lattice
    vertices ``C(m+dim, dim)`` or cells ``m**dim`` is refused with
    :class:`BudgetExceeded` before it is built or looked up, ``needed``
    being the larger count.  Every check runs on every call."""
    check_int(dim, "dimension")
    if dim < 0:
        raise ResolutionZero(f"dimension {dim} is negative")
    return _checked_grids((dim + 1,), (resolution,), None)[0]


_grids: dict[tuple[int, int], Triangulation] = {}  # least recently used first


def _size(tri: Triangulation) -> int:
    # the integers in its numerators and cells, and two (a vertex and its
    # bits) for each star piece the grid may hold, at most one per (cell,
    # vertex) entry: counted whether or not the stars are derived yet
    return (tri.dim + 1) * (len(tri.numerators) + 3 * len(tri.cells))


def _build(dim: int, m: int) -> Triangulation:
    """The memoized grid.  A grid used moves to the back; a new one drops
    grids from the front until the memo holds at most ``GRID_MEMO_LIMIT``
    integers, and is returned but not kept if it alone holds more."""
    tri = _grids.pop((dim, m), None)
    if tri is None:
        tri = _kuhn_grid(dim, m)
        if _size(tri) > GRID_MEMO_LIMIT:
            return tri
        held = sum(map(_size, _grids.values())) + _size(tri)
        while held > GRID_MEMO_LIMIT:
            held -= _size(_grids.pop(next(iter(_grids))))
    _grids[dim, m] = tri
    return tri


def _kuhn_grid(dim: int, m: int) -> Triangulation:
    numerators = _lattice_vertices(dim, m)
    index = {v: i for i, v in enumerate(numerators)}
    cells: list[tuple[int, ...]] = []
    for base in numerators:
        if base[0] == 0:
            continue
        # one walk, changed in place: its point, the vertices it visited, the
        # axes it took and which are free, and the lowest axis to try next
        point, cell, taken, a = list(base), [index[base]], [], 1
        free = [True] * (dim + 1)
        while True:
            while a <= dim and not (free[a] and point[a - 1]):
                a += 1
            if a <= dim:  # step along axis a
                free[a] = False
                point[a - 1] -= 1
                point[a] += 1
                cell.append(index[tuple(point)])
                taken.append(a)
                a = 1
                continue
            if len(taken) == dim:  # each step lowered the index
                cells.append(tuple(reversed(cell)))
            if not taken:
                break
            a = taken.pop()  # undo the last step, then try the axes after it
            free[a] = True
            point[a - 1] += 1
            point[a] -= 1
            cell.pop()
            a += 1
    cells.sort()
    expected = m**dim
    assert len(cells) == expected, f"expected {expected} cells, built {len(cells)}"
    return Triangulation(
        dim=dim, resolution=m, numerators=tuple(numerators), cells=tuple(cells)
    )


@dataclass(frozen=True)
class ProductCell:
    """One grid cell per player, combined: ``factor`` holds the cell index
    per player, and ``lattice`` per factor its vertices' numerator rows
    and the grid's resolution, their denominator, as
    :func:`build_product_cell` reads them off the grids.

    ``factor_vertices`` and ``vertex_profiles`` are made from ``lattice``
    on each access, and kept nowhere.  ``vertex_profiles`` holds every
    combination of factor-cell vertices in lexicographic order over the
    per-factor vertex positions; there are as many of them as pure
    strategy combinations.
    """

    factor: tuple[int, ...]
    lattice: tuple[tuple[tuple[tuple[int, ...], ...], int], ...]

    @property
    def factor_vertices(self) -> tuple[tuple[tuple[Scalar, ...], ...], ...]:
        """Per player, its factor cell's vertices as exact points."""
        return tuple(tuple(_ratios(row, m) for row in rows) for rows, m in self.lattice)

    @property
    def vertex_profiles(self) -> tuple[MixedProfile, ...]:
        axes = [[_reduced(row, m) for row in rows] for rows, m in self.lattice]
        return tuple(_profile(*zip(*combo)) for combo in itertools.product(*axes))


def lattice_profile(
    triangulations: Sequence[Triangulation], vertices: Sequence[int]
) -> MixedProfile:
    """The profile at vertex ``vertices[i]`` of each grid, its integer form
    read off the grids' numerators."""
    forms = (
        _reduced(tri.numerators[v], tri.resolution)
        for tri, v in zip(triangulations, vertices)
    )
    return _profile(*zip(*forms))


def build_product_cell(
    triangulations: Sequence[Triangulation], factor: Sequence[int]
) -> ProductCell:
    """The product cell with cell ``factor[i]`` of player ``i``'s grid; a
    factor of the wrong length is a :class:`DimensionMismatch`, and a cell
    index that is not an ``int`` in range an :class:`IndexOutOfRange`."""
    factor = tuple(factor)
    if len(factor) != len(triangulations):
        raise DimensionMismatch(
            f"factor {factor} for {len(triangulations)} triangulations"
        )
    for tri, c in zip(triangulations, factor):
        if type(c) is not int or not 0 <= c < len(tri.cells):
            raise IndexOutOfRange(f"cell index {c!r} out of range")
    return ProductCell(
        factor=factor,
        lattice=tuple(
            (tuple(map(tri.numerators.__getitem__, tri.cells[c])), tri.resolution)
            for tri, c in zip(triangulations, factor)
        ),
    )


def player_triangulations(
    game: Game,
    resolutions: Sequence[int] | int,
    budget: Optional[int] = None,
) -> tuple[Triangulation, ...]:
    """One triangulation per player; a single int applies to everyone.

    Every grid in the package comes from here or from
    :func:`triangulate`, through one check and then one memo, so it is
    built once per process (while it stays in that memo) and shared: by
    players with the same strategy count and resolution, and by later
    calls.  A resolution that is not an ``int``, ``bool`` included, is a
    :class:`ParameterOutOfRange`.  A grid whose vertex profile count or
    product cell count exceeds ``budget`` (``None`` means
    :func:`default_budget`; a budget that is not an ``int``, or is below
    1, is :class:`ParameterOutOfRange`) is refused with
    :class:`BudgetExceeded` before any triangulation exists, and that is
    its only cap: player ``i`` with ``k`` strategies has
    ``C(m_i + k - 1, k - 1)`` lattice vertices and ``m_i ** (k - 1)``
    cells, and the profiles and product cells are their products.
    ``needed`` is the larger count.
    """
    if not isinstance(resolutions, Iterable):
        resolutions = (resolutions,) * game.num_players
    return _checked_grids(game.shape, tuple(resolutions), budget)


def _checked_grids(
    shape: Sequence[int], resolutions: tuple, budget: Optional[int]
) -> tuple[Triangulation, ...]:
    # every grid's one check, then the memo: see player_triangulations
    if len(resolutions) != len(shape):
        raise ResolutionZero(f"{len(resolutions)} resolutions for {len(shape)} players")
    for m in resolutions:
        check_int(m, "resolution")
        if m < 1:
            raise ResolutionZero(f"resolution {m} must be >= 1")
    if budget is None:
        budget = default_budget()
    else:
        check_int(budget, "budget")
        if budget < 1:
            raise ParameterOutOfRange(f"budget {budget} must be >= 1")
    pairs = list(zip(shape, resolutions))
    profiles = math.prod(math.comb(m + count - 1, count - 1) for count, m in pairs)
    cells = math.prod(m ** (count - 1) for count, m in pairs)
    needed = max(profiles, cells)
    if needed > budget:
        raise BudgetExceeded(needed, budget)
    grids = {pair: _build(pair[0] - 1, pair[1]) for pair in set(pairs)}
    return tuple(map(grids.__getitem__, pairs))


def vertex_profile_count(triangulations: Sequence[Triangulation]) -> int:
    return math.prod(len(tri.numerators) for tri in triangulations)


def cell_diameter(cell: ProductCell) -> float:
    """Largest Euclidean distance between two vertex profiles, over the
    concatenated strategy vectors.  Vertex profiles are all combinations
    of the factor cells' vertices, so the largest squared distance is the
    sum of each factor's largest.  Each is summed on the factor's lattice
    numerators, over the square of their denominator, and the sum is
    divided once, correctly rounded.  Returned as a float: diameters are
    square roots and generally irrational."""
    den = math.lcm(*(m * m for _, m in cell.lattice))
    total = 0
    for rows, m in cell.lattice:
        pairs = itertools.combinations(rows, 2)
        worst = max((sum((a - b) ** 2 for a, b in zip(*p)) for p in pairs), default=0)
        total += worst * (den // (m * m))
    return math.sqrt(total / den)
