"""Simplex grids: vertex/cell counts, geometry, and product cells."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cellnash import (
    Game,
    build_product_cell,
    cell_diameter,
    errors,
    find_pre_equilibria,
    grid_min_regret,
    player_triangulations,
    product_cells,
    solve,
    subdivision,
    triangulate,
)
from cellnash.subdivision import (
    locate_point,
    simplex_cell_volume,
    vertex_profile_count,
)

from conftest import MATCHING_PENNIES, make_game


def binomial(n, k):
    return math.comb(n, k)


def test_interval_subdivision_counts():
    tri = triangulate(1, 4)
    assert len(tri.vertices) == 5
    assert len(tri.cells) == 4
    expected = {(Fraction(k, 4), Fraction(4 - k, 4)) for k in range(5)}
    assert {tuple(map(Fraction, v)) for v in tri.vertices} == expected


def test_triangle_subdivision_counts():
    tri = triangulate(2, 2)
    assert len(tri.vertices) == 6
    assert len(tri.cells) == 4


def test_identity_subdivision():
    tri = triangulate(2, 1)
    assert len(tri.cells) == 1
    assert len(tri.vertices) == 3
    assert set(tri.cells[0]) == {0, 1, 2}


def test_zero_resolution_rejected():
    with pytest.raises(errors.ResolutionZero):
        triangulate(2, 0)


def test_dim_zero_single_point():
    tri = triangulate(0, 3)
    assert tri.vertices == ((1,),)
    assert tri.cells == ((0,),)


def staircase_cells(dim, m):
    """Reference cells from the cube construction: map the simplex to
    staircase coordinates ``m >= z_1 >= ... >= z_d >= 0``, walk every unit
    cube from every base point in every axis order, and keep the walks
    that stay monotone.  Vertex indices follow lexicographic numerators."""
    lattice = sorted(
        k for k in itertools.product(range(m + 1), repeat=dim + 1) if sum(k) == m
    )
    index = {k: i for i, k in enumerate(lattice)}

    def numerators(z):
        return tuple([m - z[0]] + [z[i] - z[i + 1] for i in range(dim - 1)] + [z[-1]])

    def monotone(z):
        return all(a >= b for a, b in zip(z, z[1:]))

    if dim == 0:
        return ((0,),)
    cells = set()
    for base in itertools.product(range(m), repeat=dim):
        if not monotone(base):
            continue
        for order in itertools.permutations(range(dim)):
            walk = [base]
            cursor = list(base)
            for axis in order:
                cursor[axis] += 1
                if not monotone(cursor):
                    break
                walk.append(tuple(cursor))
            else:
                cells.add(tuple(sorted(index[numerators(z)] for z in walk)))
    return tuple(sorted(cells))


@pytest.mark.parametrize("dim", range(5))
def test_cells_match_staircase_reference_in_order(dim):
    # cell order fixes certificate order, and with it solve's tie-break
    for m in range(1, 9):
        tri = triangulate(dim, m)
        assert tri.cells == staircase_cells(dim, m), (dim, m)
        numerators = [tuple(int(x * m) for x in v) for v in tri.vertices]
        assert numerators == sorted(numerators)


@given(st.integers(1, 3), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_counts_closed_form(dim, m):
    tri = triangulate(dim, m)
    assert len(tri.vertices) == binomial(m + dim, dim)
    assert len(tri.cells) == m**dim


@given(st.integers(1, 3), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_vertices_lie_on_lattice_and_sum_to_one(dim, m):
    tri = triangulate(dim, m)
    for vertex in tri.vertices:
        assert len(vertex) == dim + 1
        assert sum(vertex) == 1
        for coord in vertex:
            assert coord * m == int(coord * m)
            assert coord >= 0


@given(st.integers(1, 3), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_cells_have_full_vertex_sets(dim, m):
    tri = triangulate(dim, m)
    for cell in tri.cells:
        assert len(cell) == dim + 1
        assert len(set(cell)) == dim + 1
        assert cell == tuple(sorted(cell))


@given(st.integers(1, 3), st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_volumes_partition_the_simplex(dim, m):
    # every cell has normalized volume 1/m^dim; they tile the simplex
    tri = triangulate(dim, m)
    volumes = [simplex_cell_volume(tri, idx) for idx in range(len(tri.cells))]
    assert all(v == Fraction(1, m**dim) for v in volumes)
    assert sum(volumes) == 1


@given(st.integers(1, 3), st.integers(1, 4), st.integers(0, 30))
@settings(max_examples=25, deadline=None)
def test_cell_barycenter_lies_in_exactly_that_cell(dim, m, pick):
    tri = triangulate(dim, m)
    idx = pick % len(tri.cells)
    cell = tri.cells[idx]
    barycenter = tuple(
        sum(Fraction(tri.vertices[v][c]) for v in cell) / (dim + 1)
        for c in range(dim + 1)
    )
    assert locate_point(tri, barycenter) == [idx]


def test_full_cell_diameter_two_by_two():
    game = MATCHING_PENNIES
    cells = list(product_cells(game, 1))
    assert len(cells) == 1
    assert cell_diameter(cells[0]) == pytest.approx(2.0)


def test_segment_diameter_at_m_four():
    game = make_game((2,), ((0, 1),))
    cells = list(product_cells(game, 4))
    for cell in cells:
        assert cell_diameter(cell) == pytest.approx(math.sqrt(2) / 4)


def test_doubling_resolution_halves_diameter():
    game = MATCHING_PENNIES
    for m in (1, 2, 4):
        d_coarse = max(cell_diameter(c) for c in product_cells(game, m))
        d_fine = max(cell_diameter(c) for c in product_cells(game, 2 * m))
        assert d_fine == pytest.approx(d_coarse / 2)


def test_product_cell_counts_2x2():
    game = MATCHING_PENNIES
    cells = list(product_cells(game, (4, 4)))
    assert len(cells) == 16
    assert all(len(c.vertex_profiles) == 4 for c in cells)


def test_product_cell_counts_2x2x2():
    game = make_game((2, 2, 2), ((0,) * 8, (0,) * 8, (0,) * 8))
    cells = list(product_cells(game, (2, 2, 2)))
    assert len(cells) == 8
    assert all(len(c.vertex_profiles) == 8 for c in cells)


def test_trivial_resolution_single_cell_covers_pure_profiles():
    game = make_game((2, 3), ((0,) * 6, (0,) * 6))
    cells = list(product_cells(game, (1, 1)))
    assert len(cells) == 1
    profiles = cells[0].vertex_profiles
    assert len(profiles) == 6
    # each vertex profile is a pair of pure distributions
    for profile in profiles:
        for vector in profile.dist:
            assert sorted(vector) == [0] * (len(vector) - 1) + [1]


def test_per_player_resolutions():
    game = make_game((2, 3), ((0,) * 6, (0,) * 6))
    tris = player_triangulations(game, (2, 3))
    assert len(tris[0].cells) == 2
    assert len(tris[1].cells) == 9
    assert vertex_profile_count(tris) == 3 * binomial(5, 2)


@pytest.mark.parametrize(
    "shape, resolutions",
    [
        ((2,), (5,)),
        ((2, 3), (2, 3)),
        ((3, 3), (4, 1)),
        ((2, 2, 2), (1, 2, 3)),
        ((4, 1, 3), (2, 7, 3)),
    ],
)
def test_budget_uses_exact_vertex_profile_count(shape, resolutions):
    size = math.prod(shape)
    game = make_game(shape, tuple((0,) * size for _ in shape))
    built = vertex_profile_count(player_triangulations(game, resolutions))
    # the closed form the budget is checked against, before anything is built
    assert player_triangulations(game, resolutions, budget=built)
    with pytest.raises(errors.BudgetExceeded) as info:
        player_triangulations(game, resolutions, budget=built - 1)
    assert info.value.needed == built


def test_budget_refuses_grid_before_building_it(mp, monkeypatch):
    def no_grid(dim, resolution):
        raise AssertionError("triangulated an over-budget grid")

    monkeypatch.setattr(subdivision, "triangulate", no_grid)
    calls = (
        lambda: find_pre_equilibria(mp, 200, budget=10),
        lambda: solve(mp, 0, m0=200, budget=10),
        lambda: grid_min_regret(mp, 200, budget=10),
    )
    for call in calls:
        with pytest.raises(errors.BudgetExceeded) as info:
            call()
        assert info.value.needed == 201**2


def test_budget_bounds_the_cell_walk(monkeypatch):
    # 3x3 at m=64: 2145**2 = 4,601,025 vertex profiles pass 10**7, but the
    # scan would walk 64**2 * 64**2 = 16,777,216 product cells
    def no_grid(dim, resolution):
        raise AssertionError("triangulated an over-budget grid")

    monkeypatch.setattr(subdivision, "triangulate", no_grid)
    monkeypatch.delenv("NASH_BUDGET", raising=False)
    game = make_game((3, 3), ((0,) * 9, (0,) * 9))
    for call in (
        lambda: player_triangulations(game, 64),
        lambda: find_pre_equilibria(game, 64),
        lambda: solve(game, 0, m0=64),
    ):
        with pytest.raises(errors.BudgetExceeded) as info:
            call()
        assert info.value.needed == 16777216
        assert info.value.budget == 10_000_000


@pytest.mark.parametrize("budget", [0, -5])
def test_budget_below_one_rejected(mp, budget):
    calls = (
        lambda: player_triangulations(mp, 2, budget=budget),
        lambda: find_pre_equilibria(mp, 2, budget=budget),
        lambda: solve(mp, 1, budget=budget),
        lambda: grid_min_regret(mp, 2, budget=budget),
    )
    for call in calls:
        with pytest.raises(errors.ParameterOutOfRange) as info:
            call()
        assert str(info.value) == f"budget {budget} must be >= 1"


def test_build_product_cell_orders_profiles_lexicographically():
    game = make_game((2, 2), ((0,) * 4, (0,) * 4))
    tris = player_triangulations(game, 2)
    cell = build_product_cell(tris, (0, 0))
    assert len(cell.vertex_profiles) == 4
    dists = [p.dist for p in cell.vertex_profiles]
    assert dists == sorted(dists)
