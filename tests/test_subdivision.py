"""Simplex grids: vertex/cell counts, geometry, and product cells."""

import dataclasses
import itertools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cellnash import (
    MixedProfile,
    build_product_cell,
    cell_diameter,
    errors,
    find_pre_equilibria,
    grid_min_regret,
    labeling,
    player_triangulations,
    solve,
    subdivision,
    triangulate,
)
from cellnash.subdivision import Triangulation, vertex_profile_count

from conftest import MATCHING_PENNIES, make_game
from grid_reference import locate_point, product_cells, simplex_cell_volume


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


@pytest.mark.parametrize("dim", range(9))
def test_cells_match_staircase_reference_in_order(dim):
    # cell order fixes certificate order, and with it solve's tie-break;
    # the reference walks d! orders per base, so high dims stop early
    for m in range(1, {5: 5, 6: 4, 7: 3, 8: 2}.get(dim, 8) + 1):
        tri = triangulate(dim, m)
        assert tri.cells == staircase_cells(dim, m), (dim, m)
        numerators = [tuple(int(x * m) for x in v) for v in tri.vertices]
        assert numerators == sorted(numerators)


def test_many_strategy_grids_build_at_once(memo):
    # one walk per cell; trying d! axis orders per base point took about
    # 15 s at (10, 2), d times that at (11, 2), and would never finish at 39
    for dim, m in ((11, 2), (39, 1)):
        start = time.perf_counter()
        tri = triangulate(dim, m)
        assert time.perf_counter() - start < 1.0, (dim, m)
        assert (dim, m) in memo
        assert len(tri.numerators) == binomial(m + dim, dim)
        assert len(tri.cells) == m**dim
        assert list(tri.cells) == sorted(set(tri.cells))
        for cell in tri.cells:
            assert len(set(cell)) == dim + 1 and cell == tuple(sorted(cell))


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
        Fraction(sum(tri.numerators[v][c] for v in cell), m * (dim + 1))
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


def test_equal_grids_are_built_once_and_shared(monkeypatch):
    built = []
    build = subdivision._build
    monkeypatch.setattr(
        subdivision, "_build", lambda *args: built.append(args) or build(*args)
    )
    two_by_three = player_triangulations(make_game((2, 3), ((0,) * 6,) * 2), 4)
    assert two_by_three[0] is not two_by_three[1]
    assert sorted(built) == [(1, 4), (2, 4)]
    built.clear()
    tris = player_triangulations(make_game((2, 2, 2), ((0,) * 8,) * 3), (2, 2, 4))
    assert tris[0] is tris[1]
    assert tris[2] is not tris[0]
    assert (tris[0].resolution, tris[2].resolution) == (2, 4)
    assert sorted(built) == [(1, 2), (1, 4)]


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

    monkeypatch.setattr(subdivision, "_build", no_grid)
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

    monkeypatch.setattr(subdivision, "_build", no_grid)
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


def test_non_integer_resolution_rejected_before_any_grid(mp, monkeypatch):
    def no_grid(dim, resolution):
        raise AssertionError("triangulated a grid at a non-integer resolution")

    monkeypatch.setattr(subdivision, "_build", no_grid)
    calls = (
        (lambda: solve(mp, 0, m0=2.5), "resolution 2.5 is not an integer"),
        (lambda: solve(mp, 0, refine_factor=2.5), "refine factor 2.5 is not an integer"),
        (lambda: find_pre_equilibria(mp, 2.0), "resolution 2.0 is not an integer"),
        (lambda: grid_min_regret(mp, 4.0), "resolution 4.0 is not an integer"),
        (lambda: player_triangulations(mp, (2, "3")), "resolution '3' is not an integer"),
    )
    for call, message in calls:
        with pytest.raises(errors.ParameterOutOfRange) as info:
            call()
        assert str(info.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: triangulate("a", 2), "dimension 'a' is not an integer"),
        (lambda: triangulate(1, 2.5), "resolution 2.5 is not an integer"),
        (lambda: triangulate(True, 2), "dimension True is not an integer"),
        (lambda: triangulate(1, True), "resolution True is not an integer"),
        (lambda: player_triangulations(MATCHING_PENNIES, True), "resolution True is not an integer"),
        (lambda: player_triangulations(MATCHING_PENNIES, (2, False)), "resolution False is not an integer"),
        (lambda: player_triangulations(MATCHING_PENNIES, 2, budget=True), "budget True is not an integer"),
    ],
    ids=["dim-str", "m-float", "dim-bool", "m-bool", "all-bool", "one-bool", "budget-bool"],
)
def test_grids_refuse_non_integers_and_bools(call, message):
    with pytest.raises(errors.ParameterOutOfRange) as info:
        call()
    assert str(info.value) == message


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


def assert_form_as_derived(profile):
    fresh = MixedProfile(profile.dist)
    assert profile.numerators == fresh.numerators
    assert profile.denominators == fresh.denominators


def assert_cell_holds_the_grids_points(tris, factor):
    # the points and profiles a cell makes are its grids' points, entry
    # types included, and each profile's form is the one its dist derives
    cell = build_product_cell(tris, factor)
    points = tuple(
        tuple(map(tri.point, tri.cells[c])) for tri, c in zip(tris, factor)
    )
    assert repr(cell.factor_vertices) == repr(points)
    profiles = cell.vertex_profiles
    assert repr([p.dist for p in profiles]) == repr(list(itertools.product(*points)))
    for profile in profiles:
        assert_form_as_derived(profile)


@pytest.mark.parametrize("dim", range(4))
def test_vertex_profiles_carry_the_form_their_points_derive(dim):
    # read off the grid as k // g over m // g, never derived from the points
    for m in range(1, 9):
        tri = triangulate(dim, m)
        for c in range(len(tri.cells)):
            assert_cell_holds_the_grids_points((tri,), (c,))
        for v in range(len(tri.numerators)):
            profile = subdivision.lattice_profile((tri,), (v,))
            assert repr(profile.dist) == repr((tri.point(v),))
            assert_form_as_derived(profile)
    for tris in (
        (triangulate(dim, 6), triangulate(1, 4)),
        (triangulate(1, 3), triangulate(dim, 4), triangulate(0, 5)),
        (triangulate(dim, 12),),
    ):
        for factor in itertools.product(*(range(len(t.cells)) for t in tris)):
            assert_cell_holds_the_grids_points(tris, factor)


def test_build_product_cell_refuses_bad_factors():
    tris = player_triangulations(MATCHING_PENNIES, 2)
    for factor in ((9, 9), (0, 2), (-1, 0), ("0", 0), (0, 1.0), (True, 0)):
        with pytest.raises(errors.IndexOutOfRange):
            build_product_cell(tris, factor)
    for factor in ((0,), (0, 0, 0)):
        with pytest.raises(errors.DimensionMismatch):
            build_product_cell(tris, factor)
    assert build_product_cell(tris, (1, 0)).factor == (1, 0)


@pytest.fixture
def memo(monkeypatch):
    """An empty grid memo for one test; the process's memo is put back
    after it."""
    grids = {}
    monkeypatch.setattr(subdivision, "_grids", grids)
    return grids


def _leaves(value):
    if isinstance(value, tuple):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def _star_bits(stars, v):
    """Vertex ``v``'s star as one bitset over all cells, from its pieces."""
    span = 1 << stars.window
    return sum(
        bits[vertices.index(v)] << w * span
        for w, (vertices, bits) in enumerate(zip(stars.vertices, stars.bits))
        if v in vertices
    )


@pytest.mark.parametrize("dim", range(4))
def test_memo_returns_the_uncached_grid_and_keeps_it(dim, monkeypatch):
    # a fresh grid derives its stars in windows of 4 cells, several on
    # most grids here
    monkeypatch.setattr(subdivision, "STAR_WINDOW", 2)
    for m in range(1, 7):
        tri = triangulate(dim, m)
        fresh = subdivision._kuhn_grid(dim, m)
        assert fresh is not tri
        # its fields, the labeler's form too (the stars are no field)
        fields = [f.name for f in dataclasses.fields(tri)]
        for name in fields:
            assert getattr(tri, name) == getattr(fresh, name), (dim, m, name)
        # the grid holds ints only; the labeler's form is read off them
        assert {type(x) for x in _leaves(tuple(map(vars(tri).get, fields)))} == {int}
        assert [tri.supports[i] for i in tri.support_ids] == [
            tuple(s for s, k in enumerate(v) if k) for v in tri.numerators
        ]
        assert tri.columns == tuple(zip(*tri.numerators))
        # a vertex's star is the cells that hold it, over its pieces; a
        # window lists its vertices ascending, each piece within the window
        # (the fresh grid's, as the memo's may be derived with the default)
        stars = fresh.stars
        assert stars.window == 2
        assert len(stars.vertices) == -(-len(tri.cells) // 4)
        for vertices, bits in zip(stars.vertices, stars.bits):
            assert list(vertices) == sorted(set(vertices))
            assert all(0 < b < 1 << 4 for b in bits)
        for v in range(len(tri.numerators)):
            held = [c for c, cell in enumerate(tri.cells) if v in cell]
            assert _star_bits(stars, v) == sum(1 << c for c in held)
        # each point is its numerators over m, with ints at the corners
        points = [tuple(Fraction(k, m) for k in v) for v in tri.numerators]
        assert points == list(tri.vertices) == list(map(tri.point, range(len(points))))
        corners = [x for point in tri.vertices for x in point if x in (0, 1)]
        assert {type(x) for x in corners} == {int}
        assert triangulate(dim, m) is tri


def test_equality_hash_and_repr_ignore_the_labeler_form():
    tri = triangulate(2, 3)
    derived = ["supports", "support_ids", "columns"]
    assert [f.name for f in dataclasses.fields(tri) if not f.compare] == derived
    bare = dataclasses.replace(tri)
    for name in derived:
        object.__setattr__(bare, name, ())
    assert bare == tri
    assert hash(bare) == hash(tri)
    assert repr(bare) == repr(tri)
    assert not any(name in repr(tri) for name in derived)
    # the scan's stars are derived on first read, outside ==, hash and repr
    assert "stars" not in vars(bare) and tri.stars and bare == tri
    assert "stars" not in repr(tri)
    # built again from its integers, a grid derives the same form
    twin = Triangulation(2, 3, tri.numerators, tri.cells)
    assert [getattr(twin, name) for name in derived + ["stars"]] == [
        getattr(tri, name) for name in derived + ["stars"]
    ]
    assert tri != triangulate(2, 4)
    assert tri != dataclasses.replace(tri, cells=tri.cells[1:])
    assert tri != dataclasses.replace(tri, numerators=tri.numerators[::-1])


@pytest.mark.parametrize(
    "dim, resolution, error",
    [
        (True, 2, errors.ParameterOutOfRange),
        (1, True, errors.ParameterOutOfRange),
        (1.0, 2, errors.ParameterOutOfRange),
        (1, 2.0, errors.ParameterOutOfRange),
        ("a", 2, errors.ParameterOutOfRange),
        (1, 0, errors.ResolutionZero),
        (1, -1, errors.ResolutionZero),
        (-1, 2, errors.ResolutionZero),
        (1, 11, errors.BudgetExceeded),
    ],
    ids=["dim-true", "m-true", "dim-float", "m-float", "dim-str", "m-0", "m-minus-1",
         "dim-minus-1", "over-budget"],
)
def test_bad_grid_arguments_raise_every_call_and_never_enter_the_memo(
    dim, resolution, error, monkeypatch, memo
):
    cached = triangulate(1, 2)
    triangulate(1, 11)  # cached while the budget allows it
    monkeypatch.setenv("NASH_BUDGET", "11")  # C(12, 1) = 12 vertices at m=11
    for _ in range(2):
        with pytest.raises(error):
            triangulate(dim, resolution)
    assert list(memo) == [(1, 2), (1, 11)]
    assert triangulate(1, 2) is cached  # 1 == True, yet only 1 finds it


def test_budget_refuses_a_grid_before_the_builder(monkeypatch):
    built = []
    monkeypatch.setattr(subdivision, "_build", lambda *args: built.append(args))
    monkeypatch.delenv("NASH_BUDGET", raising=False)
    for dim, m, needed in ((1, 10**30, 10**30 + 1), (40, 2, 2**40)):
        with pytest.raises(errors.BudgetExceeded) as info:
            triangulate(dim, m)
        assert (info.value.needed, info.value.budget) == (needed, 10_000_000)
    monkeypatch.setenv("NASH_BUDGET", "10")
    with pytest.raises(errors.BudgetExceeded) as info:
        triangulate(1, 10)
    assert (info.value.needed, info.value.budget) == (11, 10)
    triangulate(1, 9)  # C(10, 1) = 10 vertices, 9 cells: allowed
    assert built == [(1, 9)]


def test_memo_holds_at_most_its_size(memo, monkeypatch):
    # a 1-D grid at m holds 2(m + 1) + 2m integers in its numerators and
    # cells, and may hold a star piece, two integers, per (cell, vertex)
    # entry, 4m more: 10, 18, 26 and 34 for m = 1..4
    sizes = {m: subdivision._size(triangulate(1, m)) for m in range(1, 5)}
    assert sizes == {1: 10, 2: 18, 3: 26, 4: 34}
    for m in sizes:  # one window: every vertex, one piece each
        assert triangulate(1, m).stars.vertices == (tuple(range(m + 1)),)
    memo.clear()
    monkeypatch.setattr(subdivision, "GRID_MEMO_LIMIT", 10 + 18 + 26)
    game = make_game((2,), ((0, 1),))
    for m in (1, 2, 3):
        labeling.label_rows(game, player_triangulations(game, m))
    assert list(memo) == [(1, 1), (1, 2), (1, 3)]
    oldest = triangulate(1, 1)  # used again: now the most recent
    assert list(memo) == [(1, 2), (1, 3), (1, 1)]
    # the least recently used grids go first, until the new one fits
    newest = triangulate(1, 4)
    assert list(memo) == [(1, 1), (1, 4)]
    assert triangulate(1, 4) is newest and triangulate(1, 1) is oldest
    # a dropped grid is built again, equal to the one it replaces; m=4
    # was used before m=1 just above, so it goes
    rebuilt = triangulate(1, 2)
    assert rebuilt == subdivision._kuhn_grid(1, 2)
    assert list(memo) == [(1, 1), (1, 2)]
    assert sum(map(subdivision._size, memo.values())) == 10 + 18


@pytest.mark.parametrize("dim, m", [(2, 60), (3, 16)])
def test_stars_hold_bounded_pieces_per_cell_entry(dim, m):
    # a star as one bitset would span up to 2m^(dim-1) cells; in windows,
    # each (cell, vertex) entry adds to one piece at most a window wide
    tri = subdivision._kuhn_grid(dim, m)
    stars = tri.stars
    entries = (dim + 1) * len(tri.cells)
    pieces = sum(map(len, stars.vertices))
    assert len(stars.vertices) > 1 and pieces <= entries
    width = 1 << stars.window
    assert all(b.bit_length() <= width for bits in stars.bits for b in bits)
    assert sum(b.bit_length() for bits in stars.bits for b in bits) <= width * entries
    # the memo counts two integers per piece the grid may hold
    held = (dim + 1) * (len(tri.numerators) + len(tri.cells)) + 2 * pieces
    assert subdivision._size(tri) >= held


def test_a_grid_over_the_whole_limit_is_returned_but_not_kept(memo, monkeypatch):
    monkeypatch.setattr(subdivision, "GRID_MEMO_LIMIT", 30)
    small = triangulate(1, 2)  # 18 integers
    big = triangulate(1, 4)  # 34 integers
    assert big == subdivision._kuhn_grid(1, 4)
    assert list(memo) == [(1, 2)]
    assert triangulate(1, 4) is not big
    assert triangulate(1, 2) is small


def test_an_explicit_budget_is_the_one_cap_on_its_grids(monkeypatch):
    game = make_game((3,), ((0, 1, 2),))
    # 3 strategies at m=4: 15 lattice vertices and 16 cells
    monkeypatch.setenv("NASH_BUDGET", "10")
    assert player_triangulations(game, 4, budget=100) == (subdivision._kuhn_grid(2, 4),)
    assert find_pre_equilibria(game, 4, budget=16)
    # without budget= the environment's cap holds, and a direct
    # triangulate keeps its own check
    for call in (lambda: player_triangulations(game, 4), lambda: triangulate(2, 4)):
        with pytest.raises(errors.BudgetExceeded) as info:
            call()
        assert (info.value.needed, info.value.budget) == (16, 10)
    # past the default cap: C(4473, 2) vertices and 4471**2 cells, never built here
    monkeypatch.delenv("NASH_BUDGET")
    built = []
    monkeypatch.setattr(subdivision, "_build", lambda *args: built.append(args) or args)
    assert player_triangulations(game, 4471, budget=10**8) == ((2, 4471),)
    assert built == [(2, 4471)]
    with pytest.raises(errors.BudgetExceeded) as info:
        triangulate(2, 4471)
    assert (info.value.needed, info.value.budget) == (4471**2, 10_000_000)
