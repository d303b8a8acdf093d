"""Signed-volume bookkeeping for the single-player label motion."""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from cellnash import (
    MixedProfile,
    errors,
    find_pre_equilibria,
    labeling,
    grid_labels,
    linalg,
    moved_cell_volume,
    root_label,
    serialize_game,
    total_volume_polynomial,
    triangulate,
    volume,
)
from cellnash.cli import EXIT_OK, run_cli

from conftest import FIXTURE_SEED, count_calls, make_game, one_player_games, random_game


def poly_eval(coeffs, t):
    value = 0
    power = 1
    for c in coeffs:
        value += c * power
        power *= t
    return value


def test_rejects_multi_player_games(mp):
    tri = triangulate(1, 2)
    with pytest.raises(errors.NotSinglePlayer):
        total_volume_polynomial(mp, tri)


def test_refuses_bad_t_cell_and_grid_dimension():
    game = make_game((2,), ((0, 1),))
    tri = triangulate(1, 2)
    result = total_volume_polynomial(game, tri)
    bad_ts = ("x", "0.5", 1j, None, float("nan"), float("inf"), 2, -1)
    for bad in bad_ts:
        with pytest.raises(errors.ParameterOutOfRange):
            moved_cell_volume(game, tri, 0, bad)
        with pytest.raises(errors.ParameterOutOfRange):
            result.value_at(bad)
        with pytest.raises(errors.ParameterOutOfRange):
            result.cell_values_at(bad)
    for cell in ("0", 0.0, True, 2, -1):
        with pytest.raises(errors.ParameterOutOfRange):
            moved_cell_volume(game, tri, cell, 0)
    # a grid whose dimension is not the strategy count minus one
    for wrong in (triangulate(2, 2), triangulate(0, 2)):
        with pytest.raises(errors.DimensionMismatch):
            total_volume_polynomial(game, wrong)
        with pytest.raises(errors.DimensionMismatch):
            moved_cell_volume(game, wrong, 0, 0)


def test_cert_segment_grows_to_full_length():
    # g=(0,1), m=4: the segment next to the maximizer vertex carries both
    # labels; its endpoints move to the two distinct pure strategies
    game = make_game((2,), ((0, 1),))
    tri = triangulate(1, 4)
    result = total_volume_polynomial(game, tri)
    cert_cell = find_pre_equilibria(game, 4)[0].cell.factor[0]
    poly = result.cell_polys[cert_cell]
    assert poly == (Fraction(1, 4), Fraction(3, 4))
    assert poly_eval(poly, 1) == 1


def test_same_label_segments_shrink_to_zero():
    game = make_game((2,), ((0, 1),))
    tri = triangulate(1, 4)
    result = total_volume_polynomial(game, tri)
    cert_cell = find_pre_equilibria(game, 4)[0].cell.factor[0]
    for idx, poly in enumerate(result.cell_polys):
        if idx == cert_cell:
            continue
        assert poly == (Fraction(1, 4), Fraction(-1, 4))
        assert poly_eval(poly, 1) == 0


def test_identity_motion_keeps_original_volume():
    game = make_game((3,), ((0, 1, 2),))
    tri = triangulate(2, 2)
    polys = total_volume_polynomial(game, tri).cell_polys
    for idx, poly in enumerate(polys):
        assert poly_eval(poly, 0) == Fraction(1, 4)
        assert moved_cell_volume(game, tri, idx, 0) == Fraction(1, 4)


def test_total_volume_exactly_constant_one():
    for game in one_player_games():
        dim = game.shape[0] - 1
        for m in (2, 4, 8):
            tri = triangulate(dim, m)
            result = total_volume_polynomial(game, tri)
            assert result.is_constant, (game.name, m, result.total)
            assert result.value_at(0) == 1
            assert result.value_at(1) == 1


def test_tied_payoffs_still_partition():
    # all labels tie-break to the first strategy except the forced vertex
    game = make_game((2,), ((0, 0),))
    tri = triangulate(1, 2)
    result = total_volume_polynomial(game, tri)
    assert result.is_constant
    assert result.value_at(Fraction(1, 3)) == 1
    mixed_label_cells = []
    vertices = tri.vertices
    for idx, cell in enumerate(tri.cells):
        labels = {root_label(game, MixedProfile((vertices[v],))).choices for v in cell}
        if len(labels) == 2:
            mixed_label_cells.append(idx)
    # only the segment touching the forced (0,1) vertex keeps both labels,
    # and it is the one cell still standing at t=1
    assert len(mixed_label_cells) == 1
    assert tuple(mixed_label_cells) == result.nonzero_cells_at_one


def test_nonzero_cells_at_one_are_certified():
    for game in one_player_games():
        dim = game.shape[0] - 1
        for m in (2, 4, 8):
            tri = triangulate(dim, m)
            result = total_volume_polynomial(game, tri)
            certified = {
                cert.cell.factor[0] for cert in find_pre_equilibria(game, m)
            }
            for idx in result.nonzero_cells_at_one:
                assert idx in certified


def test_polynomial_matches_independent_numeric_path():
    # the coefficient route and the direct determinant-at-t route must
    # agree at several sample points
    for game in one_player_games():
        dim = game.shape[0] - 1
        tri = triangulate(dim, 4)
        samples = [Fraction(k, dim + 2) for k in range(dim + 3)]
        result = total_volume_polynomial(game, tri)
        polys = result.cell_polys
        assert len(polys) == len(tri.cells)
        # a float t is read as the exact binary fraction it holds, by the
        # numeric path and by the polynomials' own evaluation
        for t in samples + [0.1, 0.3, 0.7]:
            moved = [moved_cell_volume(game, tri, idx, t) for idx in range(len(polys))]
            assert [poly_eval(poly, Fraction(t)) for poly in polys] == moved
            assert list(result.cell_values_at(t)) == moved
            assert not isinstance(result.value_at(t), float)


def test_three_strategy_cancellation():
    game = make_game((3,), ((0, 1, 2),))
    tri = triangulate(2, 2)
    result = total_volume_polynomial(game, tri)
    assert result.is_constant
    assert result.value_at(Fraction(1, 2)) == 1
    # the four triangles' quadratics cancel exactly, not approximately
    degree = max(len(p) for p in result.cell_polys)
    assert degree >= 2


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize(
    "payoffs", [(0, 1, 2, 3), (2, 2, 0, 1), (1, 1, 1, 0), (4,)], ids=str
)
def test_four_and_one_strategy_games(payoffs, m):
    # 3x3 determinants and cubic cell polynomials, and the dim-0 grid of a
    # one-strategy game, whose only cell keeps volume 1 throughout
    game = make_game((len(payoffs),), (payoffs,))
    tri = triangulate(len(payoffs) - 1, m)
    result = total_volume_polynomial(game, tri)
    assert result.total == (1,)
    assert len(result.cell_polys) == len(tri.cells)
    for idx, poly in enumerate(result.cell_polys):
        for t in (Fraction(1, 3), Fraction(1, 2), 0.7, 1):
            assert poly_eval(poly, Fraction(t)) == moved_cell_volume(game, tri, idx, t)
    certified = {cert.cell.factor[0] for cert in find_pre_equilibria(game, m)}
    assert set(result.nonzero_cells_at_one) <= certified


def test_cell_walk_moves_each_vertex_once(monkeypatch):
    # all 64 cells of a 3-strategy grid at m=8 share 45 vertices: one
    # root_label per vertex, none for a repeat walk at the same exact t,
    # and a fresh set for another t, since the memo holds one grid
    game = make_game((3,), ((2, 0, 1),))
    tri = triangulate(2, 8)
    polys = total_volume_polynomial(game, tri)
    monkeypatch.setattr(volume, "_moved", (None, {}))
    labels = count_calls(monkeypatch, labeling, "root_label")
    rows = count_calls(monkeypatch, labeling, "label_rows")
    for t, calls in ((Fraction(1, 2), 45), (0.5, 45), (Fraction(1, 3), 90)):
        moved = [moved_cell_volume(game, tri, idx, t) for idx in range(len(tri.cells))]
        assert len(labels) == calls and len(tri.numerators) == 45
        assert rows == []  # the numeric check stays off the grid labeler
        assert tuple(moved) == polys.cell_values_at(t)
        assert all(type(v) is Fraction for v in moved)


def poly_add(a, b):
    return tuple(x + y for x, y in itertools.zip_longest(a, b, fillvalue=0))


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def poly_trim(a):
    while len(a) > 1 and a[-1] == 0:
        a = a[:-1]
    return a


def reference_poly_det(matrix):
    # the first-column expansion over integer polynomials: (n - 1)!
    # products per determinant, kept as the reference the volume
    # polynomials must match
    n = len(matrix)
    if n == 0:
        return (1,)
    if n == 1:
        return matrix[0][0]
    total = (0,)
    for r in range(n):
        minor = [row[1:] for i, row in enumerate(matrix) if i != r]
        term = poly_mul(matrix[r][0], reference_poly_det(minor))
        total = poly_add(total, poly_mul((-1,), term) if r % 2 else term)
    return total


@pytest.mark.parametrize("d", range(9))
def test_interpolation_returns_factorial_times_polynomial(d):
    # random integer polynomials of degree at most d, the zero polynomial
    # and lower degrees included, come back from their values at 0..d
    rng = random.Random(d)
    for trial in range(30):
        degree = rng.randint(-1, d) if trial % 3 else d
        p = tuple(rng.randint(-50, 50) for _ in range(degree + 1)) or (0,)
        got = volume._interpolate([poly_eval(p, k) for k in range(d + 1)])
        assert all(type(c) is int for c in got)
        expected = tuple(math.factorial(d) * c for c in p)
        assert poly_trim(got) == poly_trim(expected), (d, trial)


@pytest.mark.parametrize("n", range(7))
def test_poly_det_matches_first_column_expansion(n):
    # det(A + t B) as the volume polynomials take it, linalg.determinant
    # read at t = 0..n and interpolated, over small integers; zeroed
    # entries force row swaps and, with a zeroed column, a singular matrix
    rng = random.Random(n)

    def entry():
        return tuple(rng.randint(-6, 6) for _ in "ab")

    for trial in range(20):
        matrix = [[entry() for _ in range(n)] for _ in range(n)]
        for row in matrix:
            for j in range(n):
                if rng.random() < 0.3:
                    row[j] = (0, 0)
        if n and trial % 5 == 0:
            for row in matrix:
                row[rng.randrange(n)] = (0, 0)
        values = [
            int(linalg.determinant([[a + k * b for a, b in row] for row in matrix]))
            for k in range(n + 1)
        ]
        got = volume._interpolate(values)
        expected = tuple(math.factorial(n) * c for c in reference_poly_det(matrix))
        assert poly_trim(got) == poly_trim(expected), (n, trial)


def edge_matrix(tri, cell, labels):
    # the degree-1 edge matrix of the moved cell, entries (a, b) for a + t b,
    # from the points themselves: vertex r moves to v_r + t (e_{l_r} - v_r)
    m = tri.resolution
    points = [tri.numerators[v] for v in cell]
    targets = [[m * (c == lab) for c in range(tri.dim + 1)] for lab in labels]
    return [
        [
            (p[c] - points[0][c], (q[c] - p[c]) - (targets[0][c] - points[0][c]))
            for c in range(1, tri.dim + 1)
        ]
        for p, q in zip(points[1:], targets[1:])
    ]


@pytest.mark.parametrize("strategies, step", [(5, 1), (6, 1), (7, 6)])
def test_volume_polynomials_match_first_column_expansion(strategies, step):
    # every cell of the m=2 grid at 5 and 6 strategies, every sixth at 7
    rng = random.Random(FIXTURE_SEED + strategies)
    game = random_game(rng, (strategies,))
    tri = triangulate(strategies - 1, 2)
    labels = grid_labels(game, (tri,))
    assert total_volume_polynomial(game, tri).total == (1,)
    for cell in tri.cells[::step]:
        cell_labels = [labels[v] for v in cell]
        expected = poly_trim(reference_poly_det(edge_matrix(tri, cell, cell_labels)))
        scale = tri.resolution**tri.dim * (1 if expected[0] > 0 else -1)
        poly = volume._volume_polynomial(tri, cell, cell_labels)
        assert poly == tuple(Fraction(c, scale) for c in expected)


def test_nine_strategy_volume_check_finishes_in_seconds(capsys, tmp_path):
    # 256 cells of 8x8 determinants; the first-column expansion took more
    # than 300 s at this size
    game = random_game(random.Random(FIXTURE_SEED), (9,), name="nine")
    path = tmp_path / "nine.json"
    path.write_text(serialize_game(game))
    start = time.perf_counter()
    code = run_cli(["volume-check", str(path), "--m", "2"])
    elapsed = time.perf_counter() - start
    data = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert (data["cells"], data["constant"], data["g1"]) == (256, True, "1")
    assert elapsed < 60
