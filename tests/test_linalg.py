"""Exact determinants and linear solves against Fraction references."""

import math
import random
from fractions import Fraction

import pytest

from cellnash.errors import DimensionMismatch
from cellnash.linalg import determinant, eliminate, solve_affine

from linalg_reference import reference_determinant, reference_rref, reference_solve_affine


DRAWS = {
    "int": lambda rng: rng.randint(-6, 6),
    "rational": lambda rng: Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
    "float": lambda rng: rng.choice((0.0, 0.1, -0.25, 1.5, 3.0, -2.2, 1e-3)),
    "mixed": lambda rng: rng.choice(
        (rng.randint(-3, 3), Fraction(rng.randint(-5, 5), 3), 0.5)
    ),
}


def random_system(rng, draw, rows, cols):
    matrix = [[draw(rng) for _ in range(cols)] for _ in range(rows)]
    rank = rng.randint(1, max(1, min(rows, cols)))
    # rebuild some rows as combinations of the first `rank`: rank-deficient
    # systems, half of them made inconsistent on the right-hand side
    for r in range(rank, rows):
        if rng.random() < 0.6:
            a, b = rng.randint(-2, 2), Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            matrix[r] = [a * x + b * y for x, y in zip(matrix[0], matrix[rank - 1])]
    if rng.random() < 0.2:
        matrix[rng.randrange(rows)] = [0] * cols
    rhs = [draw(rng) for _ in range(rows)]
    if rng.random() < 0.5:
        # consistent: the right-hand side of a known point
        point = [draw(rng) for _ in range(cols)]
        rhs = [sum(Fraction(x) * Fraction(p) for x, p in zip(row, point)) for row in matrix]
    return matrix, rhs


@pytest.mark.parametrize("kind", sorted(DRAWS))
def test_solve_affine_matches_fraction_reference(kind):
    rng = random.Random(20230 + len(kind))
    draw = DRAWS[kind]
    seen = {"none": 0, "basis": 0, "unique": 0}
    for _ in range(400):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        matrix, rhs = random_system(rng, draw, rows, cols)
        expected = reference_solve_affine(matrix, rhs)
        got = solve_affine(matrix, rhs)
        assert got == expected, (matrix, rhs)
        if expected is not None:
            assert all(type(v) is Fraction for v in got[0])
            assert all(type(v) is Fraction for d in got[1] for v in d)
        seen["none" if expected is None else "basis" if expected[1] else "unique"] += 1
    # the draw reaches every outcome
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize(
    "matrix, rhs",
    [
        pytest.param([[0, 0], [0, 0]], [0, 0], id="all-zero"),
        pytest.param([[0, 0], [0, 0]], [0, 1], id="all-zero-inconsistent"),
        pytest.param([[1, 2], [2, 4], [3, 6]], [1, 2, 3], id="more-rows-rank-1"),
        pytest.param([[1, 2], [2, 4], [3, 6]], [1, 2, 4], id="more-rows-inconsistent"),
        pytest.param([[1, 0], [0, 1], [1, 1]], [2, 3, 5], id="more-rows-unique"),
        pytest.param([[0, 3, 0, 1]], [Fraction(1, 2)], id="leading-zero-column"),
        pytest.param([[1e308, 1e308], [1, -1]], [1e308, 0], id="large-floats"),
        pytest.param([[Fraction(1, 10**30), 1], [1, 1]], [1, 2], id="tiny-rational"),
    ],
)
def test_solve_affine_edge_cases(matrix, rhs):
    assert solve_affine(matrix, rhs) == reference_solve_affine(matrix, rhs)


def test_solve_affine_empty_system():
    assert solve_affine([], []) == reference_solve_affine([], []) == ([], [])


def primitive(row):
    # the row's unique integer multiple with no common factor whose first
    # nonzero entry is positive
    den = math.lcm(*(Fraction(v).denominator for v in row))
    ints = [int(v * den) for v in row]
    g = math.gcd(*ints)
    lead = next((v for v in ints if v), 1)
    return [v // g if lead > 0 else -v // g for v in ints] if g else ints


def primitive_system(rng, rows, cols):
    # integer rows with no common factor, some of them combinations of
    # others and some zero, and right-hand sides half of the time consistent
    matrix, rhs = random_system(rng, DRAWS["int"], rows, cols)
    return [primitive([*row, b]) for row, b in zip(matrix, rhs)]


@pytest.mark.parametrize(
    "aug",
    [
        pytest.param([[-2, 1, 0], [1, 1, 3]], id="negative-first-pivot"),
        pytest.param([[0, -3, 1, 2], [4, 6, 0, 1]], id="negative-second-pivot"),
        pytest.param([[2, 0, 1], [0, 3, 1]], id="untouched-rows"),
        pytest.param([[1, 2, 3], [2, 4, 6]], id="dependent-rows"),
    ],
)
def test_eliminate_pinned_cases(aug):
    expected = reference_rref([row[:-1] for row in aug], [row[-1] for row in aug])
    rows, pivots = expected
    got = [list(row) for row in aug]
    assert eliminate(got) == pivots
    assert got[: len(pivots)] == [primitive(row) for row in rows[: len(pivots)]]
    assert all(v > 0 for v in (got[r][c] for r, c in enumerate(pivots)))


def test_eliminate_keeps_rows_primitive_with_positive_pivots():
    # the core's rows against the Fraction reduced row echelon form: pivot
    # row r is the reference row r scaled to coprime integers, its pivot
    # positive, and every row below the rank is zero
    rng = random.Random(4513)
    seen = {"none": 0, "singular": 0, "regular": 0}
    for _ in range(600):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        aug = primitive_system(rng, rows, cols)
        expected = reference_rref([row[:-1] for row in aug], [row[-1] for row in aug])
        pivots = eliminate(aug)
        if expected is None:
            assert pivots is None, aug
            seen["none"] += 1
            continue
        reduced, want = expected
        assert pivots == want, aug
        for r, row in enumerate(aug):
            if r < len(pivots):
                assert row == primitive(reduced[r]) and row[pivots[r]] > 0, aug
            else:
                assert not any(row), aug
        seen["regular" if len(pivots) == cols else "singular"] += 1
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize(
    "matrix",
    [[[1, 2, 3], [4, 5, 6]], [[1], [2]], [[1, 2], [3]], [[]]],
    ids=["2x3", "2x1", "ragged", "1x0"],
)
def test_determinant_refuses_a_non_square_matrix(matrix):
    with pytest.raises(DimensionMismatch):
        determinant(matrix)


@pytest.mark.parametrize("kind", sorted(DRAWS))
def test_determinant_matches_leibniz_reference(kind):
    # a float entry counts as the exact binary fraction it holds
    rng = random.Random(31337 + len(kind))
    for _ in range(200):
        n = rng.randint(1, 4)
        matrix = [[DRAWS[kind](rng) for _ in range(n)] for _ in range(n)]
        assert determinant(matrix) == reference_determinant(matrix), matrix
