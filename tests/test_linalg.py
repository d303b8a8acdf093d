"""Exact determinants and linear solves against Fraction references."""

import itertools
import random
from fractions import Fraction

import pytest

from cellnash.linalg import determinant, solve_affine


def reference_solve_affine(matrix, rhs):
    # Gauss–Jordan on Fractions: every row divided by its pivot
    m = len(matrix)
    cols = len(matrix[0]) if m else 0
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    pivots = []
    row = 0
    for col in range(cols):
        pivot_row = next((r for r in range(row, m) if aug[r][col]), None)
        if pivot_row is None:
            continue
        aug[row], aug[pivot_row] = aug[pivot_row], aug[row]
        pivot = aug[row][col]
        aug[row] = [v / pivot for v in aug[row]]
        for r in range(m):
            if r != row and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    if any(aug[r][cols] for r in range(row, m)):
        return None
    particular = [Fraction(0)] * cols
    for r, col in enumerate(pivots):
        particular[col] = aug[r][cols]
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        direction = [Fraction(0)] * cols
        direction[f] = Fraction(1)
        for r, col in enumerate(pivots):
            direction[col] = -aug[r][f]
        basis.append(direction)
    return particular, basis


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


def reference_determinant(matrix):
    # Leibniz formula on exact Fractions
    n = len(matrix)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        term = Fraction(-1) ** sum(
            perm[a] > perm[b] for a, b in itertools.combinations(range(n), 2)
        )
        for r, c in enumerate(perm):
            term *= Fraction(matrix[r][c])
        total += term
    return total


@pytest.mark.parametrize("kind", sorted(DRAWS))
def test_determinant_matches_leibniz_reference(kind):
    # a float entry counts as the exact binary fraction it holds
    rng = random.Random(31337 + len(kind))
    for _ in range(200):
        n = rng.randint(1, 4)
        matrix = [[DRAWS[kind](rng) for _ in range(n)] for _ in range(n)]
        assert determinant(matrix) == reference_determinant(matrix), matrix
