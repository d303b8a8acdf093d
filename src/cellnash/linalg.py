"""Small exact linear algebra on integer rows.

Determinants and affine solution spaces of small systems given as ints,
Fractions or floats.  Each row is scaled to integers and eliminated
fraction-free, so ``Fraction`` objects are made only for returned values:
:func:`determinant` by Bareiss elimination, whose divisions are exact, and
:func:`solve_affine` by :func:`eliminate`, the Gauss–Jordan core that the
support enumeration oracle also runs on its integer payoff rows.  The
volume module reads :func:`determinant` twice: on moved points for one
cell's volume at ``t``, and on integer edge matrices at ``t = 0..d`` for
the values its volume polynomials are interpolated from.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatch
from .scalars import Scalar, as_integers


def determinant(matrix: Sequence[Sequence[Scalar]]) -> Scalar:
    """Determinant by Bareiss elimination on each row over its common
    denominator.  A non-square matrix is a :class:`DimensionMismatch`."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise DimensionMismatch(f"determinant of a non-square matrix with {n} rows")
    if n == 0:
        return 1
    scaled = [as_integers(row) for row in matrix]
    rows = [list(nums) for nums, _ in scaled]
    sign, prev = 1, 1
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if rows[r][k]), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign = -sign
        top, pivot = rows[k], rows[k][k]
        for row in rows[k + 1 :]:
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - row[k] * top[j]) // prev
        prev = pivot
    return Fraction(sign * prev, math.prod(den for _, den in scaled))


def eliminate(aug: list[list[int]]) -> list[int] | None:
    """Fraction-free Gauss–Jordan, in place, on the integer rows of an
    augmented system ``[A | b]``: the pivot columns, or ``None`` when the
    system is inconsistent.  Pivot row ``r`` ends as row ``r`` of the
    reduced row echelon form times its positive pivot ``aug[r][pivots[r]]``;
    each row the elimination changes is divided by its gcd, so rows with
    no common factor end with none."""
    m = len(aug)
    cols = len(aug[0]) - 1 if m else 0
    pivots: list[int] = []
    row = 0
    for col in range(cols):
        for r in range(row, m):
            if aug[r][col]:
                break
        else:
            continue
        top = aug[r] if aug[r][col] > 0 else [-v for v in aug[r]]
        aug[r], aug[row] = aug[row], top
        pivot = top[col]
        for r, line in enumerate(aug):
            factor = line[col]
            if factor and r != row:
                new = [pivot * a - factor * b for a, b in zip(line, top)]
                g = math.gcd(*new)
                aug[r] = [v // g for v in new] if g > 1 else new
        pivots.append(col)
        row += 1
        if row == m:
            break
    if any(line[cols] for line in aug[row:]):
        return None
    return pivots


def affine_solution(
    aug: list[list[int]], pivots: list[int], cols: int
) -> tuple[list[Fraction], list[list[Fraction]]]:
    """``(particular, nullspace_basis)`` read off rows :func:`eliminate`
    reduced: ``particular`` sets every free variable to zero, and the basis
    spans the solution space's directions, one per free column."""
    particular = [Fraction(0)] * cols
    for r, col in enumerate(pivots):
        particular[col] = Fraction(aug[r][cols], aug[r][col])
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        direction = [Fraction(0)] * cols
        direction[f] = Fraction(1)
        for r, col in enumerate(pivots):
            direction[col] = Fraction(-aug[r][f], aug[r][col])
        basis.append(direction)
    return particular, basis


def solve_affine(
    matrix: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar]
) -> tuple[list[Fraction], list[list[Fraction]]] | None:
    """Solve ``matrix @ x = rhs`` exactly: ``(particular, nullspace_basis)``
    as :func:`affine_solution` reads them, or ``None`` when inconsistent.
    The reduced row echelon form is unique, so neither depends on how the
    rows were scaled on the way."""
    # each row of [A | b] over its own common denominator keeps its equation
    aug = [as_integers([*row, b])[0] for row, b in zip(matrix, rhs)]
    pivots = eliminate(aug)
    if pivots is None:
        return None
    return affine_solution(aug, pivots, len(matrix[0]) if matrix else 0)
