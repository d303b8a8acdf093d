"""Small exact linear algebra.

Just enough for the package: determinants of small matrices and affine
solution spaces of linear systems.  Both work on plain sequences of
ints, Fractions or floats and give exact results.  :func:`solve_affine`
scales each equation to integers and eliminates fraction-free
(Gauss–Jordan with integer row operations, each row kept reduced by its
gcd), so ``Fraction`` objects are made only for the values it returns.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .scalars import Scalar, as_integers


def determinant(matrix: Sequence[Sequence[Scalar]]) -> Scalar:
    """Determinant by Gaussian elimination on exact Fractions."""
    n = len(matrix)
    if n == 0:
        return 1
    rows = [[Fraction(x) for x in row] for row in matrix]
    sign = 1
    det: Scalar = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            sign = -sign
        pivot = rows[col][col]
        det = det * pivot
        for r in range(col + 1, n):
            factor = rows[r][col] / pivot
            if factor:
                for c in range(col, n):
                    rows[r][c] = rows[r][c] - factor * rows[col][c]
    return sign * det


def solve_affine(
    matrix: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar]
) -> tuple[list[Fraction], list[list[Fraction]]] | None:
    """Solve ``matrix @ x = rhs`` exactly.

    Returns ``(particular, nullspace_basis)`` or ``None`` when the system
    is inconsistent.  ``particular`` sets every free variable to zero; the
    basis vectors span the solution space's directions.  Both are read
    off the reduced row echelon form, which is unique, so they do not
    depend on how the rows were scaled on the way.
    """
    m = len(matrix)
    cols = len(matrix[0]) if m else 0
    # each row of [A | b] over its own common denominator: scaling a row
    # keeps its equation
    aug = [as_integers([*row, b])[0] for row, b in zip(matrix, rhs)]
    pivots: list[int] = []
    row = 0
    for col in range(cols):
        pivot_row = None
        for r in range(row, m):
            if aug[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        aug[row], aug[pivot_row] = aug[pivot_row], aug[row]
        top = aug[row]
        pivot = top[col]
        for r in range(m):
            factor = aug[r][col]
            if r != row and factor:
                # fraction-free step; the row's gcd keeps the entries small
                new = [pivot * a - factor * b for a, b in zip(aug[r], top)]
                g = math.gcd(*new)
                aug[r] = [v // g for v in new] if g > 1 else new
        pivots.append(col)
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if aug[r][cols]:
            return None
    # pivot row r reads aug[r] / aug[r][pivots[r]] in reduced form
    particular = [Fraction(0)] * cols
    for r, col in enumerate(pivots):
        particular[col] = Fraction(aug[r][cols], aug[r][col])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        direction = [Fraction(0)] * cols
        direction[f] = Fraction(1)
        for r, col in enumerate(pivots):
            direction[col] = Fraction(-aug[r][f], aug[r][col])
        basis.append(direction)
    return particular, basis
