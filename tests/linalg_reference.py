"""Plain Fraction references for exact linear solves and determinants.

Every row is divided by its pivot, and a determinant is the Leibniz sum,
so nothing here shares the package's fraction-free elimination:
``tests/test_linalg.py`` checks ``solve_affine``, ``eliminate`` and
``determinant`` against it, ``tests/support_reference.py`` solves its
indifference systems with it, and ``tests/grid_reference.py`` locates
points and measures cells with it.
"""

from __future__ import annotations

import itertools

from fractions import Fraction


def reference_rref(matrix, rhs):
    """``(rows, pivots)`` of the reduced row echelon form of ``[A | b]``
    on Fractions, or ``None`` when the system is inconsistent."""
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
    return aug, pivots


def reference_solve_affine(matrix, rhs):
    """``(particular, nullspace_basis)`` as ``solve_affine`` promises, or
    ``None`` when the system is inconsistent."""
    reduced = reference_rref(matrix, rhs)
    if reduced is None:
        return None
    aug, pivots = reduced
    cols = len(matrix[0]) if matrix else 0
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


def reference_determinant(matrix):
    """Leibniz formula on exact Fractions: one signed product per
    permutation, so nothing is eliminated at all."""
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
