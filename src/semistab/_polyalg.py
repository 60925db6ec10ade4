"""Exact linear algebra over Q[x] and Q(x), written on `UniPoly`.

The classical module needs generic ranks, determinants, maximal minors,
kernel bases over Q(x) and the content of a family of minors.  All of
them come from one elimination, `_echelon`: fraction-free row reduction
with row swaps (Bareiss, Math. Comp. 22, 1968).  Every division in it is
exact, and its remainder is checked to be zero.

- The pivot columns are the greedy independent columns over Q(x), so the
  rank is the number of pivots.
- The last pivot is the determinant up to the sign of the row swaps.
- Minors are determinants of row subsets.

Kernel basis.  The pivot rows are the rows the echelon form takes its
pivots from, so the pivot block A is nonsingular.  For each non-pivot
column f, in increasing order, Cramer's rule on A gives the kernel
vector that is det A at f and zero at every other non-pivot column: the
reduced row echelon nullspace vector times det A.  It is then scaled to
be primitive in Z[x]: its entries have polynomial gcd 1 and integer
content 1, and the leading coefficient of its entry at f is positive.
That picks one vector on the line, independently of how it was found.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .exactmath import UniPoly, poly_gcd, primitive_vector

PolyMatrix = Sequence[Sequence[UniPoly]]

_ONE = UniPoly.of(1)


def generic_rank(matrix: PolyMatrix) -> int:
    """Rank over the rational function field Q(x): the number of echelon pivots."""
    return len(_echelon(matrix)[1])


def _exact_quotient(p: UniPoly, q: UniPoly) -> UniPoly:
    quotient, remainder = divmod(p, q)
    if not remainder.is_zero():
        raise ArithmeticError("fraction-free elimination: inexact division")
    return quotient


def _echelon(matrix: PolyMatrix) -> tuple[list[int], list[int], int, UniPoly]:
    """Fraction-free row echelon form of the matrix.

    Returns the original index of each echelon row, the pivot columns,
    the sign of the row permutation and the last pivot, which is the
    determinant up to that sign when the matrix is square and nonsingular.
    """
    rows = [list(row) for row in matrix]
    order = list(range(len(rows)))
    pivots: list[int] = []
    sign = 1
    previous = _ONE
    for col in range(len(rows[0]) if rows else 0):
        k = len(pivots)
        pivot = next((i for i in range(k, len(rows)) if not rows[i][col].is_zero()), None)
        if pivot is None:
            continue
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            order[k], order[pivot] = order[pivot], order[k]
            sign = -sign
        top = rows[k]
        for i in range(k + 1, len(rows)):
            row = rows[i]
            for j in range(col + 1, len(top)):
                entry = top[col] * row[j] - row[col] * top[j]
                row[j] = entry if previous == _ONE else _exact_quotient(entry, previous)
            row[col] = UniPoly.zero()
        previous = top[col]
        pivots.append(col)
    return order, pivots, sign, previous


def independent_columns(matrix: PolyMatrix) -> list[int]:
    """Indices of the greedy independent columns over Q(x): the echelon pivots."""
    return _echelon(matrix)[1]


def determinant(matrix: PolyMatrix) -> UniPoly:
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant of a non-square matrix")
    _, pivots, sign, last = _echelon(matrix)
    if len(pivots) < n:
        return UniPoly.zero()
    return last if sign > 0 else -last


def maximal_minors(matrix: PolyMatrix, size: int) -> dict[tuple[int, ...], UniPoly]:
    """All size x size minors, keyed by the chosen row index set (0-based)."""
    cols = len(matrix[0]) if matrix else 0
    if cols != size:
        raise ValueError("minor size must equal the column count")
    return {
        subset: determinant([matrix[a] for a in subset])
        for subset in combinations(range(len(matrix)), size)
    }


def generic_kernel(matrix: PolyMatrix) -> list[list[UniPoly]]:
    """Primitive polynomial basis columns of the kernel over Q(x)."""
    order, pivots, _, _ = _echelon(matrix)
    pivot_rows = [matrix[a] for a in order[: len(pivots)]]
    block = [[row[p] for p in pivots] for row in pivot_rows]
    free_columns = [f for f in range(len(matrix[0]) if matrix else 0) if f not in pivots]
    det = determinant(block) if free_columns else None
    columns = []
    for free in free_columns:
        vector = [UniPoly.zero()] * len(matrix[0])
        vector[free] = det
        for i, p in enumerate(pivots):
            replaced = [
                brow[:i] + [row[free]] + brow[i + 1 :]
                for brow, row in zip(block, pivot_rows)
            ]
            vector[p] = -determinant(replaced)
        columns.append(_primitive_column(vector, free))
    return columns


def _primitive_column(vector: list[UniPoly], free: int) -> list[UniPoly]:
    content = poly_content(vector)
    vector = [_exact_quotient(p, content) for p in vector]
    integral = iter(primitive_vector(c for p in vector for c in p.coefficients))
    if vector[free].leading < 0:
        integral = (-c for c in integral)
    return [UniPoly(tuple(next(integral) for _ in p.coefficients)) for p in vector]


def poly_content(polys: Sequence[UniPoly]) -> UniPoly:
    """Monic gcd of a family of polynomials (zero entries ignored)."""
    content = UniPoly.zero()
    for p in polys:
        content = poly_gcd(content, p)
    return content
