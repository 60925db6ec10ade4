"""Exact linear algebra over Q[x] and Q(x), written on `UniPoly`.

The classical module needs generic ranks, determinants, kernel bases
over Q(x) and the content of a family of minors.  All of them come from
one elimination, `_echelon`: fraction-free row reduction with row swaps
(Bareiss, Math. Comp. 22, 1968).  Every division in it is exact, and its
remainder is checked to be zero.

- The pivot columns are the greedy independent columns over Q(x), so the
  rank is the number of pivots.
- The last pivot is the determinant up to the sign of the row swaps.
- Minors are determinants of row subsets.

Kernel basis.  The first k = rank echelon rows have the kernel of the
matrix over Q(x).  For each non-pivot column f, in increasing order,
back substitution up those rows gives the kernel vector that is D, the
last pivot, at f and zero at the other non-pivot columns: D times the
reduced row echelon nullspace vector.  D is the pivot minor up to sign,
so every entry is a k x k minor up to sign and every division on the way
is exact.  The vector is then made primitive in Z[x]: polynomial gcd 1,
integer content 1 and a positive leading coefficient at f, one vector
per line however it was found.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InternalError
from .exactmath import UniPoly, poly_gcd, primitive_vector

PolyMatrix = Sequence[Sequence[UniPoly]]

_ONE = UniPoly.of(1)


def generic_rank(matrix: PolyMatrix) -> int:
    """Rank over the rational function field Q(x): the number of echelon pivots."""
    return len(_echelon(matrix)[1])


def _exact_quotient(p: UniPoly, q: UniPoly) -> UniPoly:
    quotient, remainder = divmod(p, q)
    if not remainder.is_zero():
        raise InternalError("fraction-free elimination: inexact division")
    return quotient


def _echelon(matrix: PolyMatrix) -> tuple[list[list[UniPoly]], list[int], int]:
    """Fraction-free row echelon form: the reduced rows, the pivot columns and the
    sign of the row permutation.  Row i < len(pivots) is zero before its pivot,
    the leading (i + 1) x (i + 1) minor of the row-permuted matrix on the pivot
    columns; the rows after the last pivot row are zero."""
    rows = [list(row) for row in matrix]
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
    return rows, pivots, sign


def independent_columns(matrix: PolyMatrix) -> list[int]:
    """Indices of the greedy independent columns over Q(x): the echelon pivots."""
    return _echelon(matrix)[1]


def determinant(matrix: PolyMatrix) -> UniPoly:
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant of a non-square matrix")
    rows, _, sign = _echelon(matrix)
    last = rows[-1][-1] if n else _ONE  # the last row is zero when singular
    return last if sign > 0 else -last


def generic_kernel(matrix: PolyMatrix) -> list[list[UniPoly]]:
    """Primitive polynomial basis columns of the kernel over Q(x), by back substitution."""
    rows, pivots, _ = _echelon(matrix)
    width = len(matrix[0]) if matrix else 0
    k = len(pivots)
    columns = []
    for free in (f for f in range(width) if f not in pivots):
        vector = [UniPoly.zero()] * width
        # D is the last row's own pivot, so it gives minus its entry at f outright.
        vector[free] = rows[k - 1][pivots[-1]] if k else _ONE
        if k:
            vector[pivots[-1]] = -rows[k - 1][free]
        for row, p in reversed(list(zip(rows, pivots[:-1]))):
            known = (row[j] * vector[j] for j in range(p + 1, width) if not vector[j].is_zero())
            vector[p] = -_exact_quotient(sum(known, UniPoly.zero()), row[p])
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
