"""Q[x] linear algebra on UniPoly, checked against sympy as an independent oracle."""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import gcd

import sympy
from sympy.polys.matrices import DomainMatrix
from hypothesis import given, settings
from hypothesis import strategies as st

from semistab import UniPoly
from semistab import _polyalg
from semistab.jsonio import encode_poly

from conftest import SEMISTAB_ROOT, oracle_cramer_kernel

X = sympy.Symbol("x")


# -- sympy reference -----------------------------------------------------------


def to_expr(p):
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * X**k for k, c in enumerate(p.coefficients)),
        sympy.Integer(0),
    )


def from_expr(expr):
    poly = sympy.Poly(sympy.together(expr), X, domain="QQ")
    return UniPoly(tuple(Fraction(c.p, c.q) for c in reversed(poly.all_coeffs())))


def sym(matrix):
    return sympy.Matrix([[to_expr(p) for p in row] for row in matrix])


def ref_rank(matrix):
    """Exact rank over the field Q(x)."""
    return DomainMatrix.from_Matrix(sym(matrix)).convert_to(sympy.QQ.frac_field(X)).rank()


def ref_determinant(matrix):
    return from_expr(sym(matrix).det(method="berkowitz"))


def ref_maximal_minors(matrix, size):
    m = sym(matrix)
    return {
        subset: from_expr(m[list(subset), :].det(method="berkowitz"))
        for subset in combinations(range(m.rows), size)
    }


def ref_kernel(matrix):
    """sympy's nullspace, cleared of denominators and content."""
    columns = []
    for vec in sym(matrix).nullspace():
        entries = [sympy.together(sympy.cancel(e)) for e in vec]
        common = sympy.lcm([sympy.denom(e) for e in entries])
        polys = [sympy.expand(e * common) for e in entries]
        content = sympy.gcd([p for p in polys if p != 0])
        columns.append([from_expr(sympy.cancel(p / content)) for p in polys])
    return columns


def ref_content(polys):
    exprs = [to_expr(p) for p in polys if not p.is_zero()]
    return from_expr(sympy.gcd(exprs)) if exprs else UniPoly.zero()


# -- strategies ----------------------------------------------------------------

coefficient = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def polys(max_degree):
    return st.one_of(
        st.just(UniPoly.zero()),
        st.lists(coefficient, min_size=1, max_size=max_degree + 1).map(
            lambda cs: UniPoly(tuple(cs))
        ),
    )


def product(left, right):
    return [
        [
            sum((left[i][t] * right[t][j] for t in range(len(right))), UniPoly.zero())
            for j in range(len(right[0]))
        ]
        for i in range(len(left))
    ]


@st.composite
def matrices(draw, max_size=4):
    rows = draw(st.integers(1, max_size))
    cols = draw(st.integers(1, max_size))
    if draw(st.booleans()):
        return draw(st.lists(st.lists(polys(2), min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    # A product through an inner dimension k has rank at most k: rank-deficient cases.
    k = draw(st.integers(1, min(rows, cols)))
    left = draw(st.lists(st.lists(polys(1), min_size=k, max_size=k), min_size=rows, max_size=rows))
    right = draw(st.lists(st.lists(polys(1), min_size=cols, max_size=cols), min_size=k, max_size=k))
    return product(left, right)


def square(matrix):
    n = min(len(matrix), len(matrix[0]))
    return [row[:n] for row in matrix[:n]]


def is_primitive_kernel_vector(matrix, vector):
    """M v = 0, polynomial gcd 1, integer coefficients with content 1."""
    if any(not p.is_zero() for row in product(matrix, [[p] for p in vector]) for p in row):
        return False
    if _polyalg.poly_content(vector).degree != 0:
        return False
    coefficients = [c for p in vector for c in p.coefficients]
    if any(c.denominator != 1 for c in coefficients):
        return False
    return gcd(*[int(c) for c in coefficients]) == 1


# -- properties ----------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rank_matches_sympy(matrix):
    assert _polyalg.generic_rank(matrix) == ref_rank(matrix)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_determinant_matches_sympy(matrix):
    matrix = square(matrix)
    assert _polyalg.determinant(matrix) == ref_determinant(matrix)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_maximal_minors_match_sympy(matrix):
    """The determinant of every k-row subset of k columns, as `classical` takes them."""
    size = min(len(matrix), len(matrix[0]))
    matrix = [row[:size] for row in matrix]
    minors = {
        subset: _polyalg.determinant([matrix[a] for a in subset])
        for subset in combinations(range(len(matrix)), size)
    }
    assert minors == ref_maximal_minors(matrix, size)


@settings(max_examples=100, deadline=None)
@given(st.lists(polys(3), min_size=1, max_size=6))
def test_content_degree_matches_sympy(family):
    content = _polyalg.poly_content(family)
    assert content.degree == ref_content(family).degree
    assert content.is_zero() or content.leading == 1


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_kernel_matches_sympy(matrix):
    kernel = _polyalg.generic_kernel(matrix)
    assert len(kernel) == len(matrix[0]) - ref_rank(matrix)
    for vector in kernel:
        assert is_primitive_kernel_vector(matrix, vector)
    try:
        expected = ref_kernel(matrix)
    except sympy.PolynomialError:
        return  # sympy cannot normalise this basis; the checks above still hold
    assert kernel == expected


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_kernel_matches_cramer(matrix):
    assert _polyalg.generic_kernel(matrix) == oracle_cramer_kernel(matrix)


@st.composite
def degenerate_forms(draw):
    """Symmetric C E C^T or antisymmetric C J C^T at r = 2..7 through an inner size
    k < r, C of degree at most 1, E and J constant: corank r - k or more."""
    r = draw(st.integers(2, 7))
    antisymmetric = draw(st.booleans())
    k = draw(st.integers(1, r - 1))
    left = draw(st.lists(st.lists(polys(1), min_size=k, max_size=k), min_size=r, max_size=r))
    inner = [[UniPoly.zero()] * k for _ in range(k)]
    for a in range(k):
        for b in range(a, k):
            if antisymmetric and a == b:
                continue
            entry = draw(polys(0))
            inner[a][b], inner[b][a] = entry, -entry if antisymmetric else entry
    transpose = [list(column) for column in zip(*left)]
    return product(product(left, inner), transpose)


@settings(max_examples=50, deadline=None)
@given(degenerate_forms())
def test_form_kernel_matches_cramer(matrix):
    assert _polyalg.generic_kernel(matrix) == oracle_cramer_kernel(matrix)


nonzero_coefficient = coefficient.filter(lambda c: c != 0)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(polys(2), min_size=1, max_size=5).filter(lambda v: any(not p.is_zero() for p in v)),
    nonzero_coefficient,
    polys(2).filter(lambda p: not p.is_zero()),
    st.data(),
)
def test_primitive_column_picks_one_vector_per_line(vector, c, g, data):
    """The same vector for every nonzero multiple g c v: integral, content 1, polynomial
    gcd 1 and a positive leading coefficient at the free column."""
    free = data.draw(st.sampled_from([f for f, p in enumerate(vector) if not p.is_zero()]))
    primitive = _polyalg._primitive_column(vector, free)
    assert _polyalg._primitive_column([(p * g).scale(c) for p in vector], free) == primitive
    coefficients = [a for p in primitive for a in p.coefficients]
    assert all(a.denominator == 1 for a in coefficients)
    assert gcd(*[int(a) for a in coefficients]) == 1
    assert _polyalg.poly_content(primitive).degree == 0
    assert primitive[free].leading > 0


# -- fixed cases ----------------------------------------------------------------


def test_kernel_where_sympy_fails():
    """sympy's normalisation raised PolynomialError on this wide matrix."""
    x = UniPoly.x()
    matrix = [
        [UniPoly.of(3, Fraction(-1, 2)), UniPoly.of(3, Fraction(1, 3)), UniPoly.zero()],
        [x.scale(-3), UniPoly.zero(), UniPoly.of(-1)],
    ]
    kernel = _polyalg.generic_kernel(matrix)
    assert [[encode_poly(p) for p in v] for v in kernel] == [
        [["-18", "-2"], ["18", "-3"], ["0", "54", "6"]]
    ]
    assert is_primitive_kernel_vector(matrix, kernel[0])


def test_rank_needs_more_than_one_point():
    """x (x - 1) vanishes at x = 0 and x = 1 but is a nonzero pivot over Q(x)."""
    x = UniPoly.x()
    matrix = [[x * (x - UniPoly.of(1)), UniPoly.zero()], [UniPoly.zero(), UniPoly.of(1)]]
    assert _polyalg.generic_rank(matrix) == 2


def test_import_does_not_load_sympy():
    code = "import sys, semistab, semistab.cli; assert 'sympy' not in sys.modules, 'sympy loaded'"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SEMISTAB_ROOT),
    )
    assert result.returncode == 0, result.stderr
