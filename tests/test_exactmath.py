"""Exact rationals, canonical polynomials, and the asymptotic order."""

import itertools
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from semistab import (
    DynkinType,
    FiltrationData,
    FiltrationMember,
    NonvanishingProfile,
    OneParamSubgroup,
    Order,
    SplitSheafModel,
    TorusWeightRep,
    UniPoly,
    WeightedFlag,
    coordinate_flag,
    format_rational,
    is_positive,
    poly_order,
    rational,
)
from semistab.errors import OutOfRange
from semistab.exactmath import integer, poly_gcd
from semistab.jsonio import decode_poly, encode_poly

coeffs = st.lists(
    st.fractions(max_denominator=20).filter(lambda f: abs(f) < 50),
    max_size=5,
)
polys = coeffs.map(lambda cs: UniPoly(tuple(cs)))
SMALL = st.fractions(-9, 9, max_denominator=9)


def _horner(p, point):
    value = Fraction(0)
    for c in reversed(p.coefficients):
        value = value * point + c
    return value


class TestRational:
    def test_coercions(self):
        assert rational(3) == Fraction(3)
        assert rational("2/4") == Fraction(1, 2)
        assert rational(Fraction(5, 7)) == Fraction(5, 7)

    def test_the_json_grammar(self):
        """An int, a Fraction, or [+-]digits[/digits]."""
        assert rational("-2/4") == Fraction(-1, 2)
        assert rational("+3") == Fraction(3)
        assert rational(3) == Fraction(3)
        fraction = Fraction(5, 7)
        assert rational(fraction) is fraction

    @pytest.mark.parametrize(
        "value",
        ["0.5", "1e3", " 1/2", "1_000", True, Decimal("0.5")],
        ids=["decimal", "exponent", "space", "underscore", "bool", "Decimal"],
    )
    def test_other_notations_rejected(self, value):
        """Each of these used to be read as a rational outside the JSON decoders."""
        with pytest.raises(TypeError, match='expected an integer or a "p/q" string'):
            rational(value)

    def test_zero_denominator(self):
        with pytest.raises(ValueError, match="zero denominator"):
            rational("1/0")

    @pytest.mark.parametrize("value", [0.1, 1.0, -2.5])
    def test_float_rejected(self, value):
        """0.1 used to become 1/10 and 1.0 the integer 1."""
        with pytest.raises(TypeError):
            rational(value)
        with pytest.raises(TypeError):
            UniPoly.of(1, value)

    def test_format(self):
        assert format_rational(Fraction(3)) == "3"
        assert format_rational(Fraction(-1, 2)) == "-1/2"
        assert rational(format_rational(Fraction(22, 7))) == Fraction(22, 7)


class TestInteger:
    def test_ints_returned(self):
        assert integer(-7) == -7
        assert integer(0) == 0

    @pytest.mark.parametrize(
        "value", [1.5, 1.0, -0.0, True, False, "1", None, [1], Fraction(1), Decimal(1)]
    )
    def test_everything_else_rejected(self, value):
        with pytest.raises(TypeError, match=f"expected an integer, got {re.escape(repr(value))}$"):
            integer(value)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: TorusWeightRep(2, (("e1", (0.5, -0.5)),)),
            lambda: TorusWeightRep(2.0, (("e1", (1, -1)),)),
            lambda: NonvanishingProfile(1.0, 1, frozenset({(2,), (1,)})),
            lambda: NonvanishingProfile(1, 1, frozenset({(2.0,), (1,)})),
            lambda: FiltrationMember(1.5, 0, UniPoly.of(1, 1), 1),
            lambda: FiltrationData(
                3.0, 0, UniPoly.of(3, 3), (FiltrationMember(1, 0, UniPoly.of(1, 1), 1),)
            ),
            lambda: WeightedFlag((1.0,), (1,), (1, 2)),
            lambda: DynkinType("A", 2.5),
            lambda: coordinate_flag([[1.0]], r=2),
            lambda: OneParamSubgroup((True, -1)),
            lambda: SplitSheafModel((True, -1)),
        ],
        ids=[
            "torus-weight", "torus-rank", "profile-steps", "profile-entry", "member-rank",
            "total-rank", "flag-dims", "dynkin-rank", "coordinate-index", "subgroup-bool",
            "model-bool",
        ],
    )
    def test_types_read_integers(self, build):
        """Each of these was accepted (a float kept or a bool read as 1) before."""
        with pytest.raises(TypeError, match="^expected an integer, got "):
            build()

    def test_flag_alpha_read_as_a_rational(self):
        with pytest.raises(TypeError, match='expected an integer or a "p/q" string, got 0.5'):
            WeightedFlag((1,), (0.5,), (1, 2))


class TestUniPoly:
    def test_canonical_form(self):
        assert UniPoly.of(1, 2, 0, 0) == UniPoly.of(1, 2)
        assert UniPoly.of(0).is_zero()
        assert UniPoly.zero().degree == -1

    def test_arith_examples(self):
        x = UniPoly.x()
        one = UniPoly.of(1)
        assert (x + one) + (x - one) == x.scale(2)
        assert x.scale(Fraction(3, 2)) == UniPoly.of(0, Fraction(3, 2))

    def test_x_takes_a_power_of_at_least_zero(self):
        assert UniPoly.x(0) == UniPoly.of(1)
        assert UniPoly.x(3) == UniPoly.of(0, 0, 0, 1)
        for power in (-1, -5):
            message = f"^the power of x must be at least 0, got {power}$"
            with pytest.raises(OutOfRange, match=message):
                UniPoly.x(power)
        for power in (True, False, 1.0):
            with pytest.raises(TypeError, match="^expected an integer, got "):
                UniPoly.x(power)

    def test_divmod(self):
        p = UniPoly.of(-1, 0, 1)  # x^2 - 1
        q = UniPoly.of(1, 1)  # x + 1
        quot, rem = divmod(p, q)
        assert quot == UniPoly.of(-1, 1)
        assert rem.is_zero()

    @given(
        st.lists(SMALL, max_size=7), st.lists(SMALL, max_size=3), SMALL.filter(bool)
    )
    def test_divmod_identity(self, high, low, lead):
        p, q = UniPoly(tuple(high)), UniPoly(tuple(low) + (lead,))
        quot, rem = divmod(p, q)
        assert quot * q + rem == p
        assert rem.degree < q.degree

    @given(polys)
    def test_zero_operand_gives_the_canonical_polynomial(self, p):
        """p + 0, 0 + p, p - 0 and p * 0 hand back an operand, equal to a fresh build."""
        zero = UniPoly.zero()
        for result, expected in (
            (p + zero, p.coefficients),
            (zero + p, p.coefficients),
            (p - zero, p.coefficients),
            (p * zero, ()),
            (zero * p, ()),
        ):
            fresh = UniPoly(expected)
            assert result is p or result is zero
            assert result == fresh and hash(result) == hash(fresh)
        assert zero - p == -p

    def test_json_round_trip(self):
        p = UniPoly.of(Fraction(1, 2), -3, 0, 5)
        assert decode_poly(encode_poly(p)) == p


class TestPolyOrder:
    def test_examples(self):
        assert poly_order(UniPoly.x(2), UniPoly.of(100, 5)) is Order.GREATER
        assert poly_order(UniPoly.of(1, 2), UniPoly.of(1, 2)) is Order.EQUAL
        assert poly_order(UniPoly.of(1, 2), UniPoly.of(3, 2)) is Order.LESS

    def test_is_positive(self):
        assert is_positive(UniPoly.of(-100, 1))
        assert not is_positive(UniPoly.zero())
        assert not is_positive(UniPoly.of(5, -1))

    @given(polys, polys)
    def test_antisymmetric(self, p, q):
        forward = poly_order(p, q)
        backward = poly_order(q, p)
        flip = {Order.LESS: Order.GREATER, Order.GREATER: Order.LESS, Order.EQUAL: Order.EQUAL}
        assert backward is flip[forward]

    @given(polys, polys, polys)
    def test_transitive(self, p, q, r):
        if poly_order(p, q) is Order.LESS and poly_order(q, r) is Order.LESS:
            assert poly_order(p, r) is Order.LESS

    @given(polys, polys)
    def test_agrees_with_large_evaluation(self, p, q):
        """The asymptotic order matches pointwise comparison far out."""
        point = 10**6
        verdict = poly_order(p, q)
        left, right = _horner(p, point), _horner(q, point)
        if verdict is Order.LESS:
            assert left < right
        elif verdict is Order.GREATER:
            assert left > right
        else:
            assert left == right

    @given(polys, polys)
    @example(UniPoly.of(1, 2), UniPoly.of(5))
    @example(UniPoly.of(1, -2), UniPoly.of(5))
    @example(UniPoly.of(5), UniPoly.of(1, -2))
    @example(UniPoly.zero(), UniPoly.of(0, 0, -1))
    @example(UniPoly.of(3, -1), UniPoly.of(4, -1))
    @example(UniPoly.zero(), UniPoly.zero())
    def test_is_the_sign_of_the_leading_coefficient_of_the_difference(self, p, q):
        """poly_order as first written: the sign of the leading coefficient of p - q."""
        pairs = itertools.zip_longest(p.coefficients, q.coefficients, fillvalue=Fraction(0))
        difference = UniPoly(tuple(a - b for a, b in pairs))
        if difference.is_zero():
            assert poly_order(p, q) is Order.EQUAL
        else:
            assert poly_order(p, q) is (Order.GREATER if difference.leading > 0 else Order.LESS)

    @given(polys, polys, polys)
    def test_addition_exact(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p + q - q == p
        assert p * (q + r) == p * q + p * r


class TestPolyGcd:
    def test_common_factor(self):
        p = UniPoly.of(-1, 0, 1)
        q = UniPoly.of(1, 1)
        assert poly_gcd(p, q) == q

    def test_zero_cases(self):
        assert poly_gcd(UniPoly.zero(), UniPoly.zero()).is_zero()
        assert poly_gcd(UniPoly.of(0, 4), UniPoly.zero()) == UniPoly.x()

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(UniPoly.x(), UniPoly.zero())
