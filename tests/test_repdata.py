"""Characteristic-bound tables and representation constants."""

import pytest

from semistab import (
    CharCondition,
    DynkinType,
    adjoint_low_height_bound,
    good_prime_excluded,
    heinloth_curve_condition,
    separable_index_upper_bound,
)
from semistab.errors import InvalidRank, NotExceptional

T = DynkinType.parse


class TestDynkinType:
    def test_parse(self):
        assert T("A5") == DynkinType("A", 5)
        assert T("E8") == DynkinType("E8", 8)
        assert str(T("D4")) == "D4"
        assert str(T("G2")) == "G2"

    def test_invalid(self):
        with pytest.raises(InvalidRank):
            T("Z3")
        with pytest.raises(InvalidRank):
            T("A0")
        with pytest.raises(InvalidRank):
            DynkinType("E8", 7)
        with pytest.raises(InvalidRank):
            DynkinType("B", 1)
        with pytest.raises(InvalidRank, match="^unknown family 'X'$"):
            DynkinType("X", 3)

    @pytest.mark.parametrize("text", ["A\u0663", "A\u00b2", "D\uff14"])
    def test_rank_needs_ascii_digits(self, text):
        """`str.isdigit()` accepts these: the Arabic-Indic 3 was read as A3, the superscript 2
        raised a ValueError."""
        with pytest.raises(InvalidRank, match="cannot parse Dynkin type"):
            T(text)


class TestAdjointBound:
    def test_table(self):
        assert adjoint_low_height_bound(T("E8")) == 58
        assert adjoint_low_height_bound(T("E7")) == 34
        assert adjoint_low_height_bound(T("E6")) == 22
        assert adjoint_low_height_bound(T("F4")) == 22
        assert adjoint_low_height_bound(T("G2")) == 10
        assert adjoint_low_height_bound(T("A3")) == 6
        assert adjoint_low_height_bound(T("B3")) == 10
        assert adjoint_low_height_bound(T("C4")) == 14
        assert adjoint_low_height_bound(T("D4")) == 10

    def test_monotone_in_rank(self):
        for family, start in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
            values = [
                adjoint_low_height_bound(DynkinType(family, n))
                for n in range(start, start + 6)
            ]
            assert values == sorted(values)


class TestHeinlothCondition:
    def test_clause_cascade(self):
        assert heinloth_curve_condition([T("A5")]) == CharCondition("any")
        assert heinloth_curve_condition([T("A2"), T("D4")]) == CharCondition("not", 2)
        assert heinloth_curve_condition([T("C3"), T("G2")]) == CharCondition(
            "greater", 10
        )
        assert heinloth_curve_condition([T("F4")]) == CharCondition("greater", 22)
        assert heinloth_curve_condition([T("E6"), T("A1")]) == CharCondition(
            "greater", 22
        )
        assert heinloth_curve_condition([T("B2"), T("E7")]) == CharCondition(
            "greater", 34
        )
        assert heinloth_curve_condition([T("E8")]) == CharCondition("greater", 58)

    def test_empty_rejected(self):
        with pytest.raises(InvalidRank):
            heinloth_curve_condition([])

    def test_str_forms(self):
        assert str(CharCondition("any")) == "any characteristic"
        assert str(CharCondition("not", 2)) == "characteristic != 2"
        assert str(CharCondition("greater", 58)) == "characteristic > 58"


class TestSeparableIndexBound:
    def test_values(self):
        assert separable_index_upper_bound(1, 2) == 2
        assert separable_index_upper_bound(2, 3) == 18
        assert separable_index_upper_bound(1, 1) == 1

    def test_invalid(self):
        with pytest.raises(InvalidRank):
            separable_index_upper_bound(0, 1)


class TestGoodPrimes:
    def test_exceptional(self):
        assert good_prime_excluded(T("E8")) == {2, 3, 5}
        assert good_prime_excluded(T("E6")) == {2, 3}
        assert good_prime_excluded(T("E7")) == {2, 3}
        assert good_prime_excluded(T("F4")) == {2, 3}
        assert good_prime_excluded(T("G2")) == {2, 3}

    def test_classical_rejected(self):
        with pytest.raises(NotExceptional):
            good_prime_excluded(T("A5"))
