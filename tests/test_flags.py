"""Weighted flags, weight vectors, and parabolic membership."""

import random
from fractions import Fraction

import pytest
import sympy

from semistab import (
    OneParamSubgroup,
    WeightedFlag,
    WeightVector,
    integral_subgroup_of,
    parabolic_member,
    standard_weight_vector,
    unipotent_radical_member,
    weight_vector_of_filtration,
    weighted_flag_of,
)
from semistab.errors import (
    DimensionMismatch,
    MalformedFiltration,
    OutOfRange,
    SingularMatrix,
    TrivialSubgroup,
)


def frac(*entries):
    return tuple(Fraction(e) for e in entries)


class TestStandardWeightVector:
    def test_table(self):
        assert standard_weight_vector(3, 1).entries == frac(-2, 1, 1)
        assert standard_weight_vector(2, 1).entries == frac(-1, 1)
        assert standard_weight_vector(4, 2).entries == frac(-2, -2, 2, 2)

    def test_formula_symbolic(self):
        for r in range(2, 8):
            for i in range(1, r):
                entries = standard_weight_vector(r, i).entries
                assert entries == (Fraction(i - r),) * i + (Fraction(i),) * (r - i)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            standard_weight_vector(3, 3)
        with pytest.raises(OutOfRange):
            standard_weight_vector(1, 1)


class TestWeightedFlagOf:
    def test_examples(self):
        f = weighted_flag_of(OneParamSubgroup((-2, 1, 1)))
        assert (f.dims, f.alphas, f.basis_order) == ((1,), frac(1), (1, 2, 3))
        f = weighted_flag_of(OneParamSubgroup((-1, -1, 2)))
        assert (f.dims, f.alphas) == ((2,), frac(1))
        f = weighted_flag_of(OneParamSubgroup((-1, 0, 1)))
        assert (f.dims, f.alphas) == ((1, 2), frac("1/3", "1/3"))

    def test_trivial_rejected(self):
        with pytest.raises(TrivialSubgroup):
            weighted_flag_of(OneParamSubgroup((0, 0)))

    def test_dims_must_rise_inside_the_rank(self):
        """Only the lengths and the alphas used to be checked."""
        for dims in [(2, 1), (1, 1), (0, 1), (1, 3)]:
            with pytest.raises(MalformedFiltration, match="member ranks must satisfy"):
                WeightedFlag(dims, (1, 1), (1, 2, 3))
        with pytest.raises(MalformedFiltration, match="equal length"):
            WeightedFlag((1,), (1, 1), (1, 2, 3))
        assert WeightedFlag((1, 2), (1, 1), (1, 2, 3)).blocks() == [(1,), (2,), (3,)]

    @pytest.mark.parametrize("order", [(7, 7, 0), (1, 1, 2), (0, 1, 2), (2, 3, 4)])
    def test_basis_order_must_permute_the_basis(self, order):
        """(7, 7, 0) used to give the blocks [(7,), (0, 7)], of basis indices that do not exist."""
        with pytest.raises(MalformedFiltration, match=r"a permutation of 1\.\.3"):
            WeightedFlag((1,), (1,), order)

    def test_stable_tie_order(self):
        f = weighted_flag_of(OneParamSubgroup((1, -1, 1, -1)))
        assert f.basis_order == (2, 4, 1, 3)
        assert f.blocks() == [(2, 4), (1, 3)]


class TestWeightVectorOfFiltration:
    def test_examples(self):
        assert weight_vector_of_filtration([1], [1], 3).entries == frac(-2, 1, 1)
        assert weight_vector_of_filtration(
            [1, 2], [Fraction(1, 3), Fraction(1, 3)], 3
        ).entries == frac(-1, 0, 1)
        assert weight_vector_of_filtration([1], [2], 2).entries == frac(-2, 2)

    def test_malformed(self):
        with pytest.raises(MalformedFiltration):
            weight_vector_of_filtration([2, 1], [1, 1], 3)
        with pytest.raises(MalformedFiltration):
            weight_vector_of_filtration([1], [0], 3)
        with pytest.raises(MalformedFiltration):
            weight_vector_of_filtration([3], [1], 3)

    def test_weight_vector_checked(self):
        with pytest.raises(MalformedFiltration, match="^entries must be nondecreasing$"):
            WeightVector(frac(1, 0, -1))
        with pytest.raises(MalformedFiltration, match="^entries must sum to zero$"):
            WeightVector(frac(0, 1))
        assert WeightVector(("-1/2", 0, "1/2")).entries == frac("-1/2", 0, "1/2")

    def test_round_trip_alphas(self):
        """Gap extraction at the member ranks recovers alpha exactly."""
        rng = random.Random(20240815)
        for _ in range(200):
            r = rng.randint(2, 6)
            t = rng.randint(1, r - 1)
            ranks = sorted(rng.sample(range(1, r), t))
            alphas = [
                Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in ranks
            ]
            vector = weight_vector_of_filtration(ranks, alphas, r)
            # Each standard vector jumps by r at its pivot, so the weighted
            # sum jumps by alpha_j * r at rk_j; dividing by r recovers alpha.
            recovered = {pos: gap / r for pos, gap in vector.gaps().items()}
            assert recovered == {
                rank: alpha for rank, alpha in zip(ranks, alphas)
            }

    def test_flag_round_trip_through_subgroup(self):
        rng = random.Random(77)
        for _ in range(100):
            r = rng.randint(2, 6)
            t = rng.randint(1, r - 1)
            ranks = sorted(rng.sample(range(1, r), t))
            alphas = [
                Fraction(rng.randint(1, 6), rng.randint(1, 4)) for _ in ranks
            ]
            vector = weight_vector_of_filtration(ranks, alphas, r)
            lam = integral_subgroup_of(vector)
            flag = weighted_flag_of(lam)
            assert flag.dims == tuple(ranks)
            # alphas of the flag are proportional to the input alphas.
            ratios = {
                flag.alphas[j] / alphas[j] for j in range(t)
            }
            assert len(ratios) == 1


class TestIntegralSubgroup:
    def test_clears_denominators(self):
        vector = weight_vector_of_filtration(
            [1, 2], [Fraction(1, 3), Fraction(1, 3)], 3
        )
        assert integral_subgroup_of(vector).weights == (-1, 0, 1)

    def test_primitive(self):
        vector = weight_vector_of_filtration([1], [2], 2)
        assert integral_subgroup_of(vector).weights == (-1, 1)


class TestParabolic:
    def test_identity(self):
        lam = OneParamSubgroup((-1, 1))
        identity = [[1, 0], [0, 1]]
        assert parabolic_member(lam, identity)
        assert unipotent_radical_member(lam, identity)

    def test_lower_corner_blocks(self):
        lam = OneParamSubgroup((-1, 1))
        lower = [[1, 0], [1, 1]]
        upper = [[1, 1], [0, 1]]
        assert not parabolic_member(lam, lower)
        assert parabolic_member(lam, upper)
        assert unipotent_radical_member(lam, upper)

    def test_diagonal_not_unipotent(self):
        lam = OneParamSubgroup((-1, 1))
        g = [[2, 0], [0, Fraction(1, 2)]]
        assert parabolic_member(lam, g)
        assert not unipotent_radical_member(lam, g)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            parabolic_member(OneParamSubgroup((-1, 1)), [[1, 1], [1, 1]])

    def test_matrix_size_checked(self):
        lam = OneParamSubgroup((-1, 0, 1))
        for g in ([[1, 0], [0, 1]], [[1, 0, 0], [0, 1], [0, 0, 1]]):
            with pytest.raises(DimensionMismatch, match=r"^matrix must be 3x3$"):
                parabolic_member(lam, g)

    def test_entry_above_the_grading_not_unipotent(self):
        """An entry (a, b) with w(a) > w(b) makes the limit diverge."""
        lam = OneParamSubgroup((1, -1))
        g = [[1, 1], [0, 1]]
        assert not parabolic_member(lam, g)
        assert not unipotent_radical_member(lam, g)
        assert unipotent_radical_member(lam, [[1, 0], [1, 1]])

    def test_singular_exactly_when_sympy_determinant_vanishes(self):
        rng = random.Random(11)
        lam = OneParamSubgroup((-1, 0, 1))
        singular = 0
        for _ in range(200):
            g = [
                [Fraction(rng.randint(-1, 1), rng.randint(1, 2)) for _ in range(3)]
                for _ in range(3)
            ]
            expected = sympy.Matrix(g).det() == 0
            singular += expected
            try:
                parabolic_member(lam, g)
                assert not expected
            except SingularMatrix:
                assert expected
        assert 0 < singular < 200

    def test_float_entry_rejected(self):
        with pytest.raises(TypeError):
            parabolic_member(OneParamSubgroup((-1, 1)), [[1.0, 0], [0, 1]])

    def test_group_closure(self):
        """Parabolic membership is closed under products (sampled)."""
        rng = random.Random(5)
        lam = OneParamSubgroup((-1, 0, 1))
        members = []
        while len(members) < 6:
            g = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
            try:
                if parabolic_member(lam, g):
                    members.append(g)
            except SingularMatrix:
                continue
        for a in members:
            for b in members:
                product = [
                    [sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
                    for i in range(3)
                ]
                assert parabolic_member(lam, product)


class TestIntegersOnly:
    """Floats used to be truncated: (1.7, -1.7) became the subgroup (1, -1)."""

    @pytest.mark.parametrize(
        "weights", [(1.7, -1.7), (1.0, -1.0), (Fraction(1), Fraction(-1))]
    )
    def test_subgroup_weights(self, weights):
        with pytest.raises(TypeError):
            OneParamSubgroup(weights)

    def test_filtration_ranks_and_rank(self):
        with pytest.raises(TypeError):
            weight_vector_of_filtration([1.0], [1], 3)
        with pytest.raises(TypeError):
            weight_vector_of_filtration([1], [1], 3.0)
        with pytest.raises(TypeError):
            weight_vector_of_filtration([1], [0.5], 3)

    def test_integers_still_read(self):
        with pytest.raises(TypeError, match="expected an integer, got True"):
            OneParamSubgroup((True, -1))
        assert weight_vector_of_filtration((1,), (1,), 2).entries == frac(-1, 1)
