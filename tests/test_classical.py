"""Form bundles on split models: invariants, verdicts, duality."""

import json
import random
import time
from dataclasses import fields
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations, product
from math import comb
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semistab import (
    FiltrationData,
    FiltrationMember,
    FlagStep,
    FormBundle,
    FormVerdict,
    NonvanishingProfile,
    SplitSheafModel,
    SubsheafFlag,
    Symmetry,
    UniPoly,
    coordinate_flag,
    dualize_filtration,
    filtration_data_of,
    form_profile,
    functional_L,
    functional_M,
    kernel_destabilizer,
    mu_profile,
    ramanathan_semistable,
    saturation_degree,
    semistable_form,
)
from semistab import classical
from semistab.classical import EXHAUSTIVE_RANK_CAP
from semistab.errors import (
    DegenerateFlag,
    InternalError,
    MalformedFlag,
    NotCoordinateFlag,
    SemistabError,
    TooLarge,
)

from conftest import (
    dense_columns,
    oracle_coordinate_chains,
    oracle_coordinate_flags,
    oracle_flag_ranks,
    oracle_form_bundle,
    oracle_gather_flags,
    oracle_ramanathan_semistable,
    oracle_saturation_degree,
    oracle_score,
    oracle_semistable_form,
)

ONE = UniPoly.of(1)
ZERO = UniPoly.zero()
X = UniPoly.x()

TRIVIAL_2 = SplitSheafModel((0, 0))
TRIVIAL_3 = SplitSheafModel((0, 0, 0))
TRIVIAL_4 = SplitSheafModel((0, 0, 0, 0))


def constant_form(model, symmetry, rows):
    entries = tuple(
        tuple(UniPoly.of(v) if v else ZERO for v in row) for row in rows
    )
    return FormBundle(model, symmetry, entries)


SYMPLECTIC = constant_form(
    TRIVIAL_2, Symmetry.ANTISYMMETRIC, [[0, 1], [-1, 0]]
)


def flag_data(model, flag):
    """FiltrationData of a flag over a bare split model (no form needed)."""
    members = []
    for step in flag.steps:
        rank = len(step.columns)
        degree = saturation_degree(model, step)
        members.append(
            FiltrationMember(
                rank, Fraction(degree), UniPoly.of(degree + rank, rank), step.alpha
            )
        )
    return FiltrationData(
        model.rank, Fraction(0), model.total_hilb(), tuple(members)
    )


class TestSplitModel:
    def test_degrees_must_balance(self):
        with pytest.raises(MalformedFlag):
            SplitSheafModel((1, 0))

    def test_hilbert_polynomial(self):
        assert TRIVIAL_2.total_hilb() == UniPoly.of(2, 2)
        assert SplitSheafModel((3, -3)).total_hilb() == UniPoly.of(2, 2)

    def test_dual(self):
        assert SplitSheafModel((2, -1, -1)).dual().summand_degrees == (-2, 1, 1)

    @pytest.mark.parametrize("degrees", [(0.5, -0.5), (1.0, -1.0)])
    def test_float_degrees_rejected(self, degrees):
        """int() used to truncate: (0.5, -0.5) became the trivial model."""
        with pytest.raises(TypeError):
            SplitSheafModel(degrees)


ASYMMETRIC = "^matrix does not respect the symmetry type$"


class TestFormBundle:
    def test_degree_bound(self):
        model = SplitSheafModel((1, -1))
        with pytest.raises(MalformedFlag, match=r"^entry \(1,1\) has degree 0, allowed at most -2$"):
            FormBundle(model, Symmetry.SYMMETRIC, ((ONE, ZERO), (ZERO, ZERO)))

    def test_symmetry_enforced(self):
        with pytest.raises(MalformedFlag, match=ASYMMETRIC):
            FormBundle(
                TRIVIAL_2, Symmetry.SYMMETRIC, ((ZERO, ONE), (ONE.scale(-1), ZERO))
            )
        with pytest.raises(MalformedFlag, match=ASYMMETRIC):
            FormBundle(
                TRIVIAL_2, Symmetry.ANTISYMMETRIC, ((ONE, ZERO), (ZERO, ONE))
            )

    def test_antisymmetric_diagonal_is_not_its_own_negative(self):
        """A nonzero diagonal entry of an antisymmetric form fails the mirror check: it is
        not its own negative."""
        entries = ((ZERO, ONE, ZERO), (ONE.scale(-1), X, ZERO), (ZERO, ZERO, ZERO))
        with pytest.raises(MalformedFlag, match=ASYMMETRIC):
            FormBundle(SplitSheafModel((0, -1, 1)), Symmetry.ANTISYMMETRIC, entries)

    def test_nontrivial_required(self):
        with pytest.raises(MalformedFlag, match="^form must be nontrivial$"):
            FormBundle(TRIVIAL_2, Symmetry.SYMMETRIC, ((ZERO, ZERO), (ZERO, ZERO)))

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_validation_matches_the_first_loop(self, data):
        """Accepted exactly when `oracle_form_bundle`, the loop over every entry pair,
        accepts; otherwise the same error with the same message.  The forms are symmetric
        or antisymmetric, with entries up to `excess` degrees over their bound, and then
        up to two entries are redrawn."""
        r = data.draw(st.integers(1, 5))
        degrees = data.draw(st.lists(st.integers(-2, 2), min_size=r - 1, max_size=r - 1))
        model = SplitSheafModel((*degrees, -sum(degrees)))
        excess = data.draw(st.sampled_from([0, 0, 0, 1, 3]))

        def poly(k, l):
            bound = -(model.summand_degrees[k] + model.summand_degrees[l])
            coefficients = st.lists(st.integers(-2, 2), max_size=max(0, bound + 1 + excess))
            return UniPoly.of(*data.draw(coefficients))

        symmetry = data.draw(st.sampled_from(Symmetry))
        sign = 1 if symmetry is Symmetry.SYMMETRIC else -1
        entries = [[ZERO] * r for _ in range(r)]
        for k in range(r):
            for l in range(k + (sign < 0), r):
                entries[k][l] = poly(k, l)
                entries[l][k] = entries[k][l].scale(sign)
        for _ in range(data.draw(st.sampled_from([0, 0, 1, 2]))):
            k, l = data.draw(st.integers(0, r - 1)), data.draw(st.integers(0, r - 1))
            entries[k][l] = poly(k, l)
        entries = tuple(map(tuple, entries))
        try:
            oracle_form_bundle(model, symmetry, entries)
        except MalformedFlag as expected:
            with pytest.raises(MalformedFlag) as found:
                FormBundle(model, symmetry, entries)
            assert str(found.value) == str(expected)
        else:
            assert FormBundle(model, symmetry, entries).entries == entries


class TestSaturationDegree:
    def test_constant_line(self):
        step = FlagStep(((ONE, ZERO),), Fraction(1))
        assert saturation_degree(TRIVIAL_2, step) == 0

    def test_twisted_line(self):
        step = FlagStep(((ONE, X),), Fraction(1))
        assert saturation_degree(TRIVIAL_2, step) == -1

    def test_rank_zero_rejected(self):
        step = FlagStep(((ZERO, ZERO),), Fraction(1))
        with pytest.raises(DegenerateFlag):
            saturation_degree(TRIVIAL_2, step)

    def test_minor_work_capped(self):
        """Refused before any minor is taken; a step under the cap is computed."""
        model = SplitSheafModel((0,) * 24)
        start = time.perf_counter()
        with pytest.raises(TooLarge, match="has 2704156 maximal minors"):
            saturation_degree(model, OVER_THE_MINOR_CAP)
        assert time.perf_counter() - start < 1
        assert saturation_degree(model, coordinate_flag([[1, 2, 3]], r=24).steps[0]) == 0

    def test_coordinate_step_takes_no_minor(self, monkeypatch):
        """Twelve coordinate columns at r = 24 were refused for their C(24, 12) minors; on
        their twelve nonzero rows the one minor is its own content, and is not taken."""
        import semistab._polyalg as polyalg

        taken = []

        def counted(matrix, determinant=polyalg.determinant):
            taken.append(len(matrix))
            return determinant(matrix)

        monkeypatch.setattr(polyalg, "determinant", counted)
        model = SplitSheafModel((1,) * 12 + (-1,) * 12)
        start = time.perf_counter()
        assert saturation_degree(model, coordinate_flag([range(1, 13)], r=24).steps[0]) == 12
        assert time.perf_counter() - start < 1
        assert taken == []

    def test_gcd_priced_minor_on_its_own_rows_not_taken(self):
        """A column of degree 405 on one row of two: its one minor would cost 8,303,765
        units for the gcd, so it was refused; it is its own content, so it is not taken."""
        column = (UniPoly.of(*([1] + [0] * 404 + [1])), UniPoly.zero())
        model = SplitSheafModel((3, -3))
        assert saturation_degree(model, FlagStep((column,), Fraction(1))) == 3

    def test_dense_polynomial_minors_priced(self, monkeypatch):
        """3,003 rank-8 minors at r = 14 of dense degree-1 columns took about a minute."""
        import semistab._polyalg as polyalg

        def no_minors(*args):
            raise AssertionError("a minor was taken")

        monkeypatch.setattr(polyalg, "determinant", no_minors)
        step = FlagStep(dense_columns(random.Random(14), 14, 8, 1), Fraction(1))
        with pytest.raises(TooLarge, match=r"has 3003 maximal minors; C\(r, k\) \* 54630 \("):
            saturation_degree(SplitSheafModel((0,) * 14), step)

    def test_dense_step_under_the_cap(self):
        """Computed, and equal to minus the largest degree of a minor over their gcd (sympy)."""
        columns = dense_columns(random.Random(3), 6, 3, 2)
        matrix = sympy.Matrix([[to_sympy(column[a]) for column in columns] for a in range(6)])
        minors = [matrix.extract(list(rows), [0, 1, 2]).det() for rows in combinations(range(6), 3)]
        content = reduce(sympy.gcd, minors)
        expected = -max(sympy.degree(sympy.cancel(m / content), SYMPY_X) for m in minors)
        step = FlagStep(columns, Fraction(1))
        assert saturation_degree(SplitSheafModel((0,) * 6), step) == expected

    @staticmethod
    def _common_factor_step(degree):
        """The column (p g, q g), p and q of the given degree and g of degree 5, on its model."""
        rng = random.Random(degree)
        (p, q), ((g,),) = dense_columns(rng, 2, 1, degree)[0], dense_columns(rng, 1, 1, 5)
        top = degree + 5
        return SplitSheafModel((top, -top)), FlagStep(((p * g, q * g),), Fraction(1))

    def test_high_degree_content(self):
        """Euclid over Q took about 30 s on this step; on primitive parts it takes about 0.3 s."""
        model, step = self._common_factor_step(120)
        entries = [to_sympy(p) for p in step.columns[0]]
        content = sympy.gcd(*entries)
        expected = min(
            d - sympy.degree(sympy.cancel(e / content), SYMPY_X)
            for d, e in zip(model.summand_degrees, entries)
        )
        start = time.perf_counter()
        assert saturation_degree(model, step) == expected
        assert time.perf_counter() - start < 3

    def test_content_gcd_priced(self, monkeypatch):
        """A rank-1 step used to be priced at 30 units whatever its degree."""
        import semistab._polyalg as polyalg

        def no_gcd(*args):
            raise AssertionError("a gcd was taken")

        monkeypatch.setattr(polyalg, "poly_gcd", no_gcd)
        model, step = self._common_factor_step(400)
        with pytest.raises(TooLarge, match=r"C\(r, k\) \* 8303765 \(a minor of degree-405 columns\)"):
            saturation_degree(model, step)

    def test_dense_step_echelon_priced(self, monkeypatch):
        """9 dense degree-30 columns at r = 10 ran 26 s in their echelon before the minor cap."""
        import semistab._polyalg as polyalg

        def no_echelon(*args):
            raise AssertionError("the step was eliminated")

        monkeypatch.setattr(polyalg, "independent_columns", no_echelon)
        step = FlagStep(dense_columns(random.Random(5), 10, 9, 30), Fraction(1))
        start = time.perf_counter()
        with pytest.raises(TooLarge, match=r"^a step of 9 generator columns at rank 10 costs "):
            saturation_degree(SplitSheafModel((0,) * 10), step)
        assert time.perf_counter() - start < 1

    def test_echelon_price_under_the_cap(self):
        """The echelon of r x k columns costs 25 sum_s (r - s)(k - s)((s d + 1)^2 + 2) + 30."""
        assert classical._elimination_price(6, 5, 10) == 423_030
        assert classical._elimination_price(24, 12, 0) == 97_380
        assert classical._elimination_price(14, 8, 1) == 142_830
        step = FlagStep(dense_columns(random.Random(6), 6, 5, 10), Fraction(1))
        assert isinstance(saturation_degree(SplitSheafModel((0,) * 6), step), int)


class TestCoordinateFlag:
    def test_rank_is_required(self):
        """Inferring r from the largest index gave [[1, 2]] columns of length 2, not 3."""
        with pytest.raises(TypeError):
            coordinate_flag([[1, 2]])
        assert coordinate_flag([[1, 2]], r=3).steps[0].columns == (
            (ONE, ZERO, ZERO),
            (ZERO, ONE, ZERO),
        )

    def test_one_alpha_per_step(self):
        """`zip` used to drop the steps past the last alpha: here the second."""
        for alphas in ([1], [1, 2, 3]):
            message = f"^{len(alphas)} alphas for a chain of 2 steps$"
            with pytest.raises(MalformedFlag, match=message):
                coordinate_flag([[1], [1, 2]], alphas, r=3)

    @pytest.mark.parametrize("index", [0, 4, -1])
    def test_index_outside_1_to_r(self, index):
        """An index outside 1..r used to become a zero column, so [[1, 4]] at r = 3 was
        scored as the step {1} and given a verdict."""
        with pytest.raises(MalformedFlag, match=f"^coordinate index {index} lies outside 1..3$"):
            coordinate_flag([[1, index]], r=3)


class TestFiltrationDataOf:
    def test_coordinate_line(self):
        flag = coordinate_flag([[1]], r=2)
        data = filtration_data_of(SYMPLECTIC, flag)
        member = data.members[0]
        assert (member.rank, member.degree) == (1, 0)
        assert member.hilb == UniPoly.of(1, 1)
        assert data.total_hilb == UniPoly.of(2, 2)

    def test_twisted_line(self):
        flag = SubsheafFlag((FlagStep(((ONE, X),), Fraction(1)),))
        data = filtration_data_of(SYMPLECTIC, flag)
        member = data.members[0]
        assert (member.rank, member.degree) == (1, -1)
        assert member.hilb == UniPoly.of(0, 1)

    def test_full_rank_step_rejected(self):
        flag = SubsheafFlag(
            (
                FlagStep(((ONE, ZERO),), Fraction(1)),
                FlagStep(((ZERO, ONE), (ONE, ZERO)), Fraction(1)),
            )
        )
        with pytest.raises(DegenerateFlag):
            filtration_data_of(SYMPLECTIC, flag)

    def test_non_nested_rejected(self):
        fb = constant_form(
            TRIVIAL_3, Symmetry.SYMMETRIC, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        )
        e = lambda k: tuple(ONE if a == k else ZERO for a in range(3))
        flag = SubsheafFlag(
            (
                FlagStep((e(0),), Fraction(1)),
                FlagStep((e(1), e(2)), Fraction(1)),
            )
        )
        with pytest.raises(MalformedFlag):
            filtration_data_of(fb, flag)

    def test_step_not_nested_in_the_one_before_rejected(self):
        """Step 3 contains step 1 but not step 2; a check against step 1 alone passes it."""
        flag = coordinate_flag([[1], [1, 2], [1, 3, 4]], r=4)
        for score in (filtration_data_of, form_profile):
            with pytest.raises(MalformedFlag, match="^flag steps are not nested$"):
                score(identity_form(4), flag)

    def test_combination_of_the_upper_generators_nested(self):
        """e1 + x e2 lies in <e1, e2> although it is not one of its generators."""
        e = lambda k: tuple(ONE if a == k else ZERO for a in range(3))
        flag = SubsheafFlag(
            (
                FlagStep(((ONE, X, ZERO),), Fraction(1)),
                FlagStep((e(0), e(1)), Fraction(1)),
            )
        )
        fb = identity_form(3)
        data = filtration_data_of(fb, flag)
        assert [(m.rank, m.degree) for m in data.members] == [(1, -1), (2, 0)]
        assert form_profile(fb, flag).tuples == profile_by_definition(fb, flag)

    def test_M_vanishes_on_degree_zero_coordinate_flags(self):
        """Regression guard: trivial degrees make M identically zero."""
        for flag in oracle_coordinate_flags(3):
            data = flag_data(TRIVIAL_3, flag)
            assert functional_M(data).is_zero()


def unit_columns(r, indices):
    return tuple(tuple(ONE if a == k else ZERO for a in range(1, r + 1)) for k in indices)


# Two flags of the identity form at r = 24, each breaking two rules; the first
# step's error is raised.  Twelve dense constant columns cost 97,380 units to
# eliminate, under the cap, but C(24, 12) minors at 37,980 units are over it.
OVER_THE_MINOR_CAP = FlagStep(dense_columns(random.Random(24), 24, 12, 0), Fraction(1))
MINOR_CAP_MESSAGE = (
    "a rank-12 step at rank 24 has 2704156 maximal minors; "
    "C(r, k) * 37980 (a minor of degree-0 columns) exceeds the cap 2000000"
)
TWO_BROKEN_RULES = {
    "over-the-cap-then-collapse": (
        SubsheafFlag((OVER_THE_MINOR_CAP, FlagStep(unit_columns(24, [1]), Fraction(1)))),
        TooLarge,
        MINOR_CAP_MESSAGE,
    ),
    "short-column-then-over-the-cap": (
        SubsheafFlag((FlagStep(((ONE,) * 23,), Fraction(1)), OVER_THE_MINOR_CAP)),
        MalformedFlag,
        "generator column has length 23, expected 24",
    ),
}


class TestFlagRuleOrder:
    @pytest.mark.parametrize("name", TWO_BROKEN_RULES)
    def test_first_step_error_wins(self, name):
        flag, error, message = TWO_BROKEN_RULES[name]
        for score in (filtration_data_of, form_profile):
            assert _outcome(score, identity_form(24), flag) == (error, message)

    def test_form_profile_alone_holds_the_minor_cap(self):
        flag = SubsheafFlag((OVER_THE_MINOR_CAP,))
        assert _outcome(form_profile, identity_form(24), flag) == (TooLarge, MINOR_CAP_MESSAGE)


class TestFormProfile:
    def test_isotropic_line(self):
        flag = coordinate_flag([[1]], r=2)
        profile = form_profile(SYMPLECTIC, flag)
        assert profile.tuples == frozenset({(1, 2), (2, 2)})

    def test_kernel_line(self):
        fb = constant_form(TRIVIAL_2, Symmetry.SYMMETRIC, [[0, 0], [0, 1]])
        flag = coordinate_flag([[1]], r=2)
        profile = form_profile(fb, flag)
        assert profile.tuples == frozenset({(2, 2)})

    def test_empty_flag(self):
        profile = form_profile(SYMPLECTIC, SubsheafFlag(()))
        assert profile.tuples == frozenset({(1, 1)})
        data = filtration_data_of(SYMPLECTIC, SubsheafFlag(()))
        assert mu_profile(data, profile) == 0


# -- form_profile against its definition, G_i^T Phi G_j by sympy ---------------

SYMPY_X = sympy.Symbol("x")
coefficient = st.fractions(min_value=-3, max_value=3, max_denominator=2)


def to_sympy(p):
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * SYMPY_X**k for k, c in enumerate(p.coefficients)),
        sympy.Integer(0),
    )


def profile_by_definition(fb, flag):
    """Pairs i <= j <= t + 1 with G_i^T Phi G_j not identically zero, G_{t+1} = I."""
    r = fb.model.rank
    phi = sympy.Matrix([[to_sympy(p) for p in row] for row in fb.entries])
    blocks = [
        sympy.Matrix([[to_sympy(column[a]) for column in step.columns] for a in range(r)])
        for step in flag.steps
    ]
    blocks.append(sympy.eye(r))
    t = flag.step_count
    return frozenset(
        (i, j)
        for i in range(1, t + 2)
        for j in range(i, t + 2)
        if any(sympy.expand(e) != 0 for e in blocks[i - 1].T * phi * blocks[j - 1])
    )


def polys(max_degree):
    """Zero (one draw in three) or a polynomial of degree at most max_degree."""
    if max_degree < 0:
        return st.just(ZERO)
    nonzero = st.lists(coefficient, min_size=1, max_size=max_degree + 1).map(
        lambda cs: UniPoly(tuple(cs))
    )
    return st.one_of(st.just(ZERO), nonzero, nonzero)


@st.composite
def split_models(draw, max_rank=5):
    r = draw(st.integers(2, max_rank))
    degrees = draw(st.lists(st.integers(-1, 1), min_size=r - 1, max_size=r - 1))
    return SplitSheafModel(tuple(degrees) + (-sum(degrees),))


@st.composite
def forms(draw, max_rank=5):
    """A nonzero (anti)symmetric form with every entry inside its degree bound."""
    model = draw(split_models(max_rank))
    symmetry = draw(st.sampled_from(list(Symmetry)))
    sign = 1 if symmetry is Symmetry.SYMMETRIC else -1
    d = model.summand_degrees
    r = model.rank
    rows = [[ZERO] * r for _ in range(r)]
    for a in range(r):
        for b in range(a if sign == 1 else a + 1, r):
            rows[a][b] = draw(polys(-(d[a] + d[b])))
            rows[b][a] = rows[a][b].scale(sign)
    assume(any(not p.is_zero() for row in rows for p in row))
    return FormBundle(model, symmetry, tuple(tuple(row) for row in rows))


@st.composite
def nondegenerate_forms(draw, max_rank=4):
    """A form with det Phi != 0, made so by a planted permutation pattern.

    A term of the Leibniz expansion pairs k with sigma(k) through entries
    of degree at most -(d_k + d_sigma(k)); a nonzero entry needs its bound
    to be at least 0, and these bounds sum to 0, so each is 0.  The model is therefore drawn as pairs (d, -d) and, for a
    symmetric form, zero summands: the involution sigma swaps each pair
    and fixes the rest, and P has a 1 at each (k, sigma(k)), -1 below the
    diagonal when antisymmetric.  det(Phi + cP) is a polynomial in c of
    degree r with leading coefficient det P = +-1, so one of c = 1..r+1
    makes it nonzero.
    """
    symmetry = draw(st.sampled_from(list(Symmetry)))
    if symmetry is Symmetry.SYMMETRIC:
        r = draw(st.integers(2, max_rank))
        pairs = draw(st.integers(0, r // 2))
    else:
        r = 2 * draw(st.integers(1, max_rank // 2))
        pairs = r // 2
    halves = draw(st.lists(st.integers(-1, 1), min_size=pairs, max_size=pairs))
    slots = draw(st.permutations(range(r)))
    degrees, sigma = [0] * r, list(range(r))
    for n, d in enumerate(halves):
        k, l = slots[2 * n], slots[2 * n + 1]
        degrees[k], degrees[l], sigma[k], sigma[l] = d, -d, l, k
    model = SplitSheafModel(tuple(degrees))
    sign = 1 if symmetry is Symmetry.SYMMETRIC else -1
    rows = [[ZERO] * r for _ in range(r)]
    for a in range(r):
        for b in range(a if sign == 1 else a + 1, r):
            rows[a][b] = draw(polys(-(degrees[a] + degrees[b])))
            rows[b][a] = rows[a][b].scale(sign)
    for c in range(1, r + 2):
        planted = [row[:] for row in rows]
        for k in range(r):
            entry = UniPoly.of(c if k <= sigma[k] else sign * c)
            planted[k][sigma[k]] = planted[k][sigma[k]] + entry
        matrix = sympy.Matrix([[to_sympy(p) for p in row] for row in planted])
        if sympy.expand(matrix.det()) != 0:
            return FormBundle(model, symmetry, tuple(tuple(row) for row in planted))
    raise AssertionError("det(Phi + cP) vanished at r + 1 values of c")


@st.composite
def degenerate_forms(draw, max_rank=5):
    """Phi = sum of v v^T (symmetric) or v w^T - w v^T (antisymmetric) of low rank.

    Entry k of each vector has degree at most -d_k, so every entry of Phi
    stays inside its degree bound.
    """
    model = draw(split_models(max_rank))
    r = model.rank
    symmetry = draw(st.sampled_from(list(Symmetry)))
    assume(symmetry is Symmetry.SYMMETRIC or r >= 3)

    def vector():
        return [draw(polys(-d)) for d in model.summand_degrees]

    rows = [[ZERO] * r for _ in range(r)]
    if symmetry is Symmetry.SYMMETRIC:
        for _ in range(draw(st.integers(1, r - 1))):
            v, c = vector(), draw(st.sampled_from([-2, -1, 1, 2]))
            for a in range(r):
                for b in range(r):
                    rows[a][b] = rows[a][b] + (v[a] * v[b]).scale(c)
    else:
        v, w = vector(), vector()
        for a in range(r):
            for b in range(r):
                rows[a][b] = v[a] * w[b] - w[a] * v[b]
    assume(any(not p.is_zero() for row in rows for p in row))
    return FormBundle(model, symmetry, tuple(tuple(row) for row in rows))


@st.composite
def forms_with_nested_flags(draw, form=forms()):
    """A form and a polynomial flag: step j + 1 spans step j and one new column."""
    fb = draw(form)
    r = fb.model.rank
    column = st.lists(polys(2), min_size=r, max_size=r).map(tuple)
    first = draw(st.lists(column, min_size=1, max_size=min(2, r - 1)))
    extra = draw(st.lists(column, min_size=0, max_size=r - 1 - len(first)))
    columns = first + extra
    # Full rank at x = 7 implies full generic rank: every step is a valid flag step.
    at_seven = sympy.Matrix([[to_sympy(c[a]).subs(SYMPY_X, 7) for c in columns] for a in range(r)])
    assume(at_seven.rank() == len(columns))
    steps = tuple(
        FlagStep(tuple(columns[: len(first) + k]), Fraction(1))
        for k in range(len(extra) + 1)
    )
    return fb, SubsheafFlag(steps)


class TestFormProfileOracle:
    @settings(max_examples=60, deadline=None)
    @given(forms(), st.data())
    def test_coordinate_flags(self, fb, data):
        flag = data.draw(st.sampled_from(oracle_coordinate_flags(fb.model.rank)))
        assert form_profile(fb, flag).tuples == profile_by_definition(fb, flag)

    @settings(max_examples=60, deadline=None)
    @given(degenerate_forms())
    def test_kernel_flags(self, fb):
        flag = kernel_destabilizer(fb)
        assume(flag is not None)
        assert form_profile(fb, flag).tuples == profile_by_definition(fb, flag)

    @settings(max_examples=60, deadline=None)
    @given(forms_with_nested_flags())
    def test_nested_polynomial_flags(self, case):
        fb, flag = case
        assert form_profile(fb, flag).tuples == profile_by_definition(fb, flag)


def identity_form(r):
    return constant_form(
        SplitSheafModel((0,) * r),
        Symmetry.SYMMETRIC,
        [[int(a == b) for b in range(r)] for a in range(r)],
    )


def test_coordinate_flags_share_one_step_per_subset():
    """The test-side flag list, so that the oracle scores each step of a form once."""
    r = EXHAUSTIVE_RANK_CAP
    steps = {id(step): step for flag in oracle_coordinate_flags(r) for step in flag.steps}
    assert len(steps) == len(set(steps.values())) == 2**r - 2


def test_coordinate_flags_follow_the_chain_order():
    for r in range(2, 7):
        expected = [
            coordinate_flag([sorted(s) for s in chain], r=r) for chain in oracle_coordinate_chains(r)
        ]
        assert oracle_coordinate_flags(r) == expected
        chains = classical._coordinate_chains(r)
        assert [coordinate_flag(chain, r=r) for chain in chains] == expected


def test_walked_form_keeps_equality_hash_and_repr():
    """Scoring leaves nothing behind: the form and its steps hold their fields only."""
    walked, fresh = identity_form(3), identity_form(3)
    flags = oracle_coordinate_flags(3)
    semistable_form(walked, flags)
    assert walked == fresh and hash(walked) == hash(fresh) and repr(walked) == repr(fresh)
    assert vars(walked).keys() == {field.name for field in fields(FormBundle)}
    step_fields = {field.name for field in fields(FlagStep)}
    assert all(vars(step).keys() == step_fields for flag in flags for step in flag.steps)


def _count_calls(monkeypatch, names):
    """Replace each named function or class of `classical` by a counting wrapper."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, original=getattr(classical, name), name=name):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(classical, name, counted)
    return calls


SCORED = ("SubsheafFlag", "FiltrationData", "NonvanishingProfile", "form_profile")


def test_exhaustive_walk_scores_only_the_witness(monkeypatch):
    """A semistable exhaustive walk builds and scores no flag; an unstable one only its witness."""
    identity = identity_form(5)
    hyperbolic = constant_form(SplitSheafModel((1, -1)), Symmetry.SYMMETRIC, [[0, 1], [1, 0]])
    line = coordinate_flag([[1]], r=2)
    calls = _count_calls(monkeypatch, SCORED)
    for check in (semistable_form, ramanathan_semistable):
        assert check(identity).semistable
    assert calls == dict.fromkeys(SCORED, 0)
    assert semistable_form(hyperbolic).witness == line
    assert calls == dict.fromkeys(SCORED, 1)


def test_minors_taken_once_per_step_of_each_scored_flag(monkeypatch):
    """Only `filtration_data_of` takes maximal minors, once per step of the flag it scores:
    C(n_b, k) determinants for a rank-k basis on n_b nonzero rows.  The coordinate flags
    are moved by a dense unimodular g, so that every basis lies on all n_b = 3 rows and
    none on exactly k of them (those take no minor)."""
    import semistab._polyalg as polyalg

    taken = []

    def counted(matrix, determinant=polyalg.determinant):
        taken.append(matrix)
        return determinant(matrix)

    monkeypatch.setattr(polyalg, "determinant", counted)
    g = [[1, 1, 1], [1, 2, 3], [1, 3, 6]]

    def moved(column):
        return tuple(
            sum((UniPoly.of(g[a][b]) * column[b] for b in range(3)), UniPoly.zero()) for a in range(3)
        )

    flags = [
        SubsheafFlag(tuple(FlagStep(tuple(map(moved, s.columns)), s.alpha) for s in flag.steps))
        for flag in oracle_coordinate_flags(3)
    ]
    minors = sum(comb(3, len(step.columns)) for flag in flags for step in flag.steps)
    assert semistable_form(identity_form(3), flags).semistable
    assert len(taken) == minors
    degenerate = constant_form(TRIVIAL_3, Symmetry.SYMMETRIC, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    assert ramanathan_semistable(degenerate, flags).semistable
    # The kernel flag never counts for this check, so only the supplied flags are scored.
    assert len(taken) == 2 * minors
    for flag in flags:
        form_profile(degenerate, flag)
    assert len(taken) == 2 * minors


def _count_echelons(monkeypatch) -> list:
    """The arguments of each `_polyalg._echelon` call from now on."""
    import semistab._polyalg as polyalg

    taken = []

    def counted(*args, echelon=polyalg._echelon):
        taken.append(args)
        return echelon(*args)

    monkeypatch.setattr(polyalg, "_echelon", counted)
    return taken


def test_flag_rule_eliminates_each_step_once(monkeypatch):
    """A step's basis and its nesting come from one echelon; the nesting used to take a
    second one for every step after the first."""
    taken = _count_echelons(monkeypatch)
    columns = dense_columns(random.Random(25), 5, 4, 1)
    polynomial = SubsheafFlag(
        tuple(FlagStep(columns[:k], Fraction(1)) for k in (1, 2, 4))
    )
    coordinate = [(identity_form(4), flag) for flag in oracle_coordinate_flags(4)]
    for fb, flag in [(identity_form(5), polynomial), *coordinate]:
        taken.clear()
        form_profile(fb, flag)
        assert len(taken) == flag.step_count


def test_walk_eliminates_each_supplied_step_once(monkeypatch):
    """A walk scores each supplied flag from one pass of the flag rule: one echelon a
    step, after the one rank of a `semistable` check; the profile takes none."""
    import semistab._polyalg as polyalg

    columns = dense_columns(random.Random(28), 6, 4, 1)
    polynomial = [
        SubsheafFlag(tuple(FlagStep(columns[i : i + k], Fraction(1)) for k in (1, 2, 3)))
        for i in range(2)
    ]
    taken = _count_echelons(monkeypatch)
    calls = {}
    for name in ("independent_columns", "generic_rank"):
        def counted(matrix, name=name, original=getattr(polyalg, name)):
            before = len(taken)
            result = original(matrix)
            calls[name] += len(taken) - before
            return result
        monkeypatch.setattr(polyalg, name, counted)
    for flags in (polynomial, oracle_coordinate_flags(4)):
        r = len(flags[0].steps[0].columns[0])
        steps = sum(flag.step_count for flag in flags)
        for check, rank in ((semistable_form, 1), (ramanathan_semistable, 0)):
            calls.update(independent_columns=0, generic_rank=0)
            assert check(identity_form(r), flags).semistable
            assert calls == {"independent_columns": steps, "generic_rank": rank}


GOLDEN_ELIMINATIONS = {"formcheck_degenerate.json": 4, "formcheck_kernel_poly.json": 7}


@pytest.mark.parametrize("name", GOLDEN_ELIMINATIONS)
def test_degenerate_golden_eliminations(name, monkeypatch):
    """A `semistable` check of a degenerate form: its rank, its kernel pass, then to
    confirm the kernel flag its basis, its maximal minors on its nonzero rows and its
    basis again.  The kernel <e2, e3> of the first form lies on two rows, so no minor;
    the second kernel has no zero row, so all 3."""
    from semistab.jsonio import decode_form_bundle

    golden = Path(__file__).parent / "golden" / name
    fb = decode_form_bundle(json.loads(golden.read_text())["payload"]["form"])
    taken = _count_echelons(monkeypatch)
    assert not semistable_form(fb).semistable
    assert len(taken) == GOLDEN_ELIMINATIONS[name]


def test_ramanathan_on_supplied_flags_makes_no_kernel_call(monkeypatch):
    calls = _count_calls(monkeypatch, ("kernel_destabilizer",))
    degenerate = constant_form(TRIVIAL_3, Symmetry.SYMMETRIC, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    for strict in (False, True):
        ramanathan_semistable(degenerate, oracle_coordinate_flags(3), strict)
    assert calls["kernel_destabilizer"] == 0
    assert not semistable_form(degenerate, oracle_coordinate_flags(3)).semistable
    assert calls["kernel_destabilizer"] == 1


def test_unconfirmed_witness_raises(monkeypatch):
    """A chain the integers call violating, that the generic scoring does not, is a defect.
    Under `strict`, since without it no chain of the trivial model is scored."""
    monkeypatch.setattr(classical, "_chain_scorer", lambda fb: lambda chain: (-1, 0))
    with pytest.raises(InternalError):
        semistable_form(identity_form(3), strict=True)


def test_negative_mu_is_a_defect_only_past_the_kernel_rule(monkeypatch):
    """mu < 0 on a flag of a form the kernel rule found nondegenerate contradicts fact B,
    for chains and for supplied flags alike; the ramanathan check runs no kernel rule, so
    its mu may be negative and asks nothing there.  The chains of the trivial model are
    scored only under `strict`."""
    fb = identity_form(3)
    monkeypatch.setattr(classical, "_chain_scorer", lambda fb: lambda chain: (-1, 0))
    monkeypatch.setattr(classical, "mu_profile", lambda data, profile: Fraction(-1))
    message = "^a flag of a nondegenerate form scored mu = -1 < 0$"
    for flags in (None, [coordinate_flag([[1]], r=3)]):
        with pytest.raises(InternalError, match=message):
            semistable_form(fb, flags, strict=flags is None)
        for strict in (False, True):
            assert ramanathan_semistable(fb, flags, strict) == FormVerdict(True)


def test_confirmation_reads_L(monkeypatch):
    """A chain scored (0, -1) violates; the generic scoring must then give the same mu and
    the same L.  On the identity mu differs; on the hyperbolic plane only L does.  Under
    `strict`, since without it no chain of the trivial model is scored."""
    monkeypatch.setattr(classical, "_chain_scorer", lambda fb: lambda chain: (0, -1))
    message = "^witness scores disagree: mu = {}, L = 0 scored; mu = 0, L = -1 expected$"
    with pytest.raises(InternalError, match=message.format(4)):
        semistable_form(identity_form(3), strict=True)
    hyperbolic = constant_form(TRIVIAL_2, Symmetry.SYMMETRIC, [[0, 1], [1, 0]])
    for check in (semistable_form, ramanathan_semistable):
        with pytest.raises(InternalError, match=message.format(0)):
            check(hyperbolic, strict=True)


def _refuse(*args):
    raise AssertionError("no chain is scored")


@pytest.mark.parametrize("r", range(1, EXHAUSTIVE_RANK_CAP + 1))
def test_trivial_model_without_strict_scores_no_chain(r, monkeypatch):
    """On the trivial model L = 0 on every chain, so without `strict` no chain violates:
    both checks return semistable with no chain built or scored, whatever the rank of Phi.
    A degenerate form still gets its kernel witness from a `semistable` check."""
    monkeypatch.setattr(classical, "_chain_scorer", _refuse)
    monkeypatch.setattr(classical, "_coordinate_chains", _refuse)
    model = SplitSheafModel((0,) * r)
    forms = [identity_form(r)]
    if r % 2 == 0:
        planes = [[int(a // 2 == b // 2 and a != b) for b in range(r)] for a in range(r)]
        forms.append(constant_form(model, Symmetry.SYMMETRIC, planes))
    for fb in forms:
        for check in (semistable_form, ramanathan_semistable):
            assert check(fb) == FormVerdict(True)
    if r > 1:
        degenerate = constant_form(
            model, Symmetry.SYMMETRIC, [[int(a == b == 0) for b in range(r)] for a in range(r)]
        )
        assert ramanathan_semistable(degenerate) == FormVerdict(True)
        kernel = kernel_destabilizer(degenerate)
        assert semistable_form(degenerate) == FormVerdict(False, kernel)


@st.composite
def polynomial_flags(draw, models=split_models()):
    """A split model and a flag whose steps are drawn one kind at a time.

    A step extends the previous one by a new column (nested) or by a
    Q[x]-combination of its columns (a rank collapse), swaps its last
    column for two new ones (mostly a larger rank that is not nested), or
    is fresh random columns, zero columns (rank 0) or the whole basis
    (full rank).
    """
    model = draw(models)
    r = model.rank
    column = (
        st.lists(polys(2), min_size=r, max_size=r)
        .filter(lambda c: any(not p.is_zero() for p in c))
        .map(tuple)
    )
    kinds = st.sampled_from(
        ["extend", "extend", "combine", "swap", "swap", "fresh", "zero", "full"]
    )
    columns: tuple = ()
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(kinds)
        if kind == "extend" or (kind == "combine" and not columns):
            columns += (draw(column),)
        elif kind == "combine":
            u, w = draw(st.sampled_from(columns)), draw(st.sampled_from(columns))
            c = draw(polys(1))
            columns += (tuple(p + q * c for p, q in zip(u, w)),)
        elif kind == "swap":
            columns = columns[:-1] + tuple(draw(st.lists(column, min_size=2, max_size=2)))
        elif kind == "fresh":
            columns = tuple(draw(st.lists(column, min_size=1, max_size=r)))
        elif kind == "zero":
            columns = ((ZERO,) * r,) * draw(st.integers(1, 2))
        else:
            columns = tuple(tuple(ONE if a == k else ZERO for a in range(r)) for k in range(r))
        steps.append(FlagStep(columns, Fraction(draw(st.integers(1, 3)))))
    return model, SubsheafFlag(tuple(steps))


def _outcome(score, *args):
    try:
        return score(*args)
    except SemistabError as exc:
        return type(exc), str(exc)


def _ranks(fb, flag):
    return tuple(member.rank for member in filtration_data_of(fb, flag).members)


@settings(max_examples=200, deadline=None)
@given(polynomial_flags())
def test_flag_ranks_match_accumulated_oracle(case):
    """Same ranks, or the same error and message, as sympy on accumulated columns.

    `form_profile` checks the same flag rule: it raises the same error, or none.
    """
    model, flag = case
    # Any form will do: the checks read the model and the flag only.
    lowest = model.summand_degrees.index(min(model.summand_degrees))
    rows = [[int(a == b == lowest) for b in range(model.rank)] for a in range(model.rank)]
    fb = constant_form(model, Symmetry.SYMMETRIC, rows)
    expected = _outcome(oracle_flag_ranks, model, flag)
    assert _outcome(_ranks, fb, flag) == expected
    profiled = _outcome(form_profile, fb, flag)
    if isinstance(profiled, NonvanishingProfile):
        assert all(isinstance(rank, int) for rank in expected)
    else:
        assert profiled == expected


@st.composite
def steps_with_zero_rows(draw):
    """A split model with a nonzero degree, and columns that vanish off a drawn set of
    rows: coordinate columns, sparse polynomial columns, or dense ones (every row)."""
    r = draw(st.integers(2, 8))
    head = draw(st.lists(st.integers(-2, 2), min_size=r - 1, max_size=r - 1))
    assume(any(head))
    model = SplitSheafModel((*head, -sum(head)))
    kind = draw(st.sampled_from(["coordinate", "sparse", "dense"]))
    if kind == "dense":
        support = list(range(r))
    else:
        support = sorted(draw(st.sets(st.integers(0, r - 1), min_size=1, max_size=r - 1)))
    k = draw(st.integers(1, min(len(support), r - 1)))
    if kind == "coordinate":
        hits = draw(st.permutations(support))[:k]
        columns = tuple(tuple(ONE if a == b else ZERO for a in range(r)) for b in hits)
    else:
        entry = {a: polys(2) if a in support else st.just(ZERO) for a in range(r)}
        columns = tuple(tuple(draw(entry[a]) for a in range(r)) for _ in range(k))
        assume(any(not p.is_zero() for column in columns for p in column))
    return model, columns


@settings(max_examples=150, deadline=None)
@given(steps_with_zero_rows())
def test_zero_rows_change_no_invariant(case):
    """The saturation degree from the minors on the nonzero rows equals the one from all
    C(r, k) minors, for one step and for each step of the flag of its basis prefixes."""
    import semistab._polyalg as polyalg

    model, columns = case
    r = model.rank
    step = FlagStep(columns, Fraction(1))
    assert saturation_degree(model, step) == oracle_saturation_degree(model, columns)
    pivots = polyalg.independent_columns([[column[a] for column in columns] for a in range(r)])
    basis = [columns[c] for c in pivots]
    flag = SubsheafFlag(tuple(FlagStep(basis[:j], Fraction(1)) for j in range(1, len(basis) + 1)))
    lowest = model.summand_degrees.index(min(model.summand_degrees))
    rows = [[int(a == b == lowest) for b in range(r)] for a in range(r)]
    members = filtration_data_of(constant_form(model, Symmetry.SYMMETRIC, rows), flag).members
    assert [(m.rank, m.degree) for m in members] == [
        (j, oracle_saturation_degree(model, basis[:j])) for j in range(1, len(basis) + 1)
    ]


class TestKernelDestabilizer:
    def test_nondegenerate(self):
        assert kernel_destabilizer(SYMPLECTIC) is None

    def test_rank_one_symmetric(self):
        fb = constant_form(
            TRIVIAL_3, Symmetry.SYMMETRIC, [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
        )
        flag = kernel_destabilizer(fb)
        assert len(flag.steps) == 1 and len(flag.steps[0].columns) == 2
        data = filtration_data_of(fb, flag)
        assert mu_profile(data, form_profile(fb, flag)) < 0

    def test_antisymmetric_with_kernel(self):
        fb = constant_form(
            TRIVIAL_4,
            Symmetry.ANTISYMMETRIC,
            [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        )
        flag = kernel_destabilizer(fb)
        assert len(flag.steps[0].columns) == 2
        data = filtration_data_of(fb, flag)
        assert mu_profile(data, form_profile(fb, flag)) < 0


    def test_rank_priced(self, monkeypatch):
        """A form at r = 16 with an entry of degree 4 is priced as if every entry had
        degree 4, and refused before it is eliminated."""
        import semistab._polyalg as polyalg

        def no_echelon(*args):
            raise AssertionError("the form was eliminated")

        monkeypatch.setattr(polyalg, "_echelon", no_echelon)
        model = SplitSheafModel((-2, 2) + (0,) * 14)
        entries = tuple(
            tuple(UniPoly.of(0, 0, 0, 0, 1) if a == b == 0 else ONE if a == b != 1 else ZERO
                  for b in range(16))
            for a in range(16)
        )
        fb = FormBundle(model, Symmetry.SYMMETRIC, entries)
        with pytest.raises(TooLarge, match=r"^a form at rank 16 costs 15161830 units "):
            kernel_destabilizer(fb)
        with pytest.raises(TooLarge, match=r"^a form at rank 16 costs 15161830 units "):
            semistable_form(fb, [coordinate_flag([[1]], r=16)])

    def test_kernel_pass_priced(self, monkeypatch):
        """A rank-9 form at r = 10 with entries of degree 4 passes the price of its rank,
        but not that of its kernel pass: the echelon again and the back substitution."""
        import semistab._polyalg as polyalg

        def no_kernel(*args):
            raise AssertionError("the kernel was built")

        monkeypatch.setattr(polyalg, "generic_kernel", no_kernel)
        model = SplitSheafModel((-2,) * 5 + (2,) * 5)
        rng = random.Random(9)
        rows = [[ZERO] * 10 for _ in range(10)]
        for a in range(9):
            for b in range(a, 9):
                bound = -(model.summand_degrees[a] + model.summand_degrees[b])
                if bound >= 0:
                    rows[a][b] = rows[b][a] = dense_columns(rng, 1, 1, bound)[0][0]
        fb = FormBundle(model, Symmetry.SYMMETRIC, tuple(map(tuple, rows)))
        with pytest.raises(TooLarge, match=(
            r"^the kernel of a rank-9 form at rank 10 costs 2173980 units to compute "
            r"\(entries of degree 4\); this exceeds the cap 2000000$"
        )):
            kernel_destabilizer(fb)

    def test_eliminations(self, monkeypatch):
        """A degenerate form is eliminated twice, for its rank and its kernel pass, a
        nondegenerate one once, and no determinant is taken."""
        import semistab._polyalg as polyalg

        taken = _count_echelons(monkeypatch)

        def no_determinant(*args):
            raise AssertionError("a determinant was taken")

        monkeypatch.setattr(polyalg, "determinant", no_determinant)
        degenerate = constant_form(
            TRIVIAL_4,
            Symmetry.ANTISYMMETRIC,
            [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        )
        for fb, count in [(degenerate, 2), (SYMPLECTIC, 1), (identity_form(5), 1)]:
            taken.clear()
            kernel_destabilizer(fb)
            assert len(taken) == count


class TestSemistableForm:
    def test_symplectic_semistable(self):
        verdict = semistable_form(SYMPLECTIC)
        assert verdict.semistable and verdict.witness is None

    def test_diagonal_semistable(self):
        fb = constant_form(TRIVIAL_2, Symmetry.SYMMETRIC, [[1, 0], [0, 1]])
        assert semistable_form(fb).semistable

    def test_degenerate_witnessed_by_kernel(self):
        fb = constant_form(TRIVIAL_2, Symmetry.SYMMETRIC, [[1, 0], [0, 0]])
        verdict = semistable_form(fb)
        assert not verdict.semistable
        assert verdict.witness == kernel_destabilizer(fb)

    def test_rank_cap(self):
        """The cap comes before the closed form of the trivial model, so both checks are
        refused without `strict` too."""
        fb = identity_form(EXHAUSTIVE_RANK_CAP + 1)
        for check in (semistable_form, ramanathan_semistable):
            with pytest.raises(TooLarge, match="^exhaustive enumeration capped at rank 7$"):
                check(fb)

    @pytest.mark.parametrize("r", [8, 12])
    def test_degenerate_form_above_the_rank_cap(self, r):
        """diag(1, .., 1, 0): the kernel rule decides the semistable check before the
        walk's rank cap is checked; the ramanathan check still walks, and is refused."""
        fb = constant_form(
            SplitSheafModel((0,) * r),
            Symmetry.SYMMETRIC,
            [[int(a == b < r - 1) for b in range(r)] for a in range(r)],
        )
        verdict = semistable_form(fb)
        assert verdict == FormVerdict(False, coordinate_flag([[r]], r=r))
        assert verdict == oracle_semistable_form(fb)
        for check in (ramanathan_semistable, oracle_ramanathan_semistable):
            with pytest.raises(TooLarge, match="^exhaustive enumeration capped at rank 7$"):
                check(fb)

    def test_walk_at_the_cap(self):
        fb = identity_form(EXHAUSTIVE_RANK_CAP)
        for strict in (False, True):
            assert semistable_form(fb, strict=strict).semistable
            assert ramanathan_semistable(fb, strict=strict).semistable

    def test_det_ground_truth(self):
        """Constant forms: semistable iff the determinant does not vanish."""
        rng = random.Random(1002)
        checked = 0
        while checked < 40:
            r = rng.randint(2, 4)
            symmetry = rng.choice(list(Symmetry))
            rows = [[0] * r for _ in range(r)]
            for a in range(r):
                for b in range(a, r):
                    if symmetry is Symmetry.SYMMETRIC:
                        rows[a][b] = rows[b][a] = rng.randint(-2, 2)
                    elif a != b:
                        rows[a][b] = rng.randint(-2, 2)
                        rows[b][a] = -rows[a][b]
            if all(v == 0 for row in rows for v in row):
                continue
            model = SplitSheafModel((0,) * r)
            fb = constant_form(model, symmetry, rows)
            det = sympy.Matrix(rows).det()
            verdict = semistable_form(fb)
            assert verdict.semistable == (det != 0)
            if not verdict.semistable:
                assert verdict.witness == kernel_destabilizer(fb)
            checked += 1

    def test_implication_chain(self):
        """stable => semistable => Ramanathan-semistable, sampled."""
        rng = random.Random(77)
        for _ in range(20):
            r = rng.randint(2, 3)
            rows = [[0] * r for _ in range(r)]
            for a in range(r):
                for b in range(a, r):
                    rows[a][b] = rows[b][a] = rng.randint(-2, 2)
            if all(v == 0 for row in rows for v in row):
                continue
            fb = constant_form(SplitSheafModel((0,) * r), Symmetry.SYMMETRIC, rows)
            stable = semistable_form(fb, strict=True).semistable
            semi = semistable_form(fb).semistable
            raman = ramanathan_semistable(fb).semistable
            assert (not stable or semi) and (not semi or raman)


    def test_walk_stops_at_the_witness(self):
        """Flags after the witness are never scored: a full-rank step would raise."""
        fb = constant_form(TRIVIAL_2, Symmetry.SYMMETRIC, [[1, 0], [0, 0]])
        full_rank = coordinate_flag([[1, 2]], r=2)
        with pytest.raises(DegenerateFlag):
            filtration_data_of(fb, full_rank)
        verdict = semistable_form(fb, [full_rank])
        assert verdict.witness == kernel_destabilizer(fb)

    def test_kernel_flag_before_a_later_non_flag(self):
        """The kernel flag is the witness whatever the supplied flags, none of which is scored."""
        fb = constant_form(TRIVIAL_3, Symmetry.SYMMETRIC, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
        not_nested = coordinate_flag([[1], [2, 3]], r=3)
        with pytest.raises(MalformedFlag, match="flag steps are not nested"):
            filtration_data_of(fb, not_nested)
        flags = [coordinate_flag([[1]], r=3), not_nested]
        for strict in (False, True):
            verdict = semistable_form(fb, flags, strict)
            assert verdict == FormVerdict(False, kernel_destabilizer(fb))
        with pytest.raises(MalformedFlag, match="flag steps are not nested"):
            ramanathan_semistable(fb, flags)


@st.composite
def weighted_coordinate_flags(draw, r):
    """A chain of coordinate subsets of 1..r with random positive alphas."""
    order = draw(st.permutations(range(1, r + 1)))
    sizes = sorted(draw(st.sets(st.integers(1, r - 1), min_size=1)))
    alpha = st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4)
    alphas = draw(st.lists(alpha, min_size=len(sizes), max_size=len(sizes)))
    return coordinate_flag([sorted(order[:size]) for size in sizes], alphas, r=r)


class TestVerdictOracles:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(forms(max_rank=4), degenerate_forms(max_rank=4)), st.data())
    def test_match_the_first_loops(self, fb, data):
        """Verdict and witness agree with the two loops that each stated the rule.

        The flags are the exhaustive walk (None) or supplied weighted
        coordinate flags.  The loops score the kernel flag of a degenerate
        form first for both checks; the library builds it only for
        `semistable_form`.
        """
        flags = None
        if data.draw(st.booleans()):
            flags = data.draw(st.lists(weighted_coordinate_flags(fb.model.rank), max_size=6))
        for strict in (False, True):
            assert semistable_form(fb, flags, strict) == oracle_semistable_form(fb, flags, strict)
            assert ramanathan_semistable(fb, flags, strict) == oracle_ramanathan_semistable(
                fb, flags, strict
            )

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(forms(), degenerate_forms(), nondegenerate_forms(max_rank=5)))
    def test_integer_walk_matches_the_generic_walk(self, fb):
        """The exhaustive walk, r <= 5: twisted models, degenerate forms, polynomial entries."""
        assert_exhaustive_walks_agree(fb)

    @pytest.mark.parametrize(
        "degrees, rows",
        [
            ((0,) * 6, [[int(a == b) for b in range(6)] for a in range(6)]),
            # Nondegenerate on a twisted model: the witness is flag 2,701 of 4,682.
            (
                (0, 0, 0, 0, 1, -1),
                [[int(a == b < 4 or {a, b} == {4, 5}) for b in range(6)] for a in range(6)],
            ),
            # Rank 5: the kernel flag is the witness of the semistable check.
            ((0,) * 6, [[int(a == b < 5) for b in range(6)] for a in range(6)]),
        ],
        ids=["identity", "twisted", "rank5"],
    )
    def test_integer_walk_matches_the_generic_walk_at_rank_6(self, degrees, rows):
        fb = constant_form(SplitSheafModel(degrees), Symmetry.SYMMETRIC, rows)
        assert_exhaustive_walks_agree(fb)


class TestOracleScores:
    """The oracle's scores, composed from one- and two-step flags, are the library's."""

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(forms(max_rank=4), degenerate_forms(max_rank=4)))
    def test_coordinate_flags(self, fb):
        for flag in oracle_coordinate_flags(fb.model.rank):
            assert oracle_score(fb, flag) == (filtration_data_of(fb, flag), form_profile(fb, flag))

    @settings(max_examples=60, deadline=None)
    @given(forms_with_nested_flags())
    def test_nested_polynomial_flags(self, case):
        fb, flag = case
        assert oracle_score(fb, flag) == (filtration_data_of(fb, flag), form_profile(fb, flag))


def assert_exhaustive_walks_agree(fb):
    """Both checks, both strict values: the oracle's verdict and witness."""
    for strict in (False, True):
        assert semistable_form(fb, None, strict) == oracle_semistable_form(fb, None, strict)
        assert ramanathan_semistable(fb, None, strict) == oracle_ramanathan_semistable(
            fb, None, strict
        )


@st.composite
def forms_and_flags(draw, form=forms):
    """A form and its flags: None (the exhaustive walk), weighted coordinate flags or a
    nested polynomial flag."""
    kind = draw(st.sampled_from(["exhaustive", "coordinate", "polynomial"]))
    if kind == "polynomial":
        fb, flag = draw(forms_with_nested_flags(form(max_rank=5)))
        return fb, [flag]
    fb = draw(form(max_rank=4))
    if kind == "exhaustive":
        return fb, None
    return fb, draw(st.lists(weighted_coordinate_flags(fb.model.rank), min_size=1, max_size=6))


class TestConstantFunctionalsAndNonnegativeMu:
    """M = L, a constant, on every flag (fact A); mu >= 0 when det Phi != 0 (fact B).

    Together they make both checks "mu = 0 and L < 0" (or L <= 0 under
    strict) on a nondegenerate form.
    """

    @settings(max_examples=100, deadline=None)
    @given(forms_and_flags())
    def test_M_is_the_constant_L_on_every_scored_flag(self, case):
        fb, flags = case
        for flag in oracle_gather_flags(fb, flags):
            data = filtration_data_of(fb, flag)
            assert functional_M(data) == UniPoly.of(functional_L(data))

    @settings(max_examples=100, deadline=None)
    @given(nondegenerate_forms(max_rank=5), st.data())
    def test_mu_is_nonnegative_on_polynomial_flags(self, fb, data):
        """Fact B on a flag drawn one kind of step at a time (the flag rule refuses some)
        and on a nested flag of a new column a step."""
        _, drawn = data.draw(polynomial_flags(st.just(fb.model)))
        _, nested = data.draw(forms_with_nested_flags(st.just(fb)))
        for flag in (drawn, nested):
            try:
                flag_data = filtration_data_of(fb, flag)
            except (DegenerateFlag, MalformedFlag):
                continue
            assert mu_profile(flag_data, form_profile(fb, flag)) >= 0

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_mu_is_nonnegative_on_every_coordinate_chain(self, r):
        """Fact B on coordinate chains, where the adapted basis is the standard one: every
        chain scores mu >= 0 exactly on the supports that hold a permutation pattern,
        over every symmetric support at rank r."""
        model = SplitSheafModel((0,) * r)
        pairs = [(k, l) for k in range(r) for l in range(k, r)]
        chains = list(classical._coordinate_chains(r))
        for chosen in product((0, 1), repeat=len(pairs)):
            support = {(k, l) for (k, l), c in zip(pairs, chosen) if c}
            support |= {(l, k) for k, l in support}
            if not support:
                continue
            rows = [[int((k, l) in support) for l in range(r)] for k in range(r)]
            score = classical._chain_scorer(constant_form(model, Symmetry.SYMMETRIC, rows))
            sigmas = permutations(range(r))
            matched = any(all((k, s[k]) in support for k in range(r)) for s in sigmas)
            assert all(score(chain)[0] >= 0 for chain in chains) == matched

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    @pytest.mark.parametrize("symmetry", list(Symmetry))
    def test_every_trivial_model_support_matches_the_oracles(self, r, symmetry):
        """Every nonzero symmetric and antisymmetric 0/1 support at rank r on the trivial
        model, through both checks with and without `strict`: the verdict and witness of
        the generic walk, where without `strict` no chain is scored."""
        model = SplitSheafModel((0,) * r)
        sign = -1 if symmetry is Symmetry.ANTISYMMETRIC else 1
        pairs = [(k, l) for k in range(r) for l in range(k + (sign < 0), r)]
        checks = (
            (semistable_form, oracle_semistable_form),
            (ramanathan_semistable, oracle_ramanathan_semistable),
        )
        for chosen in product((0, 1), repeat=len(pairs)):
            support = {(k, l) for (k, l), c in zip(pairs, chosen) if c}
            if not support:
                continue
            rows = [[0] * r for _ in range(r)]
            for k, l in support:
                rows[k][l], rows[l][k] = 1, sign
            fb = constant_form(model, symmetry, rows)
            for (check, oracle), strict in product(checks, (False, True)):
                assert check(fb, strict=strict) == oracle(fb, strict=strict)

    @settings(max_examples=100, deadline=None)
    @given(forms_and_flags(nondegenerate_forms))
    def test_checks_agree_on_nondegenerate_forms(self, case):
        fb, flags = case
        assert kernel_destabilizer(fb) is None
        for strict in (False, True):
            assert semistable_form(fb, flags, strict) == ramanathan_semistable(fb, flags, strict)


class TestRamanathan:
    def test_nondegenerate_trivial_degrees(self):
        assert ramanathan_semistable(SYMPLECTIC).semistable

    def test_negative_degree_step_strict_positivity(self):
        model = SplitSheafModel((1, -1))
        fb = FormBundle(
            model, Symmetry.SYMMETRIC, ((ZERO, ONE), (ONE, ZERO))
        )
        flag = coordinate_flag([[2]], r=2)
        data = filtration_data_of(fb, flag)
        assert functional_L(data) == 2
        assert mu_profile(data, form_profile(fb, flag)) == 0
        assert ramanathan_semistable(fb, [flag]).semistable

    def test_hyperbolic_not_strictly_ramanathan(self):
        fb = constant_form(TRIVIAL_2, Symmetry.SYMMETRIC, [[0, 1], [1, 0]])
        assert ramanathan_semistable(fb).semistable
        assert not ramanathan_semistable(fb, strict=True).semistable


class TestDualize:
    def test_complement_line(self):
        flag = coordinate_flag([[1]], r=2)
        dual = dualize_filtration(TRIVIAL_2, flag)
        assert dual == coordinate_flag([[2]], r=2)

    def test_rank_reversal_with_alphas(self):
        flag = coordinate_flag([[1], [1, 2, 3]], [Fraction(2), Fraction(5)], r=4)
        dual = dualize_filtration(TRIVIAL_4, flag)
        expected = coordinate_flag([[4], [2, 3, 4]], [Fraction(5), Fraction(2)], r=4)
        assert dual == expected

    def test_involution_and_L_invariance(self):
        models = {
            2: SplitSheafModel((1, -1)),
            3: SplitSheafModel((2, 0, -2)),
            4: SplitSheafModel((1, 2, -1, -2)),
        }
        for r, model in models.items():
            for flag in oracle_coordinate_flags(r):
                dual = dualize_filtration(model, flag)
                assert dualize_filtration(model.dual(), dual) == flag
                assert functional_L(flag_data(model, flag)) == functional_L(
                    flag_data(model.dual(), dual)
                )

    def test_non_coordinate_rejected(self):
        flag = SubsheafFlag((FlagStep(((ONE, X),), Fraction(1)),))
        with pytest.raises(NotCoordinateFlag):
            dualize_filtration(TRIVIAL_2, flag)

    @pytest.mark.parametrize(
        "chain, error, message",
        [
            ([[1], [2]], DegenerateFlag, "generic ranks collapse: [1, 1] not strictly increasing"),
            ([[1], [1]], DegenerateFlag, "generic ranks collapse: [1, 1] not strictly increasing"),
            ([[1], [2, 3]], MalformedFlag, "flag steps are not nested"),
            ([[1, 2, 3]], DegenerateFlag, "step rank 3 must lie strictly between 0 and 3"),
        ],
        ids=["disjoint", "repeated", "not-nested", "full"],
    )
    def test_non_flag_rejected(self, chain, error, message):
        """The flag rule of the scorer, with rank |S| and nesting by inclusion."""
        flag = coordinate_flag(chain, r=3)
        with pytest.raises(error) as raised:
            dualize_filtration(TRIVIAL_3, flag)
        assert str(raised.value) == message
        for score in (filtration_data_of, form_profile):
            assert _outcome(score, identity_form(3), flag) == (error, message)
