"""Form bundles on split models: invariants, verdicts, duality."""

import random
from fractions import Fraction

import pytest
import sympy

from semistab import (
    EXHAUSTIVE,
    FiltrationData,
    FiltrationMember,
    FlagStep,
    FormBundle,
    SplitSheafModel,
    SubsheafFlag,
    Symmetry,
    UniPoly,
    coordinate_flag,
    dualize_filtration,
    enumerate_coordinate_flags,
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
from semistab.errors import DegenerateFlag, MalformedFlag, NotCoordinateFlag, TooLarge

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


class TestFormBundle:
    def test_degree_bound(self):
        model = SplitSheafModel((1, -1))
        with pytest.raises(MalformedFlag):
            FormBundle(model, Symmetry.SYMMETRIC, ((ONE, ZERO), (ZERO, ZERO)))

    def test_symmetry_enforced(self):
        with pytest.raises(MalformedFlag):
            FormBundle(
                TRIVIAL_2, Symmetry.SYMMETRIC, ((ZERO, ONE), (ONE.scale(-1), ZERO))
            )
        with pytest.raises(MalformedFlag):
            FormBundle(
                TRIVIAL_2, Symmetry.ANTISYMMETRIC, ((ONE, ZERO), (ZERO, ONE))
            )

    def test_nontrivial_required(self):
        with pytest.raises(MalformedFlag):
            FormBundle(TRIVIAL_2, Symmetry.SYMMETRIC, ((ZERO, ZERO), (ZERO, ZERO)))


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

    def test_M_vanishes_on_degree_zero_coordinate_flags(self):
        """Regression guard: trivial degrees make M identically zero."""
        for flag in enumerate_coordinate_flags(3):
            data = flag_data(TRIVIAL_3, flag)
            assert functional_M(data).is_zero()


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
        model = SplitSheafModel((0,) * 7)
        rows = [[int(a == b) for b in range(7)] for a in range(7)]
        fb = constant_form(model, Symmetry.SYMMETRIC, rows)
        with pytest.raises(TooLarge):
            semistable_form(fb)

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
            for flag in enumerate_coordinate_flags(r):
                dual = dualize_filtration(model, flag)
                assert dualize_filtration(model.dual(), dual) == flag
                assert functional_L(flag_data(model, flag)) == functional_L(
                    flag_data(model.dual(), dual)
                )

    def test_non_coordinate_rejected(self):
        flag = SubsheafFlag((FlagStep(((ONE, X),), Fraction(1)),))
        with pytest.raises(NotCoordinateFlag):
            dualize_filtration(TRIVIAL_2, flag)
