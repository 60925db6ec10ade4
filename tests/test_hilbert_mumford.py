"""Mu pairings, instability decisions, and combinatorial dimensions."""

import random
import re
from fractions import Fraction
from math import comb

import pytest

from semistab import (
    HullCertificate,
    OneParamSubgroup,
    RepPoint,
    TorusWeightRep,
    dd_module_dim,
    divided_power_dim,
    mu,
    torus_destabilize,
    weighted_compositions,
)
from semistab.errors import DimensionMismatch, OutOfRange, TooLarge, TrivialSubgroup
from semistab.feasibility import feasible_point
from semistab.hilbert_mumford import sum_zero_grid

from conftest import (
    grid_vectors,
    mu_flag_invariance_check,
    oracle_fallback_system,
    oracle_feasible_point,
    oracle_dd_module_dim,
    oracle_hull_system,
    random_rep,
)

STANDARD = TorusWeightRep(2, (("e1", (1, 0)), ("e2", (0, 1))))
FULL = RepPoint((("e1", Fraction(1)), ("e2", Fraction(1))))
E1_ONLY = RepPoint((("e1", Fraction(1)),))


def _unit_weights(r, support):
    """The standard weights e_1..e_r and the point 1 on the first `support` of them."""
    basis = tuple((f"e{a + 1}", tuple(int(a == b) for b in range(r))) for a in range(r))
    point = RepPoint(tuple((f"e{a + 1}", Fraction(1)) for a in range(support)))
    return TorusWeightRep(r, basis), point


def grid_verdict(rep, point):
    """Independent oracle: minimize mu over sum-zero lambda in {-3..3}^r."""
    weights = [rep.weight_of(label) for label in point.support]
    best = None
    for vec in grid_vectors(rep.torus_rank):
        value = max(sum(g * w for g, w in zip(vec, weight)) for weight in weights)
        if best is None or value < best:
            best = value
    return best is not None and best < 0


@pytest.mark.parametrize("r", range(7))
def test_library_grid_matches_independent_enumeration(r):
    assert list(sum_zero_grid(r)) == grid_vectors(r)


class TestValidation:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: TorusWeightRep(2, ()), "basis must be nonempty"),
            (lambda: TorusWeightRep(2, (("e1", (1,)),)), "weight of 'e1' has length 1, expected 2"),
            (lambda: STANDARD.weight_of("e3"), "unknown basis label 'e3'"),
            (lambda: RepPoint(()), "point must have nonempty support"),
            (lambda: RepPoint((("e1", 1), ("e2", 0))), "stored coordinates must be nonzero"),
        ],
        ids=["empty-basis", "weight-length", "unknown-label", "empty-point", "zero-coordinate"],
    )
    def test_rejected(self, build, message):
        with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
            build()

    def test_torus_rank_is_nonnegative(self):
        """A negative rank used to be refused by the weight lengths, "expected -1"."""
        with pytest.raises(OutOfRange, match="^torus rank must be nonnegative, got -1$"):
            TorusWeightRep(-1, (("e1", (1, 0)),))
        assert TorusWeightRep(0, (("e1", ()),)).torus_rank == 0


class TestMu:
    def test_standard_examples(self):
        lam = OneParamSubgroup((-1, 1))
        assert mu(STANDARD, lam, FULL) == 1
        assert mu(STANDARD, lam, E1_ONLY) == -1

    def test_trivial_rejected(self):
        with pytest.raises(TrivialSubgroup):
            mu(STANDARD, OneParamSubgroup((0, 0)), FULL)

    def test_rank_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mu(STANDARD, OneParamSubgroup((-1, 0, 1)), FULL)

    def test_positive_scaling_linearity(self):
        rng = random.Random(11)
        for _ in range(50):
            rep, point = random_rep(rng)
            lam = None
            while lam is None or lam.is_trivial():
                vec = [rng.randint(-3, 3) for _ in range(rep.torus_rank)]
                vec[-1] -= sum(vec)
                lam = OneParamSubgroup(tuple(vec))
            k = rng.randint(1, 4)
            scaled = OneParamSubgroup(tuple(k * w for w in lam.weights))
            assert mu(rep, scaled, point) == k * mu(rep, lam, point)


class TestFlagInvariance:
    def test_differing_alphas_vacuous(self):
        assert mu_flag_invariance_check(
            STANDARD, OneParamSubgroup((-1, 1)), OneParamSubgroup((-2, 2)), FULL
        )

    def test_equal_subgroups(self):
        lam = OneParamSubgroup((-1, 1))
        assert mu_flag_invariance_check(STANDARD, lam, lam, FULL)

    def test_random_pairs(self):
        rng = random.Random(202)
        for _ in range(100):
            rep, point = random_rep(rng)
            r = rep.torus_rank
            lams = []
            while len(lams) < 2:
                vec = [rng.randint(-2, 2) for _ in range(r)]
                vec[-1] -= sum(vec)
                cand = OneParamSubgroup(tuple(vec))
                if not cand.is_trivial():
                    lams.append(cand)
            assert mu_flag_invariance_check(rep, lams[0], lams[1], point)


class TestTorusDestabilize:
    def test_symmetric_support_semistable(self):
        verdict = torus_destabilize(STANDARD, FULL)
        assert verdict.semistable
        assert verdict.certificate.verify(STANDARD, FULL)

    @pytest.mark.parametrize(
        "coefficients",
        [(("e1", "1/2"), ("e3", "1/2")), (("e1", "3/2"), ("e2", "-1/2"))],
        ids=["foreign-label", "negative-coefficient"],
    )
    def test_certificate_refused(self, coefficients):
        """Each sums to 1, but names a label outside the support or a negative weight."""
        coefficients = tuple((label, Fraction(c)) for label, c in coefficients)
        assert not HullCertificate(coefficients, Fraction(1, 2)).verify(STANDARD, FULL)
        assert HullCertificate(
            (("e1", Fraction(1, 2)), ("e2", Fraction(1, 2))), Fraction(1, 2)
        ).verify(STANDARD, FULL)

    def test_single_support_unstable(self):
        verdict = torus_destabilize(STANDARD, E1_ONLY)
        assert not verdict.semistable
        assert verdict.destabilizer.weights == (-1, 1)
        assert mu(STANDARD, verdict.destabilizer, E1_ONLY) < 0

    def test_kernel_flag_bound(self):
        """Hom(k^2, V-dual) with kernel spanned by e1: mu = dim(B) - r = -1."""
        # Weights of Hom(k^2, V-dual) under the SL_2 torus: columns pair with
        # -e_a; a point whose kernel is span(e1) is supported on the -e1 column.
        rep = TorusWeightRep(2, (("c1", (-1, 0)), ("c2", (0, -1))))
        point = RepPoint((("c2", Fraction(1)),))
        lam = OneParamSubgroup((-1, 1))  # weighted flag (span(e1), (1))
        value = mu(rep, lam, point)
        assert value == -1
        assert value <= 1 - 2 < 0
        verdict = torus_destabilize(rep, point)
        assert not verdict.semistable

    def test_matches_grid_oracle(self):
        """Grid witnesses force instability; certificates prove semistability.

        The radius-3 grid is a sound but incomplete instability oracle (a
        true destabilizer may lie outside it), so agreement is asserted in
        the directions where each side carries a proof.
        """
        rng = random.Random(31337)
        for _ in range(100):
            rep, point = random_rep(rng, max_rank=4, max_basis=12)
            verdict = torus_destabilize(rep, point)
            if grid_verdict(rep, point):
                assert not verdict.semistable
            if verdict.semistable:
                assert verdict.certificate.verify(rep, point)
                assert not grid_verdict(rep, point)
            else:
                assert mu(rep, verdict.destabilizer, point) < 0

    def test_unstable_point_above_the_grid_cap(self, monkeypatch):
        """Refused before the 7^8 grid: the scan took 4 to 7 s at rank 8."""
        import semistab.hilbert_mumford as hm

        def no_scan(*args):
            raise AssertionError("the grid was scanned")

        monkeypatch.setattr(hm, "sum_zero_grid", no_scan)
        rep, point = _unit_weights(hm.GRID_RANK_CAP + 1, support=3)
        with pytest.raises(TooLarge, match="capped at rank 7"):
            torus_destabilize(rep, point)

    def test_hull_lp_priced(self, monkeypatch):
        """Pairs w, -w at torus rank 20, support 400: the hull LP took 4 to 6.5 s unpriced."""
        import semistab.hilbert_mumford as hm

        def no_lp(*args):
            raise AssertionError("an LP was solved")

        monkeypatch.setattr(hm, "feasible_point", no_lp)
        rng = random.Random(400)
        weights = []
        for _ in range(200):
            w = tuple(rng.randint(-3, 3) for _ in range(20))
            weights += [w, tuple(-x for x in w)]
        rep = TorusWeightRep(20, tuple((f"b{i}", w) for i, w in enumerate(weights)))
        point = RepPoint(tuple((f"b{i}", Fraction(1)) for i in range(400)))
        with pytest.raises(TooLarge, match=(
            r"^the hull LP of a point of support 400 at torus rank 20 costs 9402624 units "
            r"to solve; this exceeds the cap 2000000$"
        )):
            torus_destabilize(rep, point)

    def test_fallback_lp_priced(self, monkeypatch):
        """An unstable point of support 80 with the grid emptied: the hull LP runs, the
        fallback LP (81 rows) is refused before it runs."""
        import semistab.hilbert_mumford as hm

        solved = []

        def recorded(rows, rhs):
            solved.append(len(rows))
            return feasible_point(rows, rhs)

        monkeypatch.setattr(hm, "feasible_point", recorded)
        monkeypatch.setattr(hm, "sum_zero_grid", lambda r: iter(()))
        rep = TorusWeightRep(3, tuple((f"b{i}", (1, -1, 0)) for i in range(80)))
        point = RepPoint(tuple((f"b{i}", Fraction(1)) for i in range(80)))
        with pytest.raises(TooLarge, match=(
            r"^the destabilizer LP of a point of support 80 at torus rank 3 costs 15621984 "
            r"units to solve; this exceeds the cap 2000000$"
        )):
            torus_destabilize(rep, point)
        assert solved == [4]

    def test_semistable_point_above_the_grid_cap(self):
        """The hull LP alone settles a semistable point, at any rank."""
        rep, point = _unit_weights(9, support=9)
        verdict = torus_destabilize(rep, point)
        assert verdict.semistable
        assert verdict.certificate.verify(rep, point)

    def test_destabilizer_normalization(self):
        """Primitive and lexicographically least among grid minimizers."""
        rng = random.Random(99)
        for _ in range(50):
            rep, point = random_rep(rng, max_rank=3, max_basis=6)
            verdict = torus_destabilize(rep, point)
            if verdict.semistable:
                continue
            weights = [rep.weight_of(label) for label in point.support]
            best = min(
                max(sum(g * w for g, w in zip(vec, weight)) for weight in weights)
                for vec in grid_vectors(rep.torus_rank)
            )
            if best >= 0:
                continue
            minimizers = []
            for vec in grid_vectors(rep.torus_rank):
                value = max(
                    sum(g * w for g, w in zip(vec, weight)) for weight in weights
                )
                if value == best:
                    from math import gcd

                    g = 0
                    for v in vec:
                        g = gcd(g, abs(v))
                    minimizers.append(
                        tuple(v // g for v in vec) if g > 1 else vec
                    )
            assert verdict.destabilizer.weights == min(minimizers)

    def test_feasible_points_match_the_frozen_simplex(self, monkeypatch):
        """The points of degenerate systems pin Bland's tie-break in the ratio test.

        Seeded systems b = A x, x >= 0 with five of its eight coordinates zero,
        and the hull and fallback systems `torus_destabilize` builds, the grid
        emptied so that every unstable point takes the fallback; each of those
        equals, entry by entry, the system of the frozen row builders.  Leaving
        by the largest tied basis index instead changes 4 of the 200 seeded
        points and 4 of the torus points.
        """
        import semistab.hilbert_mumford as hm

        systems = []
        for seed in range(200):
            rng = random.Random(seed)
            a_rows = [[rng.randint(-2, 2) for _ in range(8)] for _ in range(4)]
            x = [0] * 5 + [rng.randint(0, 2) for _ in range(3)]
            rng.shuffle(x)
            systems.append((a_rows, [sum(a * v for a, v in zip(row, x)) for row in a_rows]))

        def recorded(rows, rhs):
            systems.append((rows, rhs))
            return feasible_point(rows, rhs)

        monkeypatch.setattr(hm, "feasible_point", recorded)
        monkeypatch.setattr(hm, "sum_zero_grid", lambda r: iter(()))
        fallbacks = 0
        for seed in range(100):
            rep, point = random_rep(random.Random(seed), max_rank=5, max_basis=10)
            weights = [rep.weight_of(label) for label in point.support]
            start = len(systems)
            verdict = torus_destabilize(rep, point)
            frozen = [oracle_hull_system(weights, rep.torus_rank)]
            if not verdict.semistable:
                frozen.append(oracle_fallback_system(weights, rep.torus_rank))
                fallbacks += 1
            assert systems[start:] == frozen
        assert len(systems) > 300 and fallbacks > 0
        for a_rows, b in systems:
            assert feasible_point(a_rows, b) == oracle_feasible_point(a_rows, b)


class TestDimensions:
    def test_divided_power(self):
        assert divided_power_dim(2, 2) == 3
        assert divided_power_dim(7, 0) == 1
        assert divided_power_dim(1, 9) == 1

    def test_dd_module(self):
        assert dd_module_dim(2, 2, 2) == 10
        assert dd_module_dim(5, 0, 3) == 1
        for u in range(5):
            for v in range(1, 4):
                assert dd_module_dim(1, u, v) == comb(u + v - 1, u)

    def test_dd_module_matches_the_enumeration(self):
        """D^u(V^{+v}) has the dimension of D^u of a rank-rv space: the sum over the
        compositions of u into v parts agrees on every small case."""
        cases = [(r, u, v) for r in range(1, 7) for u in range(9) for v in range(1, 6)]
        assert len(cases) == 270
        for r, u, v in cases:
            assert dd_module_dim(r, u, v) == oracle_dd_module_dim(r, u, v)

    def test_dd_module_closed_form(self):
        """The enumeration of C(u + v - 1, v - 1) compositions grew exponentially; (3, 12, 8)
        took 0.09 s.  Much larger cases are now one binomial."""
        assert dd_module_dim(3, 12, 8) == comb(35, 12)
        assert dd_module_dim(5, 200, 100) == comb(699, 200)

    @pytest.mark.parametrize("v", [1, 2, 3])
    def test_dd_module_negative_u_rejected(self, v):
        """u < 0 returned 0 for v >= 2 and raised only for v = 1."""
        with pytest.raises(DimensionMismatch, match="^need r >= 1 and u >= 0$"):
            dd_module_dim(2, -1, v)

    def test_dd_module_needs_a_summand(self):
        with pytest.raises(DimensionMismatch, match="^need v >= 1$"):
            dd_module_dim(2, 1, 0)

    def test_weighted_compositions(self):
        assert weighted_compositions(1) == [(1,)]
        assert sorted(weighted_compositions(2)) == [(0, 1), (2, 0)]
        expected = sorted(
            [(6, 0, 0), (4, 1, 0), (2, 2, 0), (0, 3, 0), (3, 0, 1), (1, 1, 1), (0, 0, 2)]
        )
        assert weighted_compositions(3) == expected

    def test_defining_relation(self):
        from math import factorial

        for s in (1, 2, 3, 4):
            tuples = weighted_compositions(s)
            assert len(set(tuples)) == len(tuples)
            assert tuples == sorted(tuples)
            for t in tuples:
                assert sum((i + 1) * d for i, d in enumerate(t)) == factorial(s)

    def test_too_large(self):
        with pytest.raises(TooLarge):
            weighted_compositions(5)

    @pytest.mark.parametrize("s", [0, -1])
    def test_s_below_one_out_of_range(self, s):
        """s < 1 was reported as `TooLarge`; the message is unchanged."""
        with pytest.raises(OutOfRange, match="^s must be at least 1$"):
            weighted_compositions(s)
