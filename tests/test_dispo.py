"""Filtration functionals, profile mu, verdicts, and deformations."""

import itertools
import math
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semistab import (
    FiltrationData,
    FiltrationMember,
    NonvanishingProfile,
    UniPoly,
    admissible_deformation,
    asymptotic_semistable,
    block_weights,
    delta_semistable,
    full_profile,
    functional_L,
    functional_M,
    mu_profile,
    slope_parameter,
    slope_semistable,
    standard_weight_vector,
    weight_vector_of_filtration,
)
from semistab.errors import InvalidDelta, MalformedFiltration, OutOfRange, ProfileMismatch

from conftest import (
    oracle_asymptotic_semistable,
    oracle_block_weights,
    oracle_deformation,
    oracle_delta_semistable,
    oracle_profile_accepts,
    oracle_slope_semistable,
    oracle_upward_closure,
    random_filtration,
    random_positive_fraction,
    random_profile,
    slopy_implication_check,
)


def rank2_filtration(d_total=0, d_sub=0, alpha=1):
    """Rank-2 curve data with one rank-1 member."""
    return FiltrationData(
        2,
        Fraction(d_total),
        UniPoly.of(d_total + 2, 2),
        (
            FiltrationMember(
                1, Fraction(d_sub), UniPoly.of(d_sub + 1, 1), Fraction(alpha)
            ),
        ),
    )


SYMPLECTIC_PROFILE = NonvanishingProfile(1, 2, frozenset({(1, 2), (2, 2)}))
KERNEL_PROFILE = NonvanishingProfile(1, 2, frozenset({(2, 2)}))


def oracle_mu(filtration, profile):
    """Independent exhaustive minimization over the full tuple alphabet."""
    gamma = oracle_block_weights(filtration)
    best = None
    for raw in itertools.product(
        range(1, profile.steps + 2), repeat=profile.tuple_len
    ):
        if tuple(sorted(raw)) not in profile.tuples:
            continue
        value = sum(gamma[i - 1] for i in raw)
        if best is None or value < best:
            best = value
    return -best


class TestValidation:
    def test_rank_ordering(self):
        with pytest.raises(MalformedFiltration):
            FiltrationData(
                2,
                Fraction(0),
                UniPoly.of(2, 2),
                (FiltrationMember(2, Fraction(0), UniPoly.of(2, 2), Fraction(1)),),
            )

    def test_profile_needs_top(self):
        with pytest.raises(ProfileMismatch):
            NonvanishingProfile(1, 2, frozenset({(1, 1)}))

    def test_top_tuple_not_built_from_a_bare_length(self):
        """An empty set is rejected without a tuple of the declared length."""
        tracemalloc.start()
        try:
            with pytest.raises(ProfileMismatch, match="all-top tuple"):
                NonvanishingProfile(1, 10**7, frozenset())
            assert tracemalloc.get_traced_memory()[1] < 10**6
        finally:
            tracemalloc.stop()

    def test_profile_upward_closed(self):
        with pytest.raises(ProfileMismatch):
            NonvanishingProfile(1, 2, frozenset({(1, 1), (2, 2)}))

    def test_profile_alphabet(self):
        with pytest.raises(ProfileMismatch):
            NonvanishingProfile(1, 2, frozenset({(2, 2), (2, 3)}))

    def test_tuple_length(self):
        with pytest.raises(ProfileMismatch, match=r"^tuple \(2,\) has length 1, expected 2$"):
            NonvanishingProfile(1, 2, frozenset({(2,)}))

    def test_member_hilbert_polynomial_below_the_total(self):
        member = FiltrationMember(1, Fraction(0), UniPoly.of(2, 2), Fraction(1))
        with pytest.raises(
            MalformedFiltration,
            match="^member Hilbert polynomial must be asymptotically below the total$",
        ):
            FiltrationData(2, Fraction(0), UniPoly.of(2, 2), (member,))

    def test_tuples_sorted_on_intake(self):
        p = NonvanishingProfile(1, 2, frozenset({(2, 1), (2, 2)}))
        assert p.tuples == frozenset({(1, 2), (2, 2)})

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_accepts_exactly_the_closed_sets(self, data):
        """Cover moves accept exactly the sets equal to their brute-force closure."""
        steps = data.draw(st.integers(0, 3))
        tuple_len = data.draw(st.integers(1, 5))
        universe = sorted(
            itertools.combinations_with_replacement(range(1, steps + 2), tuple_len)
        )
        tuples = data.draw(st.sets(st.sampled_from(universe), max_size=8))
        if data.draw(st.booleans()):
            # Close the draw, then perhaps punch holes: near misses.
            holes = data.draw(st.sets(st.sampled_from(universe), max_size=2))
            tuples = set(oracle_upward_closure(tuples, steps, tuple_len)) - holes
        top = (steps + 1,) * tuple_len
        tuples = frozenset(tuples | {top} if data.draw(st.booleans()) else tuples - {top})
        try:
            NonvanishingProfile(steps, tuple_len, tuples)
            accepted = True
        except ProfileMismatch:
            accepted = False
        assert accepted == oracle_profile_accepts(steps, tuple_len, tuples)


class TestFunctionals:
    def test_M_example(self):
        f = rank2_filtration(d_total=3, d_sub=1)
        # 1*(2n + d) - 2*(n + d1) = d - 2 d1, constant.
        assert functional_M(f) == UniPoly.of(3 + 2 - 2 * (1 + 1))
        assert functional_M(f) == UniPoly.of(1)

    def test_M_empty(self):
        f = FiltrationData(2, Fraction(0), UniPoly.of(2, 2), ())
        assert functional_M(f).is_zero()

    def test_L_example(self):
        f = rank2_filtration(d_total=0, d_sub=-1)
        assert functional_L(f) == 2

    def test_alpha_linearity(self):
        rng = random.Random(8)
        for _ in range(50):
            f = random_filtration(rng)
            c = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            scaled = FiltrationData(
                f.total_rank,
                f.total_degree,
                f.total_hilb,
                tuple(
                    FiltrationMember(m.rank, m.degree, m.hilb, m.alpha * c)
                    for m in f.members
                ),
            )
            assert functional_M(scaled) == functional_M(f).scale(c)
            assert functional_L(scaled) == c * functional_L(f)
            profile = random_profile(rng, f.steps, rng.randint(1, 3))
            assert mu_profile(scaled, profile) == c * mu_profile(f, profile)


class TestMuProfile:
    def test_symplectic_boundary(self):
        f = rank2_filtration()
        assert block_weights(f) == (Fraction(-1), Fraction(1))
        assert mu_profile(f, SYMPLECTIC_PROFILE) == 0

    def test_kernel_case(self):
        assert mu_profile(rank2_filtration(), KERNEL_PROFILE) == -2

    def test_full_profile_positive(self):
        f = rank2_filtration()
        assert mu_profile(f, full_profile(1, 2)) == 2

    def test_step_mismatch(self):
        with pytest.raises(ProfileMismatch):
            mu_profile(rank2_filtration(), full_profile(2, 2))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_block_weights_closed_form(self, data):
        """The closed form equals the distinct entries of sum_j alpha_j gamma^(rk_j)."""
        r = data.draw(st.integers(2, 9))
        ranks = sorted(data.draw(st.sets(st.integers(1, r - 1))))
        alpha = st.fractions(min_value=Fraction(1, 6), max_value=5, max_denominator=6)
        alphas = data.draw(st.lists(alpha, min_size=len(ranks), max_size=len(ranks)))
        members = tuple(
            FiltrationMember(k, Fraction(0), UniPoly.of(k, k), a)
            for k, a in zip(ranks, alphas)
        )
        filtration = FiltrationData(r, Fraction(0), UniPoly.of(r, r), members)
        entries = [Fraction(0)] * r
        for k, a in zip(ranks, alphas):
            entries = [e + a * g for e, g in zip(entries, standard_weight_vector(r, k).entries)]
        assert block_weights(filtration) == tuple(dict.fromkeys(entries))
        assert weight_vector_of_filtration(ranks, alphas, r).entries == tuple(entries)

    def test_matches_oracle(self):
        rng = random.Random(999)
        for _ in range(100):
            f = random_filtration(rng)
            tuple_len = rng.randint(1, 4)
            profile = random_profile(rng, f.steps, tuple_len)
            assert mu_profile(f, profile) == oracle_mu(f, profile)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_mixed_denominators_match_oracles(self, data):
        """Alphas over denominators 1, 2, 3 and 7: block weights, mu and the deformation."""
        r = data.draw(st.integers(2, 6))
        ranks = sorted(data.draw(st.sets(st.integers(1, r - 1), max_size=3)))
        alpha = st.sampled_from(
            [Fraction(1, 2), Fraction(2, 3), Fraction(5, 7), Fraction(1), Fraction(3)]
        )
        alphas = data.draw(st.lists(alpha, min_size=len(ranks), max_size=len(ranks)))
        members = tuple(
            FiltrationMember(k, Fraction(0), UniPoly.of(k, k), a) for k, a in zip(ranks, alphas)
        )
        f = FiltrationData(r, Fraction(0), UniPoly.of(r, r), members)
        rng = data.draw(st.randoms(use_true_random=False))
        profile = random_profile(rng, f.steps, data.draw(st.integers(1, 3)))
        assert block_weights(f) == oracle_block_weights(f)
        assert mu_profile(f, profile) == oracle_mu(f, profile)
        assert admissible_deformation(f, profile).tuples == oracle_deformation(f, profile)


class TestVerdicts:
    def test_delta_boundary(self):
        model = [(rank2_filtration(), SYMPLECTIC_PROFILE)]
        delta = UniPoly.of(0, 1)
        assert delta_semistable(model, delta).semistable
        assert not delta_semistable(model, delta, strict=True).semistable

    def test_delta_kernel_violated(self):
        model = [(rank2_filtration(), KERNEL_PROFILE)]
        verdict = delta_semistable(model, UniPoly.of(0, 1))
        assert not verdict.semistable
        assert verdict.witness_index == 0

    def test_delta_vacuous(self):
        assert delta_semistable([], UniPoly.of(1)).semistable

    def test_delta_must_be_positive(self):
        with pytest.raises(InvalidDelta):
            delta_semistable([], UniPoly.zero())

    def test_slope_variants(self):
        boundary = [(rank2_filtration(), SYMPLECTIC_PROFILE)]
        assert slope_semistable(boundary, Fraction(1)).semistable
        assert not slope_semistable(boundary, Fraction(1), strict=True).semistable
        kernel = [(rank2_filtration(), KERNEL_PROFILE)]
        assert not slope_semistable(kernel, Fraction(1)).semistable
        with pytest.raises(InvalidDelta):
            slope_semistable([], Fraction(-1))

    def test_asymptotic(self):
        boundary = [(rank2_filtration(), SYMPLECTIC_PROFILE)]
        assert asymptotic_semistable(boundary).semistable
        assert not asymptotic_semistable(boundary, strict=True).semistable
        kernel = [(rank2_filtration(), KERNEL_PROFILE)]
        verdict = asymptotic_semistable(kernel)
        assert not verdict.semistable and verdict.witness_index == 0
        stable = [(rank2_filtration(), full_profile(1, 2))]
        assert asymptotic_semistable(stable, strict=True).semistable

    def test_slope_parameter(self):
        assert slope_parameter(UniPoly.of(3, 5), 1) == 3
        assert slope_parameter(UniPoly.of(3, 5), 2) == 5
        assert slope_parameter(UniPoly.of(3), 2) == 0

    @pytest.mark.parametrize("dim_x", [0, -1])
    def test_slope_parameter_needs_a_positive_dimension(self, dim_x):
        """`math.factorial` used to raise a bare ValueError here."""
        with pytest.raises(OutOfRange, match=f"^dim X must be at least 1, got {dim_x}$"):
            slope_parameter(UniPoly.of(3, 5), dim_x)
        with pytest.raises(TypeError):
            slope_parameter(UniPoly.of(3, 5), True)

    def test_slopy_implication(self):
        rng = random.Random(4242)
        for _ in range(100):
            entries = []
            for _ in range(rng.randint(0, 3)):
                f = random_filtration(rng)
                entries.append((f, random_profile(rng, f.steps, rng.randint(1, 3))))
            delta = UniPoly.of(Fraction(rng.randint(1, 9), rng.randint(1, 3)))
            assert slopy_implication_check(entries, delta)


def boundary_entry(rng):
    """A self-dual filtration and the pairs whose block weights sum to >= 0.

    Ranks rk and r - rk come together with equal alphas, so the block
    weights are antisymmetric and the pair (1, t + 1) sums to zero: mu = 0
    exactly, and the sign of M (degrees in -1..1) decides.
    """
    r = rng.randint(2, 6)
    half = rng.sample(range(1, r // 2 + 1), rng.randint(1, r // 2))
    alpha = {k: random_positive_fraction(rng) for k in half}
    members = []
    for k in sorted(set(half) | {r - k for k in half}):
        dj = rng.randint(-1, 1)
        members.append(
            FiltrationMember(k, Fraction(dj), UniPoly.of(dj + k, k), alpha[min(k, r - k)])
        )
    filtration = FiltrationData(r, Fraction(0), UniPoly.of(r, r), tuple(members))
    gamma = block_weights(filtration)
    t = filtration.steps
    pairs = frozenset(
        (i, j)
        for i in range(1, t + 2)
        for j in range(i, t + 2)
        if gamma[i - 1] + gamma[j - 1] >= 0
    )
    return filtration, NonvanishingProfile(t, 2, pairs)


def random_entry(rng):
    if rng.random() < 0.5:
        return boundary_entry(rng)
    f = random_filtration(rng)
    return f, random_profile(rng, f.steps, rng.randint(1, 3))


class TestVerdictOracles:
    def test_boundary_entries_have_mu_zero(self):
        rng = random.Random(5)
        for _ in range(50):
            assert mu_profile(*boundary_entry(rng)) == 0

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans())
    def test_match_the_first_loops(self, rng, strict):
        """Verdict and witness agree with the loops that each stated the rule."""
        model = [random_entry(rng) for _ in range(rng.randint(0, 5))]
        if rng.random() < 0.5:
            delta = UniPoly.of(rng.randint(-2, 2), rng.randint(1, 2))
        else:
            delta = UniPoly.of(random_positive_fraction(rng))
        delta_bar = rng.choice([Fraction(0), random_positive_fraction(rng)])
        assert delta_semistable(model, delta, strict) == oracle_delta_semistable(
            model, delta, strict
        )
        assert slope_semistable(model, delta_bar, strict) == oracle_slope_semistable(
            model, delta_bar, strict
        )
        assert asymptotic_semistable(model, strict) == oracle_asymptotic_semistable(
            model, strict
        )

    @pytest.mark.parametrize(
        "verdict",
        [
            lambda model: delta_semistable(model, UniPoly.of(1)),
            lambda model: slope_semistable(model, Fraction(1)),
            asymptotic_semistable,
        ],
        ids=["delta", "slope", "asymptotic"],
    )
    def test_stream_not_drawn_past_the_witness(self, verdict):
        def stream():
            yield rank2_filtration(), full_profile(1, 2)
            yield rank2_filtration(), KERNEL_PROFILE
            raise AssertionError("verdict drew an entry past its witness")

        result = verdict(stream())
        assert not result.semistable and result.witness_index == 1


class TestDeformation:
    def test_unchanged_when_min_at_bottom(self):
        f = rank2_filtration()
        assert admissible_deformation(f, SYMPLECTIC_PROFILE) == SYMPLECTIC_PROFILE

    def test_top_only(self):
        f = rank2_filtration()
        assert admissible_deformation(f, KERNEL_PROFILE) == KERNEL_PROFILE

    def test_step_mismatch(self):
        with pytest.raises(ProfileMismatch, match="^profile has 2 steps, filtration has 1$"):
            admissible_deformation(rank2_filtration(), full_profile(2, 2))

    def test_closure_restored(self):
        f = rank2_filtration()
        profile = NonvanishingProfile(1, 2, frozenset({(1, 1), (1, 2), (2, 2)}))
        assert admissible_deformation(f, profile) == profile

    def test_preserves_mu_and_idempotent(self):
        rng = random.Random(246)
        for _ in range(100):
            f = random_filtration(rng)
            profile = random_profile(rng, f.steps, rng.randint(1, 3))
            deformed = admissible_deformation(f, profile)
            assert mu_profile(f, deformed) == mu_profile(f, profile)
            assert functional_M(f) == functional_M(f)  # M ignores the profile
            assert admissible_deformation(f, deformed) == deformed

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_matches_brute_force_closure(self, rng):
        """Exactly the upward closure of the minimal-weight tuples, none dropped."""
        # One step or length one makes the sorted tuples a chain; skip those.
        steps = rng.randint(2, 3)
        r = rng.randint(steps + 1, steps + 3)
        members = tuple(
            FiltrationMember(k, Fraction(0), UniPoly.of(k, k), Fraction(rng.randint(1, 3)))
            for k in sorted(rng.sample(range(1, r), steps))
        )
        f = FiltrationData(r, Fraction(0), UniPoly.of(r, r), members)
        tuple_len = rng.randint(2, 4)
        universe = list(
            itertools.combinations_with_replacement(range(1, steps + 2), tuple_len)
        )
        # Distinct sorted tuples of one sum are incomparable, so the closure of
        # the lightest misses the others; equal alphas make ties.
        levels = {}
        for t in universe:
            levels.setdefault(sum(t), []).append(t)
        level = rng.choice([ts for ts in levels.values() if len(ts) > 1])
        seeds = rng.sample(level, rng.randint(2, min(4, len(level))))
        seeds += rng.sample(universe, rng.randint(0, 2))
        closure = oracle_upward_closure(seeds + [universe[-1]], steps, tuple_len)
        profile = NonvanishingProfile(steps, tuple_len, closure)
        deformed = admissible_deformation(f, profile)
        assert deformed.tuples == oracle_deformation(f, profile)


class TestSize:
    """Sizes at which enumerating every dominating tuple did not finish."""

    def test_full_profile_6_8(self):
        full = full_profile(6, 8)
        assert len(full.tuples) == math.comb(14, 8) == 3003
        alphas = [Fraction(k, 3) for k in range(1, 7)]
        members = tuple(
            FiltrationMember(k, Fraction(0), UniPoly.of(k, k), a)
            for k, a in zip(range(1, 7), alphas)
        )
        f = FiltrationData(7, Fraction(0), UniPoly.of(7, 7), members)
        # The all-bottom tuple weighs 8 * (sum_j alpha_j rk_j - r sum_j alpha_j).
        bottom = sum(a * k for k, a in zip(range(1, 7), alphas)) - 7 * sum(alphas)
        assert mu_profile(f, full) == -8 * bottom
        assert admissible_deformation(f, full) == full

    def test_missing_cover_named(self):
        """Dropping one tuple of the 3,003 is reported as that missing cover."""
        missing = (1, 2, 2, 3, 4, 5, 6, 7)
        with pytest.raises(ProfileMismatch, match=re.escape(f"its cover {missing} missing")):
            NonvanishingProfile(6, 8, full_profile(6, 8).tuples - {missing})
