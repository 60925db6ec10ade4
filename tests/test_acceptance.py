"""Acceptance gate: one test per headline criterion, one verdict line each.

Every check is exact (Fraction/UniPoly arithmetic); the stated instance
counts are met or exceeded, and the expensive suites stay well inside
their time budgets on commodity hardware.
"""

import itertools
import json
import random
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
import sympy

from semistab import (
    DynkinType,
    UniPoly,
    adjoint_low_height_bound,
    admissible_deformation,
    coordinate_flag,
    dualize_filtration,
    filtration_data_of,
    form_profile,
    functional_L,
    functional_M,
    good_prime_excluded,
    heinloth_curve_condition,
    integral_subgroup_of,
    kernel_destabilizer,
    mu,
    mu_profile,
    ramanathan_semistable,
    semistable_form,
    standard_weight_vector,
    torus_destabilize,
    weight_vector_of_filtration,
    weighted_compositions,
    weighted_flag_of,
)
from semistab.classical import FormBundle, SplitSheafModel, Symmetry
from semistab.repdata import CharCondition

from conftest import (
    grid_vectors,
    mu_flag_invariance_check,
    oracle_coordinate_flags,
    random_filtration,
    random_profile,
    random_rep,
    run_semistab,
    slopy_implication_check,
)
from test_classical import constant_form, flag_data

GOLDEN = Path(__file__).parent / "golden"


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_characteristic_tables():
    """13 spot queries over both tables, zero tolerance."""
    T = DynkinType.parse
    checks = [
        adjoint_low_height_bound(T("E8")) == 58,
        adjoint_low_height_bound(T("G2")) == 10,
        adjoint_low_height_bound(T("D4")) == 10,
        adjoint_low_height_bound(T("A3")) == 6,
        adjoint_low_height_bound(T("B5")) == 18,
        adjoint_low_height_bound(T("E7")) == 34,
        heinloth_curve_condition([T("A9")]) == CharCondition("any"),
        heinloth_curve_condition([T("B2"), T("C3"), T("D5")])
        == CharCondition("not", 2),
        heinloth_curve_condition([T("A1"), T("G2")]) == CharCondition("greater", 10),
        heinloth_curve_condition([T("F4")]) == CharCondition("greater", 22),
        heinloth_curve_condition([T("E6")]) == CharCondition("greater", 22),
        heinloth_curve_condition([T("E7"), T("D4")]) == CharCondition("greater", 34),
        heinloth_curve_condition([T("E8"), T("A1")]) == CharCondition("greater", 58),
    ]
    assert len(checks) == 13
    report(
        "characteristic-bound tables reproduce the source values",
        all(checks),
        f"{sum(checks)}/13 queries",
    )


def test_weighted_flag_round_trip():
    """500 seeded instances, r <= 6: alphas recovered exactly from gaps."""
    start = time.time()
    rng = random.Random(500500)
    ok = True
    for _ in range(500):
        r = rng.randint(2, 6)
        t = rng.randint(1, r - 1)
        ranks = sorted(rng.sample(range(1, r), t))
        alphas = [Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in ranks]
        vector = weight_vector_of_filtration(ranks, alphas, r)
        recovered = {pos: gap / r for pos, gap in vector.gaps().items()}
        ok = ok and recovered == dict(zip(ranks, alphas))
        lam = integral_subgroup_of(vector)
        flag = weighted_flag_of(lam)
        ok = ok and flag.dims == tuple(ranks)
    for r in range(2, 7):
        for i in range(1, r):
            entries = standard_weight_vector(r, i).entries
            ok = ok and entries == (Fraction(i - r),) * i + (Fraction(i),) * (r - i)
    elapsed = time.time() - start
    report(
        "weighted-flag round trip recovers alphas exactly",
        ok and elapsed < 5,
        f"500 instances in {elapsed:.2f}s",
    )


def test_mu_flag_invariance():
    """200 seeded 1-PS pairs: identical weighted flags give identical mu."""
    rng = random.Random(200200)
    ok = True
    applicable = 0
    for _ in range(200):
        rep, point = random_rep(rng, max_rank=4, max_basis=10)
        r = rep.torus_rank
        lams = []
        while len(lams) < 2:
            vec = [rng.randint(-2, 2) for _ in range(r)]
            vec[-1] -= sum(vec)
            from semistab import OneParamSubgroup

            cand = OneParamSubgroup(tuple(vec))
            if not cand.is_trivial():
                lams.append(cand)
        # Force frequent non-vacuous cases by scaling coincidence.
        if rng.random() < 0.5:
            lams[1] = lams[0]
        flags_equal = (
            weighted_flag_of(lams[0]).dims == weighted_flag_of(lams[1]).dims
            and weighted_flag_of(lams[0]).alphas == weighted_flag_of(lams[1]).alphas
            and weighted_flag_of(lams[0]).blocks() == weighted_flag_of(lams[1]).blocks()
        )
        if flags_equal:
            applicable += 1
            ok = ok and mu(rep, lams[0], point) == mu(rep, lams[1], point)
        ok = ok and mu_flag_invariance_check(rep, lams[0], lams[1], point)
    report(
        "mu depends only on the weighted flag",
        ok,
        f"200 pairs, {applicable} non-vacuous",
    )


def test_instability_oracle():
    """300 seeded instances: grid witnesses force instability, certificates
    and destabilizers independently prove every returned verdict."""
    start = time.time()
    rng = random.Random(300300)
    ok = True
    unstable = 0
    for _ in range(300):
        rep, point = random_rep(rng, max_rank=4, max_basis=12)
        verdict = torus_destabilize(rep, point)
        weights = [rep.weight_of(label) for label in point.support]
        grid_best = min(
            max(sum(g * w for g, w in zip(vec, weight)) for weight in weights)
            for vec in grid_vectors(rep.torus_rank)
        )
        if grid_best < 0:
            ok = ok and not verdict.semistable
        if verdict.semistable:
            ok = ok and verdict.certificate.verify(rep, point)
            ok = ok and grid_best >= 0
        else:
            unstable += 1
            ok = ok and mu(rep, verdict.destabilizer, point) < 0
            values = tuple(verdict.destabilizer.weights)
            g = 0
            for v in values:
                g = gcd(g, abs(v))
            ok = ok and g == 1
    elapsed = time.time() - start
    report(
        "instability verdicts agree with the grid oracle and carry proofs",
        ok and elapsed < 60,
        f"300 instances ({unstable} unstable) in {elapsed:.2f}s",
    )


def test_dispo_mu_brute_force():
    """200 seeded profiles, t <= 3, tuple_len <= 6: exhaustive minimization."""
    rng = random.Random(606060)
    ok = True
    for _ in range(200):
        f = random_filtration(rng, max_rank=4)
        tuple_len = rng.randint(1, 6)
        profile = random_profile(rng, f.steps, tuple_len)
        assert profile.steps <= 3
        from semistab import block_weights

        gamma = block_weights(f)
        best = min(
            sum(gamma[i - 1] for i in raw)
            for raw in itertools.product(
                range(1, profile.steps + 2), repeat=tuple_len
            )
            if tuple(sorted(raw)) in profile.tuples
        )
        ok = ok and mu_profile(f, profile) == -best
    report("profile mu matches exhaustive minimization", ok, "200 profiles")


def test_deformation_preservation():
    """200 seeded pairs: deformation preserves M and mu, and is idempotent."""
    rng = random.Random(123123)
    ok = True
    for _ in range(200):
        f = random_filtration(rng)
        profile = random_profile(rng, f.steps, rng.randint(1, 4))
        deformed = admissible_deformation(f, profile)
        ok = ok and mu_profile(f, deformed) == mu_profile(f, profile)
        ok = ok and functional_M(f) == functional_M(f)
        ok = ok and admissible_deformation(f, deformed) == deformed
    report("admissible deformation preserves M and mu, idempotent", ok, "200 pairs")


def test_classical_ground_truth():
    """100 seeded constant forms, rank <= 4: semistable iff det nonzero."""
    start = time.time()
    rng = random.Random(1002)
    ok = True
    degenerate = 0
    checked = 0
    while checked < 100:
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
        fb = constant_form(SplitSheafModel((0,) * r), symmetry, rows)
        det = sympy.Matrix(rows).det()
        verdict = semistable_form(fb)
        ok = ok and verdict.semistable == (det != 0)
        if not verdict.semistable:
            degenerate += 1
            kernel = kernel_destabilizer(fb)
            ok = ok and verdict.witness == kernel
            data = filtration_data_of(fb, kernel)
            ok = ok and mu_profile(data, form_profile(fb, kernel)) < 0
        checked += 1
    elapsed = time.time() - start
    report(
        "constant forms: semistable iff determinant nonzero, kernel witnesses",
        ok and elapsed < 30,
        f"100 matrices ({degenerate} degenerate) in {elapsed:.2f}s",
    )


def test_implication_chains():
    """stable => semistable => Ramanathan; delta-ss => slope-ss."""
    rng = random.Random(321321)
    ok = True
    for _ in range(30):
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
        ok = ok and (not stable or semi) and (not semi or raman)
    for _ in range(200):
        entries = []
        for _ in range(rng.randint(0, 3)):
            f = random_filtration(rng)
            entries.append((f, random_profile(rng, f.steps, rng.randint(1, 3))))
        delta = UniPoly.of(Fraction(rng.randint(1, 9), rng.randint(1, 3)))
        ok = ok and slopy_implication_check(entries, delta)
    report(
        "implication chains hold on every tested instance",
        ok,
        "30 classical + 200 dispo instances",
    )


def test_dualization():
    """Involution and L-invariance on all coordinate flags, r <= 5."""
    ok = True
    models = {
        2: SplitSheafModel((1, -1)),
        3: SplitSheafModel((2, -1, -1)),
        4: SplitSheafModel((1, 2, -1, -2)),
        5: SplitSheafModel((3, -1, -1, 0, -1)),
    }
    count = 0
    for r, model in models.items():
        for flag in oracle_coordinate_flags(r):
            dual = dualize_filtration(model, flag)
            ok = ok and dualize_filtration(model.dual(), dual) == flag
            ok = ok and functional_L(flag_data(model, flag)) == functional_L(
                flag_data(model.dual(), dual)
            )
            count += 1
    report(
        "dualization is an involution and preserves L at degree zero",
        ok,
        f"{count} coordinate flags",
    )


def test_cli_golden_files():
    """Byte-exact CLI outputs for every documented example."""
    cases = [
        (["mu", "--kind", "dispo", "--input", "mu_symplectic.json"], "mu_symplectic.out"),
        (["bounds", "E8"], "bounds_E8.out"),
        (
            ["destabilize", "--input", "destabilize_single.json"],
            "destabilize_single.out",
        ),
        (["enumerate-compositions", "3"], "enumerate_compositions_3.out"),
    ]
    ok = True
    for args, expected in cases:
        result = run_semistab(args, cwd=GOLDEN)
        ok = ok and result.returncode == 0
        ok = ok and result.stdout == (GOLDEN / "expected" / expected).read_text()
    document = json.loads(run_semistab(["enumerate-compositions", "3"]).stdout)
    expected_tuples = sorted(
        [[6, 0, 0], [4, 1, 0], [2, 2, 0], [0, 3, 0], [3, 0, 1], [1, 1, 1], [0, 0, 2]]
    )
    ok = ok and document["tuples"] == expected_tuples
    ok = ok and len(document["tuples"]) == 7
    report("CLI golden files byte-identical", ok, "4 documented examples + 7 tuples")


def test_documented_values_in_library():
    """enumerate-compositions 3 and the symplectic mu also hold in-library."""
    assert len(weighted_compositions(3)) == 7
    from test_dispo import SYMPLECTIC_PROFILE, rank2_filtration

    assert mu_profile(rank2_filtration(), SYMPLECTIC_PROFILE) == 0
