"""Shared seeded generators for the property suites, and the CLI runner."""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import semistab
from semistab import (
    FiltrationData,
    FiltrationMember,
    FormVerdict,
    NonvanishingProfile,
    Order,
    RepPoint,
    TorusWeightRep,
    UniPoly,
    Verdict,
    block_weights,
    delta_semistable,
    filtration_data_of,
    form_profile,
    functional_L,
    functional_M,
    is_positive,
    mu,
    mu_profile,
    poly_order,
    rational,
    slope_parameter,
    slope_semistable,
    weighted_flag_of,
)
from semistab.classical import EXHAUSTIVE, _gather_flags
from semistab.errors import InvalidDelta

# The directory holding the imported ``semistab`` package: ``src/`` for an
# in-tree run, ``site-packages`` for an installed one.
SEMISTAB_ROOT = str(Path(semistab.__file__).resolve().parents[1])


def run_semistab(args, cwd=None, input=None) -> subprocess.CompletedProcess:
    """Run ``python -m semistab *args`` on the package this process imported.

    The package root goes first on the child's ``PYTHONPATH`` (the caller's
    entries follow), so the CLI under test is the library under test from
    any working directory.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SEMISTAB_ROOT, env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "semistab", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        input=input,
        env=env,
    )


def random_fraction(rng: random.Random, lo: int = -6, hi: int = 6) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, 4))


def random_positive_fraction(rng: random.Random, hi: int = 6) -> Fraction:
    return Fraction(rng.randint(1, hi), rng.randint(1, 4))


def random_filtration(rng: random.Random, max_rank: int = 4) -> FiltrationData:
    """Curve-consistent data: P(n) = r n + d + r, P_j(n) = k_j n + d_j + k_j."""
    r = rng.randint(2, max_rank)
    t = rng.randint(1, min(2, r - 1))
    ranks = sorted(rng.sample(range(1, r), t))
    d = rng.randint(-4, 4)
    members = []
    for k in ranks:
        dj = rng.randint(-4, 4)
        members.append(
            FiltrationMember(
                k,
                Fraction(dj),
                UniPoly.of(dj + k, k),
                random_positive_fraction(rng),
            )
        )
    return FiltrationData(r, Fraction(d), UniPoly.of(d + r, r), tuple(members))


def random_profile(
    rng: random.Random, steps: int, tuple_len: int
) -> NonvanishingProfile:
    """Upward closure of a random tuple set together with the all-top tuple."""
    alphabet = range(1, steps + 2)
    universe = list(itertools.combinations_with_replacement(alphabet, tuple_len))
    seeds = rng.sample(universe, rng.randint(0, min(3, len(universe))))
    seeds.append((steps + 1,) * tuple_len)
    return NonvanishingProfile(
        steps, tuple_len, oracle_upward_closure(seeds, steps, tuple_len)
    )


def random_rep(rng: random.Random, max_rank: int = 4, max_basis: int = 10):
    r = rng.randint(2, max_rank)
    size = rng.randint(1, max_basis)
    basis = tuple(
        (f"b{i}", tuple(rng.randint(-3, 3) for _ in range(r)))
        for i in range(size)
    )
    rep = TorusWeightRep(r, basis)
    support = rng.sample(range(size), rng.randint(1, size))
    point = RepPoint(
        tuple((f"b{i}", random_positive_fraction(rng)) for i in sorted(support))
    )
    return rep, point


# -- oracles shared by the property suites --------------------------------------


def mu_flag_invariance_check(rep, lam1, lam2, point) -> bool:
    """mu(lam1) == mu(lam2) whenever the two weighted flags coincide.

    Vacuously true when the flags differ; must never return False.
    """
    f1, f2 = weighted_flag_of(lam1), weighted_flag_of(lam2)
    if (f1.dims, f1.alphas, f1.blocks()) != (f2.dims, f2.alphas, f2.blocks()):
        return True
    return mu(rep, lam1, point) == mu(rep, lam2, point)


def slopy_implication_check(model, delta) -> bool:
    """delta-semistable implies slope-semistable for the derived parameter.

    The base dimension is read off as the degree of the total Hilbert
    polynomial.  Must never return False on consistent filtration data.
    """
    if not model:
        return True
    dim_x = max(1, model[0][0].total_hilb.degree)
    if not delta_semistable(model, delta).semistable:
        return True
    return slope_semistable(model, slope_parameter(delta, dim_x)).semistable


def oracle_upward_closure(seeds, steps: int, tuple_len: int) -> frozenset:
    """Sorted tuples over 1..steps+1 dominating some seed, by enumeration.

    Walks every word over the alphabet; independent of the cover moves
    that `semistab.dispo` closes and validates profiles with.
    """
    seeds = list(seeds)
    return frozenset(
        u
        for u in itertools.product(range(1, steps + 2), repeat=tuple_len)
        if list(u) == sorted(u)
        and any(all(a <= b for a, b in zip(t, u)) for t in seeds)
    )


def oracle_profile_accepts(steps: int, tuple_len: int, tuples: frozenset) -> bool:
    """Whether sorted tuples hold the all-top tuple and equal their brute-force closure."""
    return (steps + 1,) * tuple_len in tuples and tuples == oracle_upward_closure(
        tuples, steps, tuple_len
    )


def oracle_deformation(filtration, profile) -> frozenset:
    """Brute-force upward closure of the profile's minimal-weight tuples."""
    gamma = block_weights(filtration)
    sums = {t: sum(gamma[i - 1] for i in t) for t in profile.tuples}
    minimum = min(sums.values())
    kept = [t for t, s in sums.items() if s == minimum]
    return oracle_upward_closure(kept, profile.steps, profile.tuple_len)


# -- the verdict loops as first written, one per verdict -------------------------
#
# Each states the violation rule in its own loop; the library now states it
# once, in `dispo.first_violation`.  Verdicts and witnesses must agree.


def oracle_delta_semistable(model, delta, strict=False):
    if not is_positive(delta):
        raise InvalidDelta("delta must be asymptotically positive")
    for index, (filtration, profile) in enumerate(model):
        value = functional_M(filtration) + delta.scale(mu_profile(filtration, profile))
        order = poly_order(value, UniPoly.zero())
        if order is Order.LESS or (strict and order is Order.EQUAL):
            return Verdict(False, index)
    return Verdict(True)


def oracle_slope_semistable(model, delta_bar, strict=False):
    delta_bar = rational(delta_bar)
    if delta_bar < 0:
        raise InvalidDelta("delta_bar must be nonnegative")
    for index, (filtration, profile) in enumerate(model):
        value = functional_L(filtration) + delta_bar * mu_profile(filtration, profile)
        if value < 0 or (strict and value == 0):
            return Verdict(False, index)
    return Verdict(True)


def oracle_asymptotic_semistable(model, strict=False):
    for index, (filtration, profile) in enumerate(model):
        value = mu_profile(filtration, profile)
        if value < 0:
            return Verdict(False, index)
        if value == 0:
            order = poly_order(functional_M(filtration), UniPoly.zero())
            if order is Order.LESS or (strict and order is Order.EQUAL):
                return Verdict(False, index)
    return Verdict(True)


def oracle_semistable_form(fb, flag_source=EXHAUSTIVE, strict=False):
    for flag in _gather_flags(fb, flag_source):
        data = filtration_data_of(fb, flag)
        profile = form_profile(fb, flag)
        value = mu_profile(data, profile)
        if value < 0:
            return FormVerdict(False, flag)
        if value == 0:
            order = poly_order(functional_M(data), UniPoly.zero())
            if order is Order.LESS or (strict and order is Order.EQUAL):
                return FormVerdict(False, flag)
    return FormVerdict(True)


def oracle_ramanathan_semistable(fb, flag_source=EXHAUSTIVE, strict=False):
    for flag in _gather_flags(fb, flag_source):
        data = filtration_data_of(fb, flag)
        profile = form_profile(fb, flag)
        if mu_profile(data, profile) != 0:
            continue
        value = functional_L(data)
        if value < 0 or (strict and value == 0):
            return FormVerdict(False, flag)
    return FormVerdict(True)
