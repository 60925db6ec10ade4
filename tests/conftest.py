"""Shared seeded generators for the property suites, and the CLI runner."""

from __future__ import annotations

import functools
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import semistab
from semistab import _polyalg
from semistab import (
    FiltrationData,
    FiltrationMember,
    FormVerdict,
    NonvanishingProfile,
    Order,
    RepPoint,
    SubsheafFlag,
    Symmetry,
    TorusWeightRep,
    UniPoly,
    Verdict,
    coordinate_flag,
    delta_semistable,
    filtration_data_of,
    form_profile,
    functional_L,
    functional_M,
    is_positive,
    kernel_destabilizer,
    mu,
    mu_profile,
    poly_order,
    rational,
    slope_parameter,
    slope_semistable,
    weighted_flag_of,
)
from semistab.classical import EXHAUSTIVE_RANK_CAP
from semistab.errors import DegenerateFlag, InvalidDelta, MalformedFlag, TooLarge

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


def dense_columns(rng: random.Random, r: int, k: int, degree: int) -> tuple:
    """k generator columns of length r, every entry of the given degree, coefficients in -4..4."""
    def entry():
        return UniPoly.of(*(rng.randint(-4, 4) for _ in range(degree)), rng.choice([-2, -1, 1, 2]))

    return tuple(tuple(entry() for _ in range(r)) for _ in range(k))


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


def grid_vectors(r: int) -> list[tuple[int, ...]]:
    """The nonzero sum-zero vectors of {-3..3}^r, enumerated here, not by the library."""
    return [v for v in itertools.product(range(-3, 4), repeat=r) if any(v) and sum(v) == 0]


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


def oracle_block_weights(filtration) -> tuple[Fraction, ...]:
    """Block weights by the `Fraction` loop `dispo.block_weights` was first written as.

    Block b (0 <= b <= t) is sum_j alpha_j rk_j - r sum_{j > b} alpha_j.
    """
    r = filtration.total_rank
    weights = [sum((m.alpha * m.rank for m in filtration.members), Fraction(0))]
    for m in reversed(filtration.members):
        weights.append(weights[-1] - r * m.alpha)
    return tuple(reversed(weights))


def oracle_deformation(filtration, profile) -> frozenset:
    """Brute-force upward closure of the profile's minimal-weight tuples."""
    gamma = oracle_block_weights(filtration)
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


def oracle_coordinate_chains(r: int) -> list[list[frozenset]]:
    """The chains of nonempty proper subsets of 1..r, in the walk's order, enumerated here.

    Depth first: a chain, then its extensions by each proper superset of
    its last subset, the subsets ordered by size, then lexicographically.
    """
    subsets = [
        frozenset(c) for k in range(1, r) for c in itertools.combinations(range(1, r + 1), k)
    ]
    chains = []

    def extend(chain):
        if chain:
            chains.append(chain)
        for s in subsets:
            if not chain or chain[-1] < s:
                extend(chain + [s])

    extend([])
    return chains


@functools.cache
def oracle_coordinate_flags(r: int) -> list:
    """The flags of `oracle_coordinate_chains`, alphas 1, one shared step object per subset.

    Cached per rank, so that the oracle's scores of one form meet the same
    step objects in `_form_scores`.
    """
    chains = oracle_coordinate_chains(r)
    subsets = {s for chain in chains for s in chain}
    steps = {s: coordinate_flag([sorted(s)], r=r).steps[0] for s in subsets}
    return [SubsheafFlag(tuple(steps[s] for s in chain)) for chain in chains]


def oracle_gather_flags(fb, flags=None):
    """Every flag the first loops scored, in order and drawn lazily: the kernel flag of a
    degenerate form first.

    For both checks, with flags supplied or not, so that a loop over these
    flags states the kernel rule only through the scores.  With `flags` None
    they are every flag of `oracle_coordinate_flags`, each scored as a
    supplied flag, under the library's rank cap, which is checked only after
    the kernel flag: a degenerate form is refused only by a loop that goes
    past its kernel flag.
    """
    if flags is not None and any(not flag.steps for flag in flags):
        raise MalformedFlag("a supplied flag needs at least one step")
    kernel = kernel_destabilizer(fb)
    if kernel is not None:
        yield kernel
    if flags is None:
        if fb.model.rank > EXHAUSTIVE_RANK_CAP:
            raise TooLarge(f"exhaustive enumeration capped at rank {EXHAUSTIVE_RANK_CAP}")
        flags = oracle_coordinate_flags(fb.model.rank)
    yield from flags


@functools.lru_cache(maxsize=1)
def _form_scores(fb) -> dict:
    """Library scores of one- and two-step flags of the last form scored, by step identity.

    Each entry holds the steps it is keyed by, so no key outlives its step.
    """
    return {}


def _scored(scores, fb, steps, score):
    """`score(fb, SubsheafFlag(steps))`, computed once per form and steps."""
    key = (score, *map(id, steps))
    if key not in scores:
        scores[key] = steps, score(fb, SubsheafFlag(steps))
    return scores[key][1]


def oracle_score(fb, flag):
    """`filtration_data_of` and `form_profile` of a flag that satisfies the flag rule,
    composed from scores of shorter flags.

    The one-step flag (step i) gives member i, and (i, i) and (i, t + 1)
    as its pairs (1, 1) and (1, 2); the two-step flag (step i, step j)
    gives (i, j), i < j, as its pair (1, 2).
    """
    scores = _form_scores(fb)
    t = flag.step_count
    members, tuples = [], {(t + 1, t + 1)}
    for i, step in enumerate(flag.steps, start=1):
        members.append(_scored(scores, fb, (step,), filtration_data_of).members[0])
        own = _scored(scores, fb, (step,), form_profile).tuples
        if (1, 1) in own:
            tuples.add((i, i))
        if (1, 2) in own:
            tuples.add((i, t + 1))
        for j in range(i + 1, t + 1):
            if (1, 2) in _scored(scores, fb, (step, flag.steps[j - 1]), form_profile).tuples:
                tuples.add((i, j))
    data = FiltrationData(fb.model.rank, Fraction(0), fb.model.total_hilb(), tuple(members))
    return data, NonvanishingProfile(t, 2, frozenset(tuples))


def oracle_semistable_form(fb, flags=None, strict=False):
    for flag in oracle_gather_flags(fb, flags):
        data, profile = oracle_score(fb, flag)
        value = mu_profile(data, profile)
        if value < 0:
            return FormVerdict(False, flag)
        if value == 0:
            order = poly_order(functional_M(data), UniPoly.zero())
            if order is Order.LESS or (strict and order is Order.EQUAL):
                return FormVerdict(False, flag)
    return FormVerdict(True)


def oracle_ramanathan_semistable(fb, flags=None, strict=False):
    for flag in oracle_gather_flags(fb, flags):
        data, profile = oracle_score(fb, flag)
        if mu_profile(data, profile) != 0:
            continue
        value = functional_L(data)
        if value < 0 or (strict and value == 0):
            return FormVerdict(False, flag)
    return FormVerdict(True)


def oracle_flag_ranks(model, flag) -> tuple[int, ...]:
    """Step ranks by sympy over the field Q(x), each step checked against every column before it.

    The checks run in the order rank collapse, rank out of range, not
    nested, and raise the library's errors with its messages.
    """
    import sympy
    from sympy.polys.matrices import DomainMatrix

    x = sympy.Symbol("x")
    field = sympy.QQ.frac_field(x)
    r = model.rank

    def rank(columns):
        matrix = sympy.Matrix(
            [
                [
                    sum(
                        (sympy.Rational(c.numerator, c.denominator) * x**k
                         for k, c in enumerate(column[a].coefficients)),
                        sympy.Integer(0),
                    )
                    for column in columns
                ]
                for a in range(r)
            ]
        )
        return DomainMatrix.from_Matrix(matrix).convert_to(field).rank()

    ranks: list[int] = []
    accumulated: tuple = ()
    for step in flag.steps:
        step_rank = rank(step.columns)
        if ranks and step_rank <= ranks[-1]:
            raise DegenerateFlag(
                f"generic ranks collapse: {ranks + [step_rank]} not strictly increasing"
            )
        if not 0 < step_rank < r:
            raise DegenerateFlag(
                f"step rank {step_rank} must lie strictly between 0 and {r}"
            )
        if accumulated and rank(accumulated + step.columns) != step_rank:
            raise MalformedFlag("flag steps are not nested")
        accumulated += step.columns
        ranks.append(step_rank)
    return tuple(ranks)


def oracle_form_bundle(model, symmetry, entries) -> None:
    """`FormBundle` validation as first written: every entry (k, l) in row order, first
    its degree bound, then against its mirror times the sign, the antisymmetric diagonal
    after each row, then nontriviality.  Raises `MalformedFlag` with the library's
    messages, or returns None when the form is accepted."""
    r = model.rank
    if len(entries) != r or any(len(row) != r for row in entries):
        raise MalformedFlag(f"form matrix must be {r}x{r}")
    sign = 1 if symmetry is Symmetry.SYMMETRIC else -1
    degrees = model.summand_degrees
    nontrivial = False
    for k in range(r):
        for l in range(r):
            entry = entries[k][l]
            bound = -(degrees[k] + degrees[l])
            if not entry.is_zero():
                nontrivial = True
                if entry.degree > bound:
                    raise MalformedFlag(
                        f"entry ({k + 1},{l + 1}) has degree {entry.degree}, "
                        f"allowed at most {bound}"
                    )
            if entry != entries[l][k].scale(sign):
                raise MalformedFlag("matrix does not respect the symmetry type")
        if sign == -1 and not entries[k][k].is_zero():
            raise MalformedFlag("antisymmetric form must have zero diagonal")
    if not nontrivial:
        raise MalformedFlag("form must be nontrivial")


def oracle_saturation_degree(model, columns) -> int:
    """`saturation_degree` as first written: the greedy basis of the columns over all r rows,
    then every C(r, k) maximal minor of it, zero rows included.  With the content g of the
    minors removed, the minimum over row subsets S of (sum of summand degrees over S) minus
    deg of the reduced minor."""
    r = model.rank
    pivots = _polyalg.independent_columns([[column[a] for column in columns] for a in range(r)])
    basis = [columns[c] for c in pivots]
    matrix = [[column[a] for column in basis] for a in range(r)]
    minors = {
        subset: _polyalg.determinant([matrix[a] for a in subset])
        for subset in itertools.combinations(range(r), len(basis))
    }
    content = _polyalg.poly_content(list(minors.values()))
    return min(
        sum(model.summand_degrees[a] for a in subset) - (minor.degree - content.degree)
        for subset, minor in minors.items()
        if not minor.is_zero()
    )


def oracle_dd_module_dim(r: int, u: int, v: int) -> int:
    """dim D^u(V^{+v}), V of rank r, as first written: the sum over the compositions of u
    into v parts of the products of divided-power dims C(r + part - 1, part)."""
    def compositions(u, v):
        if v == 1:
            yield (u,)
            return
        for first in range(u + 1):
            for rest in compositions(u - first, v - 1):
                yield (first,) + rest

    total = 0
    for parts in compositions(u, v):
        product = 1
        for part in parts:
            product *= math.comb(r + part - 1, part)
        total += product
    return total


def oracle_cramer_kernel(matrix) -> list:
    """Primitive kernel basis columns over Q(x) by Cramer's rule, as the library first
    built them: for each non-pivot column f, in increasing order, det A at f and zero at
    every other non-pivot column, A the block of the pivot columns on the greedy
    independent rows; `_polyalg._primitive_column` then picks the primitive vector.
    """
    width = len(matrix[0]) if matrix else 0
    pivots = _polyalg.independent_columns(matrix)
    rows = _polyalg.independent_columns([[row[p] for row in matrix] for p in pivots])
    pivot_rows = [matrix[a] for a in rows]
    block = [[row[p] for p in pivots] for row in pivot_rows]
    columns = []
    for free in (f for f in range(width) if f not in pivots):
        vector = [UniPoly.zero()] * width
        vector[free] = _polyalg.determinant(block)
        for i, p in enumerate(pivots):
            replaced = [
                brow[:i] + [row[free]] + brow[i + 1 :] for brow, row in zip(block, pivot_rows)
            ]
            vector[p] = -_polyalg.determinant(replaced)
        columns.append(_polyalg._primitive_column(vector, free))
    return columns


def oracle_hull_system(weights, r):
    """The hull system of `torus_destabilize` as first written, in `Fraction`s:
    c >= 0, sum c = 1, sum c_b w_b = t (1, .., 1), over c_1..c_m, t+, t-."""
    m = len(weights)
    rows = [[Fraction(1)] * m + [Fraction(0), Fraction(0)]]
    rhs = [Fraction(1)]
    for a in range(r):
        rows.append([Fraction(weights[b][a]) for b in range(m)] + [Fraction(-1), Fraction(1)])
        rhs.append(Fraction(0))
    return rows, rhs


def oracle_fallback_system(weights, r):
    """The fallback system of `torus_destabilize` as first written, in `Fraction`s:
    <lambda, w_b> + s_b = -1 and sum lambda = 0, over u, v (lambda = u - v) and s."""
    m = len(weights)
    rows = [[Fraction(1)] * r + [Fraction(-1)] * r + [Fraction(0)] * m]
    rhs = [Fraction(0)]
    for b in range(m):
        row = [Fraction(weights[b][a]) for a in range(r)]
        row += [Fraction(-weights[b][a]) for a in range(r)]
        row += [Fraction(int(b == j)) for j in range(m)]
        rows.append(row)
        rhs.append(Fraction(-1))
    return rows, rhs


def oracle_feasible_point(a_rows, b):
    """`feasibility.feasible_point` as first written: phase-1 simplex, Bland's rule
    for the entering column and, among tied ratios, the least basis index to leave."""
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    tableau = []
    for i, (row, bi) in enumerate(zip(a_rows, b)):
        row, bi = [Fraction(x) for x in row], Fraction(bi)
        if bi < 0:
            row, bi = [-x for x in row], -bi
        tableau.append(row + [Fraction(int(i == j)) for j in range(m)] + [bi])
    basis = [n + i for i in range(m)]
    cost = [Fraction(int(n <= j < n + m)) for j in range(n + m + 1)]
    for row in tableau:
        cost = [c - x for c, x in zip(cost, row)]
    while True:
        enter = next((j for j in range(n + m) if cost[j] < 0), None)
        if enter is None:
            break
        leave = best = None
        for i in range(m):
            if tableau[i][enter] > 0:
                ratio = tableau[i][-1] / tableau[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            return None
        pivot = tableau[leave][enter]
        tableau[leave] = [x / pivot for x in tableau[leave]]
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [x - f * y for x, y in zip(tableau[i], tableau[leave])]
        if cost[enter] != 0:
            f = cost[enter]
            cost = [x - f * y for x, y in zip(cost, tableau[leave])]
        basis[leave] = enter
    if cost[-1] != 0:
        return None
    x = [Fraction(0)] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = tableau[i][-1]
    return x
