"""Bilinear-form bundles on split models over the projective line.

The concrete, fully decidable instances: a split sheaf ⊕O(d_k) with
trivial determinant carries an (anti)symmetric form Phi with polynomial
entries.  Subsheaf flags are given by explicit polynomial generator
matrices; their discrete invariants feed the dispo calculus, where the
form's nonvanishing profile (s = 2, pairs) decides semistability.

Coordinate flags in integers.  Without flags (`flags=None`), the walk
scores every chain S_1 < ... < S_t of nonempty proper subsets of 1..r, each
alpha 1, without building a flag.  Each S_j is a bitmask (bit k - 1 for
index k), and only the witness's chain becomes index lists again, for
`coordinate_flag`.  Step j is the sum of the summands in S_j: its rank is
|S_j|, the bit count, and its saturation degree sum_{k in S_j} d_k (its
one nonzero maximal minor is 1).
  * Block weights.  Coordinate k lies in block b(k), the first j with
    k in S_j (t + 1 if none).  Block b weighs sum_j |S_j| - r (t + 1 - b),
    so k weighs w_k = sum_j |S_j| - r #{j : k in S_j}, and the block
    weights increase with b.
  * mu.  A pair i <= j of blocks is in the profile when Phi is nonzero
    on S_i x S_j (S_{t+1} = 1..r), that is when some (k, l) in supp Phi
    has b(k) <= i and b(l) <= j.  So the profile is the upward closure
    of the sorted pairs (b(k), b(l)), (k, l) in supp Phi, and as the
    block weights increase, its minimal weight sum is taken on one of
    them: mu = -min over (k, l) in supp Phi of (w_k + w_l).
  * L = -r sum_j sum_{k in S_j} d_k.
Only the first violating chain becomes a `SubsheafFlag`, and
`filtration_data_of` and `form_profile` score it again: the generic code
confirms the mu and L of every unstable verdict.

One sign for both checks.  `ramanathan_semistable` asks for L >= 0 (L > 0
under `strict`) wherever mu = 0: its sign is 1 where mu != 0, else L.
`semistable_form` asks for (mu, M) >= 0 in lexicographic order (> 0 under
`strict`).  Past the kernel rule below, two facts make them one:
  * Fact A: M = L on every flag.  In genus zero with total degree zero,
    P(n) = r (n + 1) and step j has P_j(n) = rk_j (n + 1) + deg_j, so
    M = sum_j alpha_j (rk_j P - r P_j) = -r sum_j alpha_j deg_j, which is L.
  * Fact B: mu >= 0 on every flag of a nondegenerate form.  Take a Q(x)-basis
    e_1, ..., e_r adapted to the flag, e_k in block b(k).  Its Gram matrix
    under Phi has nonzero determinant, so some permutation sigma has every
    entry (k, sigma k) nonzero, and each sorted pair (b(k), b(sigma k)) is
    in the profile.  The block weights w_b(k) sum to 0 over k, so the weight
    sums of these r pairs average to 0: the least weight sum of the profile,
    -mu, is at most 0.
So "mu, or M where mu = 0" is below 0 (or 0 under `strict`) exactly where
"1, or L where mu = 0" is, and `semistable_form` is the kernel rule followed
by the walk and the sign of `ramanathan_semistable`.  The walk checks fact B
as it goes: past the kernel rule, a flag scored mu < 0 raises `InternalError`.

The trivial model.  When every d_k is 0, each coordinate step has degree
sum_{k in S_j} d_k = 0, so L = 0 on every chain and the sign is 1 where
mu != 0 and 0 elsewhere, never below 0.  Without `strict` no chain violates,
for both checks and whatever the rank of Phi (fact B is not needed), so past
the kernel rule and the rank cap such a form is semistable with no chain
scored.  On the trivial model the walk, and with it the run-time check of
fact B, runs only under `strict`.

The kernel flag.  A degenerate form (det Phi = 0) has a kernel flag K.
Phi K = 0, so the profile of K is {(2, 2)} alone and mu(K) = -2 rk K < 0:
K is the witness of every `semistable_form` check on such a form, whatever
the other flags score, and it never counts for `ramanathan_semistable`,
which asks only about flags with mu = 0.  Only a `semistable_form` check,
with flags or without, takes the rank of Phi first and, if it falls short,
builds K and confirms it generically, each priced, before the walk's rank
cap.  Supplied flags are then scored one by one, each a pure function of
the form and the flag: one pass checks the flag rule and finds each step's
basis, one elimination a step on its nonzero rows, then `filtration_data_of`
takes the minors on the basis's nonzero rows and `_profile` Phi w.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from math import comb
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import _polyalg
from .dispo import (
    FiltrationData,
    FiltrationMember,
    NonvanishingProfile,
    first_violation,
    functional_L,
    mu_profile,
)
from .errors import (
    MINOR_WORK_CAP,
    DegenerateFlag,
    InternalError,
    MalformedFlag,
    NotCoordinateFlag,
    TooLarge,
    _priced,
)
from .exactmath import RationalLike, UniPoly, integer, rational

EXHAUSTIVE_RANK_CAP = 7

# Shared by every coordinate flag; `UniPoly` is frozen.
_ONE = UniPoly.of(1)
_ZERO = UniPoly.zero()


class Symmetry(enum.Enum):
    SYMMETRIC = "symmetric"
    ANTISYMMETRIC = "antisymmetric"


@dataclass(frozen=True)
class SplitSheafModel:
    """Direct sum of line bundles O(d_k) on the line, trivial determinant."""

    summand_degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        degrees = tuple(map(integer, self.summand_degrees))
        if sum(degrees) != 0:
            raise MalformedFlag(f"summand degrees must sum to zero: {degrees}")
        object.__setattr__(self, "summand_degrees", degrees)

    @property
    def rank(self) -> int:
        return len(self.summand_degrees)

    def total_hilb(self) -> UniPoly:
        """Genus zero: P(n) = d_total + r (n + 1), and d_total = 0."""
        return UniPoly.of(self.rank, self.rank)

    def dual(self) -> "SplitSheafModel":
        return SplitSheafModel(tuple(-d for d in self.summand_degrees))


@dataclass(frozen=True)
class FormBundle:
    """(Anti)symmetric polynomial form A -> A^dual on a split model."""

    model: SplitSheafModel
    symmetry: Symmetry
    entries: tuple[tuple[UniPoly, ...], ...]

    def __post_init__(self) -> None:
        r = self.model.rank
        if len(self.entries) != r or any(len(row) != r for row in self.entries):
            raise MalformedFlag(f"form matrix must be {r}x{r}")
        # Upper triangle only: each lower entry is its upper mirror up to sign, with the
        # same degree bound; a nonzero antisymmetric diagonal entry fails the mirror check.
        antisymmetric = self.symmetry is Symmetry.ANTISYMMETRIC
        degrees = self.model.summand_degrees
        nontrivial = False
        for k in range(r):
            for l in range(k, r):
                entry = self.entries[k][l]
                bound = -(degrees[k] + degrees[l])
                if not entry.is_zero():
                    nontrivial = True
                    if entry.degree > bound:
                        raise MalformedFlag(
                            f"entry ({k + 1},{l + 1}) has degree {entry.degree}, "
                            f"allowed at most {bound}"
                        )
                if self.entries[l][k] != (-entry if antisymmetric else entry):
                    raise MalformedFlag("matrix does not respect the symmetry type")
        if not nontrivial:
            raise MalformedFlag("form must be nontrivial")


@dataclass(frozen=True)
class FlagStep:
    """Generator columns (length-r polynomial vectors) and a positive weight."""

    columns: tuple[tuple[UniPoly, ...], ...]
    alpha: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", rational(self.alpha))
        if self.alpha <= 0:
            raise MalformedFlag("alpha must be positive")
        if not self.columns:
            raise MalformedFlag("a flag step needs at least one generator")


@dataclass(frozen=True)
class SubsheafFlag:
    steps: tuple[FlagStep, ...]

    @property
    def step_count(self) -> int:
        return len(self.steps)


def coordinate_flag(
    chain: Sequence[Sequence[int]], alphas: Optional[Sequence[RationalLike]] = None, *, r: int
) -> SubsheafFlag:
    """Flag of O^r whose steps are spans of standard basis vectors (1-based indices)."""
    r = integer(r)
    if alphas is None:
        alphas = [1] * len(chain)
    if len(alphas) != len(chain):
        raise MalformedFlag(f"{len(alphas)} alphas for a chain of {len(chain)} steps")
    subsets = [sorted(map(integer, subset)) for subset in chain]
    outside = [k for subset in subsets for k in subset if not 1 <= k <= r]
    if outside:
        raise MalformedFlag(f"coordinate index {outside[0]} lies outside 1..{r}")
    steps = []
    for subset, alpha in zip(subsets, alphas):
        columns = [tuple(_ONE if a == k else _ZERO for a in range(1, r + 1)) for k in subset]
        steps.append(FlagStep(tuple(columns), alpha))
    return SubsheafFlag(tuple(steps))


def _nonzero_rows(columns: Sequence[Sequence[UniPoly]], r: int) -> list[int]:
    """The rows on which some column is nonzero."""
    return [a for a in range(r) if any(not column[a].is_zero() for column in columns)]


def _basis(r: int, step: FlagStep, below: Sequence = ()) -> tuple[list[tuple[UniPoly, ...]], bool]:
    """The greedy independent columns of one step over Q(x), and whether the columns
    `below` lie in their span, from one elimination of [step | below] on its nonzero
    rows: Bareiss picks its pivots column by column, never on a zero row, and `below`
    adds none exactly when it lies in the span.

    Priced before it runs and refused over `MINOR_WORK_CAP`: the echelon as if of full
    rank, then each maximal minor on the basis's nonzero rows, unless it is the only one,
    at the larger of a k x k elimination and the content gcd, Euclid on primitive parts
    of minors of degree up to k d: about k (k d)^3 / 8 units.
    """
    for column in step.columns:
        if len(column) != r:
            raise MalformedFlag(f"generator column has length {len(column)}, expected {r}")
    columns = (*step.columns, *below)
    m = len(step.columns)
    d = max((p.degree for column in columns for p in column), default=-1)
    rows = _nonzero_rows(columns, r)
    what, how = f"a step of {m} generator columns at rank {r}", f"eliminate (columns of degree {d})"
    _priced(_elimination_price(len(rows), len(columns), d), what, how)
    pivots = _polyalg.independent_columns([[column[a] for column in columns] for a in rows])
    basis = [columns[c] for c in pivots if c < m]
    k = len(basis)
    minors = comb(len(_nonzero_rows(basis, r)), k)
    if minors > 1:
        d = max(p.degree for column in basis for p in column)
        price = max(_elimination_price(k, k, d), k * (k * d) ** 3 // 8)
        if minors * price > MINOR_WORK_CAP:
            raise TooLarge(
                f"a rank-{k} step at rank {r} has {minors} maximal minors; C(r, k) * {price} "
                f"(a minor of degree-{d} columns) exceeds the cap {MINOR_WORK_CAP}"
            )
    return basis, k == len(pivots)


def _invariants(model: SplitSheafModel, basis: Sequence[Sequence[UniPoly]]) -> int:
    """Saturation degree of the span of a nonempty basis: with the content g of the
    maximal minors removed, the minimum over row subsets S of (sum of summand degrees
    over S) minus deg of the reduced minor.  A minor on a zero row vanishes, so only the
    nonzero rows are taken; on exactly k of them the one minor is its own content."""
    rows = _nonzero_rows(basis, model.rank)
    if len(rows) == len(basis):
        return sum(model.summand_degrees[a] for a in rows)
    minors = {
        subset: _polyalg.determinant([[column[a] for column in basis] for a in subset])
        for subset in combinations(rows, len(basis))
    }
    content = _polyalg.poly_content(list(minors.values()))
    return min(
        sum(model.summand_degrees[a] for a in subset) - (minor.degree - content.degree)
        for subset, minor in minors.items()
        if not minor.is_zero()
    )


def _elimination_price(r: int, k: int, d: int) -> int:
    """Work units of a Bareiss elimination of r x k columns of degree at most d: stage s
    makes (r - s)(k - s) entries of degree about s d, each from polynomial products of
    (s d + 1)^2 coefficient products plus a fixed cost of about 2, at 25 units each."""
    return 25 * sum((r - s) * (k - s) * ((s * d + 1) ** 2 + 2) for s in range(1, min(r, k))) + 30


def _checked_steps(r: int, steps: Iterable[tuple[int, bool]]) -> None:
    """Take the (rank, nested) pairs of the steps one at a time: the ranks rise
    strictly and lie strictly between 0 and r, and each step contains the one before.

    Pairs suffice: while each step's span contains the one before it, the first
    failing step and its error are those of a check against all the earlier columns.
    """
    ranks = []
    for k, nested in steps:
        if ranks and k <= ranks[-1]:
            raise DegenerateFlag(f"generic ranks collapse: {ranks + [k]} not strictly increasing")
        if not 0 < k < r:
            raise DegenerateFlag(f"step rank {k} must lie strictly between 0 and {r}")
        if not nested:
            raise MalformedFlag("flag steps are not nested")
        ranks.append(k)


def _bases(r: int, flag: SubsheafFlag) -> list[list[tuple[UniPoly, ...]]]:
    """Each step's basis under the flag rule: each step is eliminated once, with the
    basis of the step below appended, and checked before the next is eliminated."""
    bases = [[]]

    def eliminated() -> Iterator[tuple[int, bool]]:
        for step in flag.steps:
            basis, nested = _basis(r, step, bases[-1])
            bases.append(basis)
            yield len(basis), nested

    _checked_steps(r, eliminated())
    return bases[1:]


def saturation_degree(model: SplitSheafModel, step: FlagStep) -> int:
    """Degree of the saturation of the subsheaf generated by the columns."""
    basis, _ = _basis(model.rank, step)
    if not basis:
        raise DegenerateFlag("generator matrix has generic rank zero")
    return _invariants(model, basis)


def filtration_data_of(fb: FormBundle, flag: SubsheafFlag) -> FiltrationData:
    """Discrete invariants (rank, degree, Hilbert polynomial, alpha) per step."""
    members = []
    for step, basis in zip(flag.steps, _bases(fb.model.rank, flag)):
        k, degree = len(basis), _invariants(fb.model, basis)
        members.append(FiltrationMember(k, Fraction(degree), UniPoly.of(degree + k, k), step.alpha))
    return FiltrationData(fb.model.rank, Fraction(0), fb.model.total_hilb(), tuple(members))


def form_profile(fb: FormBundle, flag: SubsheafFlag) -> NonvanishingProfile:
    """Which pairs of flag blocks the form does not vanish on (s = 2).

    With G_1, ..., G_t the generator matrices of the steps and G_{t+1} = I,
    the pair (i, j), i <= j, is in the profile when G_i^T Phi G_j is not
    identically zero: for j <= t, when u . (Phi w) != 0 for some generator
    u of step i and w of step j, with Phi w taken once per generator.  As
    Phi is (anti)symmetric, G_i^T Phi I = +-(Phi G_i)^T, so (i, t + 1) is
    present exactly when Phi w != 0 for some generator w of step i.  The
    pair (t + 1, t + 1) is Phi itself, nonzero by `FormBundle`.  The flag
    rule is checked first; no minor is taken.
    """
    _bases(fb.model.rank, flag)
    return _profile(fb, flag)


def _profile(fb: FormBundle, flag: SubsheafFlag) -> NonvanishingProfile:
    """`form_profile` of a flag already checked under the flag rule."""
    t = flag.step_count
    images = [[_apply(fb.entries, w) for w in step.columns] for step in flag.steps]
    tuples = {(t + 1, t + 1)}
    for i, step in enumerate(flag.steps, start=1):
        if any(not p.is_zero() for image in images[i - 1] for p in image):
            tuples.add((i, t + 1))
        for j in range(i, t + 1):
            if any(not _dot(u, image).is_zero() for u in step.columns for image in images[j - 1]):
                tuples.add((i, j))
    return NonvanishingProfile(t, 2, frozenset(tuples))


def _dot(u: Sequence[UniPoly], v: Sequence[UniPoly]) -> UniPoly:
    """u . v, adding only the products whose factors are both nonzero."""
    return sum((p * q for p, q in zip(u, v) if not p.is_zero() and not q.is_zero()), _ZERO)


def _apply(entries, column: Sequence[UniPoly]) -> tuple[UniPoly, ...]:
    """Phi w, adding only the products whose factors are both nonzero."""
    support = [(b, q) for b, q in enumerate(column) if not q.is_zero()]
    return tuple(
        sum((row[b] * q for b, q in support if not row[b].is_zero()), _ZERO)
        for row in entries
    )


def kernel_destabilizer(fb: FormBundle) -> Optional[SubsheafFlag]:
    """Kernel flag with alpha = (1), or None if generically nondegenerate.

    One generic rank of Phi tells the two cases apart.  Each pass over Phi is
    priced before it runs and refused over `MINOR_WORK_CAP`: the r x r echelon
    of the rank, then for a rank-k form the kernel pass, the echelon again and
    for each free column a back substitution up pivot rows s = k..1 of degree
    s d, each k - s + 1 products and a quotient against entries of degree k d.
    """
    r = fb.model.rank
    d = max(p.degree for row in fb.entries for p in row)
    price = _elimination_price(r, r, d)
    _priced(price, f"a form at rank {r}", f"eliminate (entries of degree {d})")
    k = _polyalg.generic_rank(fb.entries)
    if k == r:
        return None
    stages = ((k - s + 1) * ((s * d + 1) * (k * d + 1) + 2) for s in range(1, k + 1))
    price += 25 * (r - k) * sum(stages)
    _priced(price, f"the kernel of a rank-{k} form at rank {r}", f"compute (entries of degree {d})")
    columns = tuple(tuple(column) for column in _polyalg.generic_kernel(fb.entries))
    return SubsheafFlag((FlagStep(columns, Fraction(1)),))


@dataclass(frozen=True)
class FormVerdict:
    semistable: bool
    witness: Optional[SubsheafFlag] = None


Chain = tuple[int, ...]


def _coordinate_chains(r: int) -> Iterator[Chain]:
    """Chains S_1 < ... < S_t of nonempty proper subsets of 1..r as bitmasks, in walk order.

    Depth first: a chain comes just before its extensions.  A chain ending in S
    (the empty chain: S empty) extends by S | A for each nonempty A strictly inside
    the complement of S, by |A| and then lexicographically; S gets that list the
    first time the walk reaches it.
    """
    extensions: dict[int, list[int]] = {}

    def extend(chain: Chain, s: int) -> Iterator[Chain]:
        if s not in extensions:
            free = [1 << k for k in range(r) if not s >> k & 1]
            extensions[s] = [
                s | sum(a) for size in range(1, len(free)) for a in combinations(free, size)
            ]
        for u in extensions[s]:
            longer = chain + (u,)
            yield longer
            yield from extend(longer, u)

    return extend((), 0)


def _chain_scorer(fb: FormBundle) -> Callable[[Chain], tuple[int, int]]:
    """mu and M = L of a coordinate chain with alphas 1, from supp Phi and the degrees.

    Block b of a chain of t steps weighs sum_j |S_j| - r (t + 1 - b): the
    weight sum of a profile pair (i, j) grows with i + j, so mu is read
    off the profile pair with the least i + j.  Phi links S_i to S_j, putting
    (i, j) in the profile, when `reach[S_i]`, the indices l with Phi_kl != 0
    for some k in S_i, meets S_j.  `reach` and `degree` are indexed by mask,
    each entry made from the one with its lowest bit cleared.
    """
    r = fb.model.rank
    everything = (1 << r) - 1
    rows = [sum(1 << l for l in range(r) if not fb.entries[k][l].is_zero()) for k in range(r)]
    reach, degree = [0] * (everything + 1), [0] * (everything + 1)
    for s in range(1, everything + 1):
        low = s & -s
        k = low.bit_length() - 1
        reach[s] = reach[s - low] | rows[k]
        degree[s] = degree[s - low] + fb.model.summand_degrees[k]

    def score(chain: Chain) -> tuple[int, int]:
        t = len(chain)
        masks = chain + (everything,)
        least = 2 * t + 2  # (t + 1, t + 1): Phi is nonzero
        for i, s in enumerate(chain):
            if 2 * i + 2 >= least:
                break
            for j in range(i, t + 1):
                if i + j + 2 >= least:
                    break
                if reach[s] & masks[j]:
                    least = i + j + 2
                    break
        mu = r * (2 * t + 2 - least) - 2 * sum(map(int.bit_count, chain))
        return mu, -r * sum(degree[s] for s in chain)

    return score


def _sign(mu: Fraction, l: Fraction) -> Fraction | int:
    """Ramanathan's sign: L where mu vanishes; elsewhere nothing is required, so 1.  The 1
    is an int: a `Fraction(1)` made for each chain slowed the r = 5 walk by about 40 %."""
    return 1 if mu else l


def _score(fb: FormBundle, flag: SubsheafFlag, profile=_profile) -> tuple[Fraction, Fraction]:
    """mu and L of a flag, its data (and so the flag rule) scored before its profile."""
    data = filtration_data_of(fb, flag)
    return mu_profile(data, profile(fb, flag)), functional_L(data)


def _confirmed(fb: FormBundle, flag: SubsheafFlag, mu: int, l: Optional[int] = None) -> FormVerdict:
    """The unstable verdict for `flag`, once scored generically as `mu` and, unless None, `l`."""
    found_mu, found_l = _score(fb, flag, form_profile)
    if found_mu != mu or (l is not None and found_l != l):
        scored = f"mu = {found_mu}, L = {found_l} scored"
        raise InternalError(f"witness scores disagree: {scored}; mu = {mu}, L = {l} expected")
    return FormVerdict(False, flag)


def _walk(
    fb: FormBundle, flags: Optional[Sequence[SubsheafFlag]], kernel_rule: bool, strict: bool
) -> FormVerdict:
    """The kernel rule if `kernel_rule`, then Ramanathan's sign under the dispo violation
    rule over the supplied flags, or over every coordinate chain when `flags` is None."""
    if any(not flag.steps for flag in flags or ()):
        raise MalformedFlag("a supplied flag needs at least one step")
    kernel = kernel_destabilizer(fb) if kernel_rule else None
    if kernel:
        return _confirmed(fb, kernel, -2 * len(kernel.steps[0].columns))

    def signs(scores: Iterable[tuple[Fraction, Fraction]]) -> Iterator[Fraction]:
        for mu, l in scores:
            if kernel_rule and mu < 0:
                raise InternalError(f"a flag of a nondegenerate form scored mu = {mu} < 0")
            yield _sign(mu, l)

    if flags is not None:
        verdict = first_violation(signs(_score(fb, flag) for flag in flags), strict)
        witness = None if verdict.semistable else flags[verdict.witness_index]
        return FormVerdict(verdict.semistable, witness)
    r = fb.model.rank
    if r > EXHAUSTIVE_RANK_CAP:
        raise TooLarge(f"exhaustive enumeration capped at rank {EXHAUSTIVE_RANK_CAP}")
    if not strict and not any(fb.model.summand_degrees):
        return FormVerdict(True)  # the trivial model: L = 0 on every chain
    score = _chain_scorer(fb)
    verdict = first_violation(signs(map(score, _coordinate_chains(r))), strict)
    if verdict.semistable:
        return FormVerdict(True)
    chain = next(islice(_coordinate_chains(r), verdict.witness_index, None))
    indices = [[k + 1 for k in range(r) if s >> k & 1] for s in chain]
    return _confirmed(fb, coordinate_flag(indices, r=r), *score(chain))


def semistable_form(
    fb: FormBundle, flags: Optional[Sequence[SubsheafFlag]] = None, strict: bool = False
) -> FormVerdict:
    """Asymptotic semistability: a degenerate form's kernel flag, else Ramanathan's rule
    over the supplied flags, or every coordinate chain when `flags` is None."""
    return _walk(fb, flags, True, strict)


def ramanathan_semistable(
    fb: FormBundle, flags: Optional[Sequence[SubsheafFlag]] = None, strict: bool = False
) -> FormVerdict:
    """L (>=) 0 over every flag whose mu vanishes, of the supplied flags or, when `flags`
    is None, of the coordinate chains; the kernel flag never counts."""
    return _walk(fb, flags, False, strict)


def _coordinate_sets(flag: SubsheafFlag, r: int) -> list[frozenset[int]]:
    sets = []
    for step in flag.steps:
        indices = set()
        for column in step.columns:
            if len(column) != r:
                raise NotCoordinateFlag("generator column has the wrong length")
            hits = [a for a, p in enumerate(column, start=1) if not p.is_zero()]
            if len(hits) != 1 or column[hits[0] - 1] != _ONE:
                raise NotCoordinateFlag("generators must be standard basis vectors")
            indices.add(hits[0])
        sets.append(frozenset(indices))
    return sets


def dualize_filtration(model: SplitSheafModel, flag: SubsheafFlag) -> SubsheafFlag:
    """Dual flag (kernels of restriction maps) on the dual split model.

    Coordinate flags only, under the flag rule of `filtration_data_of` with
    rank |S| and nesting by inclusion: step i of the result is the
    complement of step t + 1 - i, with the weights reversed.  An
    involution; preserves the L functional when the total degree is zero.
    """
    r = model.rank
    sets = _coordinate_sets(flag, r)
    _checked_steps(r, ((len(s), below <= s) for below, s in zip([frozenset()] + sets, sets)))
    everything = frozenset(range(1, r + 1))
    chain = [sorted(everything - s) for s in reversed(sets)]
    return coordinate_flag(chain, [step.alpha for step in reversed(flag.steps)], r=r)
