"""Bilinear-form bundles on split models over the projective line.

The concrete, fully decidable instances: a split sheaf ⊕O(d_k) with
trivial determinant carries an (anti)symmetric form with polynomial
entries.  Subsheaf flags are given by explicit polynomial generator
matrices; their discrete invariants feed the dispo calculus, where the
form's nonvanishing profile (s = 2, pairs) decides semistability.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import index
from typing import Callable, Optional, Sequence, Union

from . import _polyalg
from .dispo import (
    FiltrationData,
    FiltrationMember,
    NonvanishingProfile,
    asymptotic_sign,
    first_violation,
    functional_L,
    mu_profile,
)
from .errors import (
    DegenerateFlag,
    MalformedFlag,
    NotCoordinateFlag,
    TooLarge,
)
from .exactmath import RationalLike, UniPoly, rational

EXHAUSTIVE_RANK_CAP = 6

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
        degrees = tuple(index(d) for d in self.summand_degrees)
        if sum(degrees) != 0:
            raise MalformedFlag(f"summand degrees must sum to zero: {degrees}")
        object.__setattr__(self, "summand_degrees", degrees)
        # Genus zero: P(n) = d_total + r (n + 1), and d_total = 0.  Built once,
        # since every scored flag carries it; not a field.
        object.__setattr__(self, "_total_hilb", UniPoly.of(len(degrees), len(degrees)))

    @property
    def rank(self) -> int:
        return len(self.summand_degrees)

    def total_hilb(self) -> UniPoly:
        return self._total_hilb

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
        sign = 1 if self.symmetry is Symmetry.SYMMETRIC else -1
        degrees = self.model.summand_degrees
        nontrivial = False
        for k in range(r):
            for l in range(r):
                entry = self.entries[k][l]
                bound = -(degrees[k] + degrees[l])
                if not entry.is_zero():
                    nontrivial = True
                    if entry.degree > bound:
                        raise MalformedFlag(
                            f"entry ({k + 1},{l + 1}) has degree {entry.degree}, "
                            f"allowed at most {bound}"
                        )
                mirrored = self.entries[l][k].scale(sign)
                if entry != mirrored:
                    raise MalformedFlag("matrix does not respect the symmetry type")
            if sign == -1 and not self.entries[k][k].is_zero():
                raise MalformedFlag("antisymmetric form must have zero diagonal")
        if not nontrivial:
            raise MalformedFlag("form must be nontrivial")
        # Filled by `_memoised`; not a field, so not in ==, hash or repr.
        object.__setattr__(self, "_memo", {})


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
        # Steps key the form's memo, so hash the polynomial columns once.
        object.__setattr__(self, "_hash", hash((self.columns, self.alpha)))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class SubsheafFlag:
    steps: tuple[FlagStep, ...]

    @property
    def step_count(self) -> int:
        return len(self.steps)


def coordinate_flag(
    chain: Sequence[Sequence[int]],
    alphas: Optional[Sequence[RationalLike]] = None,
    r: Optional[int] = None,
) -> SubsheafFlag:
    """Flag whose steps are spans of standard basis vectors (1-based indices)."""
    if alphas is None:
        alphas = [1] * len(chain)
    if r is None:
        r = max((max(s) for s in chain if s), default=0)
    steps = []
    for subset, alpha in zip(chain, alphas):
        columns = []
        for k in sorted(subset):
            column = tuple(_ONE if a == k else _ZERO for a in range(1, r + 1))
            columns.append(column)
        steps.append(FlagStep(tuple(columns), rational(alpha)))
    return SubsheafFlag(tuple(steps))


def _step_matrix(step: FlagStep, r: int) -> list[list[UniPoly]]:
    for column in step.columns:
        if len(column) != r:
            raise MalformedFlag(f"generator column has length {len(column)}, expected {r}")
    return [[column[a] for column in step.columns] for a in range(r)]


def _invariants(model: SplitSheafModel, step: FlagStep) -> tuple[int, Optional[int]]:
    """Generic rank and saturation degree of one step (degree None at rank 0).

    With the content g of the maximal minors removed, the degree is the
    minimum over row subsets S of (sum of summand degrees over S) minus
    deg of the reduced minor.
    """
    matrix = _step_matrix(step, model.rank)
    basis = _polyalg.independent_columns(matrix)
    if not basis:
        return 0, None
    # The minors are those of a basis: the independent columns only.
    matrix = [[row[c] for c in basis] for row in matrix]
    minors = _polyalg.maximal_minors(matrix, len(basis))
    content = _polyalg.poly_content(list(minors.values()))
    degree = min(
        sum(model.summand_degrees[a] for a in subset) - (minor.degree - content.degree)
        for subset, minor in minors.items()
        if not minor.is_zero()
    )
    return len(basis), degree


# The form's memo is keyed by step and by step pair, not by flag: a step
# enters only through its rank, saturation degree and images under Phi,
# and steps repeat across flags (62 steps and 602 consecutive pairs in the
# 4,682 flags at r = 6).  Pairs suffice for nestedness: while each step's
# span contains the one before it, steps 1..i-1 span what step i-1 spans,
# so the first failing step and its error are those of a check against
# all the earlier columns.
def _memoised(fb: FormBundle, analyse: Callable, *steps: FlagStep):
    """`analyse(fb, *steps)`, computed on first use and kept in the form's memo."""
    key = (analyse, *steps)
    if key not in fb._memo:
        fb._memo[key] = analyse(fb, *steps)
    return fb._memo[key]


def _analyse_step(fb: FormBundle, step: FlagStep) -> tuple:
    """Rank, filtration member, and Phi w for each generator w of the step.

    The member holds the rank, saturation degree, Hilbert polynomial and
    alpha of the step (None at rank 0, where the degree is undefined).
    """
    rank, degree = _invariants(fb.model, step)
    member = None
    if degree is not None:
        hilb = UniPoly.of(degree + rank, rank)
        member = FiltrationMember(rank, Fraction(degree), hilb, step.alpha)
    return rank, member, tuple(_apply(fb.entries, w) for w in step.columns)


def _nested(fb: FormBundle, lower: FlagStep, upper: FlagStep) -> bool:
    """Whether the span of `lower` lies in the span of `upper` over Q(x)."""
    columns = lower.columns + upper.columns
    joint = [[column[a] for column in columns] for a in range(fb.model.rank)]
    return _polyalg.generic_rank(joint) == _memoised(fb, _analyse_step, upper)[0]


def _vanishes_between(fb: FormBundle, lower: FlagStep, upper: FlagStep) -> bool:
    """Whether u . (Phi w) = 0 for every generator u of `lower` and w of `upper`."""
    images = _memoised(fb, _analyse_step, upper)[2]
    return all(_dot(u, image).is_zero() for u in lower.columns for image in images)


def _flag_ranks(fb: FormBundle, flag: SubsheafFlag) -> tuple[int, ...]:
    r = fb.model.rank
    ranks: list[int] = []
    for i, step in enumerate(flag.steps):
        rank = _memoised(fb, _analyse_step, step)[0]
        if ranks and rank <= ranks[-1]:
            raise DegenerateFlag(
                f"generic ranks collapse: {ranks + [rank]} not strictly increasing"
            )
        if not 0 < rank < r:
            raise DegenerateFlag(
                f"step rank {rank} must lie strictly between 0 and {r}"
            )
        if i and not _memoised(fb, _nested, flag.steps[i - 1], step):
            raise MalformedFlag("flag steps are not nested")
        ranks.append(rank)
    return tuple(ranks)


def saturation_degree(model: SplitSheafModel, step: FlagStep) -> int:
    """Degree of the saturation of the subsheaf generated by the columns."""
    degree = _invariants(model, step)[1]
    if degree is None:
        raise DegenerateFlag("generator matrix has generic rank zero")
    return degree


def filtration_data_of(fb: FormBundle, flag: SubsheafFlag) -> FiltrationData:
    """Discrete invariants (rank, degree, Hilbert polynomial, alpha) per step."""
    _flag_ranks(fb, flag)
    members = tuple(_memoised(fb, _analyse_step, step)[1] for step in flag.steps)
    return FiltrationData(fb.model.rank, Fraction(0), fb.model.total_hilb(), members)


def form_profile(fb: FormBundle, flag: SubsheafFlag) -> NonvanishingProfile:
    """Which pairs of flag blocks the form does not vanish on (s = 2).

    With G_1, ..., G_t the generator matrices of the steps and G_{t+1} = I,
    the pair (i, j), i <= j, is in the profile when G_i^T Phi G_j is not
    identically zero.  For j <= t that means u . (Phi w) != 0 for some
    generator u of step i and some generator w of step j; the form's memo
    holds Phi w per generator of each step and the answer per step pair.
    Phi is symmetric or antisymmetric, so G_i^T Phi I = +-(Phi G_i)^T: the
    pair (i, t + 1) is present exactly when Phi w != 0 for some generator w
    of step i.  The pair (t + 1, t + 1) is Phi itself, which `FormBundle`
    requires to be nonzero.
    """
    _flag_ranks(fb, flag)
    t = flag.step_count
    tuples = {(t + 1, t + 1)}
    for i, step in enumerate(flag.steps, start=1):
        images = _memoised(fb, _analyse_step, step)[2]
        if any(not p.is_zero() for image in images for p in image):
            tuples.add((i, t + 1))
        for j in range(i, t + 1):
            if not _memoised(fb, _vanishes_between, step, flag.steps[j - 1]):
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
    """Kernel flag with alpha = (1), or None if generically nondegenerate."""
    kernel = _polyalg.generic_kernel(fb.entries)
    if not kernel:
        return None
    columns = tuple(tuple(column) for column in kernel)
    return SubsheafFlag((FlagStep(columns, Fraction(1)),))


FlagSource = Union[str, Sequence[SubsheafFlag]]

EXHAUSTIVE = "exhaustive"


@dataclass(frozen=True)
class FormVerdict:
    semistable: bool
    witness: Optional[SubsheafFlag] = None


def enumerate_coordinate_flags(r: int) -> list[SubsheafFlag]:
    """All chains of nonempty proper coordinate subsets, alphas fixed to 1."""
    subsets = [frozenset(c) for k in range(1, r) for c in combinations(range(1, r + 1), k)]
    # One step object per subset, shared by every flag through it.
    steps = {s: coordinate_flag([sorted(s)], r=r).steps[0] for s in subsets}
    flags = []

    def extend(chain: list[frozenset]) -> None:
        if chain:
            flags.append(SubsheafFlag(tuple(steps[s] for s in chain)))
        start = subsets.index(chain[-1]) + 1 if chain else 0
        for s in subsets[start:]:
            if not chain or (chain[-1] < s):
                extend(chain + [s])

    extend([])
    return flags


def _gather_flags(fb: FormBundle, flag_source: FlagSource) -> list[SubsheafFlag]:
    if isinstance(flag_source, str):
        if flag_source != EXHAUSTIVE:
            raise MalformedFlag(f"unknown flag source {flag_source!r}")
        if fb.model.rank > EXHAUSTIVE_RANK_CAP:
            raise TooLarge(
                f"exhaustive enumeration capped at rank {EXHAUSTIVE_RANK_CAP}"
            )
        flags = enumerate_coordinate_flags(fb.model.rank)
    else:
        flags = list(flag_source)
        if any(not flag.steps for flag in flags):
            raise MalformedFlag("a supplied flag needs at least one step")
    kernel = kernel_destabilizer(fb)
    if kernel is not None:
        flags = [kernel] + flags
    return flags


Sign = Callable[[FiltrationData, NonvanishingProfile], Fraction]


def _walk(fb: FormBundle, flag_source: FlagSource, sign: Sign, strict: bool) -> FormVerdict:
    """The dispo violation rule over the gathered flags, each scored when reached."""
    flags = _gather_flags(fb, flag_source)
    verdict = first_violation(
        (sign(filtration_data_of(fb, flag), form_profile(fb, flag)) for flag in flags),
        strict,
    )
    if verdict.semistable:
        return FormVerdict(True)
    return FormVerdict(False, flags[verdict.witness_index])


def semistable_form(
    fb: FormBundle, flag_source: FlagSource = EXHAUSTIVE, strict: bool = False
) -> FormVerdict:
    """Asymptotic semistability over the gathered flag set (kernel injected)."""
    return _walk(fb, flag_source, asymptotic_sign, strict)


def _ramanathan_sign(data: FiltrationData, profile: NonvanishingProfile) -> Fraction:
    """L where mu vanishes; elsewhere nothing is required, so a positive sign."""
    return Fraction(1) if mu_profile(data, profile) != 0 else functional_L(data)


def ramanathan_semistable(
    fb: FormBundle, flag_source: FlagSource = EXHAUSTIVE, strict: bool = False
) -> FormVerdict:
    """L (>=) 0 over every gathered flag whose mu vanishes."""
    return _walk(fb, flag_source, _ramanathan_sign, strict)


def _coordinate_sets(flag: SubsheafFlag, r: int) -> list[frozenset[int]]:
    sets = []
    for step in flag.steps:
        indices = set()
        for column in step.columns:
            if len(column) != r:
                raise NotCoordinateFlag("generator column has the wrong length")
            hits = [
                a + 1
                for a, p in enumerate(column)
                if not p.is_zero()
            ]
            if len(hits) != 1 or column[hits[0] - 1] != _ONE:
                raise NotCoordinateFlag(
                    "generators must be standard basis vectors"
                )
            indices.add(hits[0])
        sets.append(frozenset(indices))
    return sets


def dualize_filtration(model: SplitSheafModel, flag: SubsheafFlag) -> SubsheafFlag:
    """Dual flag (kernels of restriction maps) on the dual split model.

    Coordinate flags only: step i of the result is the complement of step
    t + 1 - i, with the weights reversed.  An involution; preserves the L
    functional when the total degree is zero.
    """
    r = model.rank
    sets = _coordinate_sets(flag, r)
    everything = frozenset(range(1, r + 1))
    alphas = [step.alpha for step in flag.steps]
    chain = [sorted(everything - s) for s in reversed(sets)]
    return coordinate_flag(chain, list(reversed(alphas)), r=r)
