"""Semistability calculus for decorated filtrations.

A weighted filtration is reduced to its discrete invariants (ranks,
degrees, Hilbert polynomials, weights); the decoration enters only
through its nonvanishing profile, the set of index tuples on which it
does not vanish.  Everything downstream of that (the M and L
functionals, mu, the delta/slope/asymptotic verdicts, admissible
deformations) is exact arithmetic on these data.

A profile is upward closed exactly when it is closed under covers, the
moves raising one t_k by 1 that keep the tuple sorted and in range:
  * Closure by covers.  Take sorted t <= u and raise the last k with
    t_k < u_k; the result stays sorted and <= u, so covers reach u from t.
  * No hang.  The input profile is upward closed, so the closure of any
    of its tuples lies inside it: a deformation is never larger than its
    input, and validation and closure are linear in the number of tuples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterable, Optional

from .errors import InvalidDelta, MalformedFiltration, ProfileMismatch
from .exactmath import Order, UniPoly, is_positive, poly_order, rational


@dataclass(frozen=True)
class FiltrationMember:
    rank: int
    degree: Fraction
    hilb: UniPoly
    alpha: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "degree", rational(self.degree))
        object.__setattr__(self, "alpha", rational(self.alpha))


@dataclass(frozen=True)
class FiltrationData:
    """Discrete invariants of a weighted filtration of a torsion-free sheaf."""

    total_rank: int
    total_degree: Fraction
    total_hilb: UniPoly
    members: tuple[FiltrationMember, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "total_degree", rational(self.total_degree))
        ranks = [m.rank for m in self.members]
        if any(not 0 < k < self.total_rank for k in ranks) or any(
            ranks[i] >= ranks[i + 1] for i in range(len(ranks) - 1)
        ):
            raise MalformedFiltration(
                f"member ranks must satisfy 0 < rk_1 < ... < rk_t < {self.total_rank}"
            )
        if any(m.alpha <= 0 for m in self.members):
            raise MalformedFiltration("alphas must be positive")
        for m in self.members:
            if poly_order(m.hilb, self.total_hilb) is not Order.LESS:
                raise MalformedFiltration(
                    "member Hilbert polynomial must be asymptotically below the total"
                )

    @property
    def steps(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class NonvanishingProfile:
    """Sorted index tuples over 1..steps+1 on which the decoration survives.

    Must contain the all-top tuple and be upward closed for the
    componentwise order on sorted tuples.
    """

    steps: int
    tuple_len: int
    tuples: frozenset[tuple[int, ...]]

    def __post_init__(self) -> None:
        tuples = frozenset(tuple(sorted(t)) for t in self.tuples)
        object.__setattr__(self, "tuples", tuples)
        for t in tuples:
            if len(t) != self.tuple_len:
                raise ProfileMismatch(f"tuple {t} has length {len(t)}, expected {self.tuple_len}")
            if any(not 1 <= i <= self.steps + 1 for i in t):
                raise ProfileMismatch(f"tuple {t} leaves the alphabet 1..{self.steps + 1}")
        # Built only once a tuple has shown tuple_len to be no longer than the input.
        if not tuples or (self.steps + 1,) * self.tuple_len not in tuples:
            raise ProfileMismatch("profile must contain the all-top tuple")
        for t in tuples:
            for u in _covers(t, self.steps + 1):
                if u not in tuples:
                    raise ProfileMismatch(
                        f"profile is not upward closed: {t} present, its cover {u} missing"
                    )


def _covers(t: tuple[int, ...], top: int):
    """The sorted tuples that raise one entry of the sorted tuple t by 1."""
    last = len(t) - 1
    for k, i in enumerate(t):
        if i < top and (k == last or i < t[k + 1]):
            yield t[:k] + (i + 1,) + t[k + 1 :]


def full_profile(steps: int, tuple_len: int) -> NonvanishingProfile:
    """The profile containing every sorted tuple (nowhere-vanishing decoration)."""
    tuples = frozenset(
        itertools.combinations_with_replacement(range(1, steps + 2), tuple_len)
    )
    return NonvanishingProfile(steps, tuple_len, tuples)


def functional_M(filtration: FiltrationData) -> UniPoly:
    """Polynomial semistability functional of the weighted filtration."""
    total = UniPoly.zero()
    for m in filtration.members:
        term = filtration.total_hilb.scale(m.rank) - m.hilb.scale(filtration.total_rank)
        total = total + term.scale(m.alpha)
    return total


def functional_L(filtration: FiltrationData) -> Fraction:
    """Degree (slope) semistability functional of the weighted filtration."""
    total = Fraction(0)
    for m in filtration.members:
        total += m.alpha * (
            m.rank * filtration.total_degree - filtration.total_rank * m.degree
        )
    return total


def block_weights(filtration: FiltrationData) -> tuple[Fraction, ...]:
    """Distinct values of the associated weight vector, ascending (t+1 of them).

    The j-th standard weight vector is rk_j - r on the first rk_j basis
    vectors and rk_j after them, so block b (0 <= b <= t) of their
    alpha-weighted sum is sum_j alpha_j rk_j - r sum_{j > b} alpha_j.
    """
    r = filtration.total_rank
    weights = [sum((m.alpha * m.rank for m in filtration.members), Fraction(0))]
    for m in reversed(filtration.members):
        weights.append(weights[-1] - r * m.alpha)
    return tuple(reversed(weights))


def mu_profile(
    filtration: FiltrationData, profile: NonvanishingProfile
) -> Fraction:
    """Negative minimum, over the profile, of the summed block weights."""
    if profile.steps != filtration.steps:
        raise ProfileMismatch(
            f"profile has {profile.steps} steps, filtration has {filtration.steps}"
        )
    gamma = block_weights(filtration)
    return -min(sum(gamma[i - 1] for i in t) for t in profile.tuples)


ModelEntry = tuple[FiltrationData, NonvanishingProfile]


@dataclass(frozen=True)
class Verdict:
    """Outcome of a semistability check over a supplied filtration set."""

    semistable: bool
    witness_index: Optional[int] = None


def first_violation(signs: Iterable[Fraction], strict: bool = False) -> Verdict:
    """The violation rule of every verdict: the first sign < 0, or = 0 when strict.

    Entries after the witness are never drawn from `signs`.
    """
    for index, sign in enumerate(signs):
        if sign < 0 or (strict and sign == 0):
            return Verdict(False, index)
    return Verdict(True)


def delta_semistable(
    model: Iterable[ModelEntry], delta: UniPoly, strict: bool = False
) -> Verdict:
    """M + delta * mu (>=) 0 over every supplied filtration."""
    if not is_positive(delta):
        raise InvalidDelta("delta must be asymptotically positive")
    values = (
        functional_M(filtration) + delta.scale(mu_profile(filtration, profile))
        for filtration, profile in model
    )
    return first_violation((value.leading for value in values), strict)


def slope_semistable(
    model: Iterable[ModelEntry], delta_bar: Fraction, strict: bool = False
) -> Verdict:
    """L + delta_bar * mu (>=) 0 over every supplied filtration."""
    delta_bar = rational(delta_bar)
    if delta_bar < 0:
        raise InvalidDelta("delta_bar must be nonnegative")
    values = (
        functional_L(filtration) + delta_bar * mu_profile(filtration, profile)
        for filtration, profile in model
    )
    return first_violation(values, strict)


def slope_parameter(delta: UniPoly, dim_x: int) -> Fraction:
    """(dim X - 1)! times the degree-(dim X - 1) coefficient of delta."""
    return factorial(dim_x - 1) * delta.coefficient(dim_x - 1)


def asymptotic_sign(filtration: FiltrationData, profile: NonvanishingProfile) -> Fraction:
    """Sign of (mu, M) in lexicographic order: mu, or M's leading term where mu = 0."""
    value = mu_profile(filtration, profile)
    return value if value != 0 else functional_M(filtration).leading


def asymptotic_semistable(
    model: Iterable[ModelEntry], strict: bool = False
) -> Verdict:
    """mu >= 0 everywhere, and M (>=) 0 wherever mu = 0."""
    return first_violation(
        (asymptotic_sign(filtration, profile) for filtration, profile in model), strict
    )


def admissible_deformation(
    filtration: FiltrationData, profile: NonvanishingProfile
) -> NonvanishingProfile:
    """Profile of the associated graded decoration.

    Keeps exactly the tuples achieving the minimal weight sum, then closes
    them under covers; preserves M and mu and is idempotent.
    """
    if profile.steps != filtration.steps:
        raise ProfileMismatch(
            f"profile has {profile.steps} steps, filtration has {filtration.steps}"
        )
    gamma = block_weights(filtration)
    sums = {t: sum(gamma[i - 1] for i in t) for t in profile.tuples}
    minimum = min(sums.values())
    stack = [t for t, s in sums.items() if s == minimum]
    closed = set(stack)
    while stack:
        fresh = set(_covers(stack.pop(), profile.steps + 1)) - closed
        closed |= fresh
        stack.extend(fresh)
    return NonvanishingProfile(profile.steps, profile.tuple_len, frozenset(closed))
