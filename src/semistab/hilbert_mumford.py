"""Mu-functions on torus-weight representations and instability decisions.

A representation is presented by its weight decomposition under the fixed
maximal torus; mu of a point is the maximum pairing of the 1-PS with the
weights in the point's support.  Instability at torus level is an exact
convex-feasibility question: the point is destabilized by some rational
1-PS iff zero is not in the convex hull of the support weights taken
modulo the all-ones direction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Optional, Sequence

from .errors import DimensionMismatch, InternalError, OutOfRange, TooLarge, TrivialSubgroup
from .errors import _priced
from .exactmath import integer, primitive_vector, rational
from .feasibility import feasible_point
from .flags import OneParamSubgroup

GRID_RADIUS = 3
# An unstable point scans the 7^(r - 1) tuples of the grid's free coordinates;
# above this torus rank the scan is refused (at rank 7, 117,649 tuples).
GRID_RANK_CAP = 7


@dataclass(frozen=True)
class TorusWeightRep:
    """Basis labels with integer torus weights of length torus_rank."""

    torus_rank: int
    basis: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        if integer(self.torus_rank) < 0:
            raise OutOfRange(f"torus rank must be nonnegative, got {self.torus_rank}")
        basis = tuple((label, tuple(map(integer, weight))) for label, weight in self.basis)
        object.__setattr__(self, "basis", basis)
        if not self.basis:
            raise DimensionMismatch("basis must be nonempty")
        labels = [label for label, _ in self.basis]
        if len(set(labels)) != len(labels):
            raise DimensionMismatch(f"duplicate basis labels in {labels}")
        for label, weight in self.basis:
            if len(weight) != self.torus_rank:
                raise DimensionMismatch(
                    f"weight of {label!r} has length {len(weight)}, "
                    f"expected {self.torus_rank}"
                )

    def weight_of(self, label: str) -> tuple[int, ...]:
        for name, weight in self.basis:
            if name == label:
                return weight
        raise DimensionMismatch(f"unknown basis label {label!r}")


@dataclass(frozen=True)
class RepPoint:
    """Sparse point: map from basis label to nonzero coordinate."""

    coords: tuple[tuple[str, Fraction], ...]

    def __post_init__(self) -> None:
        coords = tuple((label, rational(c)) for label, c in self.coords)
        if not coords:
            raise DimensionMismatch("point must have nonempty support")
        if any(c == 0 for _, c in coords):
            raise DimensionMismatch("stored coordinates must be nonzero")
        object.__setattr__(self, "coords", coords)

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.coords)


def _pairing(lam: OneParamSubgroup, weight: Sequence[int]) -> int:
    return sum(g * w for g, w in zip(lam.weights, weight))


def mu(rep: TorusWeightRep, lam: OneParamSubgroup, point: RepPoint) -> int:
    """Maximum weight pairing over the support of the point."""
    if lam.rank != rep.torus_rank:
        raise DimensionMismatch(
            f"1-PS has rank {lam.rank}, representation torus has rank {rep.torus_rank}"
        )
    if lam.is_trivial():
        raise TrivialSubgroup("mu is only defined for nontrivial subgroups")
    return max(_pairing(lam, rep.weight_of(label)) for label in point.support)


@dataclass(frozen=True)
class HullCertificate:
    """Convex coefficients witnessing 0 in the hull modulo the all-ones line."""

    coefficients: tuple[tuple[str, Fraction], ...]
    multiple: Fraction

    def verify(self, rep: TorusWeightRep, point: RepPoint) -> bool:
        support = set(point.support)
        total = Fraction(0)
        combo = [Fraction(0)] * rep.torus_rank
        for label, c in self.coefficients:
            if label not in support or c < 0:
                return False
            total += c
            weight = rep.weight_of(label)
            for a in range(rep.torus_rank):
                combo[a] += c * weight[a]
        return total == 1 and all(x == self.multiple for x in combo)


@dataclass(frozen=True)
class TorusVerdict:
    semistable: bool
    destabilizer: Optional[OneParamSubgroup] = None
    certificate: Optional[HullCertificate] = None


def sum_zero_grid(r: int):
    """All nonzero sum-zero integer vectors in {-GRID_RADIUS..GRID_RADIUS}^r, in
    lexicographic order: r - 1 free coordinates, the last one set to minus their sum."""
    if r < 1:
        return
    for head in itertools.product(range(-GRID_RADIUS, GRID_RADIUS + 1), repeat=r - 1):
        last = -sum(head)
        if abs(last) <= GRID_RADIUS and (last or any(head)):
            yield head + (last,)


def _lp_price(rows: Sequence[Sequence[int]], r: int) -> int:
    """Work units of `feasible_point` on an LP of `torus_destabilize`, in the units of
    `MINOR_WORK_CAP`: about min(m, n) pivots for m rows of n columns, each updating the
    m rows and the cost row of the m x (n + m + 1) tableau, with entries whose size grows
    with the torus rank r, at 2 (r + 4) units per entry.  Just under the cap, either LP
    took 0.2 to 1.0 s on one CPU."""
    m, n = len(rows), len(rows[0])
    return 2 * (r + 4) * min(m, n) * (m + 1) * (n + m + 1)


def torus_destabilize(rep: TorusWeightRep, point: RepPoint) -> TorusVerdict:
    """Decide instability over the fixed maximal torus.

    Semistable verdicts carry an exact convex-combination certificate, at
    any torus rank; unstable verdicts carry a primitive integral
    destabilizer with mu < 0, chosen lexicographically least among the
    primitive grid minimizers when the small search grid already exhibits
    one.  An unstable point above torus rank `GRID_RANK_CAP` is refused
    with `TooLarge` before the grid is scanned, and either linear program
    priced over `MINOR_WORK_CAP` before it runs.
    """
    r = rep.torus_rank
    weights = [rep.weight_of(label) for label in point.support]
    labels = list(point.support)
    m = len(weights)
    of_point = f"of a point of support {m} at torus rank {r}"

    # Hull membership: c >= 0, sum c = 1, sum c_b w_b = t * (1,..,1).
    # Variables: c_1..c_m, t+, t-.
    rows = [[1] * m + [0, 0]]
    rows += [[weight[a] for weight in weights] + [-1, 1] for a in range(r)]
    _priced(_lp_price(rows, r), f"the hull LP {of_point}", "solve")
    solution = feasible_point(rows, [1] + [0] * r)
    if solution is not None:
        coeffs = tuple(
            (labels[b], solution[b]) for b in range(m) if solution[b] != 0
        )
        cert = HullCertificate(coeffs, solution[m] - solution[m + 1])
        return TorusVerdict(True, certificate=cert)

    # Unstable: prefer a witness from the grid oracle's tie set.
    if r > GRID_RANK_CAP:
        raise TooLarge(
            f"an unstable point at torus rank {r}: the destabilizer grid search "
            f"is capped at rank {GRID_RANK_CAP}"
        )
    best = (0, ())  # the least (mu, primitive vector) with mu < 0 so far
    for vec in sum_zero_grid(r):
        value = max(sum(g * w for g, w in zip(vec, weight)) for weight in weights)
        if value < 0 and value <= best[0]:
            best = min(best, (value, primitive_vector(vec)))
    if best[1]:
        return TorusVerdict(False, destabilizer=OneParamSubgroup(best[1]))

    # Grid too small: fall back to exact LP search for lambda with
    # <lambda, w_b> <= -1 for all support weights, sum lambda = 0.
    # Variables: u_1..u_r, v_1..v_r (lambda = u - v), slacks s_1..s_m.
    rows = [[1] * r + [-1] * r + [0] * m]
    rows += [
        [*weight, *(-w for w in weight), *(int(b == j) for j in range(m))]
        for b, weight in enumerate(weights)
    ]
    _priced(_lp_price(rows, r), f"the destabilizer LP {of_point}", "solve")
    solution = feasible_point(rows, [0] + [-1] * m)
    if solution is None:
        raise InternalError("hull infeasible but no destabilizer found")
    lam = primitive_vector(solution[a] - solution[r + a] for a in range(r))
    return TorusVerdict(False, destabilizer=OneParamSubgroup(lam))


def divided_power_dim(r: int, u: int) -> int:
    """Dimension of the u-th divided power of a rank-r space."""
    if r < 1 or u < 0:
        raise DimensionMismatch("need r >= 1 and u >= 0")
    return comb(r + u - 1, u)


def dd_module_dim(r: int, u: int, v: int) -> int:
    """Dimension of D^u(V^{+v}) for V of rank r: the sum over compositions of u into v
    parts of products of divided-power dims, which is D^u of a rank-rv space."""
    if v < 1:
        raise DimensionMismatch("need v >= 1")
    return divided_power_dim(r * v, u)


def weighted_compositions(s: int) -> list[tuple[int, ...]]:
    """All (d_1,..,d_s) with d_i >= 0 and sum i*d_i = s!, lexicographic."""
    if s < 1:
        raise OutOfRange("s must be at least 1")
    if s > 4:
        raise TooLarge("s > 4 is not supported (tuple length s! explodes)")
    out = []

    def extend(prefix: tuple[int, ...], remaining: int) -> None:
        index = len(prefix) + 1
        if index == s:
            if remaining % s == 0:
                out.append(prefix + (remaining // s,))
            return
        for d in range(remaining // index + 1):
            extend(prefix + (d,), remaining - index * d)

    extend((), factorial(s))
    return out
