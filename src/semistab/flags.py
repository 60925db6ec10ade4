"""One-parameter subgroups of SL_r, weighted flags, and weight vectors.

A 1-PS is presented in a fixed diagonal basis as an integer weight per
standard basis vector, summing to zero.  Conjugates are handled by the
caller choosing bases; ties in eigenvalues sort stably by basis index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import _polyalg
from .dispo import check_weights, scaled_block_weights
from .errors import (
    DimensionMismatch,
    MalformedFiltration,
    OutOfRange,
    SingularMatrix,
    TrivialSubgroup,
)
from .exactmath import RationalLike, UniPoly, integer, primitive_vector, rational


@dataclass(frozen=True)
class OneParamSubgroup:
    """Integer weights per basis vector; sum must be zero (SL condition)."""

    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        weights = tuple(map(integer, self.weights))
        if sum(weights) != 0:
            raise MalformedFiltration(f"weights must sum to zero: {weights}")
        object.__setattr__(self, "weights", weights)

    @property
    def rank(self) -> int:
        return len(self.weights)

    def is_trivial(self) -> bool:
        return len(set(self.weights)) <= 1


@dataclass(frozen=True)
class WeightedFlag:
    """Cumulative eigenspace dimensions, normalized weight gaps, basis order."""

    dims: tuple[int, ...]
    alphas: tuple[Fraction, ...]
    basis_order: tuple[int, ...]

    def __post_init__(self) -> None:
        dims, order = tuple(map(integer, self.dims)), tuple(map(integer, self.basis_order))
        alphas = tuple(map(rational, self.alphas))
        if sorted(order) != list(range(1, len(order) + 1)):
            raise MalformedFiltration(f"basis_order must be a permutation of 1..{len(order)}")
        check_weights(dims, alphas, len(order))
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "basis_order", order)

    def blocks(self) -> list[tuple[int, ...]]:
        """Basis indices of each eigenspace block, ascending weight."""
        bounds = (0,) + self.dims + (len(self.basis_order),)
        return [
            tuple(sorted(self.basis_order[bounds[i] : bounds[i + 1]]))
            for i in range(len(bounds) - 1)
        ]


@dataclass(frozen=True)
class WeightVector:
    """Nondecreasing rational entries summing to zero."""

    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        entries = tuple(rational(e) for e in self.entries)
        if any(entries[i] > entries[i + 1] for i in range(len(entries) - 1)):
            raise MalformedFiltration("entries must be nondecreasing")
        if sum(entries, Fraction(0)) != 0:
            raise MalformedFiltration("entries must sum to zero")
        object.__setattr__(self, "entries", entries)

    def gaps(self) -> dict[int, Fraction]:
        """Map position i -> entries[i] - entries[i-1] for the nonzero gaps."""
        out = {}
        for i in range(1, len(self.entries)):
            gap = self.entries[i] - self.entries[i - 1]
            if gap != 0:
                out[i] = gap
        return out


def standard_weight_vector(r: int, i: int) -> WeightVector:
    """The vector with i entries equal to i - r followed by r - i entries equal to i."""
    if r < 2:
        raise OutOfRange(f"rank must be at least 2, got {r}")
    if not 1 <= i <= r - 1:
        raise OutOfRange(f"index must lie in [1, {r - 1}], got {i}")
    return WeightVector((Fraction(i - r),) * i + (Fraction(i),) * (r - i))


def weighted_flag_of(lam: OneParamSubgroup) -> WeightedFlag:
    """Weighted flag of a nontrivial 1-PS: eigenspace chain plus gap weights."""
    if lam.is_trivial():
        raise TrivialSubgroup("all weights equal; the subgroup has no flag")
    order = tuple(
        sorted(range(1, lam.rank + 1), key=lambda b: (lam.weights[b - 1], b))
    )
    distinct = sorted(set(lam.weights))
    dims = []
    total = 0
    for value in distinct[:-1]:
        total += sum(1 for w in lam.weights if w == value)
        dims.append(total)
    alphas = tuple(
        Fraction(distinct[i + 1] - distinct[i], lam.rank)
        for i in range(len(distinct) - 1)
    )
    return WeightedFlag(tuple(dims), alphas, order)


def weight_vector_of_filtration(
    ranks: Sequence[int], alphas: Sequence[RationalLike], r: int
) -> WeightVector:
    """Associated weight vector: the alpha-weighted sum of standard weight vectors.

    Block b of the sum, the entries rk_b < a <= rk_{b+1}, is the b-th block
    weight of `dispo.scaled_block_weights`.
    """
    ranks, r = tuple(map(integer, ranks)), integer(r)
    alphas = tuple(map(rational, alphas))
    check_weights(ranks, alphas, r)
    weights, denominator = scaled_block_weights(ranks, alphas, r)
    bounds = (0, *ranks, r)
    entries: list[Fraction] = []
    for w, low, high in zip(weights, bounds, bounds[1:]):
        entries += [Fraction(w, denominator)] * (high - low)
    return WeightVector(tuple(entries))


def integral_subgroup_of(vector: WeightVector) -> OneParamSubgroup:
    """Smallest positive integer multiple of the vector that is integral."""
    return OneParamSubgroup(primitive_vector(vector.entries))


def _check_matrix(lam: OneParamSubgroup, g: Sequence[Sequence[RationalLike]]):
    r = lam.rank
    rows = [tuple(rational(x) for x in row) for row in g]
    if len(rows) != r or any(len(row) != r for row in rows):
        raise DimensionMismatch(f"matrix must be {r}x{r}")
    if _polyalg.determinant([[UniPoly((x,)) for x in row] for row in rows]).is_zero():
        raise SingularMatrix("matrix is not invertible")
    return rows


def parabolic_member(
    lam: OneParamSubgroup, g: Sequence[Sequence[RationalLike]]
) -> bool:
    """Whether lim_{z->oo} lam(z) g lam(z)^-1 exists.

    Entry (a, b) scales as z^(w(a) - w(b)), so the limit exists iff every
    nonzero entry sits weakly below the weight grading.
    """
    rows = _check_matrix(lam, g)
    for a in range(lam.rank):
        for b in range(lam.rank):
            if rows[a][b] != 0 and lam.weights[a] > lam.weights[b]:
                return False
    return True


def unipotent_radical_member(
    lam: OneParamSubgroup, g: Sequence[Sequence[RationalLike]]
) -> bool:
    """Whether the limit above exists and equals the identity."""
    rows = _check_matrix(lam, g)
    for a in range(lam.rank):
        for b in range(lam.rank):
            entry = rows[a][b]
            if lam.weights[a] > lam.weights[b]:
                if entry != 0:
                    return False
            elif lam.weights[a] == lam.weights[b]:
                expected = Fraction(1) if a == b else Fraction(0)
                if entry != expected:
                    return False
    return True
