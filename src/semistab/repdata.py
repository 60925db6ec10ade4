"""Characteristic bounds and representation constants by Dynkin type.

Pure lookup tables; nothing here is computed from root data.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Iterable, Union

from .errors import InvalidRank, NotExceptional
from .exactmath import integer

_EXCEPTIONAL_RANK = {"E6": 6, "E7": 7, "E8": 8, "F4": 4, "G2": 2}
_CLASSICAL_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}


@dataclass(frozen=True)
class DynkinType:
    family: str
    rank: int

    def __post_init__(self) -> None:
        family = str(self.family)
        if family in _EXCEPTIONAL_RANK:
            expected = _EXCEPTIONAL_RANK[family]
            rank = self.rank if self.rank else expected
            if rank != expected:
                raise InvalidRank(f"{family} has fixed rank {expected}, got {rank}")
            object.__setattr__(self, "rank", expected)
        elif family in _CLASSICAL_MIN_RANK:
            if integer(self.rank) < _CLASSICAL_MIN_RANK[family]:
                raise InvalidRank(
                    f"type {family} needs rank >= {_CLASSICAL_MIN_RANK[family]}, "
                    f"got {self.rank}"
                )
        else:
            raise InvalidRank(f"unknown family {family!r}")

    def is_exceptional(self) -> bool:
        return self.family in _EXCEPTIONAL_RANK

    @staticmethod
    def parse(text: str) -> "DynkinType":
        """Parse strings like "A5", "D4", "E8", "G2"; the rank is ASCII digits only."""
        text = text.strip()
        if text in _EXCEPTIONAL_RANK:
            return DynkinType(text, _EXCEPTIONAL_RANK[text])
        family, digits = text[:1], text[1:]
        if family in _CLASSICAL_MIN_RANK and digits.isascii() and digits.isdigit():
            return DynkinType(family, int(digits))
        raise InvalidRank(f"cannot parse Dynkin type {text!r}")

    def __str__(self) -> str:
        return f"{self.family}{self.rank}" if not self.is_exceptional() else self.family


def adjoint_low_height_bound(t: DynkinType) -> int:
    """N such that the adjoint representation is of low height when char > N."""
    if t.family == "A":
        return 2 * t.rank
    if t.family in ("B", "C"):
        return 4 * t.rank - 2
    if t.family == "D":
        return 4 * t.rank - 6
    return {"G2": 10, "F4": 22, "E6": 22, "E7": 34, "E8": 58}[t.family]


@dataclass(frozen=True)
class CharCondition:
    """Weakest characteristic clause covering a set of simple factors."""

    kind: str  # "any" | "not" | "greater"
    value: int = 0

    def __str__(self) -> str:
        if self.kind == "any":
            return "any characteristic"
        if self.kind == "not":
            return f"characteristic != {self.value}"
        return f"characteristic > {self.value}"


ANY_CHAR = CharCondition("any")
CHAR_NOT_2 = CharCondition("not", 2)


def heinloth_curve_condition(types: Iterable[DynkinType]) -> CharCondition:
    """Weakest clause of the curve-case semistable-reduction list covering all factors."""
    families = {t.family for t in types}
    if not families:
        raise InvalidRank("need at least one simple factor")
    if families <= {"A"}:
        return ANY_CHAR
    if families <= {"A", "B", "C", "D"}:
        return CHAR_NOT_2
    if families <= {"A", "B", "C", "D", "G2"}:
        return CharCondition("greater", 10)
    if families <= {"A", "B", "C", "D", "G2", "F4", "E6"}:
        return CharCondition("greater", 22)
    if families <= {"A", "B", "C", "D", "G2", "F4", "E6", "E7"}:
        return CharCondition("greater", 34)
    return CharCondition("greater", 58)


def separable_index_upper_bound(group_rank: int, height: int) -> int:
    """rank! times height^rank."""
    group_rank, height = integer(group_rank), integer(height)
    if group_rank < 1 or height < 1:
        raise InvalidRank("rank and height must be positive")
    return factorial(group_rank) * height**group_rank


def good_prime_excluded(t: DynkinType) -> frozenset[int]:
    """Primes excluded from being good, exceptional types only."""
    if not t.is_exceptional():
        raise NotExceptional(f"{t} is not exceptional")
    if t.family == "E8":
        return frozenset({2, 3, 5})
    return frozenset({2, 3})
