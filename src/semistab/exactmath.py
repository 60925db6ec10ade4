"""Exact rational arithmetic and univariate polynomials.

Rationals are `fractions.Fraction` throughout (arbitrary precision,
canonical form for free).  Polynomials are immutable coefficient tuples,
constant term first, with the zero polynomial represented by the empty
tuple, so structural equality is semantic equality.

The asymptotic order `poly_order` compares polynomials by their values at
n >> 0: lexicographically from the highest-degree coefficient downward.

`primitive_vector` (the primitive integral multiple of a rational
vector) is the one copy that the other modules use.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

from .errors import OutOfRange

RationalLike = Union[int, Fraction, str]

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def rational(value: RationalLike) -> Fraction:
    """A Fraction (returned as it is), an int, or a "p" / "p/q" string, as a Fraction.

    The one rational grammar of the library and of its JSON input:
    floats, booleans and every other notation are rejected.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f'expected an integer or a "p/q" string, got {value!r}')


def integer(value) -> int:
    """An int that is not a bool: the one integer grammar of the library and of its JSON input."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise TypeError(f"expected an integer, got {value!r}")


def format_rational(value: Fraction) -> str:
    """Canonical string form: "p" for integers, "p/q" otherwise."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class Order(enum.Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


@dataclass(frozen=True)
class UniPoly:
    """Univariate polynomial over Q, coefficients constant-term first."""

    coefficients: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        coeffs = tuple(rational(c) for c in self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @staticmethod
    def of(*coefficients: RationalLike) -> "UniPoly":
        return UniPoly(coefficients)

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly()

    @staticmethod
    def x(power: int = 1) -> "UniPoly":
        """x ** power, for an integer power of at least 0."""
        if integer(power) < 0:
            raise OutOfRange(f"the power of x must be at least 0, got {power}")
        return UniPoly((Fraction(0),) * power + (Fraction(1),))

    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self.coefficients):
            return self.coefficients[power]
        return Fraction(0)

    @property
    def leading(self) -> Fraction:
        if not self.coefficients:
            return Fraction(0)
        return self.coefficients[-1]

    # With a zero operand, +, - and * return an existing operand rather than
    # a new polynomial: `UniPoly` is frozen, so sharing the object is safe.
    def __add__(self, other: "UniPoly") -> "UniPoly":
        if not other.coefficients:
            return self
        if not self.coefficients:
            return other
        n = max(len(self.coefficients), len(other.coefficients))
        return UniPoly(
            tuple(self.coefficient(i) + other.coefficient(i) for i in range(n))
        )

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        if not other.coefficients:
            return self
        n = max(len(self.coefficients), len(other.coefficients))
        return UniPoly(
            tuple(self.coefficient(i) - other.coefficient(i) for i in range(n))
        )

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coefficients))

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if not self.coefficients:
            return self
        if not other.coefficients:
            return other
        out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return UniPoly(tuple(out))

    def scale(self, factor: RationalLike) -> "UniPoly":
        factor = rational(factor)
        return UniPoly(tuple(factor * c for c in self.coefficients))

    def __divmod__(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        """Long division: each quotient coefficient from the top, then the low part."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        d = other.degree
        divisor, lead = other.coefficients[:d], other.leading
        rem = list(self.coefficients)
        quot = [Fraction(0)] * max(0, len(rem) - d)
        for shift in reversed(range(len(quot))):
            factor = rem[shift + d] / lead
            quot[shift] = factor
            for i, c in enumerate(divisor):
                rem[shift + i] -= factor * c
        return UniPoly(tuple(quot)), UniPoly(tuple(rem[:d]))


def poly_order(p: UniPoly, q: UniPoly) -> Order:
    """Asymptotic comparison: p before q iff p(n) < q(n) for all n >> 0.

    The sign of the leading coefficient of p - q, read off the two
    coefficient tuples from the top without forming p - q.
    """
    a, b = p.coefficients, q.coefficients
    if len(a) != len(b):
        top = a[-1] if len(a) > len(b) else -b[-1]
        return Order.GREATER if top > 0 else Order.LESS
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return Order.GREATER if x > y else Order.LESS
    return Order.EQUAL


def is_positive(delta: UniPoly) -> bool:
    """True iff delta(n) > 0 for n >> 0."""
    return poly_order(delta, UniPoly.zero()) is Order.GREATER


def poly_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic gcd over Q[x]; gcd(0, 0) = 0.

    Euclid on primitive parts: each remainder is replaced by its primitive
    integral multiple, which has the same gcd, so the coefficients stay
    integers of bounded size instead of fractions that grow at every step.
    """
    a, b = p, q
    while not b.is_zero():
        _, r = divmod(a, b)
        a, b = b, UniPoly(primitive_vector(r.coefficients))
    if a.is_zero():
        return a
    return a.scale(Fraction(1) / a.leading)


def primitive_vector(values: Iterable[Union[int, Fraction]]) -> tuple[int, ...]:
    """Smallest positive multiple of a rational vector that is integral.

    The entries of the result have gcd 1 (the zero vector stays zero).
    """
    values = list(values)
    denom = lcm(*(v.denominator for v in values))
    ints = [int(v * denom) for v in values]
    g = gcd(*ints)
    if g > 1:
        return tuple(v // g for v in ints)
    return tuple(ints)
