"""JSON (de)serialization for the public data types.

Conventions: rationals are "p/q" strings ("p" when integral), polynomials
are coefficient arrays with the constant term first, tuples of indices
are arrays of integers.  All emitters produce plain JSON-compatible
structures with deterministic ordering.

Decoders read every integer through `decode_int` and every rational
through `decode_rational`, so a JSON float or boolean is rejected
instead of being truncated or coerced into the exact computation.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping, Sequence

from .classical import (
    FlagStep,
    FormBundle,
    SplitSheafModel,
    SubsheafFlag,
    Symmetry,
)
from .dispo import FiltrationData, FiltrationMember, NonvanishingProfile
from .exactmath import UniPoly, format_rational, rational
from .flags import OneParamSubgroup
from .hilbert_mumford import RepPoint, TorusWeightRep


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def decode_int(value) -> int:
    """A JSON integer; floats, booleans and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def decode_rational(value) -> Fraction:
    """A JSON integer or a "p" / "p/q" string; floats and booleans are rejected."""
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f'expected an integer or a "p/q" string, got {value!r}')


def encode_rational(value) -> str:
    return format_rational(rational(value))


def encode_poly(p: UniPoly) -> list[str]:
    return [format_rational(c) for c in p.coefficients]


def decode_poly(data: Sequence) -> UniPoly:
    if not isinstance(data, list):
        raise TypeError(f"a polynomial is an array of rationals, got {data!r}")
    return UniPoly(tuple(decode_rational(c) for c in data))


def encode_subgroup(lam: OneParamSubgroup) -> list[int]:
    return list(lam.weights)


def decode_subgroup(data: Sequence[int]) -> OneParamSubgroup:
    return OneParamSubgroup(tuple(decode_int(w) for w in data))


def decode_rep(data: Mapping) -> TorusWeightRep:
    return TorusWeightRep(
        decode_int(data["torus_rank"]),
        tuple(
            (str(item["label"]), tuple(decode_int(w) for w in item["weight"]))
            for item in data["basis"]
        ),
    )


def decode_point(data: Mapping) -> RepPoint:
    if not isinstance(data, Mapping):
        raise TypeError("point must be a JSON object mapping labels to coordinates")
    return RepPoint(tuple((str(k), decode_rational(v)) for k, v in data.items()))


def decode_filtration(data: Mapping) -> FiltrationData:
    return FiltrationData(
        decode_int(data["r"]),
        decode_rational(data["d"]),
        decode_poly(data["P"]),
        tuple(
            FiltrationMember(
                decode_int(m["rank"]),
                decode_rational(m["degree"]),
                decode_poly(m["hilb"]),
                decode_rational(m["alpha"]),
            )
            for m in data["members"]
        ),
    )


def encode_profile(p: NonvanishingProfile) -> dict:
    return {
        "t": p.steps,
        "tuple_len": p.tuple_len,
        "tuples": sorted(list(t) for t in p.tuples),
    }


def decode_profile(data: Mapping) -> NonvanishingProfile:
    return NonvanishingProfile(
        decode_int(data["t"]),
        decode_int(data["tuple_len"]),
        frozenset(tuple(decode_int(i) for i in t) for t in data["tuples"]),
    )


def decode_model(degrees: Sequence) -> SplitSheafModel:
    return SplitSheafModel(tuple(decode_int(d) for d in degrees))


def decode_form_bundle(data: Mapping) -> FormBundle:
    model = decode_model(data["degrees"])
    symmetry = Symmetry(data["symmetry"])
    entries = tuple(
        tuple(decode_poly(p) for p in row) for row in data["entries"]
    )
    return FormBundle(model, symmetry, entries)


def encode_flag(flag: SubsheafFlag) -> dict:
    return {
        "steps": [
            {
                "generators": [[encode_poly(p) for p in column] for column in step.columns],
                "alpha": encode_rational(step.alpha),
            }
            for step in flag.steps
        ]
    }


def decode_flag(data: Mapping) -> SubsheafFlag:
    return SubsheafFlag(
        tuple(
            FlagStep(
                tuple(
                    tuple(decode_poly(p) for p in column)
                    for column in step["generators"]
                ),
                decode_rational(step["alpha"]),
            )
            for step in data["steps"]
        )
    )
