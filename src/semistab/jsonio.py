"""JSON (de)serialization for the public data types.

Conventions: rationals are "p/q" strings ("p" when integral), polynomials
are coefficient arrays with the constant term first, tuples of indices
are arrays of integers.  All emitters produce plain JSON-compatible
structures with deterministic ordering.
"""

from __future__ import annotations

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


def encode_rational(value) -> str:
    return format_rational(rational(value))


def encode_poly(p: UniPoly) -> list[str]:
    return p.to_json()


def decode_poly(data: Sequence) -> UniPoly:
    return UniPoly.from_json(data)


def encode_subgroup(lam: OneParamSubgroup) -> list[int]:
    return list(lam.weights)


def decode_subgroup(data: Sequence[int]) -> OneParamSubgroup:
    return OneParamSubgroup(tuple(int(w) for w in data))


def decode_rep(data: Mapping) -> TorusWeightRep:
    return TorusWeightRep(
        int(data["torus_rank"]),
        tuple(
            (str(item["label"]), tuple(int(w) for w in item["weight"]))
            for item in data["basis"]
        ),
    )


def decode_point(data: Mapping) -> RepPoint:
    if not isinstance(data, Mapping):
        raise TypeError("point must be a JSON object mapping labels to coordinates")
    return RepPoint(tuple((str(k), rational(v)) for k, v in data.items()))


def decode_filtration(data: Mapping) -> FiltrationData:
    return FiltrationData(
        int(data["r"]),
        rational(data["d"]),
        decode_poly(data["P"]),
        tuple(
            FiltrationMember(
                int(m["rank"]),
                rational(m["degree"]),
                decode_poly(m["hilb"]),
                rational(m["alpha"]),
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
        int(data["t"]),
        int(data["tuple_len"]),
        frozenset(tuple(int(i) for i in t) for t in data["tuples"]),
    )


def decode_form_bundle(data: Mapping) -> FormBundle:
    model = SplitSheafModel(tuple(int(d) for d in data["degrees"]))
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
                rational(step["alpha"]),
            )
            for step in data["steps"]
        )
    )
