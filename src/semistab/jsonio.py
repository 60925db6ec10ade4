"""JSON (de)serialization for the public data types.

Conventions: rationals are "p/q" strings ("p" when integral), polynomials
are coefficient arrays with the constant term first, tuples of indices
are arrays of integers.  All emitters produce plain JSON-compatible
structures with deterministic ordering.

Decoders check JSON shape only: every object through `fields` (an
unknown or missing key is rejected), every array through `array`, and
basis labels and the form symmetry by value.  Scalars go to the
constructors as they are, and the types that hold them read them:
integers through `exactmath.integer` (`OneParamSubgroup`,
`TorusWeightRep`, `FiltrationData`, `FiltrationMember`,
`NonvanishingProfile`, `SplitSheafModel`), rationals through
`exactmath.rational` (`UniPoly`, `RepPoint`, `FiltrationData`,
`FiltrationMember`, `FlagStep`).  A float or a boolean is rejected there
instead of being truncated or coerced into the exact computation.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .classical import FlagStep, FormBundle, SplitSheafModel, SubsheafFlag, Symmetry
from .dispo import FiltrationData, FiltrationMember, ModelEntry, NonvanishingProfile
from .errors import MalformedFiltration, MalformedInput
from .exactmath import UniPoly, format_rational, rational
from .flags import OneParamSubgroup
from .hilbert_mumford import RepPoint, TorusWeightRep


def fields(data, where: str, required: tuple[str, ...], optional: Iterable[str] = ()) -> Mapping:
    """`data`, once it is a JSON object with every `required` key and no key outside both lists."""
    if not isinstance(data, dict):
        raise MalformedInput(f"{where} must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data).difference(required, optional))
    if unknown:
        raise MalformedInput(f"unknown key {unknown[0]!r} in the {where}")
    for key in required:
        if key not in data:
            raise MalformedInput(f"missing key {key!r} in the {where}")
    return data


def array(data, where: str) -> list:
    """`data`, once it is a JSON array."""
    if not isinstance(data, list):
        raise MalformedInput(f"{where} must be a JSON array, got {type(data).__name__}")
    return data


def encode_rational(value) -> str:
    return format_rational(rational(value))


def encode_poly(p: UniPoly) -> list[str]:
    return [format_rational(c) for c in p.coefficients]


def decode_poly(data) -> UniPoly:
    return UniPoly(tuple(array(data, "polynomial")))


def encode_subgroup(lam: OneParamSubgroup) -> list[int]:
    return list(lam.weights)


def decode_subgroup(data) -> OneParamSubgroup:
    return OneParamSubgroup(array(data, "lambda"))


def decode_rep(data) -> TorusWeightRep:
    data = fields(data, "rep", ("torus_rank", "basis"))
    basis = []
    for item in array(data["basis"], "basis"):
        item = fields(item, "basis entry", ("label", "weight"))
        label = item["label"]
        if not isinstance(label, str):
            raise MalformedInput(f"a basis label must be a JSON string, got {type(label).__name__}")
        basis.append((label, array(item["weight"], "weight")))
    return TorusWeightRep(data["torus_rank"], basis)


def decode_point(data) -> RepPoint:
    # The keys are basis labels, so every key is allowed here; the rep checks them.
    data = fields(data, "point", (), data)
    return RepPoint(tuple(data.items()))


def decode_filtration(data) -> FiltrationData:
    data = fields(data, "filtration", ("r", "d", "P", "members"))
    members = array(data["members"], "members")
    if not members:
        raise MalformedFiltration("a dispo filtration needs at least one member")
    return FiltrationData(
        data["r"], data["d"], decode_poly(data["P"]), tuple(_decode_member(m) for m in members)
    )


def _decode_member(data) -> FiltrationMember:
    data = fields(data, "member", ("rank", "degree", "hilb", "alpha"))
    return FiltrationMember(data["rank"], data["degree"], decode_poly(data["hilb"]), data["alpha"])


def encode_profile(p: NonvanishingProfile) -> dict:
    return {
        "t": p.steps,
        "tuple_len": p.tuple_len,
        "tuples": sorted(list(t) for t in p.tuples),
    }


def decode_profile(data) -> NonvanishingProfile:
    data = fields(data, "profile", ("t", "tuple_len", "tuples"))
    tuples = [array(t, "tuple") for t in array(data["tuples"], "tuples")]
    return NonvanishingProfile(data["t"], data["tuple_len"], tuples)


def decode_entries(data) -> list[ModelEntry]:
    """A `dispo-check` model: one (filtration, profile) pair per entry."""
    entries = [fields(e, "entry", ("filtration", "profile")) for e in array(data, "entries")]
    return [(decode_filtration(e["filtration"]), decode_profile(e["profile"])) for e in entries]


def decode_model(degrees) -> SplitSheafModel:
    return SplitSheafModel(array(degrees, "degrees"))


def decode_form_bundle(data) -> FormBundle:
    data = fields(data, "form", ("degrees", "symmetry", "entries"))
    model = decode_model(data["degrees"])
    allowed = [s.value for s in Symmetry]
    if data["symmetry"] not in allowed:
        raise MalformedInput(f"symmetry must be one of {allowed}, got {data['symmetry']!r}")
    entries = tuple(
        tuple(decode_poly(p) for p in array(row, "row"))
        for row in array(data["entries"], "entries")
    )
    return FormBundle(model, Symmetry(data["symmetry"]), entries)


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


def decode_flag(data) -> SubsheafFlag:
    steps = array(fields(data, "flag", ("steps",))["steps"], "steps")
    return SubsheafFlag(tuple(_decode_step(step) for step in steps))


def _decode_step(data) -> FlagStep:
    data = fields(data, "step", ("generators", "alpha"))
    columns = array(data["generators"], "generators")
    return FlagStep(
        tuple(tuple(decode_poly(p) for p in array(column, "column")) for column in columns),
        data["alpha"],
    )
