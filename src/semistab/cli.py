"""Batch command-line front end.

Reads JSON instance files (schema_version 1), dispatches to the library,
and prints a deterministic JSON verdict: sorted keys, canonical rational
strings, compact separators, trailing newline.  Exit codes: 0 computed,
1 unstable/violated under --fail-on-unstable, 2 malformed input (or an
`InternalError`, a defect of the program).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Mapping, Optional, Sequence

from . import classical, dispo, hilbert_mumford, jsonio, repdata
from .errors import MalformedInput, SemistabError
from .exactmath import integer

SCHEMA_VERSION = 1


def _load_instance(path: Optional[str], kind: str, required: tuple, optional=()) -> Mapping:
    """The payload, once the envelope is checked and the payload holds the given top-level keys."""
    try:
        if path is None or path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:
        raise MalformedInput(f"cannot read instance file: {exc}") from exc
    envelope = jsonio.fields(data, "instance file", ("schema_version", "kind", "payload"))
    try:
        version = integer(envelope["schema_version"])
    except TypeError:
        version = None
    if version != SCHEMA_VERSION:
        raise MalformedInput(
            f"unsupported schema_version {envelope['schema_version']!r}, "
            f"expected {SCHEMA_VERSION}"
        )
    if envelope["kind"] != kind:
        raise MalformedInput(f"expected kind {kind!r}, got {envelope['kind']!r}")
    return jsonio.fields(envelope["payload"], "payload", required, optional)


def _cmd_mu(args: argparse.Namespace) -> dict:
    if args.kind == "torus_rep":
        payload = _load_instance(args.input, "torus_rep", ("rep", "point", "lambda"))
        rep = jsonio.decode_rep(payload["rep"])
        lam = jsonio.decode_subgroup(payload["lambda"])
        point = jsonio.decode_point(payload["point"])
        value = hilbert_mumford.mu(rep, lam, point)
    else:
        payload = _load_instance(args.input, "dispo", ("filtration", "profile"))
        filtration = jsonio.decode_filtration(payload["filtration"])
        profile = jsonio.decode_profile(payload["profile"])
        value = dispo.mu_profile(filtration, profile)
    return {"mu": jsonio.encode_rational(value)}


def _cmd_destabilize(args: argparse.Namespace) -> dict:
    payload = _load_instance(args.input, "torus_rep", ("rep", "point"))
    rep = jsonio.decode_rep(payload["rep"])
    point = jsonio.decode_point(payload["point"])
    verdict = hilbert_mumford.torus_destabilize(rep, point)
    if verdict.semistable:
        certificate = verdict.certificate
        return {
            "verdict": "semistable",
            "certificate": {
                "coefficients": {
                    label: jsonio.encode_rational(c)
                    for label, c in certificate.coefficients
                },
                "multiple": jsonio.encode_rational(certificate.multiple),
            },
        }
    return {"verdict": "unstable", "lambda": jsonio.encode_subgroup(verdict.destabilizer)}


# Each dispo-check mode's parameter key. `in tuple(...)` compares, so an unhashable mode is unknown.
_MODE_PARAMETER = {"asymptotic": (), "delta": ("delta",), "slope": ("delta_bar",)}


def _cmd_dispo_check(args: argparse.Namespace) -> dict:
    payload = _load_instance(args.input, "dispo", ("entries",), ("mode", "delta", "delta_bar"))
    mode = payload.get("mode", "asymptotic")
    if mode not in tuple(_MODE_PARAMETER):
        raise MalformedInput(f"unknown mode {mode!r}")
    jsonio.fields(payload, "payload", ("entries", *_MODE_PARAMETER[mode]), ("mode",))
    model = jsonio.decode_entries(payload["entries"])
    if not model:
        raise MalformedInput("entries must not be empty")
    if mode == "delta":
        delta = jsonio.decode_poly(payload["delta"])
        verdict = dispo.delta_semistable(model, delta, strict=args.strict)
    elif mode == "slope":
        verdict = dispo.slope_semistable(model, payload["delta_bar"], strict=args.strict)
    else:
        verdict = dispo.asymptotic_semistable(model, strict=args.strict)
    if verdict.semistable:
        return {"verdict": "semistable"}
    return {"verdict": "violated", "witness_index": verdict.witness_index}


def _cmd_deform(args: argparse.Namespace) -> dict:
    payload = _load_instance(args.input, "dispo", ("filtration", "profile"))
    filtration = jsonio.decode_filtration(payload["filtration"])
    profile = jsonio.decode_profile(payload["profile"])
    deformed = dispo.admissible_deformation(filtration, profile)
    return {"profile": jsonio.encode_profile(deformed)}


def _cmd_form_check(args: argparse.Namespace) -> dict:
    payload = _load_instance(args.input, "form_bundle", ("form",), ("check", "flags"))
    fb = jsonio.decode_form_bundle(payload["form"])
    flags = None
    if "flags" in payload:
        flags = [jsonio.decode_flag(f) for f in jsonio.array(payload["flags"], "flags")]
        if not flags:
            raise MalformedInput(
                "flags must not be empty; leave the key out for the exhaustive walk"
            )
    check = payload.get("check", "semistable")
    if check == "semistable":
        verdict = classical.semistable_form(fb, flags, strict=args.strict)
    elif check == "ramanathan":
        verdict = classical.ramanathan_semistable(fb, flags, strict=args.strict)
    else:
        raise MalformedInput(f"unknown check {check!r}")
    if verdict.semistable:
        return {"verdict": "semistable", "witness": None}
    return {"verdict": "unstable", "witness": jsonio.encode_flag(verdict.witness)}


def _cmd_dualize(args: argparse.Namespace) -> dict:
    payload = _load_instance(args.input, "flags", ("degrees", "flag"))
    model = jsonio.decode_model(payload["degrees"])
    flag = jsonio.decode_flag(payload["flag"])
    dual = classical.dualize_filtration(model, flag)
    return {"flag": jsonio.encode_flag(dual)}


def _cmd_bounds(args: argparse.Namespace) -> dict:
    t = repdata.DynkinType.parse(args.type)
    condition = repdata.heinloth_curve_condition([t])
    return {"bound": repdata.adjoint_low_height_bound(t), "clause": str(condition)}


def _cmd_enumerate_compositions(args: argparse.Namespace) -> dict:
    tuples = hilbert_mumford.weighted_compositions(args.s)
    return {"s": args.s, "tuples": [list(t) for t in tuples]}


def _ascii_integer(text: str) -> int:
    """`-?[0-9]+` only; argparse's `int` also reads `+3`, ` 3`, `0_3` and non-ASCII digits."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"expected ASCII digits, got {text!r}")
    return int(text)


_INPUT = {"--input": {"default": "-", "help": "instance file path, - for stdin"}}
_FAIL_ON_UNSTABLE = {
    "--fail-on-unstable": {
        "action": "store_true",
        "help": "exit 1 when the verdict is unstable/violated",
    }
}
_STRICT = {"--strict": {"action": "store_true", "help": "strict inequalities"}}
_PRETTY = {"--pretty": {"action": "store_true", "help": "indented output"}}
_READER = {**_INPUT, **_PRETTY}
_VERDICT = {**_INPUT, **_FAIL_ON_UNSTABLE, **_STRICT, **_PRETTY}

# Each subcommand's help, handler and every argument it reads, in help order.
_COMMANDS = {
    "mu": (
        "Hilbert-Mumford or profile mu",
        _cmd_mu,
        {**_READER, "--kind": {"choices": ["torus_rep", "dispo"], "default": "torus_rep"}},
    ),
    "destabilize": (
        "torus-level instability test",
        _cmd_destabilize,
        {**_INPUT, **_FAIL_ON_UNSTABLE, **_PRETTY},
    ),
    "dispo-check": ("delta/slope/asymptotic verdict", _cmd_dispo_check, _VERDICT),
    "deform": ("admissible deformation", _cmd_deform, _READER),
    "form-check": ("form-bundle semistability", _cmd_form_check, _VERDICT),
    "dualize": ("dual coordinate flag", _cmd_dualize, _READER),
    "bounds": (
        "characteristic bounds",
        _cmd_bounds,
        {**_PRETTY, "type": {"help": 'Dynkin type string, e.g. "A5" or "E8"'}},
    ),
    "enumerate-compositions": (
        "weighted compositions with sum i*d_i = s!",
        _cmd_enumerate_compositions,
        {**_PRETTY, "s": {"type": _ascii_integer}},
    ),
}

# Built once, at import: `run` may be called many times in one process.
_PARSER = argparse.ArgumentParser(
    prog="semistab",
    description="Exact semistability computations, batch mode.",
)
_SUBPARSERS = _PARSER.add_subparsers(dest="command", required=True)
for _name, (_help, _, _arguments) in _COMMANDS.items():
    _subparser = _SUBPARSERS.add_parser(_name, help=_help)
    for _argument, _options in _arguments.items():
        _subparser.add_argument(_argument, **_options)


def run(argv: Optional[Sequence[str]] = None) -> int:
    args, unknown = _PARSER.parse_known_args(argv)
    if unknown:  # argparse would report them with the top-level usage
        _SUBPARSERS.choices[args.command].error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        document = _COMMANDS[args.command][1](args)
    except SemistabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: malformed payload: {exc!r}", file=sys.stderr)
        return 2
    layout = {"indent": 2} if args.pretty else {"separators": (",", ":")}
    sys.stdout.write(json.dumps(document, sort_keys=True, **layout) + "\n")
    failed = document.get("verdict") in ("unstable", "violated")
    return 1 if failed and getattr(args, "fail_on_unstable", False) else 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
