"""CLI golden files, exit codes, and round trips."""

import argparse
import io
import json
import random
import re
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semistab.cli
from conftest import dense_columns, run_semistab
from semistab import UniPoly
from semistab.jsonio import encode_poly

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    (["mu", "--kind", "dispo", "--input", "mu_symplectic.json"], "mu_symplectic.out"),
    (
        ["mu", "--kind", "dispo", "--input", "mu_kernel_profile.json"],
        "mu_kernel_profile.out",
    ),
    (["mu", "--kind", "torus_rep", "--input", "mu_torus.json"], "mu_torus.out"),
    (["destabilize", "--input", "destabilize_single.json"], "destabilize_single.out"),
    (["destabilize", "--input", "destabilize_full.json"], "destabilize_full.out"),
    (["dispo-check", "--input", "dispocheck_kernel.json"], "dispocheck_kernel.out"),
    (["deform", "--input", "deform_three.json"], "deform_three.out"),
    (
        ["form-check", "--input", "formcheck_symplectic.json"],
        "formcheck_symplectic.out",
    ),
    (
        ["form-check", "--input", "formcheck_degenerate.json"],
        "formcheck_degenerate.out",
    ),
    (
        ["form-check", "--input", "formcheck_kernel_poly.json"],
        "formcheck_kernel_poly.out",
    ),
    (["dualize", "--input", "dualize_line.json"], "dualize_line.out"),
    (["bounds", "E8"], "bounds_E8.out"),
    (["bounds", "A5"], "bounds_A5.out"),
    (["enumerate-compositions", "3"], "enumerate_compositions_3.out"),
]


# The common flags each subcommand reads, in help order.  Each of the other
# 13 (subcommand, flag) pairs is a usage error: every subcommand used to take
# all four and ignore those it does not read, so `bounds E8 --input
# nosuch.json --strict --fail-on-unstable` exited 0 with the E8 bound.
FLAGS_READ = {
    "mu": ["--input", "--pretty"],
    "destabilize": ["--input", "--fail-on-unstable", "--pretty"],
    "dispo-check": ["--input", "--fail-on-unstable", "--strict", "--pretty"],
    "deform": ["--input", "--pretty"],
    "form-check": ["--input", "--fail-on-unstable", "--strict", "--pretty"],
    "dualize": ["--input", "--pretty"],
    "bounds": ["--pretty"],
    "enumerate-compositions": ["--pretty"],
}
COMMON_FLAGS = ["--input", "--fail-on-unstable", "--strict", "--pretty"]
FAILED_VERDICTS = ("unstable", "violated")


def run_cli(args, cwd=GOLDEN):
    return run_semistab(args, cwd=cwd)


@pytest.mark.parametrize("args,expected", CASES, ids=[c[1] for c in CASES])
def test_golden_byte_equality(args, expected):
    result = run_cli(args)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / "expected" / expected).read_text()


class TestDocumentedValues:
    def test_mu_symplectic(self):
        result = run_cli(["mu", "--kind", "dispo", "--input", "mu_symplectic.json"])
        assert json.loads(result.stdout) == {"mu": "0"}

    def test_bounds_e8(self):
        result = run_cli(["bounds", "E8"])
        assert json.loads(result.stdout)["bound"] == 58

    def test_destabilize_single_support(self):
        result = run_cli(["destabilize", "--input", "destabilize_single.json"])
        document = json.loads(result.stdout)
        assert document["verdict"] == "unstable"
        assert document["lambda"] == [-1, 1]

    def test_enumerate_compositions_3(self):
        result = run_cli(["enumerate-compositions", "3"])
        tuples = [tuple(t) for t in json.loads(result.stdout)["tuples"]]
        assert sorted(tuples) == sorted(
            [(6, 0, 0), (4, 1, 0), (2, 2, 0), (0, 3, 0), (3, 0, 1), (1, 1, 1), (0, 0, 2)]
        )
        assert len(tuples) == 7


MU_TORUS = ["mu", "--kind", "torus_rep"]
MU_DISPO = ["mu", "--kind", "dispo"]
BASIS = ["payload", "rep", "basis"]
FILTRATION = ["payload", "filtration"]
ENTRY = ["payload", "entries", 0]
FORM = ["payload", "form"]
FLAG = ["payload", "flag"]


def _node(document, path):
    for step in path:
        document = document[step]
    return document


def _run_document(args, document, tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(document))
    return run_cli([*args, "--input", str(path)])


def _identity_form_document(r, check, steps):
    """`form-check` of the identity form at rank r over one supplied flag of these steps."""
    entries = [[["1"] if a == b else [] for b in range(r)] for a in range(r)]
    form = {"degrees": [0] * r, "symmetry": "symmetric", "entries": entries}
    flag = {"steps": [{"generators": generators, "alpha": "1"} for generators in steps]}
    payload = {"form": form, "check": check, "flags": [flag]}
    return {"schema_version": 1, "kind": "form_bundle", "payload": payload}


def _unit_generators(r, indices):
    return [[["1"] if a == k else [] for a in range(1, r + 1)] for k in indices]


def _unit_weight_document(r, support):
    """`destabilize` on the standard weights e_1..e_r, at the point 1 on the first `support`."""
    basis = [{"label": f"e{a}", "weight": [int(a == b) for b in range(1, r + 1)]} for a in range(1, r + 1)]
    rep = {"torus_rank": r, "basis": basis}
    point = {f"e{a}": "1" for a in range(1, support + 1)}
    return {"schema_version": 1, "kind": "torus_rep", "payload": {"rep": rep, "point": point}}


def _deep_payload_value():
    document = json.loads((GOLDEN / "destabilize_single.json").read_text())
    document["payload"]["deep"] = None
    return json.dumps(document).replace("null", "[" * 100_000 + "]" * 100_000).encode()


def _long_integer():
    text = (GOLDEN / "destabilize_single.json").read_text()
    return text.replace('"torus_rank": 2', '"torus_rank": ' + "1" * 5000).encode()


UNREADABLE_FILES = {
    "deep_file": lambda: b"[" * 100_000 + b"]" * 100_000,
    "deep_payload_value": _deep_payload_value,
    "long_integer": _long_integer,
    "invalid_utf8": lambda: b'{"schema_version": 1, "kind": "\xff"}',
}


def _setter(path, key, value):
    def mutate(payload):
        _node(payload, path)[key] = value
    return mutate


def _slope_without_delta_bar(payload):
    payload["mode"] = "slope"
    del payload["delta"]


def _dualize_steps(*subsets):
    """Degrees [1, 0, -1] and one coordinate step per subset of 1..3."""
    def mutate(payload):
        payload["degrees"] = [1, 0, -1]
        column = lambda k: [["1"] if a == k else [] for a in range(1, 4)]
        payload["flag"]["steps"] = [
            {"generators": [column(k) for k in s], "alpha": "1"} for s in subsets
        ]
    return mutate


CHECK = ("dispocheck_kernel.json", ["dispo-check"])
DUALIZE = ("dualize_line.json", ["dualize"])
FORM_CHECK = ("formcheck_symplectic.json", ["form-check"])
TORUS = ("destabilize_single.json", ["destabilize"])

NO_FLAGS = "flags must not be empty; leave the key out for the exhaustive walk"
# Twelve dense constant columns at r = 24: C(24, 12) maximal minors, none of them zero.
OVER_THE_MINOR_CAP = [
    [encode_poly(p) for p in column] for column in dense_columns(random.Random(24), 24, 12, 0)
]
MINOR_CAP_MESSAGE = (
    "a rank-12 step at rank 24 has 2704156 maximal minors; "
    "C(r, k) * 37980 (a minor of degree-0 columns) exceeds the cap 2000000"
)

# Each shape used to exit 0 with a verdict, or exit 2 with a Python repr
# (the slope payload without delta_bar, the unknown symmetry) or with a
# message about something else (the label array read as "['e', '1']").
# The empty `entries` and `flags` were vacuous verdicts over no data; on a
# degenerate form, empty `flags` scored the kernel flag alone.  The first
# three `dualize` shapes printed a chain that is not a flag and exited 0;
# the full step exited 2 with "a flag step needs at least one generator".
REJECTED_SHAPES = {
    "flags_string": (
        *FORM_CHECK, _setter([], "flags", ""), "flags must be a JSON array, got str"
    ),
    "flags_object": (
        *FORM_CHECK, _setter([], "flags", {}), "flags must be a JSON array, got dict"
    ),
    "entries_string": (
        *CHECK, _setter([], "entries", ""), "entries must be a JSON array, got str"
    ),
    "entries_empty": (*CHECK, _setter([], "entries", []), "entries must not be empty"),
    "flags_empty": (*FORM_CHECK, _setter([], "flags", []), NO_FLAGS),
    "flags_empty_degenerate": (
        "formcheck_degenerate.json", ["form-check"], _setter([], "flags", []), NO_FLAGS
    ),
    "entries_object": (
        *CHECK, _setter([], "entries", {}), "entries must be a JSON array, got dict"
    ),
    "dualize_steps_string": (
        "dualize_line.json",
        ["dualize"],
        _setter(["flag"], "steps", ""),
        "steps must be a JSON array, got str",
    ),
    "dualize_disjoint_steps": (
        *DUALIZE, _dualize_steps([1], [2]), "generic ranks collapse: [1, 1] not strictly increasing"
    ),
    "dualize_repeated_step": (
        *DUALIZE, _dualize_steps([1], [1]), "generic ranks collapse: [1, 1] not strictly increasing"
    ),
    "dualize_steps_not_nested": (
        *DUALIZE, _dualize_steps([1], [2, 3]), "flag steps are not nested"
    ),
    "dualize_full_step": (
        *DUALIZE, _dualize_steps([1, 2, 3]), "step rank 3 must lie strictly between 0 and 3"
    ),
    "mode_missing": (
        *CHECK, lambda payload: payload.pop("mode"), "unknown key 'delta' in the payload"
    ),
    "delta_with_delta_bar": (
        *CHECK, _setter([], "delta_bar", "1"), "unknown key 'delta_bar' in the payload"
    ),
    "slope_without_delta_bar": (
        *CHECK, _slope_without_delta_bar, "missing key 'delta_bar' in the payload"
    ),
    "label_array": (
        *TORUS,
        _setter(["rep", "basis", 0], "label", ["e", "1"]),
        "a basis label must be a JSON string, got list",
    ),
    "label_integer": (
        *TORUS,
        _setter(["rep", "basis", 1], "label", 5),
        "a basis label must be a JSON string, got int",
    ),
    "symmetry_unknown": (
        *FORM_CHECK,
        _setter(["form"], "symmetry", "skew"),
        "symmetry must be one of ['symmetric', 'antisymmetric'], got 'skew'",
    ),
    "alpha_zero": (
        *FORM_CHECK,
        _setter([], "flags", [{"steps": [{"generators": [[["1"], []]], "alpha": "0"}]}]),
        "alpha must be positive",
    ),
    "dualize_column_too_long": (
        *DUALIZE,
        _setter(["flag", "steps", 0], "generators", [[["1"], [], []]]),
        "generator column has the wrong length",
    ),
    "lambda_not_sum_zero": (
        "mu_torus.json", MU_TORUS, _setter([], "lambda", [1, 1]), "weights must sum to zero: (1, 1)"
    ),
}


class TestExitCodes:
    def test_fail_on_unstable(self):
        result = run_cli(
            ["destabilize", "--input", "destabilize_single.json", "--fail-on-unstable"]
        )
        assert result.returncode == 1
        assert json.loads(result.stdout) == {"lambda": [-1, 1], "verdict": "unstable"}

    def test_stable_with_flag(self):
        result = run_cli(
            ["destabilize", "--input", "destabilize_full.json", "--fail-on-unstable"]
        )
        assert result.returncode == 0

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = run_cli(["mu", "--input", str(bad)])
        assert result.returncode == 2
        assert result.stderr

    def test_wrong_kind(self):
        result = run_cli(["destabilize", "--input", "mu_symplectic.json"])
        assert result.returncode == 2

    def test_missing_file(self):
        result = run_cli(["mu", "--input", "no_such_file.json"])
        assert result.returncode == 2

    def test_bad_type_string(self):
        result = run_cli(["bounds", "Q9"])
        assert result.returncode == 2

    def test_point_not_an_object(self, tmp_path):
        document = json.loads((GOLDEN / "destabilize_single.json").read_text())
        document["payload"]["point"] = []
        path = tmp_path / "point_list.json"
        path.write_text(json.dumps(document))
        result = run_cli(["destabilize", "--input", str(path)])
        assert result.returncode == 2
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1

    def test_polynomial_not_an_array(self, tmp_path):
        """A string was read character by character: "22" became 2 + 2n."""
        document = json.loads((GOLDEN / "mu_symplectic.json").read_text())
        document["payload"]["filtration"]["P"] = "22"
        path = tmp_path / "poly_string.json"
        path.write_text(json.dumps(document))
        result = run_cli(["mu", "--kind", "dispo", "--input", str(path)])
        assert result.returncode == 2
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1

    def test_dispo_check_without_entries(self, tmp_path):
        document = json.loads((GOLDEN / "dispocheck_kernel.json").read_text())
        del document["payload"]["entries"]
        path = tmp_path / "no_entries.json"
        path.write_text(json.dumps(document))
        result = run_cli(["dispo-check", "--input", str(path)])
        assert result.returncode == 2
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1

    @pytest.mark.parametrize(
        "golden, args",
        [
            ("dispocheck_kernel.json", ["dispo-check"]),
            ("dispocheck_kernel.json", ["dispo-check", "--strict"]),
            ("mu_symplectic.json", ["mu", "--kind", "dispo"]),
            ("deform_three.json", ["deform"]),
        ],
        ids=["check-plain", "check-strict", "mu", "deform"],
    )
    def test_filtration_without_members(self, golden, args, tmp_path):
        """The trivial filtration has mu = M = L = 0: under --strict it was a witness."""
        document = json.loads((GOLDEN / golden).read_text())
        payload = document["payload"]
        for entry in payload.get("entries", [payload]):
            entry["filtration"]["members"] = []
            entry["profile"] = {"t": 0, "tuple_len": 2, "tuples": [[1, 1]]}
        path = tmp_path / "no_members.json"
        path.write_text(json.dumps(document))
        result = run_cli([*args, "--input", str(path)])
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "error: a dispo filtration needs at least one member\n"

    @pytest.mark.parametrize("strict", [[], ["--strict"]], ids=["plain", "strict"])
    def test_flag_without_steps(self, strict, tmp_path):
        """The trivial flag has mu = M = L = 0: under --strict it was a witness."""
        document = json.loads((GOLDEN / "formcheck_symplectic.json").read_text())
        document["payload"]["flags"] = [{"steps": []}]
        path = tmp_path / "empty_flag.json"
        path.write_text(json.dumps(document))
        result = run_cli(["form-check", *strict, "--input", str(path)])
        assert result.returncode == 2
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1

    def test_exhaustive_walk_above_the_rank_cap(self, tmp_path):
        r = 8
        entries = [[["1"] if a == b else [] for b in range(r)] for a in range(r)]
        form = {"degrees": [0] * r, "symmetry": "symmetric", "entries": entries}
        document = {"schema_version": 1, "kind": "form_bundle", "payload": {"form": form}}
        path = tmp_path / "rank8.json"
        path.write_text(json.dumps(document))
        result = run_cli(["form-check", "--input", str(path)])
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "error: exhaustive enumeration capped at rank 7\n"

    @pytest.mark.parametrize("r", [8, 12])
    def test_degenerate_form_above_the_rank_cap(self, r, tmp_path):
        """diag(1, .., 1, 0) without flags exited 2 at the walk's rank cap; the kernel rule
        decides it first.  A ramanathan check walks, and is still refused."""
        entries = [[["1"] if a == b < r - 1 else [] for b in range(r)] for a in range(r)]
        form = {"degrees": [0] * r, "symmetry": "symmetric", "entries": entries}
        document = {"schema_version": 1, "kind": "form_bundle", "payload": {"form": form}}
        result = _run_document(["form-check"], document, tmp_path)
        assert (result.returncode, result.stderr) == (0, "")
        kernel = {"steps": [{"alpha": "1", "generators": _unit_generators(r, [r])}]}
        assert json.loads(result.stdout) == {"verdict": "unstable", "witness": kernel}
        document["payload"]["check"] = "ramanathan"
        result = _run_document(["form-check"], document, tmp_path)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == "error: exhaustive enumeration capped at rank 7\n"

    def test_form_above_the_kernel_rule_price(self):
        """A supplied flag {1} on a dense form at r = 16 with entries of degree up to 4:
        its generic rank, the kernel rule's elimination, took about 5 s unpriced."""
        rng, r, degrees = random.Random(16), 16, [-2] * 8 + [2] * 8
        entries = [[[] for _ in range(r)] for _ in range(r)]
        for a in range(r):
            for b in range(a, r):
                if degrees[a] + degrees[b] <= 0:
                    entry = dense_columns(rng, 1, 1, -(degrees[a] + degrees[b]))[0][0]
                    entries[a][b] = entries[b][a] = encode_poly(entry)
        form = {"degrees": degrees, "symmetry": "symmetric", "entries": entries}
        flag = {"steps": [{"generators": _unit_generators(r, [1]), "alpha": "1"}]}
        payload = {"form": form, "flags": [flag]}
        document = {"schema_version": 1, "kind": "form_bundle", "payload": payload}
        start = time.perf_counter()
        code, out, err = _run_in_process(["form-check"], json.dumps(document))
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == (
            "error: a form at rank 16 costs 15161830 units to eliminate "
            "(entries of degree 4); this exceeds the cap 2000000\n"
        )

    def test_inexact_division_is_a_defect(self, monkeypatch):
        """An exact division that leaves a remainder is a defect: exit 2, one line."""
        import semistab._polyalg as polyalg

        def inexact(p, q):
            return divmod(p, q)[0], UniPoly.of(1)

        monkeypatch.setattr(polyalg, "divmod", inexact, raising=False)
        text = (GOLDEN / "formcheck_kernel_poly.json").read_text()
        assert _run_in_process(["form-check"], text) == (
            2, "", "error: fraction-free elimination: inexact division\n"
        )

    def test_missing_destabilizer_is_a_defect(self, monkeypatch):
        """A hull LP and a fallback LP that both come back infeasible: exit 2, one line."""
        monkeypatch.setattr(semistab.hilbert_mumford, "feasible_point", lambda rows, rhs: None)
        text = (GOLDEN / "destabilize_full.json").read_text()
        assert _run_in_process(["destabilize"], text) == (
            2, "", "error: hull infeasible but no destabilizer found\n"
        )

    @pytest.mark.parametrize("check", ["semistable", "ramanathan"])
    def test_supplied_step_above_the_minor_cap(self, check, tmp_path):
        """The identity form at r = 24 with one step of 12 dense constant columns.

        Its saturation degree would take all C(24, 12) = 2,704,156 maximal
        minors: the run was still going after several seconds.
        """
        document = _identity_form_document(24, check, [OVER_THE_MINOR_CAP])
        result = _run_document(["form-check"], document, tmp_path)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == f"error: {MINOR_CAP_MESSAGE}\n"

    @pytest.mark.parametrize("check", ["semistable", "ramanathan"])
    def test_coordinate_step_under_the_minor_cap(self, check):
        """Twelve coordinate columns at r = 24 were refused for their C(24, 12) maximal
        minors; all but one vanish, so the step is scored.  On degrees (1^12, -1^12), with
        the hyperbolic form, it is isotropic of degree 12: mu = 0 and M = L < 0."""
        r = 24
        entries = [[["1"] if abs(a - b) == 12 else [] for b in range(r)] for a in range(r)]
        form = {"degrees": [1] * 12 + [-1] * 12, "symmetry": "symmetric", "entries": entries}
        flag = {"steps": [{"alpha": "1", "generators": _unit_generators(r, range(1, 13))}]}
        payload = {"form": form, "check": check, "flags": [flag]}
        document = {"schema_version": 1, "kind": "form_bundle", "payload": payload}
        start = time.perf_counter()
        code, out, err = _run_in_process(["form-check"], json.dumps(document))
        assert time.perf_counter() - start < 1
        assert (code, err) == (0, "")
        assert json.loads(out) == {"verdict": "unstable", "witness": flag}

    @pytest.mark.parametrize("check", ["semistable", "ramanathan"])
    @pytest.mark.parametrize(
        "steps, message",
        [
            (
                [OVER_THE_MINOR_CAP, _unit_generators(24, [1])],
                MINOR_CAP_MESSAGE,
            ),
            (
                [[[["1"]] * 23], OVER_THE_MINOR_CAP],
                "generator column has length 23, expected 24",
            ),
        ],
        ids=["over-the-cap-then-collapse", "short-column-then-over-the-cap"],
    )
    def test_first_step_error_wins(self, check, steps, message, tmp_path):
        """A flag that breaks two rules: the error of its first step, as the library raises it."""
        result = _run_document(["form-check"], _identity_form_document(24, check, steps), tmp_path)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == f"error: {message}\n"

    def test_dense_step_refused_before_its_echelon(self, tmp_path):
        """9 dense degree-30 columns at r = 10 ran 26 s in their echelon before the minor cap."""
        columns = dense_columns(random.Random(5), 10, 9, 30)
        generators = [[encode_poly(p) for p in column] for column in columns]
        start = time.perf_counter()
        result = _run_document(
            ["form-check"], _identity_form_document(10, "semistable", [generators]), tmp_path
        )
        assert time.perf_counter() - start < 1
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            "error: a step of 9 generator columns at rank 10 costs 57438030 units to eliminate "
            "(columns of degree 30); this exceeds the cap 2000000\n"
        )

    @pytest.mark.parametrize("check", ["semistable", "ramanathan"])
    def test_dense_step_above_the_minor_cap(self, check, tmp_path):
        """The identity form at r = 14 with one step of 8 dense degree-1 columns.

        Its 3,003 maximal minors were allowed at the price of coordinate
        columns and took about a minute.
        """
        columns = dense_columns(random.Random(14), 14, 8, 1)
        generators = [[encode_poly(p) for p in column] for column in columns]
        document = _identity_form_document(14, check, [generators])
        result = _run_document(["form-check"], document, tmp_path)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            "error: a rank-8 step at rank 14 has 3003 maximal minors; "
            "C(r, k) * 54630 (a minor of degree-1 columns) exceeds the cap 2000000\n"
        )

    def test_unstable_torus_point_above_the_grid_cap(self, tmp_path):
        """An unstable rank-8 point used to scan all 7^8 grid vectors, for 4 to 7 s."""
        result = _run_document(["destabilize"], _unit_weight_document(8, 3), tmp_path)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            "error: an unstable point at torus rank 8: "
            "the destabilizer grid search is capped at rank 7\n"
        )

    def test_torus_point_above_the_lp_price(self, tmp_path):
        """Pairs w, -w at torus rank 20, support 400: the hull LP took 4 to 6.5 s unpriced."""
        rng = random.Random(400)
        weights = []
        for _ in range(200):
            w = [rng.randint(-3, 3) for _ in range(20)]
            weights += [w, [-x for x in w]]
        basis = [{"label": f"b{i}", "weight": w} for i, w in enumerate(weights)]
        point = {f"b{i}": "1" for i in range(400)}
        payload = {"rep": {"torus_rank": 20, "basis": basis}, "point": point}
        document = {"schema_version": 1, "kind": "torus_rep", "payload": payload}
        start = time.perf_counter()
        assert _run_in_process(["destabilize"], json.dumps(document)) == (
            2,
            "",
            "error: the hull LP of a point of support 400 at torus rank 20 costs "
            "9402624 units to solve; this exceeds the cap 2000000\n",
        )
        assert time.perf_counter() - start < 1

    def test_semistable_torus_point_above_the_grid_cap(self, tmp_path):
        result = _run_document(["destabilize"], _unit_weight_document(9, 9), tmp_path)
        assert result.returncode == 0, result.stderr
        certificate = {"coefficients": {f"e{a}": "1/9" for a in range(1, 10)}, "multiple": "1/9"}
        assert json.loads(result.stdout) == {"verdict": "semistable", "certificate": certificate}

    @pytest.mark.parametrize(
        "golden, args, path, where, key, dropped",
        [
            ("formcheck_symplectic.json", ["form-check"], ["payload"], "payload", "flagz", None),
            ("dispocheck_kernel.json", ["dispo-check"], ["payload"], "payload", "mdoe", "mode"),
            ("mu_torus.json", MU_TORUS, ["payload"], "payload", "lamda", "lambda"),
            ("mu_symplectic.json", MU_DISPO, ["payload"], "payload", "entries", None),
            ("destabilize_single.json", ["destabilize"], ["payload"], "payload", "lambda", None),
            ("deform_three.json", ["deform"], ["payload"], "payload", "mode", None),
            ("dualize_line.json", ["dualize"], ["payload"], "payload", "flags", None),
            ("formcheck_symplectic.json", ["form-check"], [], "instance file", "flags", None),
            ("mu_torus.json", MU_TORUS, ["payload", "rep"], "rep", "bogus", None),
            ("mu_torus.json", MU_TORUS, [*BASIS, 0], "basis entry", "bogus", None),
            ("mu_symplectic.json", MU_DISPO, FILTRATION, "filtration", "bogus", None),
            ("mu_symplectic.json", MU_DISPO, [*FILTRATION, "members", 0], "member", "bogus", None),
            ("mu_symplectic.json", MU_DISPO, ["payload", "profile"], "profile", "bogus", None),
            ("dispocheck_kernel.json", ["dispo-check"], ENTRY, "entry", "bogus", None),
            ("formcheck_symplectic.json", ["form-check"], FORM, "form", "bogus", None),
            ("dualize_line.json", ["dualize"], FLAG, "flag", "bogus", None),
            ("dualize_line.json", ["dualize"], [*FLAG, "steps", 0], "step", "bogus", None),
        ],
        ids=[
            "form-check",
            "dispo-check",
            "mu-torus",
            "mu-dispo",
            "destabilize",
            "deform",
            "dualize",
            "envelope",
            "rep",
            "basis-entry",
            "filtration",
            "member",
            "profile",
            "entry",
            "form",
            "flag",
            "step",
        ],
    )
    def test_unknown_key(self, golden, args, path, where, key, dropped, tmp_path):
        """An unknown key used to be ignored, so a misspelled one fell back to a default."""
        document = json.loads((GOLDEN / golden).read_text())
        target = _node(document, path)
        target[key] = target.pop(dropped) if dropped else []
        result = _run_document(args, document, tmp_path)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == f"error: unknown key {key!r} in the {where}\n"

    @pytest.mark.parametrize(
        "golden, args, path, where, key",
        [
            ("mu_torus.json", MU_TORUS, [], "instance file", "kind"),
            ("mu_torus.json", MU_TORUS, ["payload"], "payload", "lambda"),
            ("mu_torus.json", MU_TORUS, ["payload", "rep"], "rep", "torus_rank"),
            ("mu_torus.json", MU_TORUS, [*BASIS, 1], "basis entry", "weight"),
            ("mu_symplectic.json", MU_DISPO, FILTRATION, "filtration", "P"),
            ("mu_symplectic.json", MU_DISPO, [*FILTRATION, "members", 0], "member", "alpha"),
            ("mu_symplectic.json", MU_DISPO, ["payload", "profile"], "profile", "tuples"),
            ("dispocheck_kernel.json", ["dispo-check"], ENTRY, "entry", "profile"),
            ("formcheck_symplectic.json", ["form-check"], FORM, "form", "symmetry"),
            ("dualize_line.json", ["dualize"], FLAG, "flag", "steps"),
            ("dualize_line.json", ["dualize"], [*FLAG, "steps", 0], "step", "alpha"),
        ],
        ids=[
            "envelope",
            "payload",
            "rep",
            "basis-entry",
            "filtration",
            "member",
            "profile",
            "entry",
            "form",
            "flag",
            "step",
        ],
    )
    def test_missing_key(self, golden, args, path, where, key, tmp_path):
        """A missing key used to be reported as a Python repr, such as KeyError('lambda')."""
        document = json.loads((GOLDEN / golden).read_text())
        del _node(document, path)[key]
        result = _run_document(args, document, tmp_path)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == f"error: missing key {key!r} in the {where}\n"

    @pytest.mark.parametrize("shape", sorted(UNREADABLE_FILES))
    def test_unreadable_instance_file(self, shape, tmp_path):
        """A deeply nested file used to end in a RecursionError traceback and exit 1."""
        path = tmp_path / f"{shape}.json"
        path.write_bytes(UNREADABLE_FILES[shape]())
        result = run_cli(["destabilize", "--input", str(path)])
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: cannot read instance file: ")
        assert len(result.stderr.splitlines()) == 1

    @pytest.mark.parametrize("version", [True, 1.0, "1", 2], ids=["true", "float", "string", "two"])
    def test_unsupported_schema_version(self, version, tmp_path):
        """`true` and `1.0` used to pass as version 1, since True == 1 == 1.0."""
        document = json.loads((GOLDEN / "mu_torus.json").read_text())
        document["schema_version"] = version
        result = _run_document(MU_TORUS, document, tmp_path)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == f"error: unsupported schema_version {version!r}, expected 1\n"

    @pytest.mark.parametrize("shape", sorted(REJECTED_SHAPES))
    def test_rejected_shape(self, shape, tmp_path):
        golden, args, mutate, message = REJECTED_SHAPES[shape]
        document = json.loads((GOLDEN / golden).read_text())
        mutate(document["payload"])
        options = ["--fail-on-unstable"] if "--fail-on-unstable" in FLAGS_READ[args[0]] else []
        result = _run_document([*args, *options], document, tmp_path)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == f"error: {message}\n"


def _set_weight(value):
    def mutate(payload):
        payload["rep"]["basis"][0]["weight"] = value
    return mutate


def _set_point(value):
    def mutate(payload):
        payload["point"] = value
    return mutate


def _duplicate_label(payload):
    payload["rep"]["basis"][1]["label"] = "e1"


# Each shape used to return the golden verdict (the zero denominator a
# traceback with exit 1) instead of exit 2.
REJECTED_TORUS_INPUTS = {
    "float_weight": _set_weight([1.7, 0]),
    "bool_weight": _set_weight([True, 0]),
    "float_coordinate": _set_point({"e1": 0.5}),
    "decimal_string_coordinate": _set_point({"e1": "0.5"}),
    "zero_denominator": _set_point({"e1": "1/0"}),
    "duplicate_label": _duplicate_label,
}


@pytest.mark.parametrize("shape", sorted(REJECTED_TORUS_INPUTS))
def test_rejected_torus_input(shape, tmp_path):
    document = json.loads((GOLDEN / "destabilize_single.json").read_text())
    REJECTED_TORUS_INPUTS[shape](document["payload"])
    path = tmp_path / f"{shape}.json"
    path.write_text(json.dumps(document))
    result = run_cli(["destabilize", "--input", str(path)])
    assert result.returncode == 2
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1


def test_negative_torus_rank(tmp_path):
    document = json.loads((GOLDEN / "destabilize_single.json").read_text())
    document["payload"]["rep"]["torus_rank"] = -1
    path = tmp_path / "negative_rank.json"
    path.write_text(json.dumps(document))
    result = run_cli(["destabilize", "--input", str(path)])
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: torus rank must be nonnegative, got -1\n"


# (arguments, golden document) for each golden that reads an instance file.
FUZZ_CASES = [(args[:-2], GOLDEN / args[-1]) for args, _ in CASES if "--input" in args]

JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-3, 6)
    | st.floats(-4, 4)
    | st.text(max_size=3)
    | st.sampled_from(["1", "-1/2", "1/0", "0.5", "e1", "symmetric", "slope", "ramanathan"])
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)
KEYS = st.text(max_size=3) | st.sampled_from(["mode", "delta", "delta_bar", "flags", "check"])


def _options(draw, command):
    """Any of `--fail-on-unstable` and `--strict` that the subcommand reads, in any order."""
    own = [flag for flag in ["--fail-on-unstable", "--strict"] if flag in FLAGS_READ[command]]
    return draw(st.lists(st.sampled_from(own), unique=True)) if own else []


def _paths(node, path=()):
    """The path of `node` and of every value below it."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, (*path, key))


@st.composite
def mutated_goldens(draw):
    """A golden's arguments and document with one node replaced, one key deleted or one added."""
    args, golden = draw(st.sampled_from(FUZZ_CASES))
    document = json.loads(golden.read_text())
    paths = list(_paths(document))
    operation = draw(st.sampled_from(["replace", "delete", "add"]))
    if operation == "replace":
        path = draw(st.sampled_from(paths))
        if path:
            _node(document, path[:-1])[path[-1]] = draw(JSON_VALUES)
        else:
            document = draw(JSON_VALUES)
    elif operation == "delete":
        path = draw(st.sampled_from([p for p in paths if p and isinstance(p[-1], str)]))
        del _node(document, path[:-1])[path[-1]]
    else:
        path = draw(st.sampled_from([p for p in paths if isinstance(_node(document, p), dict)]))
        _node(document, path)[draw(KEYS)] = draw(JSON_VALUES)
    options = _options(draw, args[0])
    return [*args, *options, "--input", "-"], document


def _run_in_process(argv, text):
    """(exit code, stdout, stderr) of `semistab.cli.run(argv)` reading `text` from stdin."""
    streams = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), io.StringIO(), io.StringIO()
    try:
        code = semistab.cli.run(argv)
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = streams


def _assert_exits_cleanly(argv, code, out, err):
    """Exit 0 with one JSON line, 2 with one stderr line, or 1 with a verdict under
    --fail-on-unstable."""
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
        return
    assert err == ""
    assert out.endswith("\n") and out.count("\n") == 1
    verdict = json.loads(out).get("verdict")
    assert code == 0 or (
        code == 1 and "--fail-on-unstable" in argv and verdict in FAILED_VERDICTS
    )


@settings(max_examples=300, deadline=None)
@given(mutated_goldens())
def test_mutated_golden_exits_cleanly(case):
    """No exception escapes `run`, and it exits cleanly."""
    argv, document = case
    _assert_exits_cleanly(argv, *_run_in_process(argv, json.dumps(document)))


def _shaped_like(template):
    """JSON with the containers of `template`: each object keeps its keys, each array holds
    up to 3 values shaped like its first item, and each leaf is the template's or any."""
    if isinstance(template, dict):
        return st.fixed_dictionaries({key: _shaped_like(value) for key, value in template.items()})
    if isinstance(template, list):
        return st.lists(_shaped_like(template[0] if template else None), max_size=3)
    return st.booleans().flatmap(lambda keep: st.just(template) if keep else JSON_LEAVES)


@st.composite
def reshaped_goldens(draw):
    """A golden's arguments and envelope around a payload drawn anew in its payload's shape."""
    args, golden = draw(st.sampled_from(FUZZ_CASES))
    document = json.loads(golden.read_text())
    document["payload"] = draw(_shaped_like(document["payload"]))
    options = _options(draw, args[0])
    return [*args, *options, "--input", "-"], document


@settings(max_examples=300, deadline=None)
@given(reshaped_goldens())
def test_reshaped_payload_exits_cleanly(case):
    """No exception escapes `run`, and it exits cleanly."""
    argv, document = case
    _assert_exits_cleanly(argv, *_run_in_process(argv, json.dumps(document)))


def test_run_builds_no_parser(monkeypatch):
    """`run` parses with the parser built at import, so it can run many documents in one process."""
    def refuse(*args, **kwargs):
        raise AssertionError("cli.run built an argument parser")

    monkeypatch.setattr(argparse, "ArgumentParser", refuse)
    monkeypatch.chdir(GOLDEN)
    for args, expected in CASES:
        assert _run_in_process(args, "") == (0, (GOLDEN / "expected" / expected).read_text(), "")


SUBCOMMANDS = [
    "mu", "destabilize", "dispo-check", "deform", "form-check", "dualize", "bounds",
    "enumerate-compositions",
]
# Each subcommand's first golden case.
FIRST_CASE = {args[0]: (args, expected) for args, expected in reversed(CASES)}
# The arguments of each subcommand beyond the common flags.
OWN_ARGUMENTS = {"mu": ["--kind"], "bounds": ["type"], "enumerate-compositions": ["s"]}


def _argparse_exit(argv, capsys):
    """(exit code, stdout, stderr) of an argv on which argparse itself ends `run`."""
    with pytest.raises(SystemExit) as exit_info:
        semistab.cli.run(argv)
    return (exit_info.value.code, *capsys.readouterr())


class TestParser:
    """The shape of the command line; argparse's own layout differs between Python versions."""

    def test_help_lists_subcommands_in_order(self, capsys):
        code, out, err = _argparse_exit(["--help"], capsys)
        assert (code, err) == (0, "")
        assert re.findall(r"^    (\S+)", out, re.MULTILINE) == SUBCOMMANDS

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_subcommand_help(self, command, capsys):
        """The help lists `-h` and exactly the arguments the subcommand reads."""
        code, out, err = _argparse_exit([command, "--help"], capsys)
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: semistab {command} ")
        listed = re.findall(r"^  (?:-h, )?(\S+)", out, re.MULTILINE)
        own = OWN_ARGUMENTS.get(command, [])
        assert sorted(listed) == sorted(["--help", *FLAGS_READ[command], *own])

    @pytest.mark.parametrize("flag", COMMON_FLAGS)
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_common_flag(self, command, flag, capsys, monkeypatch):
        """A subcommand takes a common flag it reads and refuses the others with a usage error."""
        args, expected = FIRST_CASE[command]
        argv = [*args, flag, *(["-"] if flag == "--input" else [])]
        monkeypatch.chdir(GOLDEN)
        if flag not in FLAGS_READ[command]:
            code, out, err = _argparse_exit(argv, capsys)
            assert (code, out) == (2, "")
            assert err.startswith(f"usage: semistab {command} ")
            assert err.endswith(f"error: unrecognized arguments: {' '.join(argv[len(args):])}\n")
            return
        text = (GOLDEN / args[args.index("--input") + 1]).read_text() if flag == "--input" else ""
        code, out, err = _run_in_process(argv, text)
        assert (code in (0, 1), err) == (True, "")
        if flag != "--strict":  # which may change the verdict
            assert json.loads(out) == json.loads((GOLDEN / "expected" / expected).read_text())

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["bounds"]], ids=["none", "bogus", "bounds"])
    def test_usage_error(self, argv, capsys):
        code, out, err = _argparse_exit(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("usage: semistab")


@pytest.mark.parametrize("text", ["A\u0663", "A\u00b2"], ids=["arabic-indic-3", "superscript-2"])
def test_bounds_rank_needs_ascii_digits(text):
    """The Arabic-Indic 3 was read as A3 (exit 0); the superscript 2 exited 2 with a ValueError repr."""
    assert _run_in_process(["bounds", text], "") == (
        2, "", f"error: cannot parse Dynkin type {text!r}\n"
    )


@pytest.mark.parametrize("text", ["\u0663", "0_3", " 3", "3 ", "+3", "-\u0663", "3.0", ""])
def test_enumerate_compositions_needs_ascii_digits(text, capsys):
    """argparse's `int` read each of the first five as s = 3 (exit 0)."""
    code, out, err = _argparse_exit(["enumerate-compositions", text], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("usage: semistab enumerate-compositions ")
    assert err.endswith(f"error: argument s: expected ASCII digits, got {text!r}\n")


@pytest.mark.parametrize("text", ["0", "-1"])
def test_enumerate_compositions_below_one(text):
    assert _run_in_process(["enumerate-compositions", text], "") == (
        2, "", "error: s must be at least 1\n"
    )


VERDICT_CASES = [case for case in CASES if "--fail-on-unstable" in FLAGS_READ[case[0][0]]]


@pytest.mark.parametrize("fail_on_unstable", [False, True], ids=["plain", "fail-on-unstable"])
@pytest.mark.parametrize("args, expected", VERDICT_CASES, ids=[c[1] for c in VERDICT_CASES])
def test_exit_status_follows_the_verdict(args, expected, fail_on_unstable, monkeypatch):
    """Exit 1 exactly when --fail-on-unstable is given and the verdict is unstable or violated."""
    monkeypatch.chdir(GOLDEN)
    argv = [*args, *(["--fail-on-unstable"] if fail_on_unstable else [])]
    code, out, err = _run_in_process(argv, "")
    assert (out, err) == ((GOLDEN / "expected" / expected).read_text(), "")
    assert code == int(fail_on_unstable and json.loads(out)["verdict"] in FAILED_VERDICTS)


# The golden rank-2 filtration has block weights (-1, 1) and M = L = 0, so
# mu is 2 on the full profile and -2 on the kernel profile {(2, 2)}.
PROFILES = {"semistable": [[1, 1], [1, 2], [2, 2]], "violated": [[2, 2]]}
MODE_PARAMETERS = {"asymptotic": {}, "delta": {"delta": ["0", "1"]}, "slope": {"delta_bar": "1"}}


@pytest.mark.parametrize("fail_on_unstable", [False, True], ids=["plain", "fail-on-unstable"])
@pytest.mark.parametrize("verdict", list(PROFILES))
@pytest.mark.parametrize("mode", list(MODE_PARAMETERS))
def test_dispo_check_modes(mode, verdict, fail_on_unstable):
    document = json.loads((GOLDEN / "dispocheck_kernel.json").read_text())
    payload = document["payload"]
    del payload["delta"]
    payload.update(mode=mode, **MODE_PARAMETERS[mode])
    payload["entries"][0]["profile"]["tuples"] = PROFILES[verdict]
    argv = ["dispo-check", *(["--fail-on-unstable"] if fail_on_unstable else [])]
    code, out, err = _run_in_process(argv, json.dumps(document))
    if verdict == "semistable":
        assert (code, out) == (0, '{"verdict":"semistable"}\n')
    else:
        assert (code, out) == (int(fail_on_unstable), '{"verdict":"violated","witness_index":0}\n')
    assert err == ""


class TestDeterminismAndRoundTrip:
    def test_byte_determinism(self):
        first = run_cli(["form-check", "--input", "formcheck_degenerate.json"])
        second = run_cli(["form-check", "--input", "formcheck_degenerate.json"])
        assert first.stdout == second.stdout
        assert first.stdout.endswith("\n")

    def test_pretty_same_content(self):
        compact = run_cli(["bounds", "E8"])
        pretty = run_cli(["bounds", "E8", "--pretty"])
        assert json.loads(compact.stdout) == json.loads(pretty.stdout)

    def test_destabilize_lambda_feeds_mu(self, tmp_path):
        """The emitted destabilizer is valid input for the mu subcommand."""
        verdict = json.loads(
            run_cli(["destabilize", "--input", "destabilize_single.json"]).stdout
        )
        instance = json.loads((GOLDEN / "destabilize_single.json").read_text())
        instance["payload"]["lambda"] = verdict["lambda"]
        path = tmp_path / "roundtrip.json"
        path.write_text(json.dumps(instance))
        result = run_cli(["mu", "--kind", "torus_rep", "--input", str(path)])
        assert result.returncode == 0
        assert json.loads(result.stdout) == {"mu": "-1"}

    def test_deform_profile_feeds_mu(self, tmp_path):
        """A deformed profile is valid input for the dispo mu subcommand."""
        deformed = json.loads(
            run_cli(["deform", "--input", "deform_three.json"]).stdout
        )
        instance = json.loads((GOLDEN / "deform_three.json").read_text())
        instance["payload"]["profile"] = deformed["profile"]
        path = tmp_path / "roundtrip.json"
        path.write_text(json.dumps(instance))
        result = run_cli(["mu", "--kind", "dispo", "--input", str(path)])
        assert result.returncode == 0
        assert json.loads(result.stdout) == {"mu": "2"}

    def test_stdin_input(self):
        text = (GOLDEN / "mu_symplectic.json").read_text()
        result = run_semistab(["mu", "--kind", "dispo"], input=text)
        assert result.returncode == 0
        assert json.loads(result.stdout) == {"mu": "0"}
