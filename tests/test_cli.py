"""CLI golden files, exit codes, and round trips."""

import json
from pathlib import Path

import pytest

from conftest import run_semistab

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
    (["dualize", "--input", "dualize_line.json"], "dualize_line.out"),
    (["bounds", "E8"], "bounds_E8.out"),
    (["bounds", "A5"], "bounds_A5.out"),
    (["enumerate-compositions", "3"], "enumerate_compositions_3.out"),
]


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


    @pytest.mark.parametrize(
        "golden, args, where, key, dropped",
        [
            ("formcheck_symplectic.json", ["form-check"], "payload", "flagz", None),
            ("dispocheck_kernel.json", ["dispo-check"], "payload", "mdoe", "mode"),
            ("mu_torus.json", ["mu", "--kind", "torus_rep"], "payload", "lamda", "lambda"),
            ("mu_symplectic.json", ["mu", "--kind", "dispo"], "payload", "entries", None),
            ("destabilize_single.json", ["destabilize"], "payload", "lambda", None),
            ("deform_three.json", ["deform"], "payload", "mode", None),
            ("dualize_line.json", ["dualize"], "payload", "flags", None),
            ("formcheck_symplectic.json", ["form-check"], "instance file", "flags", None),
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
        ],
    )
    def test_unknown_key(self, golden, args, where, key, dropped, tmp_path):
        """An unknown key used to be ignored, so a misspelled one fell back to a default."""
        document = json.loads((GOLDEN / golden).read_text())
        target = document if where == "instance file" else document["payload"]
        target[key] = target.pop(dropped) if dropped else []
        path = tmp_path / "unknown_key.json"
        path.write_text(json.dumps(document))
        result = run_cli([*args, "--input", str(path)])
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == f"error: unknown key {key!r} in the {where}\n"

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
