"""Tests of the benchmark's checkers, generators and tracing.

Run from the repository root:  python -m pytest perfbench -q

Correct outputs come from running `semistab` on small seeded instances;
each checker must accept them and reject the corrupted copies.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import checkers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402


def _small(workload, seed=7):
    return [i for i in workloads.instances(workload, seed) if not i["large"]]


def _output(instance):
    text = json.dumps(instance["doc"]) if instance["doc"] is not None else ""
    code, out, err, _ = worker.run_instance(instance["argv"], text)
    assert code == 0, err
    return out


def _pick(workload, predicate):
    for seed in range(20):
        for inst in _small(workload, seed):
            out = _output(inst)
            if predicate(inst, json.loads(out)):
                return inst, json.loads(out)
    raise AssertionError("no instance of the requested shape")


def _rejects(instance, document):
    text = json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"
    with pytest.raises(checkers.Mismatch):
        checkers.check(instance, text)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_program_outputs_pass(workload):
    for inst in _small(workload):
        checkers.check(inst, _output(inst))


def test_instances_depend_only_on_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.instances(workload, 3) == workloads.instances(workload, 3)
        assert workloads.instances(workload, 3) != workloads.instances(workload, 4)
        names = [i["name"] for i in workloads.instances(workload, 3)]
        assert names == [i["name"] for i in workloads.instances(workload, 4)]


def test_format_is_one_sorted_compact_line():
    with pytest.raises(checkers.Mismatch):
        checkers.parse_output('{"mu": "1"}\n')
    with pytest.raises(checkers.Mismatch):
        checkers.parse_output('{"b":1,"a":2}\n')
    with pytest.raises(checkers.Mismatch):
        checkers.parse_output('{"mu":"1"}')
    assert checkers.parse_output('{"mu":"1"}\n') == {"mu": "1"}


def test_form_check_flipped_verdicts():
    inst, out = _pick("form-check", lambda i, o: o["verdict"] == "semistable")
    _rejects(inst, {"verdict": "unstable", "witness": None})
    inst, out = _pick("form-check", lambda i, o: o["verdict"] == "unstable")
    _rejects(inst, {"verdict": "semistable", "witness": None})


def test_form_check_witness_rescored():
    inst, out = _pick(
        "form-check", lambda i, o: o["verdict"] == "unstable" and "poly" in i["name"]
    )
    r = len(inst["doc"]["payload"]["form"]["degrees"])
    # A single coordinate line never destabilizes a nondegenerate form.
    line = [[["1"] if a == 0 else [] for a in range(r)]]
    bad = copy.deepcopy(out)
    bad["witness"]["steps"] = [{"alpha": "1", "generators": line}]
    _rejects(inst, bad)


def test_form_check_kernel_witness():
    inst, out = _pick("form-check", lambda i, o: "rank" in i["name"])
    bad = copy.deepcopy(out)
    column = bad["witness"]["steps"][0]["generators"][0]
    column[0] = [checkers.q_str(checkers._q(column[0][0]) + 1)] if column[0] else ["1"]
    _rejects(inst, bad)


def test_lambda_with_one_weight_changed():
    inst, out = _pick("torus", lambda i, o: o.get("verdict") == "unstable")
    for k in range(len(out["lambda"])):
        bad = copy.deepcopy(out)
        bad["lambda"][k] += 1
        _rejects(inst, bad)


def test_certificate_with_one_coefficient_dropped():
    inst, out = _pick(
        "torus",
        lambda i, o: o.get("verdict") == "semistable" and len(o["certificate"]["coefficients"]) > 1,
    )
    for label in out["certificate"]["coefficients"]:
        bad = copy.deepcopy(out)
        del bad["certificate"]["coefficients"][label]
        _rejects(inst, bad)


def test_mu_off_by_one():
    for workload, argv in (("torus", ["mu"]), ("dispo", ["mu", "--kind", "dispo"])):
        inst, out = _pick(workload, lambda i, o, argv=argv: i["argv"] == argv)
        _rejects(inst, {"mu": checkers.q_str(checkers._q(out["mu"]) + 1)})


def test_deformed_profile_with_one_tuple_removed():
    inst, out = _pick("dispo", lambda i, o: i["argv"] == ["deform"] and len(o["profile"]["tuples"]) > 2)
    for k in range(len(out["profile"]["tuples"])):
        bad = copy.deepcopy(out)
        del bad["profile"]["tuples"][k]
        _rejects(inst, bad)


def test_witness_index_off_by_one_and_flipped_verdict():
    inst, out = _pick(
        "dispo", lambda i, o: o.get("verdict") == "violated" and o["witness_index"] > 0
    )
    for delta in (-1, 1):
        _rejects(inst, {"verdict": "violated", "witness_index": out["witness_index"] + delta})
    _rejects(inst, {"verdict": "semistable"})
    inst, out = _pick("dispo", lambda i, o: o.get("verdict") == "semistable")
    _rejects(inst, {"verdict": "violated", "witness_index": 0})


def test_dualize_and_compositions():
    insts = {i["argv"][0]: i for i in workloads.instances("cli-cold", 5)}
    dual = insts["dualize"]
    out = json.loads(_output(dual))
    bad = copy.deepcopy(out)
    steps = bad["flag"]["steps"]
    steps[0]["alpha"], steps[-1]["alpha"] = steps[-1]["alpha"], checkers.q_str(
        checkers._q(steps[0]["alpha"]) + 1
    )
    _rejects(dual, bad)
    comps = insts["enumerate-compositions"]
    out = json.loads(_output(comps))
    out["tuples"].pop(3)
    _rejects(comps, out)


def test_tracing_self_times_add_up_and_uninstall_restores():
    import semistab.classical
    import semistab.cli

    original = semistab.cli.run, semistab.classical.form_profile
    inst = next(i for i in _small("form-check") if i["name"] == "r4 sym poly semistable")
    tracing.clear_caches()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, _, _, elapsed = worker.run_instance(inst["argv"], json.dumps(inst["doc"]))
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert (semistab.cli.run, semistab.classical.form_profile) == original
    assert summary["counts"]["classical.flags_scored"] > 0
    assert summary["counts"]["polyalg.rank_calls"] > 0
    assert abs(sum(summary["self_s"].values()) - elapsed) <= 0.01 * elapsed


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_import_times_parse():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |     431339 |     sympy\n"
        "import time:       300 |     489835 | semistab\n"
    )
    assert run.import_times(stderr) == (489.835, 431.339)


def test_run_instance_restores_streams():
    stdin, stdout = sys.stdin, sys.stdout
    worker.run_instance(["bounds", "E8"], "")
    assert (sys.stdin, sys.stdout) == (stdin, stdout)
