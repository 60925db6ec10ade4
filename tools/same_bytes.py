"""Compare the command-line bytes of this checkout with those of another one.

    python tools/same_bytes.py PARENT_CHECKOUT

Both checkouts run the same cases through `semistab.cli.run`, each in one
subprocess with its own `src` first on the path:
  * the golden cases of `tests/test_cli.py::CASES`, from `tests/golden`;
  * the documents of `perfbench/workloads.instances(workload, seed)` for every
    workload and seeds 1-5, fed on stdin;
  * every `form-check` workload document again with `--strict`;
  * a few fixed documents built here, for the refusals and the strict tie that
    the goldens and the workloads never reach: the exhaustive walk at rank 8
    under both checks, a supplied step over the minor cap, an unstable torus
    point at rank 8 and a `dispo-check --strict` document whose first entry
    ties at 0.
The cases are read from this checkout, so both sides get the same inputs.  Each
case's exit code, stdout and stderr are compared; the script prints
"N of N identical" and each case that differs, and exits 1 on any difference.
Nothing under `perfbench/` is changed.
"""

from __future__ import annotations

import ast
import json
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(1, 6)

# Run in the child: read [src, cases] as JSON on stdin, write [code, stdout, stderr]
# per case as JSON on stdout.
_CHILD = """
import io, json, os, sys
src, cases = json.load(sys.stdin)
sys.path.insert(0, src)
import semistab.cli
out = sys.stdout
results = []
for argv, text, cwd in cases:
    os.chdir(cwd)
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), io.StringIO(), io.StringIO()
    try:
        code = semistab.cli.run(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    results.append([code, sys.stdout.getvalue(), sys.stderr.getvalue()])
    sys.stdin, sys.stdout, sys.stderr = sys.__stdin__, out, sys.__stderr__
json.dump(results, out)
"""


def _golden_cases() -> list:
    """`CASES` of `tests/test_cli.py`, read as a literal, so that no test import runs."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["CASES"]:
            return ast.literal_eval(node.value)
    raise SystemExit("tests/test_cli.py defines no CASES list")


def _document(kind: str, payload: dict) -> str:
    return json.dumps({"schema_version": 1, "kind": kind, "payload": payload})


def _identity_form(r: int, check: str, **fields) -> str:
    """A `form-check` document of the identity form at rank r."""
    entries = [[["1"] if a == b else [] for b in range(r)] for a in range(r)]
    form = {"degrees": [0] * r, "symmetry": "symmetric", "entries": entries}
    return _document("form_bundle", {"form": form, "check": check, **fields})


def _fixed_cases() -> list[tuple[str, list[str], str]]:
    """(label, argv, stdin text) of the refusals and the tie that no other case reaches."""
    found = [
        (f"rank-8 walk, {check}", ["form-check"], _identity_form(8, check))
        for check in ("semistable", "ramanathan")
    ]
    # One step of 8 dense degree-1 columns at rank 14: C(14, 8) minors over the cap.
    rng = random.Random(14)
    step = [[[str(rng.randint(-4, 4)), "1"] for _ in range(14)] for _ in range(8)]
    flags = [{"steps": [{"generators": step, "alpha": "1"}]}]
    minors = _identity_form(14, "semistable", flags=flags)
    found.append(("step over the minor cap", ["form-check"], minors))
    # The standard weights at torus rank 8, the point 1 on the first three: unstable.
    basis = [{"label": f"e{a}", "weight": [int(a == b) for b in range(8)]} for a in range(8)]
    rep = {"torus_rank": 8, "basis": basis}
    point = {f"e{a}": "1" for a in range(3)}
    torus = _document("torus_rep", {"rep": rep, "point": point})
    found.append(("unstable torus point at rank 8", ["destabilize"], torus))
    # Rank 1 of 2 and degree 0, with (1, 2) in the profile: mu = 0 and M = 0, a tie.
    member = {"rank": 1, "degree": "0", "hilb": ["1", "1"], "alpha": "1"}
    filtration = {"r": 2, "d": "0", "P": ["2", "2"], "members": [member]}
    profile = {"t": 1, "tuple_len": 2, "tuples": [[1, 2], [2, 2]]}
    entries = [{"filtration": filtration, "profile": profile}] * 2
    tie = _document("dispo", {"entries": entries})
    found.append(("strict tie at entry 0", ["dispo-check", "--strict"], tie))
    return [(f"fixed: {label}", argv, text) for label, argv, text in found]


def cases() -> list[tuple[str, list[str], str, str]]:
    """(label, argv, stdin text, working directory) of every case, in a fixed order."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, instances

    golden = str(ROOT / "tests" / "golden")
    found = [(f"golden {expected}", argv, "", golden) for argv, expected in _golden_cases()]
    strict = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            for index, instance in enumerate(instances(workload, seed)):
                text = json.dumps(instance["doc"]) if instance["doc"] is not None else ""
                label = f"{workload} seed {seed} #{index} {instance['name']}"
                found.append((label, instance["argv"], text, golden))
                if workload == "form-check":
                    strict.append((f"{label} --strict", [*instance["argv"], "--strict"], text, golden))
    fixed = [(label, argv, text, golden) for label, argv, text in _fixed_cases()]
    return found + strict + fixed


def outputs(checkout: Path, found: list) -> list:
    """[exit code, stdout, stderr] of each case, run in one subprocess on `checkout`."""
    src = str((checkout / "src").resolve())
    request = json.dumps([src, [[argv, text, cwd] for _, argv, text, cwd in found]])
    result = subprocess.run(
        [sys.executable, "-c", _CHILD],
        input=request,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    if result.returncode != 0:
        raise SystemExit(f"{checkout}: the cases did not run:\n{result.stderr}")
    return json.loads(result.stdout)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/same_bytes.py PARENT_CHECKOUT", file=sys.stderr)
        return 2
    found = cases()
    parent, here = outputs(Path(argv[0]), found), outputs(ROOT, found)
    differ = [label for (label, *_), a, b in zip(found, parent, here) if a != b]
    for label in differ:
        print(f"differs: {label}")
    print(f"{len(found) - len(differ)} of {len(found)} identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
