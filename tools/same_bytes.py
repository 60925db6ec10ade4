"""Compare the command-line bytes of this checkout with those of another one.

    python tools/same_bytes.py PARENT_CHECKOUT

Both checkouts run the same cases through `semistab.cli.run`, each in one
subprocess with its own `src` first on the path:
  * the golden cases of `tests/test_cli.py::CASES`, from `tests/golden`;
  * the documents of `perfbench/workloads.instances(workload, seed)` for every
    workload and seeds 1-5, fed on stdin;
  * every `form-check` workload document again with `--strict`.
The cases are read from this checkout, so both sides get the same inputs.  Each
case's exit code, stdout and stderr are compared; the script prints
"N of N identical" and each case that differs, and exits 1 on any difference.
Nothing under `perfbench/` is changed.
"""

from __future__ import annotations

import ast
import json
import os
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
    return found + strict


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
