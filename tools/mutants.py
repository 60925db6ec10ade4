"""Mutation probe: apply hand-made mutants of rule code, one at a time, to a copy of
the repository, run `pytest -x tests` on each copy and print killed or survived.

A mutant is (file, old text, new text); the old text must occur exactly once in the
file.  A mutant is killed when the test run fails.  The unmutated copy is run first
and must pass, or every mutant would read killed.  Every run stops at its first
failure, so a pass costs a full run (about 1.5 minutes on two CPUs).  This script is
not part of the tier-1 suite; `.github/workflows/mutants.yml` runs it weekly, on
demand and on pull requests that touch the package, the tests or this file, and fails
on a survivor.

    python tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[1]
CLASSICAL = "src/semistab/classical.py"

MUTANTS = [
    (
        CLASSICAL,
        "least = 2 * t + 2  # (t + 1, t + 1): Phi is nonzero",
        "least = 2 * t + 1  # (t + 1, t + 1): Phi is nonzero",
    ),
    (CLASSICAL, "if reach[s] & masks[j]:", "if reach[s] & masks[i]:"),
    (
        CLASSICAL,
        "- 2 * sum(map(int.bit_count, chain))",
        "- sum(map(int.bit_count, chain))",
    ),
    # The walk order and the tables of the bitmask walk.
    (CLASSICAL, "for size in range(1, len(free))", "for size in range(1, len(free) + 1)"),
    (
        CLASSICAL,
        "yield longer\n            yield from extend(longer, u)",
        "yield from extend(longer, u)\n            yield longer",
    ),
    (CLASSICAL, "k = low.bit_length() - 1", "k = s.bit_length() - 1"),
    (CLASSICAL, "if ranks and k <= ranks[-1]:", "if ranks and k < ranks[-1]:"),
    (CLASSICAL, "return basis, k == len(pivots)", "return basis, True"),
    (
        CLASSICAL,
        "for j in range(i, t + 1):\n            if any(not _dot(",
        "for j in range(i + 1, t + 1):\n            if any(not _dot(",
    ),
    (CLASSICAL, "- (minor.degree - content.degree)", "- minor.degree"),
    (
        CLASSICAL,
        "price += 25 * (r - k) * sum(stages)",
        "price += 50 * 25 * (r - k) * sum(stages)",
    ),
    (
        "src/semistab/dispo.py",
        "if sign < 0 or (strict and sign == 0):",
        "if sign < 0 or (strict and sign == 0 and index > 0):",
    ),
    (
        "src/semistab/hilbert_mumford.py",
        "best = min(best, (value, primitive_vector(vec)))",
        "best = (value, primitive_vector(vec))",
    ),
    (
        "src/semistab/feasibility.py",
        "(ratio == best and basis[i] < basis[leave])",
        "(ratio == best and basis[i] > basis[leave])",
    ),
    (
        "src/semistab/_polyalg.py",
        "if vector[free].leading < 0:",
        "if vector[free].leading > 0:",
    ),
    (
        CLASSICAL,
        "for subset in combinations(rows, len(basis))",
        "for subset in combinations(range(len(rows)), len(basis))",
    ),
    (CLASSICAL, "rows = _nonzero_rows(columns, r)", "rows = _nonzero_rows(step.columns, r)"),
    (
        CLASSICAL,
        "return sum(model.summand_degrees[a] for a in rows)",
        "return sum(model.summand_degrees[a] for a in range(len(rows)))",
    ),
    (CLASSICAL, "if minors > 1:", "if minors > 0:"),
    (CLASSICAL, "for l in range(k, r):", "for l in range(k + 1, r):"),
    (CLASSICAL, "(-entry if antisymmetric else entry)", "(entry if antisymmetric else -entry)"),
    # Each error path below is reachable from the command line.
    (CLASSICAL, 'raise MalformedFlag("alpha must be positive")', "pass"),
    (CLASSICAL, 'raise NotCoordinateFlag("generator column has the wrong length")', "pass"),
    (
        "src/semistab/flags.py",
        'raise MalformedFiltration(f"weights must sum to zero: {weights}")',
        "pass",
    ),
    # Past the kernel rule both checks share one sign, checked against fact B.
    (CLASSICAL, "if kernel_rule and mu < 0:", "if False:"),
    (CLASSICAL, "1 if mu else l", "mu or l"),
    (
        CLASSICAL,
        "if found_mu != mu or (l is not None and found_l != l):",
        "if found_mu != mu:",
    ),
    # Only a non-strict check on the trivial model skips the walk.
    (
        CLASSICAL,
        "if not strict and not any(fb.model.summand_degrees):",
        "if not any(fb.model.summand_degrees):",
    ),
    (
        CLASSICAL,
        "if not strict and not any(fb.model.summand_degrees):",
        "if not strict:",
    ),
]


def _copy(workdir: Path) -> Path:
    tree = workdir / "tree"
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, tree / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", tree / "pyproject.toml")
    return tree


def _apply(tree: Path, path: str, old: str, new: str) -> None:
    target = tree / path
    text = target.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{path}: {old!r} occurs {text.count(old)} times, not once")
    target.write_text(text.replace(old, new))


def tests_fail(mutant: Optional[tuple[str, str, str]] = None) -> bool:
    """Whether `pytest -x tests` fails on a copy of the repository, with the mutant
    (file, old text, new text) applied when one is given."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as workdir:
        tree = _copy(Path(workdir))
        if mutant:
            _apply(tree, *mutant)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"]
        result = subprocess.run(command, cwd=tree, env=env, capture_output=True)
        return result.returncode != 0


def main() -> int:
    if tests_fail():
        print("the unmutated tree fails `pytest -x tests`; no mutant can be judged")
        return 2
    survivors = 0
    for path, old, new in MUTANTS:
        verdict = "killed" if tests_fail((path, old, new)) else "survived"
        survivors += verdict == "survived"
        print(f"{path}: {old!r} -> {new!r}: {verdict}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
