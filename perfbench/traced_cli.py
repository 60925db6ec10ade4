"""`python -m semistab ARGS`, with the per-layer spans of tracing.py around it.

Usage: python perfbench/traced_cli.py TRACE.json ARGS...

Writes the CLI's stdout and stderr unchanged, exits with its exit code,
and writes the span and count summary of the one invocation to TRACE.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import semistab.cli  # noqa: E402

import tracing  # noqa: E402


def main(argv):
    trace_path, args = argv[0], argv[1:]
    tracer = tracing.Tracer()
    tracer.install()
    start = perf_counter()
    try:
        code = semistab.cli.run(args)
    finally:
        elapsed = perf_counter() - start
        tracer.uninstall()
    Path(trace_path).write_text(json.dumps({"run_s": elapsed, **tracer.summary()}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
