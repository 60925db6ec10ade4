"""Run one workload's instance list through `semistab.cli.run` in this process.

Usage: python perfbench/worker.py INSTANCES.json RESULT.json SECONDS TRACE

After one untimed pass over the small instances, rounds repeat the whole
instance list (speed.another_round decides how often).  Each round
starts with every `semistab` functools cache emptied, so each round is
the batch a fresh batch process would see, with imports already done.
The first round's outputs are kept; later rounds must reproduce them
byte for byte.

A timer signal takes a speed probe (speed.py) every PROBE_INTERVAL_S,
also in the middle of a long instance; an instance's time leaves out the
probes that ran inside it and is scaled by the mean of the probes
before, inside and just after it.  With TRACE = 1, untraced and traced
rounds alternate.
"""

from __future__ import annotations

import io
import json
import resource
import signal
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(HERE))

import semistab.cli  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402

PROBE_INTERVAL_S = 0.25


def run_instance(argv, text):
    """(exit code, stdout, stderr, seconds) of one `semistab` invocation."""
    stdin, stdout, stderr = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), io.StringIO(), io.StringIO()
    try:
        start = perf_counter()
        try:
            code = semistab.cli.run(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        elapsed = perf_counter() - start
        return code, sys.stdout.getvalue(), sys.stderr.getvalue(), elapsed
    finally:
        sys.stdin, sys.stdout, sys.stderr = stdin, stdout, stderr


class Probes:
    """Speed probes in time order, with their total duration.

    As a context manager, takes one every PROBE_INTERVAL_S from SIGALRM;
    ``tracer`` is told about each, so no span counts a probe as its own.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.times = []
        self.total_s = 0.0
        self._busy = False

    def take(self, *_signal_args):
        if self._busy:  # a timer signal inside a probe: skip it
            return
        self._busy = True
        try:
            seconds = speed.probe()
        finally:
            self._busy = False
        self.times.append(seconds)
        self.total_s += seconds
        self.tracer.exclude(seconds)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_round(instances, texts, traced):
    """Results of one round and its record, times at reference speed."""
    tracing.clear_caches()
    tracer = tracing.Tracer()
    probes = Probes(tracer)
    probes.take()
    # Per instance: index of its first probe, index of the first probe
    # after it, and the seconds the probes inside it took.
    spans, results = [], []
    if traced:
        tracer.install()
    try:
        with probes:
            for inst, text in zip(instances, texts):
                n, before_s = len(probes.times), probes.total_s
                results.append(run_instance(inst["argv"], text))
                spans.append((n, len(probes.times), probes.total_s - before_s))
    finally:
        tracer.uninstall()
    probes.take()
    raw, times = [], []
    for (_, _, _, elapsed), (first, after, inside_s) in zip(results, spans):
        seconds = elapsed - inside_s
        raw.append(seconds)
        times.append(speed.scale(seconds, probes.times[first - 1 : after + 1]))
    record = {
        "traced": traced,
        "codes": [r[0] for r in results],
        "raw_times": raw,
        "times": times,
        "probes": probes.times,
        "mismatches": 0,
    }
    if traced:
        record.update(tracer.summary())
    return results, record


def main(argv):
    instances_path, result_path, seconds, trace = argv
    seconds, trace = float(seconds), trace == "1"
    if Path(semistab.__file__).resolve().parent != SRC / "semistab":
        print(f"semistab imported from {semistab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    instances = json.loads(Path(instances_path).read_text())
    texts = [json.dumps(i["doc"]) if i["doc"] is not None else "" for i in instances]
    # One untimed pass over the small instances finishes lazy set-up in the
    # libraries (first-call imports, specialisation), which a long batch
    # pays once; the timed rounds then all start from the same state.
    for inst, text in zip(instances, texts):
        if not inst["large"]:
            run_instance(inst["argv"], text)
    outputs, errors, rounds = None, None, []
    begin = perf_counter()
    while True:
        results, record = run_round(instances, texts, trace and len(rounds) % 2 == 1)
        if outputs is None:
            outputs = [r[1] for r in results]
            errors = [r[2] for r in results]
        else:
            record["mismatches"] = sum(r[1] != o for r, o in zip(results, outputs))
        rounds.append(record)
        if not speed.another_round(perf_counter() - begin, len(rounds), seconds):
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(result_path).write_text(
        json.dumps({"rounds": rounds, "outputs": outputs, "stderr": errors, "peak_rss_kb": peak_kb})
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
