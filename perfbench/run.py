"""The semistab benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: form-check, torus, dispo (one long-lived worker process sends
every instance document through `semistab.cli.run`) and cli-cold (one
`python -m semistab` process per instance, one at a time).  Load comes
from one process with one thread.  See perfbench/README.md.

Each run times SETUP_LAUNCHES fresh interpreters that import `semistab`
(half before the workload, half after), repeats the workload's fixed
instance list in rounds for about S seconds (speed.another_round), checks
every output with checkers.py (which shares no code with `semistab`), and
prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1,
untraced and traced rounds alternate and the metrics are the per-layer
ones of tracing.py, per round.  A run exits 2 without a result when the
checkout has no `src/semistab`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checkers  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_LAUNCHES = 6
DEADLINE_S = 170
SELF_TIME_TOLERANCE = 0.01

END_TO_END = (
    ("instances_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("large_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    [("process.python_start_ms", "ms"), ("import.semistab_ms", "ms"), ("import.sympy_ms", "ms")]
    + [(f"{bucket}_ms", "ms/round") for bucket in tracing.BUCKETS]
    + [(name, "count/round") for name in tracing.COUNTS]
    + [(f"{prefix}_{kind}", "count/round") for _, prefix in tracing.CACHES for kind in ("hits", "misses")]
    + [("trace.instances", "count/round"), ("trace.instance_ms", "ms/round"), ("trace.overhead_s", "s/round")]
    + [("machine.probe_ms", "ms")]
)


class ChildFailed(Exception):
    pass


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd, timeout):
    """(exit code, wall seconds, rusage, stdout, stderr) of one child process."""
    out_path, err_path = OUT / "child.out", OUT / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT, env=_env()
        )
        timer = threading.Timer(max(timeout, 1), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage, out_path.read_text(), err_path.read_text()


def import_times(stderr):
    """Cumulative `-X importtime` milliseconds of semistab and of sympy."""
    cumulative = {}
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            cumulative.setdefault(fields[2].strip(), int(fields[1]) / 1000)
    return cumulative.get("semistab", 0.0), cumulative.get("sympy", 0.0)


def probe_import(deadline):
    """Fail unless a fresh interpreter imports semistab from this checkout."""
    probe = "import semistab; print(semistab.__file__)"
    code, _, _, out, err = run_child([sys.executable, "-c", probe], deadline - perf_counter())
    if code != 0 or Path(out.strip()).resolve().parent != SRC / "semistab":
        raise ChildFailed(f"semistab does not import from {SRC}: {err.strip()[-300:]}")


def setup_launches(trace, count, deadline):
    """(wall s, semistab import ms, sympy import ms) of fresh `import semistab`
    runs, each at reference speed."""
    flags = ["-X", "importtime"] if trace else []
    launches = []
    before = speed.probe()
    for _ in range(count):
        code, wall, _, _, err = run_child(
            [sys.executable, *flags, "-c", "import semistab"], deadline - perf_counter()
        )
        if code != 0:
            raise ChildFailed(f"import semistab failed: {err.strip()[-300:]}")
        after = speed.probe()
        factor = speed.scale(1.0, [before, after])
        launches.append((wall * factor, *(ms * factor for ms in import_times(err))))
        before = after
    return launches


def setup_metrics(trace, launches):
    if not trace:
        return {"setup_s": statistics.median(wall for wall, _, _ in launches)}
    return {
        "process.python_start_ms": statistics.median(w * 1000 - s for w, s, _ in launches),
        "import.semistab_ms": statistics.median(s for _, s, _ in launches),
        "import.sympy_ms": statistics.median(y for _, _, y in launches),
    }


def run_worker(workload, seed, instances, seconds, trace, deadline):
    """Rounds in one long-lived process (worker.py)."""
    stem = OUT / f"{workload}-{seed}-trace{int(trace)}"
    inst_path, result_path = Path(f"{stem}-instances.json"), Path(f"{stem}-worker.json")
    inst_path.write_text(json.dumps(instances))
    result_path.unlink(missing_ok=True)
    code, _, _, _, err = run_child(
        [sys.executable, str(HERE / "worker.py"), str(inst_path), str(result_path), str(seconds), str(int(trace))],
        deadline - perf_counter(),
    )
    if code != 0 or not result_path.exists():
        raise ChildFailed(f"worker exited {code}: {err.strip()[-500:]}")
    result = json.loads(result_path.read_text())
    return result["rounds"], result["outputs"], result["stderr"], result["peak_rss_kb"]


def run_cold(instances, seconds, trace, deadline):
    """Rounds of one fresh `python -m semistab` process per instance."""
    paths = []
    for i, inst in enumerate(instances):
        path = OUT / f"cold-{i}.json"
        if inst["doc"] is not None:
            path.write_text(json.dumps(inst["doc"]))
        paths.append(path)
    trace_path = OUT / "cold-trace.json"
    rounds, outputs, errors, peak_kb = [], None, None, 0
    begin = perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        record = {"traced": traced, "codes": [], "raw_times": [], "times": [], "mismatches": 0}
        totals = {"self_s": dict.fromkeys(tracing.BUCKETS, 0.0), "counts": {}, "run_s": 0.0}
        this_round, probes = [], [speed.probe()]
        for inst, path in zip(instances, paths):
            args = list(inst["argv"]) + (["--input", str(path)] if inst["doc"] is not None else [])
            if traced:
                cmd = [sys.executable, str(HERE / "traced_cli.py"), str(trace_path), *args]
            else:
                cmd = [sys.executable, "-m", "semistab", *args]
            code, wall, usage, out, err = run_child(cmd, deadline - perf_counter())
            probes.append(speed.probe())
            record["codes"].append(code)
            record["raw_times"].append(wall)
            record["times"].append(speed.scale(wall, probes[-2:]))
            this_round.append((out, err))
            if not traced:
                peak_kb = max(peak_kb, usage.ru_maxrss)
            if traced and code == 0:
                summary = json.loads(trace_path.read_text())
                totals["run_s"] += summary["run_s"]
                for bucket, value in summary["self_s"].items():
                    totals["self_s"][bucket] += value
                for name, value in summary["counts"].items():
                    totals["counts"][name] = totals["counts"].get(name, 0) + value
        if outputs is None:
            outputs, errors = [o for o, _ in this_round], [e for _, e in this_round]
        else:
            record["mismatches"] = sum(o != b for (o, _), b in zip(this_round, outputs))
        record["probes"] = probes
        if traced:
            record.update(totals)
        rounds.append(record)
        if not speed.another_round(perf_counter() - begin, len(rounds), seconds):
            break
    return rounds, outputs, errors, peak_kb


def check_outputs(instances, rounds, outputs, errors):
    """Failed operations, and problems with the outputs of the others."""
    failed = sum(code != 0 for r in rounds for code in r["codes"])
    problems = []
    for i, (inst, out) in enumerate(zip(instances, outputs)):
        if rounds[0]["codes"][i] != 0:
            print(f"failed: {inst['name']}: {errors[i].strip()[-300:]}", file=sys.stderr)
            continue
        try:
            checkers.check(inst, out)
        except (checkers.Mismatch, KeyError, TypeError, ValueError) as exc:
            problems.append(f"{inst['name']}: {exc!r}")
    mismatches = sum(r["mismatches"] for r in rounds)
    if mismatches:
        problems.append(f"{mismatches} outputs differ from the first round")
    return failed, problems


def end_to_end(instances, rounds, setup, peak_kb):
    times = [t for r in rounds for t in r["times"]]
    large = [t for r in rounds for t, inst in zip(r["times"], instances) if inst["large"]]
    round_s = statistics.median(sum(r["times"]) for r in rounds)
    return {
        "instances_per_s": len(instances) / round_s,
        "latency_p50_ms": statistics.median(times) * 1000,
        "large_p50_ms": statistics.median(large) * 1000,
        "setup_s": setup["setup_s"],
        "peak_rss_mb": peak_kb / 1024,
    }


def per_layer(instances, rounds, setup, problems):
    traced = [r for r in rounds if r["traced"]]
    # The first round also pays one-off warm-up; leave it out when possible.
    untraced = [r for r in rounds if not r["traced"]][1:] or [rounds[0]]
    metrics = dict(setup)
    for r in traced:
        # In-process time: cli.run as the worker or traced_cli.py timed it.
        run_s = r.get("run_s", sum(r["raw_times"]))
        self_sum = sum(r["self_s"].values())
        if abs(run_s - self_sum) > SELF_TIME_TOLERANCE * run_s:
            problems.append(f"layer self times sum to {self_sum:.4f} s, instances took {run_s:.4f} s")
    # Self times at reference speed, with the round's own speed factor.
    factors = [sum(r["times"]) / sum(r["raw_times"]) for r in traced]
    for bucket in tracing.BUCKETS:
        metrics[f"{bucket}_ms"] = statistics.median(
            r["self_s"][bucket] * f * 1000 for r, f in zip(traced, factors)
        )
    for name, value in traced[0]["counts"].items():
        metrics[name] = value
    if any(r["counts"] != traced[0]["counts"] for r in traced):
        problems.append("counts differ between traced rounds")
    traced_s = statistics.median(sum(r["times"]) for r in traced)
    metrics["trace.instances"] = len(instances)
    metrics["trace.instance_ms"] = traced_s * 1000
    metrics["trace.overhead_s"] = traced_s - statistics.median(sum(r["times"]) for r in untraced)
    metrics["machine.probe_ms"] = statistics.median(p for r in rounds for p in r["probes"]) * 1000
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "semistab" / "__init__.py").is_file():
        print(f"error: no semistab sources under {SRC}", file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    # One CPU for this process and every child, so that the speed probes
    # measure the CPU the work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    trace = bool(args.trace)
    instances = workloads.instances(args.workload, args.seed)
    try:
        probe_import(deadline)
        # Half the set-up launches before the workload and half after, so
        # that their median is less tied to one moment's machine load.
        launches = setup_launches(trace, SETUP_LAUNCHES // 2, deadline)
        if args.workload == "cli-cold":
            rounds, outputs, errors, peak_kb = run_cold(instances, args.seconds, trace, deadline)
        else:
            rounds, outputs, errors, peak_kb = run_worker(
                args.workload, args.seed, instances, args.seconds, trace, deadline
            )
        launches += setup_launches(trace, SETUP_LAUNCHES - SETUP_LAUNCHES // 2, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed, problems = check_outputs(instances, rounds, outputs, errors)
    if trace:
        metrics = per_layer(instances, rounds, setup_metrics(trace, launches), problems)
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end(instances, rounds, setup_metrics(trace, launches), peak_kb)
        units = dict(END_TO_END)
    for problem in problems[:20]:
        print(f"incorrect: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(instances) * len(rounds),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    stem = OUT / f"{args.workload}-{args.seed}-trace{args.trace}"
    Path(f"{stem}-result.json").write_text(json.dumps({"rounds": rounds, **result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
