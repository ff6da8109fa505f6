"""One pass of a workload, in a fresh Python process.

run.py starts one worker per pass, so heatgen's in-process memos start
empty in every pass, as they do for each `heatgen` command a user runs.
The worker imports heatgen from src/, builds its inputs from the seed,
runs every request through heatgen.cli.main in-process with stdout
captured, checks each answer and prints one JSON summary line.

Times are CPU time of the worker process (time.process_time, all its
threads), with wall-clock times beside them.  Right after set-up,
between requests at most every REFERENCE_EVERY_S seconds of request
time, and after the last request, the worker also times a fixed
reference computation; run.py scales the pass's times by the mean of
these timings, to a fixed reference speed.

Usage: python3 bench/worker.py --workload NAME --seed N --workdir DIR
       --spawned-at T [--trace] [--spans PATH]
where DIR holds the inputs that workloads.prepare() wrote for the run and
T is the time.monotonic() reading taken just before the process was
started, so that wall-clock set-up covers interpreter start, imports and
reading the inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Least request CPU time between two timings of the reference.
REFERENCE_EVERY_S = 1.0


def _reference_work() -> None:
    """A fixed mix of integer steps and small exact-rational dict
    updates.  The mix tracked heatgen's speed under the host's load better
    than either part alone."""
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    table: dict = {}
    for i in range(3_000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, Fraction(0)) + (
            Fraction(i % 7 + 1, i % 5 + 1) * Fraction(3, i % 11 + 1)
        )


def reference_ms() -> float:
    """Median of three CPU timings of the reference work, in ms.  The
    garbage collector is off meanwhile and the work runs no heatgen code,
    so heatgen's state in the process does not change its speed; the
    CPU's speed at that moment does."""
    times = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            start = time.process_time()
            _reference_work()
            times.append(time.process_time() - start)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(times) * 1000.0


def _run(cli, request) -> tuple[str, float, float]:
    """Run one request; return its outcome ('ok', 'wrong' or 'failed'),
    its CPU time and its wall time, in seconds."""
    out, err = io.StringIO(), io.StringIO()
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(request.argv))
    except Exception:  # a traceback a CLI user would see: count it
        code = None
    cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    if code is None:
        return "failed", cpu, wall
    try:
        ok = request.check(code, out.getvalue())
    except (ValueError, KeyError, TypeError):
        ok = False
    if ok:
        return "ok", cpu, wall
    return ("failed" if code != 0 else "wrong"), cpu, wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy
    import heatgen.cli as cli

    import workloads

    requests, facts = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    overflow = (workloads.overflow_probe(args.seed, args.workdir)
                if args.workload == "spacefiles" else [])
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    setup_s = time.process_time()
    setup_wall_s = time.monotonic() - args.spawned_at

    refs = [reference_ms()]
    since_ref = 0.0
    outcomes, latencies_ms, wall_ms = [], [], []
    for index, request in enumerate(requests):
        if since_ref >= REFERENCE_EVERY_S:
            refs.append(reference_ms())
            since_ref = 0.0
        if tracer is not None:
            tracer.request = index
        outcome, cpu, wall = _run(cli, request)
        outcomes.append((request.label, outcome))
        since_ref += cpu
        latencies_ms.append(cpu * 1000.0 if outcome == "ok" else None)
        wall_ms.append(wall * 1000.0 if outcome == "ok" else None)
    refs.append(reference_ms())
    summary = tracer.summary() if tracer is not None else None
    if tracer is not None and args.spans:
        tracer.write(args.spans)
    # Untimed, after the pass: the known int64 overflow on huge metrics.
    overflow_outcomes = [_run(cli, r)[0] for r in overflow]

    result = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "latencies_ms": latencies_ms,
        "wall_ms": wall_ms,
        "reference_ms": refs,
        "attempted": len(outcomes),
        "failed": sum(o != "ok" for _, o in outcomes),
        "wrong": [label for label, o in outcomes if o == "wrong"],
        "failed_labels": [label for label, o in outcomes if o == "failed"],
        "overflow_probe": {
            "attempted": len(overflow_outcomes),
            "failed": overflow_outcomes.count("failed"),
            "wrong": overflow_outcomes.count("wrong"),
        },
        "facts": facts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": summary,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
