"""heatgen benchmark: run one workload for a fixed time and print metrics.

Usage (from the repository root):

    python3 bench/run.py --workload exact-catalog --seed 1 --seconds 30 --trace 0

Workloads: exact-catalog, numeric-oracle, spacefiles (see README.md);
`--workload all` runs the three one after another.
Each pass of the workload runs in a fresh worker process (worker.py),
one after the other, until --seconds have gone by.  Workers run with
BLAS threads pinned to 1.  Every answer is checked against pinned
constants.  Times are the worker's CPU time, scaled to a fixed reference
speed: a pass's times are multiplied by REFERENCE_MS over the mean time
of a fixed computation that the worker ran between its requests (see
README.md).  The same metrics from unscaled wall-clock times are on the
environment line.

For each workload the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones; with --trace 1 passes alternate between traced and
untraced workers and the metrics are the per-layer ones from the traced
passes, plus the tracing overhead.  The line before it records the run
environment and facts about the inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402

WORKLOADS = ("exact-catalog", "numeric-oracle", "spacefiles")
# A run must end within this many seconds whatever --seconds says.
HARD_LIMIT_S = 170.0
# CPU time of the worker's reference computation that scaled times
# assume, in ms: about its median on the 2-vCPU machine the benchmark was
# defined on.
REFERENCE_MS = 40.0

SELF_MS = (
    "catalog.builtin", "series.log", "series.exp", "averaging.average",
    "averaging.numeric_average", "curvature.derive_holonomy",
    "curvature.validate", "curvature.curvature_scalars", "catalog.load",
    "rational.exact_einsum", "invariants.heat_coefficients",
    "invariants.compare", "cli.main",
)
COUNTS = (
    ("series.log", "words"), ("series.exp", "terms_out"),
    ("averaging.average", "moments"),
    ("averaging.numeric_average", "evaluations"),
    ("averaging.numeric_average", "singularity_hits"),
    ("rational.exact_einsum", "calls"),
)
PER_REQUEST = (
    "curvature.derive_holonomy", "curvature.validate",
    "curvature.curvature_scalars",
)
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_worker(workload: str, seed: int, workdir: str, trace: bool,
               spans: Path | None, timeout: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", **{k: "1" for k in BLAS_ENV})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", workdir]
    if trace:
        cmd.append("--trace")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned)], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _passes(workload: str, seed: int, seconds: int, trace: bool,
            workdir: str) -> list[dict]:
    """Run workers back to back for about `seconds`: no pass starts that
    would, by the median pass so far, end more than half a pass late.  A
    traced run alternates traced and untraced workers and makes at least
    three passes (two traced, for the count check, and one untraced, for
    the overhead)."""
    start = time.monotonic()
    min_passes = 3 if trace else 1
    passes: list[dict] = []
    durations: list[float] = []
    while True:
        elapsed = time.monotonic() - start
        if len(passes) >= min_passes and (
            elapsed + statistics.median(durations) / 2 >= seconds
            or elapsed + max(durations) > HARD_LIMIT_S
        ):
            return passes
        traced = trace and len(passes) % 2 == 0
        spans = None
        if traced:
            (HERE / "out").mkdir(exist_ok=True)
            spans = HERE / "out" / f"spans-{workload}-{seed}-{len(passes)}.jsonl"
        begun = time.monotonic()
        result = run_worker(workload, seed, workdir, traced, spans,
                            max(HARD_LIMIT_S - elapsed, 1.0))
        durations.append(time.monotonic() - begun)
        result["traced"] = traced
        passes.append(result)


def _scale(result: dict) -> float:
    """Factor that scales a pass's times to the reference speed."""
    return REFERENCE_MS / statistics.fmean(result["reference_ms"])


def _request_medians(passes: list[dict], wall: bool = False) -> list[float]:
    """Each request's median correct latency over the given passes: CPU
    time scaled to the reference speed, or with wall true, unscaled wall
    time.  A request is the same in every pass, since the seed fixes the
    inputs."""
    out = []
    for per_pass in zip(*(
        [(x, 1.0 if wall else _scale(p))
         for x in p["wall_ms" if wall else "latencies_ms"]]
        for p in passes
    )):
        ok = [x * factor for x, factor in per_pass if x is not None]
        if ok:
            out.append(statistics.median(ok))
    return out


def _end_to_end(passes: list[dict], wall: bool = False) -> dict:
    """End-to-end metrics, from scaled CPU times or, with wall true, from
    unscaled wall-clock times.  ok_per_s is the share of correct answers
    over the mean of the requests' median latencies: the goodput of a
    typical pass."""
    latencies = _request_medians(passes, wall)
    ok = sum(x is not None for p in passes for x in p["latencies_ms"])
    share = ok / sum(p["attempted"] for p in passes)
    setups = [p["setup_wall_s"] if wall else p["setup_s"] * _scale(p)
              for p in passes]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ok_per_s": (share * 1000.0 / statistics.fmean(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_p90_ms": (
            statistics.quantiles(latencies, n=10, method="inclusive")[8], "ms"
        ),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def count_metrics(summary: dict, requests: int) -> dict:
    """Count metrics of one traced pass, named as in BENCHMARK.json."""
    out = {}
    for span, key in COUNTS:
        out[f"{span}.{key}"] = summary.get(span, {}).get(key, 0)
    for span in PER_REQUEST:
        out[f"{span}.calls_per_request"] = (
            summary.get(span, {}).get("calls", 0) / requests
        )
    return out


def _per_layer(passes: list[dict]) -> tuple[dict, bool]:
    """Per-layer metrics from the traced passes, and whether their counts
    repeat exactly from pass to pass."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    counts = [count_metrics(p["trace"], p["attempted"]) for p in traced]
    repeat = all(c == counts[0] for c in counts)
    metrics = {}
    for span in SELF_MS:
        metrics[f"{span}.self_ms"] = (
            statistics.median(
                p["trace"].get(span, {}).get("self_ms", 0.0) * _scale(p)
                for p in traced
            ),
            "ms",
        )
    for name, value in counts[0].items():
        unit = "calls/request" if name.endswith("calls_per_request") else "count"
        metrics[name] = (value, unit)
    with_trace = sum(_request_medians(traced))
    without = sum(_request_medians(untraced))
    metrics["trace.overhead_pct"] = (100.0 * (with_trace - without) / without, "%")
    return metrics, repeat


def report(workload: str, seed: int, seconds: int, trace: bool) -> int:
    """Run one workload and print its environment line and result line."""
    (HERE / "out").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=HERE / "out")
    try:
        begun = time.monotonic()
        workloads.prepare(workload, seed, workdir)
        prepare_s = time.monotonic() - begun
        passes = _passes(workload, seed, seconds, trace, workdir)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wrong = sorted({w for p in passes for w in p["wrong"]})
    overflow = {k: sum(p["overflow_probe"][k] for p in passes)
                for k in ("attempted", "failed", "wrong")}
    info = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {k: "1" for k in BLAS_ENV},
        "python": passes[0]["python"],
        "numpy": passes[0]["numpy"],
        "prepare_s": prepare_s,
        "passes": len(passes),
        "requests_per_pass": passes[0]["attempted"],
        "latency_samples": sum(
            x is not None for p in passes for x in p["latencies_ms"]
        ),
        "wrong": wrong,
        "failed": sorted({f for p in passes for f in p["failed_labels"]}),
        "overflow_probe": overflow,
        **passes[0]["facts"],
    }
    if not info["latency_samples"]:
        print(f"error: {workload}: no request succeeded", file=sys.stderr)
        return 1
    info["reference_ms"] = statistics.median(
        r for p in passes for r in p["reference_ms"]
    )
    if trace:
        metrics, repeat = _per_layer(passes)
        info["counts_repeat"] = repeat
        info["spans_dir"] = str((HERE / "out").relative_to(ROOT))
    else:
        metrics = _end_to_end(passes)
        info["wall_clock"] = {
            k: v for k, (v, _) in _end_to_end(passes, wall=True).items()
        }
    print(json.dumps(info))
    result = {
        "correct": not wrong and not overflow["wrong"],
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "heatgen" / "__init__.py").is_file():
        print(f"error: no heatgen sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    codes = [report(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
