"""Self-test of the benchmark's own machinery.

    python3 bench/selftest.py [--seed N]

1. The transformation laws of spacegen.py hold exactly: for every base
   space, one copy that keeps the builtin beta and one that does not are
   written with heatgen.save, read back with heatgen.load, and their
   exact coefficients must equal the ones the laws predict from the
   pinned base values.
2. The count metrics repeat exactly: two traced passes of every workload,
   each in a fresh worker, must give identical counts.

Exits 0 when both hold, 1 otherwise.
"""

from __future__ import annotations

import argparse
import random
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import heatgen  # noqa: E402

import run  # noqa: E402
import spacegen  # noqa: E402


def check_laws(seed: int) -> list[str]:
    problems = []
    (HERE / "out").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=HERE / "out")
    try:
        for base in spacegen.BASES:
            rng = random.Random(f"selftest:{seed}:{base}")
            for beta_kept in (True, False):
                name = f"{base}-{'kept' if beta_kept else 'moved'}"
                order = spacegen.MAX_ORDER[base]
                spec, want = spacegen.draw(rng, base, order, name, beta_kept)
                loaded = heatgen.load(spacegen.write(spec, workdir))
                got = tuple(
                    str(c) for c in heatgen.heat_coefficients(loaded, order).coeffs
                )
                status = "ok" if got == want else "MISMATCH"
                print(f"laws {name} order {order}: {status}")
                if got != want:
                    problems.append(f"{name}: got {got}, laws give {want}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return problems


def check_counts(seed: int) -> list[str]:
    problems = []
    for workload in run.WORKLOADS:
        counts = []
        workdir = tempfile.mkdtemp(prefix="selftest-", dir=HERE / "out")
        try:
            run.workloads.prepare(workload, seed, workdir)
            for _ in range(2):
                result = run.run_worker(workload, seed, workdir, True, None,
                                        run.HARD_LIMIT_S)
                counts.append(
                    run.count_metrics(result["trace"], result["attempted"])
                )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        same = counts[0] == counts[1]
        print(f"counts {workload}: {'repeat' if same else 'DIFFER'} {counts[0]}")
        if not same:
            problems.append(f"{workload}: {counts[0]} vs {counts[1]}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark self-test")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    problems = check_laws(args.seed) + check_counts(args.seed)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
