"""The benchmark's workloads: seeded CLI requests with answer checks.

A workload turns a seed into a list of Requests and a dict of facts
about the inputs.  Each request is the
argument list of one `heatgen` command line and a check of its exit code
and standard output against pinned constants.  Why each workload exists
is written in README.md next to this file.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import expected

# Space and order of every exact-catalog request.  S6 is left out: its
# order 3 takes about a minute and order 4 exceeds the word budget.
EXACT_CATALOG = (("S2", 6), ("S3", 6), ("S2xS2", 6), ("S2xS3", 4),
                 ("S4", 4), ("S5", 3))
# numeric-oracle requests: Monte Carlo evals, quadrature evals, compares.
MC_EVALS = (("S4", 0.05), ("S2xS3", 0.05), ("S2xS3", 0.1))
QUADRATURE_EVALS = (("S3", 0.05), ("S3", 0.1))
COMPARES = (("S3", 4, "0.05,0.1"), ("S2xS2", 6, "0.05"))
# Order of the pinned series that numeric values are checked against.
NUMERIC_ORDER = {"S3": 6, "S4": 4, "S2xS3": 4}
SPACEFILES_COUNT = 120
# One probe file per 20 timed files, with the metric scaled by 3^40.
PROBE_COUNT = SPACEFILES_COUNT // 20


@dataclass(frozen=True)
class Request:
    """One CLI invocation and the check of its (exit code, stdout)."""

    label: str
    argv: tuple[str, ...]
    check: Callable[[int, str], bool]


def _coeffs_ok(space: str, order: int, want, checks: int | None = None):
    want = list(want)

    def check(code: int, out: str) -> bool:
        doc = json.loads(out)
        passed = [c["pass"] for c in doc["checks"]]
        return (
            code == 0
            and doc["space"] == space
            and doc["order"] == order
            and doc["a"] == want
            and all(passed)
            and (checks is None or len(passed) == checks)
        )

    return check


def _numeric_ok(space: str, t: float, method: str, sigmas: float, slack: float):
    """Value within `sigmas` standard errors plus the truncation remainder
    (the last pinned term) plus `slack` of the pinned series."""
    order = NUMERIC_ORDER[space]
    series = expected.series_value(space, order, t)
    remainder = abs(float(expected.coeffs(space, order)[order])) * t**order

    def check(code: int, out: str) -> bool:
        doc = json.loads(out)
        value, err = float(doc["value"]), float(doc["std_error"])
        return (
            code == 0
            and doc["space"] == space
            and doc["method"] == method
            and abs(value - series) <= sigmas * err + remainder + slack
        )

    return check


def _exact_catalog(seed: int, workdir):
    items = list(EXACT_CATALOG)
    random.Random(f"exact-catalog:{seed}").shuffle(items)
    return [
        Request(f"coeffs {space} o{order}",
                ("coeffs", space, "--order", str(order), "--json"),
                _coeffs_ok(space, order, expected.PINNED[space][: order + 1], 4))
        for space, order in items
    ], {}


def _numeric_oracle(seed: int, workdir):
    rng = random.Random(f"numeric-oracle:{seed}")
    out = []
    for space, t in MC_EVALS:
        mc_seed = rng.randrange(2**32)
        out.append(Request(
            f"eval mc {space} t={t}",
            ("eval", space, "--t", str(t), "--method", "mc",
             "--seed", str(mc_seed), "--json"),
            _numeric_ok(space, t, "mc", 6.0, 1e-12)))
    for space, t in QUADRATURE_EVALS:
        # Same tolerance as heatgen's own compare for quadrature.
        out.append(Request(
            f"eval quadrature {space} t={t}",
            ("eval", space, "--t", str(t), "--method", "quadrature", "--json"),
            _numeric_ok(space, t, "quadrature", 10.0, 1e-8)))
    for space, order, grid in COMPARES:
        out.append(Request(
            f"compare {space} o{order}",
            ("compare", space, "--order", str(order), "--t", grid,
             "--method", "quadrature", "--json"),
            _coeffs_ok(space, order, expected.PINNED[space][: order + 1])))
    rng.shuffle(out)
    return out, {}


def _file_requests(files) -> list[Request]:
    return [
        Request(f"coeffs file {f.base} o{f.order}",
                ("coeffs", f.path, "--order", str(f.order), "--json"),
                _coeffs_ok(f.name, f.order, f.expected, 4))
        for f in files
    ]


MANIFEST = "spacefiles.json"


def prepare(workload: str, seed: int, workdir) -> None:
    """Write the inputs that a workload reads from files into `workdir`,
    once per run, before any pass: the seeded space files of spacefiles,
    the overflow probe files and a manifest of both with their expected
    answers.  The other workloads need no files."""
    if workload != "spacefiles":
        return
    import spacegen

    manifest = {
        "files": spacegen.generate(seed, SPACEFILES_COUNT, workdir),
        "overflow": spacegen.generate(seed, PROBE_COUNT, workdir,
                                      big_mu=True, tag="big"),
    }
    with open(Path(workdir) / MANIFEST, "w") as fh:
        json.dump({k: [asdict(f) for f in v] for k, v in manifest.items()}, fh)


def _manifest(workdir, key: str) -> list:
    """The SpaceFiles that prepare() listed under `key`."""
    from spacegen import SpaceFile

    with open(Path(workdir) / MANIFEST) as fh:
        return [SpaceFile(**{**f, "expected": tuple(f["expected"])})
                for f in json.load(fh)[key]]


def _spacefiles(seed: int, workdir):
    files = _manifest(workdir, "files")
    return _file_requests(files), {
        "beta_shared_frac": sum(f.beta_kept for f in files) / len(files)
    }


def overflow_probe(seed: int, workdir) -> list[Request]:
    """Space files whose metric is scaled by 3^40: valid data on which the
    exact path's int64 arithmetic overflows.  Run untimed beside
    spacefiles, so the defect stays visible without any timed request
    failing."""
    return _file_requests(_manifest(workdir, "overflow"))


WORKLOADS = {
    "exact-catalog": _exact_catalog,
    "numeric-oracle": _numeric_oracle,
    "spacefiles": _spacefiles,
}
