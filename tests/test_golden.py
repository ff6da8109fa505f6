"""Byte-identity of the CLI's exact output against committed golden data.

tests/data/golden_coeffs.json holds the stdout of `coeffs --json` for
every builtin at the benchmark's exact-catalog orders plus S6 order 3,
flat3 order 4 and S2 order 0, and of `validate --json` for every builtin
(its `scalars` line carries R, R_H and R_G).  Every coefficient and check
detail must come out byte for byte the same.  Regenerate the file only
when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from heatgen.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden_coeffs.json"

COEFFS = (("S2", 6), ("S3", 6), ("S2xS2", 6), ("S2xS3", 4), ("S4", 4),
          ("S5", 3), ("S6", 3), ("flat3", 4), ("S2", 0))
BUILTINS = ("S2", "S3", "S4", "S5", "S6", "S2xS2", "S2xS3", "flat3")
CASES = tuple(
    ("coeffs", name, "--order", str(order), "--json")
    for name, order in COEFFS
) + tuple(("validate", name, "--json") for name in BUILTINS)


def run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def _golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_output_matches_golden_bytes(argv):
    want = _golden()[" ".join(argv)]
    code, out = run(argv)
    assert code == want["exit"]
    assert out == want["stdout"]


def test_golden_covers_every_case():
    assert set(_golden()) == {" ".join(argv) for argv in CASES}


if __name__ == "__main__":
    doc = {}
    for argv in CASES:
        code, out = run(argv)
        doc[" ".join(argv)] = {"exit": code, "stdout": out}
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
