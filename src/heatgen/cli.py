"""Command line interface.

Subcommands: catalog, validate, coeffs, eval, compare.  A space argument
is either a builtin name (S2..S6, S2xS2, S2xS3, flat3 or flat(3)) or a
path to a space file.  Exit codes: 0 success, 1 validation or check
failure, 2 usage error.  Exact coefficients always print as rational
strings; floats appear only in numeric output, with 17 significant
digits.  Output is deterministic for a fixed seed; timings are only
emitted under --timing.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import catalog as cat
from .averaging import numeric_average
from .curvature import prepare
from .errors import (
    HeatgenError,
    InvalidTime,
    NonPositiveT,
    UnknownSpace,
    ValidationError,
    check_time,
)
from .invariants import compare, heat_coefficients
from .rational import format_rational

# Usage errors exit 2.  Library-level misuse (a quadrature grid above the
# limit on the torus, negative order, ...) raises ValueError, and
# unreadable files OSError; both are usage errors at the CLI surface too.
_USAGE_ERRORS = (UnknownSpace, NonPositiveT, InvalidTime, ValueError, OSError)


def _resolve_space(token: str):
    """A builtin by name, else a space file.  Neither is validated here:
    the library function each command calls validates it exactly once."""
    try:
        return cat.builtin(token)
    except UnknownSpace:
        if os.path.exists(token):  # unlike Path.exists, False on OSError
            return cat.load(token)
        raise


def _positive_int(text: str) -> int:
    """argparse type of --budget: a positive integer.  A non-integer gets
    the message argparse gives type=int."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value}"
        )
    return value


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def _checks_json(checks) -> list[dict]:
    return [
        {"name": c.name, "pass": c.passed, "detail": c.detail} for c in checks
    ]


def _emit_report(report, args) -> None:
    checks = report.validation.checks + report.checks
    timing = report.timing_ms if args.timing else None
    if args.json:
        doc = {
            "space": report.space,
            "order": report.order,
            "a": [format_rational(c) for c in report.coeffs],
            "checks": _checks_json(checks),
            "timing_ms": timing,
        }
        print(json.dumps(doc, indent=2))
        return
    print(f"space {report.space}, order {report.order}")
    for k, c in enumerate(report.coeffs):
        print(f"a_{k} = {format_rational(c)}")
    for c in checks:
        mark = "PASS" if c.passed else "FAIL"
        print(f"[{mark}] {c.name}: {c.detail}")
    if timing is not None:
        print(f"timing_ms = {timing:.3f}")


def _cmd_catalog(args) -> int:
    for name in cat.catalog_names():
        if name == "flat(n)":
            print(f"flat(n)   flat space, n in 1..{cat.MAX_FLAT}, e.g. flat3")
            continue
        spec = cat.builtin(name)
        print(f"{name:7s}  n={spec.n} p={spec.p}")
    return 0


def _cmd_validate(args) -> int:
    # A failed check is this command's report, not an error.
    spec = _resolve_space(args.space)
    try:
        prep = prepare(spec)
    except ValidationError as exc:
        report, detail_extra = exc.report, None
    else:
        report, curv = prep.validation, prep.curv
        detail_extra = ", ".join(
            f"{name} = {format_rational(value)}"
            for name, value in (
                ("R", curv.R), ("R_H", curv.R_H), ("R_G", curv.R_G)
            )
        )
    if args.json:
        doc = {
            "space": spec.name,
            "order": None,
            "a": [],
            "checks": _checks_json(report.checks),
            "timing_ms": None,
        }
        if detail_extra:
            doc["scalars"] = detail_extra
        print(json.dumps(doc, indent=2))
    else:
        print(f"space {spec.name}: n={spec.n}, p={spec.p}")
        for c in report.checks:
            mark = "PASS" if c.passed else "FAIL"
            print(f"[{mark}] {c.name}: {c.detail}")
        if detail_extra:
            print(detail_extra)
    return 0 if report.all_passed else 1


def _cmd_coeffs(args) -> int:
    spec = _resolve_space(args.space)
    report = heat_coefficients(spec, args.order, budget=args.budget)
    _emit_report(report, args)
    return 0


def _cmd_eval(args) -> int:
    check_time(args.t)
    spec = _resolve_space(args.space)
    if args.method == "series":
        report = heat_coefficients(spec, args.order, budget=args.budget)
        value = report.eval_float(args.t)
        if not math.isfinite(value):
            raise HeatgenError(
                f"the series value at t={args.t} is beyond the float range"
            )
        doc = {
            "space": spec.name,
            "t": args.t,
            "method": "series",
            "order": args.order,
            "value": _fmt_float(value),
            "std_error": None,
            "singularity_hits": None,
            "timing_ms": report.timing_ms if args.timing else None,
        }
    else:
        result = numeric_average(
            spec,
            args.t,
            args.method,
            samples=args.samples,
            nodes=args.nodes,
            seed=args.seed,
        )
        doc = {
            "space": spec.name,
            "t": args.t,
            "method": result.method,
            "order": None,
            "value": _fmt_float(result.value),
            "std_error": _fmt_float(result.std_error),
            "singularity_hits": result.singularity_hits,
            "timing_ms": None,
        }
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        for key, val in doc.items():
            if val is not None:
                print(f"{key} = {val}")
    return 0


def _cmd_compare(args) -> int:
    try:
        t_grid = [float(x) for x in args.t.split(",") if x]
    except ValueError:
        raise InvalidTime(f"bad t grid {args.t!r}") from None
    if not t_grid:
        raise InvalidTime(f"empty t grid {args.t!r}")
    report = compare(
        _resolve_space(args.space),
        args.order,
        t_grid,
        method=args.method,
        samples=args.samples,
        nodes=args.nodes,
        seed=args.seed,
        budget=args.budget,
    )
    _emit_report(report, args)
    return 0 if report.all_passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatgen",
        description=(
            "Exact short-time heat kernel coefficients for compact "
            "symmetric spaces from algebraic curvature data."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pcat = sub.add_parser("catalog", help="list builtin spaces")
    pcat.set_defaults(func=_cmd_catalog)

    def add_common(p):
        p.add_argument("space", help="builtin name or space file path")
        p.add_argument("--order", type=int, default=4,
                       help="t truncation order (default 4)")
        p.add_argument("--budget", type=_positive_int, default=None,
                       help="the expansion budget, a positive number of "
                            "work units of the average that runs, over "
                            "all of h or over a maximal torus "
                            "(default 10^8)")
        p.add_argument("--json", action="store_true",
                       help="machine readable output")
        p.add_argument("--timing", action="store_true",
                       help="include wall time in the output")

    pv = sub.add_parser("validate", help="run the structural identity checks")
    pv.add_argument("space")
    pv.add_argument("--json", action="store_true")
    pv.set_defaults(func=_cmd_validate)

    pc = sub.add_parser("coeffs", help="exact expansion coefficients")
    add_common(pc)
    pc.set_defaults(func=_cmd_coeffs)

    pe = sub.add_parser("eval", help="evaluate the average at a time t")
    add_common(pe)
    pe.add_argument("--t", type=float, required=True)
    pe.add_argument("--method", choices=("series", "mc", "quadrature"),
                    default="series")
    pe.add_argument("--samples", type=int, default=100_000)
    pe.add_argument("--nodes", type=int, default=40)
    pe.add_argument("--seed", type=int, default=0)
    pe.set_defaults(func=_cmd_eval)

    pm = sub.add_parser("compare", help="pipeline vs every applicable oracle")
    add_common(pm)
    pm.add_argument("--t", default="0.05",
                    help="comma separated positive times (default 0.05)")
    pm.add_argument("--method", choices=("auto", "mc", "quadrature"),
                    default="auto")
    pm.add_argument("--samples", type=int, default=200_000)
    pm.add_argument("--nodes", type=int, default=40)
    pm.add_argument("--seed", type=int, default=0)
    pm.set_defaults(func=_cmd_compare)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call to main and kept: a long-lived
    process parses many command lines, and importing builds nothing."""
    return _build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HeatgenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
