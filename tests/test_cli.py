"""Command line behavior: output shape, determinism, exit codes."""

import dataclasses
import json
import math
import re
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import heatgen as hg
import oracles
from heatgen import cli, curvature, rational, series
from heatgen.cli import main

RATIONAL = re.compile(r"^-?[0-9]+(/[0-9]+)?$")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# catalog / validate
# ---------------------------------------------------------------------------


def test_catalog_lists_builtins(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    for name in ("S2", "S6", "S2xS2", "S2xS3", "flat(n)"):
        assert name in out


def test_validate_sphere_passes(capsys):
    code, out, _ = run(capsys, "validate", "S3")
    assert code == 0
    for check in (
        "generator_connection_identity",
        "curvature_integrability",
        "structure_jacobi",
        "riemann_symmetries",
    ):
        assert f"[PASS] {check}" in out
    assert "R = 6, R_H = 3/2, R_G = 6" in out


def test_validate_json_schema(capsys):
    code, out, _ = run(capsys, "validate", "S2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["space"] == "S2"
    assert doc["order"] is None
    assert doc["a"] == []
    assert doc["timing_ms"] is None
    assert len(doc["checks"]) == 4
    assert all(c["pass"] for c in doc["checks"])


def squashed_file(tmp_path) -> str:
    """A space file that parses but fails the generator identity."""
    base = hg.builtin("S3")
    from fractions import Fraction as F

    bad = hg.SpaceSpec(
        name="squashed",
        n=3,
        p=3,
        g=base.g,
        beta=((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(2))),
        E=base.E,
    )
    path = tmp_path / "squashed.json"
    hg.save(bad, path)
    return str(path)


def test_validate_bad_file_exits_one(capsys, tmp_path):
    code, out, _ = run(capsys, "validate", squashed_file(tmp_path))
    assert code == 1
    assert "[FAIL] generator_connection_identity" in out


# ---------------------------------------------------------------------------
# coeffs
# ---------------------------------------------------------------------------


def test_coeffs_json_document(capsys):
    code, out, _ = run(capsys, "coeffs", "S2", "--order", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"space", "order", "a", "checks", "timing_ms"}
    assert doc["space"] == "S2"
    assert doc["order"] == 2
    assert doc["a"] == ["1", "1/3", "1/15"]
    assert doc["timing_ms"] is None
    assert all(c["pass"] for c in doc["checks"])
    assert all(RATIONAL.match(s) for s in doc["a"])


def test_coeffs_text_output(capsys):
    code, out, _ = run(capsys, "coeffs", "flat3", "--order", "5")
    assert code == 0
    assert "a_0 = 1" in out
    assert "a_5 = 0" in out
    assert "." not in out.split("a_0")[1].splitlines()[0]


def test_coeffs_rationals_never_floats(capsys):
    code, out, _ = run(capsys, "coeffs", "S4", "--order", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["a"] == ["1", "2", "29/15", "74/63"]


def test_coeffs_is_byte_deterministic(capsys):
    _, first, _ = run(capsys, "coeffs", "S3", "--order", "3", "--json")
    _, second, _ = run(capsys, "coeffs", "S3", "--order", "3", "--json")
    assert first == second


def test_coeffs_timing_flag(capsys):
    code, out, _ = run(
        capsys, "coeffs", "S2", "--order", "1", "--json", "--timing"
    )
    assert code == 0
    doc = json.loads(out)
    assert isinstance(doc["timing_ms"], float) and doc["timing_ms"] > 0


@pytest.mark.parametrize("method", ["mc", "quadrature"])
def test_eval_timing_flag_for_numeric_methods(capsys, method):
    argv = ("eval", "S4", "--t", "0.05", "--method", method,
            "--samples", "2000", "--nodes", "8")
    code, out, _ = run(capsys, *argv, "--json", "--timing")
    assert code == 0
    timing = json.loads(out)["timing_ms"]
    assert isinstance(timing, float) and timing > 0
    # Timings appear only under --timing.
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "timing_ms" not in out


def test_coeffs_budget_exhaustion_exits_one(capsys):
    code, _, err = run(
        capsys, "coeffs", "S4", "--order", "4", "--budget", "100"
    )
    assert code == 1
    assert "budget" in err


@pytest.mark.parametrize("space", ["S2", "flat3"])
@pytest.mark.parametrize("budget", ["0", "-5"])
def test_non_positive_budget_is_a_usage_error(capsys, space, budget):
    # Refused by argparse for every space, before any space is built.
    with pytest.raises(SystemExit) as info:
        main(["coeffs", space, "--budget", budget])
    err = capsys.readouterr().err
    assert info.value.code == 2
    assert "argument --budget: expected a positive integer" in err
    assert "Traceback" not in err


def test_coeffs_negative_order_exits_two(capsys):
    code, _, err = run(capsys, "coeffs", "S2", "--order", "-1")
    assert code == 2
    assert "error:" in err


def test_coeffs_from_saved_file(capsys, tmp_path):
    path = tmp_path / "two_sphere.json"
    hg.save(hg.builtin("S2"), path)
    code, out, _ = run(capsys, "coeffs", str(path), "--order", "2", "--json")
    assert code == 0
    assert json.loads(out)["a"] == ["1", "1/3", "1/15"]


def test_coeffs_invalid_file_exits_one(capsys, tmp_path):
    code, out, err = run(capsys, "coeffs", squashed_file(tmp_path))
    assert code == 1
    assert out == ""
    assert "squashed: structural checks failed" in err
    assert "generator_connection_identity" in err


@pytest.mark.parametrize("defect, error, message", [
    ("indefinite", hg.InvalidSpaceSpec, "g is not positive definite"),
    ("dependent", hg.DegenerateBasis, "redundant holonomy generators"),
])
def test_file_that_prepare_refuses_loads_and_exits_one(
    capsys, tmp_path, defect, error, message
):
    # Definiteness and independence need an elimination: load parses and
    # constructs the datum, and prepare refuses it.
    s2, s3 = hg.builtin("S2"), hg.builtin("S3")
    spec = {
        "indefinite": dataclasses.replace(s2, g=((F(1), F(0)), (F(0), F(-1)))),
        "dependent": dataclasses.replace(s3, E=(s3.E[0], s3.E[1], s3.E[0])),
    }[defect]
    path = tmp_path / f"{defect}.json"
    hg.save(spec, path)
    loaded = hg.load(path)
    assert loaded == spec
    with pytest.raises(error, match=f"^{message}"):
        hg.prepare(loaded)
    for argv in (("validate",), ("coeffs", "--order", "2"),
                 ("eval", "--t", "0.05", "--method", "quadrature",
                  "--nodes", "6")):
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}")


def test_unknown_space_exits_two(capsys):
    code, _, err = run(capsys, "coeffs", "S99")
    assert code == 2
    assert "error:" in err


def test_flat_past_the_entry_bound_exits_two(capsys):
    # 5001 digits also make a name too long to look up as a file.
    for digits in ("200", "1" + "0" * 5000):
        code, out, err = run(capsys, "coeffs", f"flat({digits})")
        assert (code, out) == (2, "")
        assert err == "error: flat dimension must be at most 45\n"


def test_flat_order_past_the_budget_exits_one(capsys):
    code, out, err = run(capsys, "coeffs", "flat3", "--order", "1000000000")
    assert (code, out) == (1, "")
    assert "budget of 100000000" in err


def test_failing_file_at_an_order_past_the_budget_exits_one(capsys, tmp_path):
    # The order is refused from the parsed file, before its checks run.
    code, out, err = run(capsys, "coeffs", squashed_file(tmp_path),
                         "--order", "1000000000")
    assert (code, out) == (1, "")
    assert "budget of 100000000" in err
    assert "structural checks failed" not in err


def test_file_past_the_entry_bound_exits_one(capsys, tmp_path):
    # Written by hand: SpaceSpec refuses to construct this datum.
    path = tmp_path / "wide.json"
    g = [["1" if i == j else "0" for j in range(46)] for i in range(46)]
    path.write_text(json.dumps({
        "schema_version": 1, "name": "wide", "n": 46, "p": 0,
        "g": g, "beta": [], "E": [],
    }))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (1, "")
    assert err == (
        f"error: {path}: wide: n=46, p=0 needs check tensors of 4477456 "
        f"entries, past the limit of 4194304\n"
    )


def test_unparseable_file_exits_one(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "coeffs", str(path))
    assert code == 1
    assert "error:" in err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_series_json(capsys):
    code, out, _ = run(
        capsys, "eval", "S2", "--t", "0.05", "--order", "4", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    want = hg.heat_coefficients(hg.builtin("S2"), 4).eval_float(0.05)
    assert doc["value"] == f"{want:.17g}"
    assert doc["method"] == "series"
    assert doc["std_error"] is None


def test_eval_seventeen_digit_floats(capsys):
    _, out, _ = run(capsys, "eval", "S3", "--t", "0.1", "--json")
    value = json.loads(out)["value"]
    mantissa = value.replace("-", "").replace(".", "").split("e")[0]
    assert len(mantissa) >= 15


def test_eval_nonpositive_t_exits_two(capsys):
    code, _, err = run(capsys, "eval", "S2", "--t", "0")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("method", ["series", "mc", "quadrature"])
@pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
def test_eval_non_finite_t_exits_two(capsys, method, t):
    code, out, err = run(capsys, "eval", "S3", f"--t={t}", "--method", method)
    assert code == 2
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize("space,order", [("S2", "4"), ("S6", "8")])
def test_eval_series_beyond_the_float_range_exits_one(capsys, space, order):
    # The sum overflows to +inf (S2) or -inf (S6) at this t.
    code, out, err = run(capsys, "eval", space, "--t", "1e300",
                         "--method", "series", "--order", order, "--json")
    assert code == 1
    assert out == ""
    assert "series value at t=1e+300 is beyond the float range" in err


def test_eval_series_of_a_flat_space_at_a_huge_t(capsys):
    code, out, err = run(capsys, "eval", "flat3", "--order", "3", "--t",
                         "1e200", "--method", "series", "--json")
    assert code == 0, err
    assert json.loads(out)["value"] == "1"


def test_eval_mc_single_sample_exits_two(capsys):
    code, out, err = run(
        capsys, "eval", "S3", "--t", "0.1", "--method", "mc", "--samples", "1"
    )
    assert code == 2
    assert out == ""
    assert "at least 2 samples" in err


def test_eval_huge_node_count_exits_two(capsys):
    code, _, err = run(
        capsys, "eval", "S3", "--t", "0.1", "--method", "quadrature",
        "--nodes", "1000000000"
    )
    assert code == 2
    assert "nodes must be in" in err


def test_eval_quadrature_node_range_ends_at_256(capsys):
    args = ("eval", "S2", "--t", "0.05", "--method", "quadrature", "--json")
    code, out, _ = run(capsys, *args, "--nodes", "256")
    assert code == 0
    assert "nan" not in out
    assert math.isfinite(float(json.loads(out)["value"]))
    code, out, err = run(capsys, *args, "--nodes", "257")
    assert code == 2
    assert out == ""
    assert "nodes must be in 1..256, got 257" in err


def test_eval_mc_reproducible(capsys):
    args = ("eval", "S2", "--t", "0.05", "--method", "mc", "--samples",
            "2000", "--seed", "11", "--json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    doc = json.loads(first)
    assert doc["method"] == "mc"
    assert doc["singularity_hits"] >= 0


def test_eval_quadrature_grid_above_the_limit_exits_two(capsys, tmp_path):
    # S8 (p = 28) runs on its maximal torus, of rank 4: 40^4 points
    # exceed the grid limit of 64^3, 22^4 do not.
    path = tmp_path / "S8.json"
    hg.save(hg.catalog._sphere_spec(8, "S8"), path)
    args = ("eval", str(path), "--t", "0.05", "--method", "quadrature")
    code, out, err = run(capsys, *args)
    assert (code, out) == (2, "")
    assert err == (
        "error: a quadrature grid of 40^4 points (a maximal torus of rank "
        "4) exceeds the limit of 262144; use fewer nodes or mc\n"
    )
    code, out, _ = run(capsys, *args, "--nodes", "22", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "quadrature"
    assert "nan" not in out and math.isfinite(float(doc["value"]))


def test_eval_quadrature_past_three_generators(capsys):
    code, out, _ = run(capsys, "eval", "S4", "--t", "0.05", "--method",
                       "quadrature", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "quadrature" and "nan" not in out


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def test_compare_s2_passes(capsys):
    code, out, _ = run(
        capsys, "compare", "S2", "--order", "2", "--t", "0.05",
        "--nodes", "24", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    names = [c["name"] for c in doc["checks"]]
    assert "a1_closed_form" in names
    assert "spectral_oracle@t=0.05" in names
    assert "numeric_average@t=0.05" in names
    assert all(c["pass"] for c in doc["checks"])
    assert set(doc) == {"space", "order", "a", "checks", "timing_ms"}


def test_compare_multiple_times(capsys):
    code, out, _ = run(
        capsys, "compare", "S2", "--order", "2", "--t", "0.05,0.1",
        "--nodes", "20", "--json"
    )
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert "numeric_average@t=0.05" in names
    assert "numeric_average@t=0.1" in names


def test_compare_bad_grid_exits_two(capsys):
    code, _, err = run(capsys, "compare", "S2", "--t", "abc")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("grid", ["abc", "0.05,x", ",", "0.05,nan", "inf"])
def test_compare_malformed_grid_is_a_time_error(capsys, monkeypatch, grid):
    def unreachable(*args, **kwargs):
        raise AssertionError("compare ran on a malformed grid")

    # compare checks the grid before any computation.
    monkeypatch.setattr("heatgen.invariants.heat_coefficients", unreachable)
    with pytest.raises(hg.InvalidTime):
        cli._cmd_compare(cli._build_parser().parse_args(
            ["compare", "S2", "--t", grid]))
    code, _, err = run(capsys, "compare", "S2", "--t", grid)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("name, oracle", [
    ("S2xS2", "product_factorization"), ("S2", "spectral_oracle@t=0.05"),
])
@pytest.mark.parametrize("scale", [1, 2])
def test_compare_oracles_follow_the_datum_not_the_name(
    capsys, tmp_path, name, oracle, scale
):
    # A saved builtin keeps the builtin oracles.  A valid file that reuses
    # the name for the builtin with g and beta doubled has other a_k, so
    # those oracles do not apply to it.
    base = hg.builtin(name)
    path = tmp_path / f"{name}.json"
    hg.save(hg.SpaceSpec(name, base.n, base.p, oracles.scale(base.g, scale),
                         oracles.scale(base.beta, scale), base.E), path)
    code, out, err = run(capsys, "compare", str(path), "--order", "2",
                         "--t", "0.05", "--method", "quadrature", "--nodes",
                         "12", "--json")
    assert code == 0, out + err
    checks = {c["name"]: c["pass"] for c in json.loads(out)["checks"]}
    assert (oracle in checks) == (scale == 1)
    assert all(checks.values())


def test_compare_small_time_runs_the_spectral_oracle(capsys):
    # About 2.2e5 eigenvalue levels; this gave up at 1e5 levels and
    # reported an internal inconsistency before.
    code, out, err = run(capsys, "compare", "S2", "--order", "2",
                         "--t", "1e-9", "--json")
    assert code == 0, err
    checks = {c["name"]: c["pass"] for c in json.loads(out)["checks"]}
    assert checks["spectral_oracle@t=1e-09"]


def test_compare_time_beyond_the_spectral_cap_exits_two(capsys):
    code, _, err = run(capsys, "compare", "S2", "--order", "2",
                       "--t", "1e-14")
    assert code == 2
    assert "cap of 10000000" in err


@pytest.mark.parametrize("order,t", [
    # S2 at order 2048 fits the default budget but takes minutes.
    (2048, "1e-13"),
    # At order 300 the remainder at this t is beyond the float range.
    (300, "1e-320"),
])
def test_compare_checks_the_spectral_cap_before_the_expansion(
    capsys, monkeypatch, order, t
):
    def unreachable(*args, **kwargs):
        raise AssertionError("expansion ran before the spectral refusal")

    monkeypatch.setattr("heatgen.invariants.whitened_average", unreachable)
    with pytest.raises(ValueError, match="cap of 10000000"):
        hg.compare(hg.builtin("S2"), order, [0.05, float(t)])
    code, out, err = run(capsys, "compare", "S2", "--order", str(order),
                         "--t", t)
    assert (code, out) == (2, "")
    assert "cap of 10000000" in err


def test_spectral_cap_message_prints_the_level_count_to_three_digits(capsys):
    # ceil(sqrt(50 / 1e-300)) is a 151-digit integer.
    code, _, err = run(capsys, "compare", "S3", "--order", "2", "--t",
                       "1e-300", "--method", "quadrature", "--nodes", "4")
    assert code == 2
    assert "needs 7.07e+150 levels, more than the cap of 10000000" in err


def test_huge_sample_count_exits_two(capsys, monkeypatch):
    # Refused before the integrand exists, so nothing of its size is
    # allocated.
    def unreachable(*args, **kwargs):
        raise AssertionError("integrand built for a refused sample count")

    monkeypatch.setattr("heatgen.averaging._Integrand", unreachable)
    code, out, err = run(capsys, "eval", "S2", "--t", "0.1", "--method",
                         "mc", "--samples", "100000000000")
    assert (code, out) == (2, "")
    assert err == (
        "error: Monte Carlo is limited to 10000000 samples, "
        "got 100000000000\n"
    )


@pytest.mark.parametrize("name,order,options", [
    ("S2", 2048, {"method": "mc", "samples": 1}),
    ("S4", 4, {"method": "quadrature", "nodes": 257}),
    # The grid limit needs the torus (rank 3 here), and is checked when
    # it is built, still before the expansion.
    ("S6", 4, {"method": "quadrature", "nodes": 65}),
], ids=["mc-one-sample", "quadrature-p6", "quadrature-torus-grid"])
def test_compare_checks_numeric_parameters_before_the_expansion(
    capsys, monkeypatch, name, order, options
):
    # S2 at order 2048 is inside the default budget but takes minutes:
    # its expansion must not run for an averager that is refused.
    def unreachable(*args, **kwargs):
        raise AssertionError("expansion ran before a numeric refusal")

    monkeypatch.setattr("heatgen.invariants.whitened_average", unreachable)
    with pytest.raises(ValueError):
        hg.compare(hg.builtin(name), order, [0.05], **options)
    argv = [f"--{key}={value}" for key, value in options.items()]
    code, out, err = run(capsys, "compare", name, "--order", str(order),
                         *argv)
    assert (code, out) == (2, "")
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    # A refused order (exit 1 alone) with a refused sample count.
    ("compare", "S2", "--order", "1000000000", "--method", "mc",
     "--samples", "1"),
    # A file that fails its checks (exit 1 alone) with a bad time.
    ("eval", "{bad}", "--t", "-1"),
    ("compare", "{bad}", "--t", "abc"),
    # The same file with a refused order or numeric parameter: the
    # library refuses it before it prepares the file.
    ("coeffs", "{bad}", "--order", "-1"),
    ("eval", "{bad}", "--t", "0.1", "--method", "mc", "--samples", "1"),
    ("compare", "{bad}", "--method", "mc", "--samples", "1"),
    ("compare", "{bad}", "--order", "-1"),
], ids=["order", "eval-file", "compare-file", "coeffs-order",
        "eval-samples", "compare-samples", "compare-order"])
def test_bad_numeric_parameters_exit_two_before_the_space_fails(
    capsys, tmp_path, argv
):
    bad = squashed_file(tmp_path)
    code, out, err = run(capsys, *(a.format(bad=bad) for a in argv))
    assert (code, out) == (2, "")
    assert "error:" in err


@pytest.mark.parametrize("command", ["eval", "compare"])
def test_negative_seed_exits_two(capsys, monkeypatch, command):
    def unreachable(*args, **kwargs):
        raise AssertionError("integrand built for a refused seed")

    monkeypatch.setattr("heatgen.averaging._Integrand", unreachable)
    code, out, err = run(capsys, command, "S2", "--t", "0.1", "--method",
                         "mc", "--seed", "-1")
    assert (code, out) == (2, "")
    assert err == (
        "error: Monte Carlo seed must be a non-negative integer, got -1\n"
    )


@pytest.mark.parametrize("argv,code", [
    (("S2", "--t", "1e308"), 1),
    (("S2", "--order", "3", "--t", "1e103"), 1),
    (("flat3", "--order", "3", "--t", "1e200"), 0),
    (("S4", "--order", "4", "--t", "1e90", "--method", "mc",
      "--samples", "100"), 1),
])
def test_compare_time_beyond_the_float_range(capsys, argv, code):
    # t^order past the float range fails that time's checks (exit 1);
    # a vanishing last coefficient has no remainder at any t (exit 0).
    got, out, err = run(capsys, "compare", *argv)
    assert got == code
    assert "Traceback" not in err
    assert out.count("[FAIL]") == 2 * code


def test_eval_mc_where_the_ball_accepts_almost_nothing_exits_one(capsys):
    # S4 accepts about 4e-6 of its draws at t = 280: the request is
    # refused, after at most 100 draws per sample, within seconds.
    start = time.perf_counter()
    code, _, err = run(capsys, "eval", "S4", "--t", "280", "--method", "mc")
    assert code == 1
    assert "rejects essentially every sample" in err
    assert time.perf_counter() - start < 20


def test_compare_negative_time_exits_two(capsys):
    code, _, err = run(capsys, "compare", "S2", "--t", "0.05,-0.1")
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# Each command prepares its space once
# ---------------------------------------------------------------------------


def counted(monkeypatch, name) -> list:
    """Count the calls of a curvature-module function."""
    calls = []
    original = getattr(curvature, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(curvature, name, wrapper)
    return calls


@pytest.mark.parametrize("argv", [
    ("coeffs", "--order", "2"),
    ("eval", "--t", "0.05", "--order", "2"),
    ("eval", "--t", "0.05", "--method", "mc", "--samples", "200"),
    ("eval", "--t", "0.05", "--method", "quadrature", "--nodes", "6"),
    ("compare", "--order", "2", "--method", "quadrature", "--nodes", "12"),
])
def test_file_commands_prepare_once(capsys, monkeypatch, tmp_path, argv):
    path = tmp_path / "three_sphere.json"
    hg.save(hg.builtin("S3"), path)
    stages = [counted(monkeypatch, name) for name in (
        "derive_holonomy", "validate_symmetric_space", "curvature_scalars")]
    code, _, _ = run(capsys, argv[0], str(path), *argv[1:], "--json")
    assert code == 0
    assert [len(calls) for calls in stages] == [1, 1, 1]


def test_coefficients_of_a_loaded_file_prepare_once(monkeypatch, tmp_path):
    # load only parses; heat_coefficients is the one gate.
    path = tmp_path / "three_sphere.json"
    hg.save(hg.builtin("S3"), path)
    stages = [counted(monkeypatch, name) for name in (
        "derive_holonomy", "validate_symmetric_space")]
    hg.heat_coefficients(hg.load(path), 2)
    assert [len(calls) for calls in stages] == [1, 1]


def test_compare_product_prepares_each_space_once(capsys, monkeypatch):
    scalars = counted(monkeypatch, "curvature_scalars")
    code, _, _ = run(capsys, "compare", "S2xS2", "--order", "2",
                     "--method", "quadrature", "--nodes", "12", "--json")
    assert code == 0
    # S2xS2 itself, then its factor S2 once, although it appears twice.
    assert len(scalars) == 2


def tilted_three_sphere():
    """S3 under the generator change N (unit lower triangular): E' =
    N^-T E, beta' = N beta N^T, so beta' is not diagonal."""
    N = oracles.matrix([[1, 0, 0], [F(1, 2), 1, 0], [-1, F(2, 3), 1]])
    return oracles.moved(hg.builtin("S3"), rational.identity(3), N, 1, 1)


def count_conversions(monkeypatch):
    """Record every ScaledTensor.from_nested argument, and the shape of
    every matrix that rational.ldl, the one elimination in the package,
    factors: each must already be a tensor, none a Fraction matrix."""
    converted, eliminated = [], []
    from_nested = rational.ScaledTensor.from_nested.__func__

    def spy(cls, nested, shape=None):
        converted.append(nested)
        return from_nested(cls, nested, shape)

    monkeypatch.setattr(rational.ScaledTensor, "from_nested", classmethod(spy))
    ldl = rational.ldl

    def factor(a):
        assert isinstance(a, rational.ScaledTensor)
        eliminated.append(a.array.shape)
        return ldl(a)

    monkeypatch.setattr(rational, "ldl", factor)
    return converted, eliminated


def datum_matrices(spec):
    """What one exact request converts, in order: g, beta and E when the
    datum is constructed, and nothing after."""
    return [spec.g, spec.beta, spec.E]


def prepare_eliminations(spec):
    """The matrices prepare factors, construction none: g and beta, on
    the first reading of the datum's tensors, and the Gram matrix of D."""
    return [(spec.n, spec.n), (spec.p, spec.p), (spec.p, spec.p)]


@pytest.mark.parametrize("make", [tilted_three_sphere,
                                  lambda: hg.builtin("S2xS3")])
def test_prepare_and_coefficients_convert_only_the_datum(monkeypatch, make):
    base = make()
    converted, eliminated = count_conversions(monkeypatch)
    spec = dataclasses.replace(base)
    # Construction converts the datum and factors nothing.
    assert eliminated == []
    prep = hg.prepare(spec)
    hg.heat_coefficients(prep, 3)
    assert converted == datum_matrices(spec)
    assert spec.tensors.E is spec._exact[2]
    assert eliminated == prepare_eliminations(spec)


def test_file_coeffs_converts_only_the_datum(capsys, monkeypatch, tmp_path):
    spec = tilted_three_sphere()
    path = tmp_path / "tilted.json"
    hg.save(spec, path)
    converted, eliminated = count_conversions(monkeypatch)
    code, _, _ = run(capsys, "coeffs", str(path), "--order", "3", "--json")
    assert code == 0
    assert converted == datum_matrices(spec)
    assert eliminated == prepare_eliminations(spec)


def test_numeric_average_converts_only_the_datum(monkeypatch):
    # The integrand splits D on the datum's own tensor of g, converted at
    # construction, not on a second conversion of spec.g.
    base = tilted_three_sphere()
    converted, _ = count_conversions(monkeypatch)
    spec = dataclasses.replace(base)
    hg.numeric_average(hg.prepare(spec), 0.05, "quadrature", nodes=8)
    assert converted == datum_matrices(spec)
    assert spec.tensors.g is spec._exact[0]


def count_factorizations(monkeypatch):
    """Count the calls of rational.ldl, from every module that calls it,
    and of rational.independent, which calls ldl once."""
    counts = {"ldl": 0, "independent": 0}
    for module, name in ((rational, "ldl"), (series, "ldl"),
                         (rational, "independent")):
        def spy(*args, original=getattr(module, name), name=name):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, spy)
    return counts


def test_construction_and_catalog_factor_nothing(capsys, monkeypatch,
                                                 tmp_path):
    tilted = tilted_three_sphere()
    counts = count_factorizations(monkeypatch)
    names = [name for name in hg.catalog_names() if name != "flat(n)"]
    for spec in [hg.builtin(name) for name in names + ["flat3"]] + [tilted]:
        path = tmp_path / "space.json"
        hg.save(spec, path)
        assert hg.load(path) == spec
    code, _, _ = run(capsys, "catalog")
    assert code == 0
    assert counts == {"ldl": 0, "independent": 0}


@pytest.mark.parametrize("argv, factorizations", [
    # g, beta and the Gram matrix of D, each once.
    (("coeffs", "S4", "--order", "2"), 3),
    # Three for S2xS3 and three for each factor, S2 and S3, then three
    # for the numeric integrand's exact split of S2xS3's D and F.
    (("compare", "S2xS3", "--order", "4", "--t", "0.05",
      "--method", "quadrature"), 12),
])
def test_requests_factor_each_matrix_once(capsys, monkeypatch, argv,
                                          factorizations):
    counts = count_factorizations(monkeypatch)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert counts == {"ldl": factorizations, "independent": 0}


def count_fraction_views(monkeypatch):
    """Record the rank of every tensor passed to
    ScaledTensor.to_fractions."""
    ranks = []
    to_fractions = rational.ScaledTensor.to_fractions

    def spy(self):
        ranks.append(self.array.ndim)
        return to_fractions(self)

    monkeypatch.setattr(rational.ScaledTensor, "to_fractions", spy)
    return ranks


@pytest.mark.parametrize("make", [tilted_three_sphere,
                                  lambda: hg.builtin("S2xS3")])
def test_requests_convert_only_scalars_to_fractions(
    capsys, monkeypatch, tmp_path, make
):
    # Derived tensors stay tensors: only the scalar contractions (R, R_H,
    # R_G and the closed-form invariants) become Fractions.
    spec = make()
    path = tmp_path / "space.json"
    hg.save(spec, path)
    ranks = count_fraction_views(monkeypatch)
    hg.heat_coefficients(hg.prepare(spec), 3)
    code, _, _ = run(capsys, "coeffs", str(path), "--order", "3", "--json")
    assert code == 0
    assert ranks and set(ranks) == {0}


# ---------------------------------------------------------------------------
# Exact rationals beyond the interpreter's int-to-string limit
# ---------------------------------------------------------------------------


def huge_two_sphere(tmp_path, factor=F(10**1500)):
    """S2 with beta scaled by a factor; by 10^1500, a_k has about 1500 k
    digits."""
    base = hg.builtin("S2")
    spec = hg.SpaceSpec(
        "S2huge", base.n, base.p, base.g,
        oracles.scale(base.beta, factor), base.E,
    )
    path = tmp_path / "huge.json"
    hg.save(spec, path)
    return spec, str(path)


def parse_unlimited(texts):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return [F(t) for t in texts]
    finally:
        sys.set_int_max_str_digits(old)


def test_coefficients_beyond_the_int_str_limit_print_exactly(capsys, tmp_path):
    spec, path = huge_two_sphere(tmp_path)
    want = list(hg.heat_coefficients(spec, 4).coeffs)
    assert want[3].numerator.bit_length() > 4300 * 3.32
    code, out, err = run(capsys, "coeffs", path, "--order", "3", "--json")
    assert code == 0, err
    assert parse_unlimited(json.loads(out)["a"]) == want[:4]
    code, out, err = run(capsys, "coeffs", path, "--order", "4")
    assert code == 0, err
    values = [line.split(" = ")[1] for line in out.splitlines()
              if line.startswith("a_")]
    assert parse_unlimited(values) == want


def test_huge_coefficient_beyond_float_range_exits_one(capsys, tmp_path):
    _, path = huge_two_sphere(tmp_path)
    code, _, err = run(capsys, "eval", path, "--order", "4", "--t", "0.1")
    assert code == 1
    assert "digits is beyond the float range" in err


def test_compare_details_beyond_the_int_str_limit(capsys, tmp_path):
    # beta / 10^2500: a_2 = 1/(15 10^4999) is past 4300 digits, while the
    # curvature is small enough for the numeric average.
    spec, path = huge_two_sphere(tmp_path, F(1, 10**2500))
    a2 = hg.heat_coefficients(spec, 2).coeffs[2]
    argv = ("compare", path, "--order", "2", "--t", "1e-9",
            "--method", "quadrature", "--nodes", "8")
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert f"curvature invariants give {rational.format_rational(a2)}" in out
    assert "[PASS] numeric_average@t=1e-09" in out
    # beta * 10^2500: the curvature is too large for any numeric average.
    # That time is one FAIL line (exit 1, not the int-to-string limit's
    # exit 2), and the exact checks still report.
    _, path = huge_two_sphere(tmp_path, F(10**2500))
    code, out, err = run(capsys, *argv[:1], path, *argv[2:])
    assert code == 1
    failed = [line for line in out.splitlines()
              if line.startswith("[FAIL] numeric_average@t=1e-09: ")]
    assert len(failed) == 1 and "scalar prefactor overflows" in failed[0]
    assert "[PASS] a1_closed_form" in out
    assert "[PASS] a2_closed_form" in out


def test_save_writes_entries_beyond_the_int_str_limit(capsys, tmp_path):
    # beta * 10^5000 has 5001 digits; load keeps refusing it as input.
    spec, path = huge_two_sphere(tmp_path, F(10**5000))
    doc = json.loads(Path(path).read_text())
    entries = [x for row in doc["beta"] for x in row]
    assert parse_unlimited(entries) == [x for row in spec.beta for x in row]
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        back = hg.load(path)
    finally:
        sys.set_int_max_str_digits(old)
    assert (back.g, back.beta, back.E) == (spec.g, spec.beta, spec.E)
    code, _, err = run(capsys, "validate", path)
    assert code == 1
    assert err.startswith("error: beta[0][0]: ")


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    build = cli._build_parser

    def counting():
        built.append(True)
        return build()

    monkeypatch.setattr(cli, "_build_parser", counting)
    cli._parser.cache_clear()
    argv = ("coeffs", "S3", "--order", "3", "--json")
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert built == [True]
    assert first == second and first[0] == 0


@pytest.mark.parametrize("digits", [1, 639, 640, 641, 4300, 4301, 12345])
def test_decimal_conversion_matches_str(digits):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for n in (10 ** (digits - 1), 10**digits - 1, 7**digits // 3):
            for value in (n, -n, F(n, 7**digits + 2), F(-3, n + 1)):
                assert rational.format_rational(F(value)) == str(F(value))
    finally:
        sys.set_int_max_str_digits(old)
