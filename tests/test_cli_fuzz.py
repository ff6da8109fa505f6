"""CLI robustness: malformed and extreme space files and arguments end in
exit code 0, 1 or 2 with an error line, never in a traceback."""

import copy
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import heatgen as hg
from heatgen.cli import main


def run_cli(capsys, argv):
    """Exit code and stderr of one in-process CLI call; argparse's own
    usage errors arrive as SystemExit."""
    try:
        code = main([str(a) for a in argv])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.err


def assert_clean(code, err, context=""):
    assert code in (0, 1, 2), (context, code, err)
    assert "Traceback" not in err, (context, err)
    if code:
        assert "error:" in err, (context, err)


def s2xs2_doc(tmp_path):
    path = tmp_path / "base.json"
    hg.save(hg.builtin("S2xS2"), path)
    return json.loads(path.read_text())


def with_field(doc, field, value):
    out = copy.deepcopy(doc)
    out[field] = value
    return out


def diagonal(size, value):
    return [
        [value if i == j else "0" for j in range(size)] for i in range(size)
    ]


def malformed_docs(doc):
    """(label, file text) pairs covering each way a space file can be
    wrong or extreme."""
    text = json.dumps(doc)
    zero_e = [diagonal(4, "0")] * 2
    cases = [
        ("empty file", ""),
        ("not an object", "[1, 2, 3]"),
        ("null", "null"),
    ]
    cases += [
        (f"truncated at {k}", text[:k])
        for k in (1, 10, 57, len(text) // 2, len(text) - 1)
    ]
    docs = [
        ("missing field", {k: v for k, v in doc.items() if k != "E"}),
        ("unknown field", with_field(doc, "extra", 1)),
        ("bad schema version", with_field(doc, "schema_version", 99)),
        ("name not a string", with_field(doc, "name", 7)),
        ("negative n", with_field(doc, "n", -1)),
        ("n as string", with_field(doc, "n", "4")),
        ("p as bool", with_field(doc, "p", True)),
        ("n too large for g", with_field(doc, "n", 5)),
        ("p too small for E", with_field(doc, "p", 1)),
        ("g has a short row", with_field(doc, "g", doc["g"][:-1])),
        ("g not a list", with_field(doc, "g", "identity")),
        ("beta of wrong size", with_field(doc, "beta", diagonal(3, "1"))),
        ("E of wrong size", with_field(doc, "E", [diagonal(3, "0")] * 2)),
        ("E not a list", with_field(doc, "E", {"0": 1})),
        ("float entry", with_field(doc, "g", diagonal(4, 1.5))),
        ("null entry", with_field(doc, "beta", diagonal(2, None))),
        ("zero denominator", with_field(doc, "beta", diagonal(2, "1/0"))),
        ("garbage rational", with_field(doc, "beta", diagonal(2, "one"))),
        ("zero metric", with_field(doc, "g", diagonal(4, "0"))),
        ("zero beta", with_field(doc, "beta", diagonal(2, "0"))),
        ("zero generators", with_field(doc, "E", zero_e)),
        ("negative beta", with_field(doc, "beta", diagonal(2, "-1"))),
        ("indefinite beta",
         with_field(doc, "beta", [["1", "2"], ["2", "1"]])),
        ("asymmetric beta",
         with_field(doc, "beta", [["1", "1"], ["0", "1"]])),
        ("huge metric", with_field(doc, "g", diagonal(4, "1" + "0" * 300))),
        ("tiny beta", with_field(doc, "beta", diagonal(2, "1/" + "7" * 200))),
        ("huge beta", with_field(doc, "beta", diagonal(2, "9" * 250))),
        ("overlong rational",
         with_field(doc, "beta", diagonal(2, "1" * 5000))),
    ]
    return cases + [(label, json.dumps(d)) for label, d in docs]


COMMANDS = (
    ("validate",),
    ("coeffs", "--order", "2"),
    ("eval", "--t", "0.05", "--order", "2"),
)


def test_malformed_and_extreme_space_files(capsys, tmp_path):
    for label, text in malformed_docs(s2xs2_doc(tmp_path)):
        path = tmp_path / "case.json"
        path.write_text(text)
        for command in COMMANDS:
            code, err = run_cli(capsys, [command[0], path, *command[1:]])
            assert_clean(code, err, (label, command))
            # What is wrong is the file's data, not the usage.
            assert code != 2, (label, command, err)


@pytest.mark.parametrize("label,data", [
    ("nested 200000 deep", b"[" * 200_000 + b"]" * 200_000),
    ("not UTF-8", b"\xff\xfe"),
])
def test_unreadable_space_files_are_parse_errors(capsys, tmp_path, label,
                                                 data):
    path = tmp_path / "case.json"
    path.write_bytes(data)
    with pytest.raises(hg.ParseError, match=f"^{re.escape(str(path))}: "):
        hg.load(path)
    for command in COMMANDS:
        code, err = run_cli(capsys, [command[0], path, *command[1:]])
        assert_clean(code, err, (label, command))
        assert code == 1, (label, command, err)


BAD_ARGUMENTS = [
    ("coeffs", "S2", "--order", "-1"),
    ("coeffs", "S2", "--order", "two"),
    ("coeffs", "S2", "--order", "100000"),
    ("coeffs", "S2", "--budget", "0"),
    ("coeffs", "S2", "--budget", "-5"),
    ("coeffs", "S99"),
    ("coeffs", "no/such/file.json"),
    ("coeffs", "."),
    ("coeffs",),
    ("frobnicate", "S2"),
    ("eval", "S2", "--t", "nan"),
    ("eval", "S2", "--t", "-1"),
    ("eval", "S2", "--t", "inf", "--method", "mc"),
    ("eval", "S2", "--t", "1e300", "--method", "mc", "--samples", "50"),
    ("eval", "S2", "--t", "0.05", "--method", "mc", "--samples", "0"),
    ("eval", "S2", "--t", "0.05", "--method", "quadrature", "--nodes", "0"),
    ("eval", "S6", "--t", "0.05", "--method", "quadrature", "--nodes", "65"),
    ("compare", "S2", "--order", "2", "--t", ""),
    ("compare", "S2", "--order", "2", "--t", ","),
    ("compare", "S2", "--order", "2", "--t", "0.05,abc"),
    ("compare", "S2", "--order", "2", "--t", "0"),
    ("compare", "S2", "--order", "2", "--t", "1e-14"),
    ("compare", "S2", "--order", "-1"),
    ("compare", "S2", "--t", "1e-310"),
    ("compare", "S4", "--order", "2", "--t", "5e-324", "--method", "mc",
     "--samples", "100"),
]


@pytest.mark.parametrize("argv", BAD_ARGUMENTS)
def test_malformed_and_extreme_arguments(capsys, argv):
    code, err = run_cli(capsys, argv)
    assert_clean(code, err, argv)
    assert code != 0


@pytest.mark.parametrize("t", ["1e-300", "1e-310", "5e-324"])
def test_tiny_compare_times_are_usage_errors(capsys, t):
    # The spectral sum needs more levels than its cap at each of these
    # times, subnormal or not: exit 2, named.
    code, err = run_cli(capsys, ["compare", "S2", "--t", t])
    assert_clean(code, err, t)
    assert code == 2 and "levels" in err, err


LEAVES = st.sampled_from(
    [None, 0, -1, 1.5, True, "", "0", "1", "-1", "1/0", "x", "2/3",
     "1" + "0" * 40, [], {}, ["1"], [["1"]]]
)


def mutate(doc, path, value):
    """Replace the item at a path of indices and keys by value."""
    out = copy.deepcopy(doc)
    node = out
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return out


def leaf_paths(node, prefix=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield prefix + (key,)
            yield from leaf_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield prefix + (i,)
            yield from leaf_paths(value, prefix + (i,))


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_space_files(capsys, tmp_path, data):
    doc = s2xs2_doc(tmp_path)
    paths = list(leaf_paths(doc))
    path = data.draw(st.sampled_from(paths))
    bad = mutate(doc, path, data.draw(LEAVES))
    file = tmp_path / "mutated.json"
    file.write_text(json.dumps(bad))
    code, err = run_cli(capsys, ["coeffs", file, "--order", "2"])
    assert_clean(code, err, (path, bad))
    assert code != 2, (path, bad, err)
