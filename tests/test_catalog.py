"""Builtin catalog and the space file format."""

import json
import time
from fractions import Fraction as F

import pytest

import heatgen as hg
from heatgen import catalog
from oracles import moved


def test_catalog_names_cover_builtins():
    names = catalog.catalog_names()
    for name in ("S2", "S6", "S2xS2", "S2xS3", "flat(n)"):
        assert name in names


@pytest.mark.parametrize("n", range(2, 7))
def test_sphere_dimensions(n):
    spec = hg.builtin(f"S{n}")
    assert spec.n == n
    assert spec.p == n * (n - 1) // 2


def test_flat_accepts_both_spellings():
    a = hg.builtin("flat3")
    b = hg.builtin("flat(3)")
    assert a == b
    assert a.n == 3 and a.p == 0


@pytest.mark.parametrize("name", ["flat(3", "flat3)"])
def test_flat_rejects_unbalanced_parentheses(name):
    with pytest.raises(hg.UnknownSpace):
        hg.builtin(name)


def test_flat_zero_dimension_rejected():
    with pytest.raises(hg.UnknownSpace):
        hg.builtin("flat0")


def test_flat_dimension_stops_at_the_entry_bound(monkeypatch):
    # flat(n)'s checks build n^4 entries (the Jacobi contraction).
    assert catalog.MAX_FLAT**4 <= hg.curvature.MAX_CHECK_ENTRIES
    assert (catalog.MAX_FLAT + 1) ** 4 > hg.curvature.MAX_CHECK_ENTRIES
    assert hg.builtin(f"flat({catalog.MAX_FLAT})").n == catalog.MAX_FLAT
    # Leading zeros do not count toward the length of the digits.
    assert hg.builtin("flat(00045)").name == "flat(45)"

    def unbuilt(n):
        raise AssertionError("identity built for a refused dimension")

    monkeypatch.setattr(catalog, "identity", unbuilt)
    # 5001 digits: past the digits int() converts, so never converted.
    for digits in ("46", "1" + "0" * 12, "1" + "0" * 5000):
        with pytest.raises(hg.UnknownSpace,
                           match="^flat dimension must be at most 45$"):
            hg.builtin(f"flat({digits})")


def test_so30_datum_is_refused_before_conversion():
    # so(30): n = 30, p = 435, whose Jacobi check needs 465^4 entries;
    # construction refuses it before factoring its Gram matrices.
    start = time.perf_counter()
    with pytest.raises(
        hg.InvalidSpaceSpec,
        match="^S30: n=30, p=435 needs check tensors of 46753250625 entries",
    ):
        catalog._sphere_spec(30, "S30")
    assert time.perf_counter() - start < 1


def test_unknown_name():
    with pytest.raises(hg.UnknownSpace, match="S2xS3"):
        hg.builtin("S7")


def test_product_is_block_sum():
    prod = hg.builtin("S2xS3")
    s2, s3 = hg.builtin("S2"), hg.builtin("S3")
    assert prod.n == 5 and prod.p == 4
    # tangent blocks
    for a in range(2):
        for b in range(2):
            assert prod.g[a][b] == s2.g[a][b]
            assert prod.g[2 + a][b] == 0
    # first factor's generator lives in the first block only
    assert prod.E[0][0][1] == s2.E[0][0][1]
    assert all(prod.E[0][2 + i][2 + j] == 0 for i in range(3) for j in range(3))
    # second factor's generators live in the second block only
    assert prod.E[1][2][3] == s3.E[0][0][1]
    assert all(prod.E[1][i][j] == 0 for i in range(2) for j in range(2))


def test_moved_product_is_block_sum_with_cauchy_coefficients():
    # Factors moved by the spacegen laws, so neither g nor beta is the
    # identity: P upper triangular with a rational diagonal, N unit lower
    # triangular, and the scalings mu, nu.
    s2 = moved(hg.builtin("S2"), ((F(2), F(1, 2)), (F(0), F(1, 3))),
               ((F(1),),), F(3, 2), F(5, 7))
    s3 = moved(
        hg.builtin("S3"),
        ((F(1), F(-2, 3), F(1)), (F(0), F(3, 2), F(1, 3)),
         (F(0), F(0), F(1, 2))),
        ((F(1), F(0), F(0)), (F(-1, 2), F(1), F(0)), (F(2, 3), F(1), F(1))),
        F(2, 5), F(4),
    )
    assert s2.g != hg.builtin("S2").g and s3.beta != hg.builtin("S3").beta
    prod = catalog.product_spec("moved", s2, s3)

    def block_sum(a, b):
        return tuple(
            tuple(a[i][j] if i < len(a) and j < len(a) else
                  b[i - len(a)][j - len(a)] if i >= len(a) and j >= len(a)
                  else F(0)
                  for j in range(len(a) + len(b)))
            for i in range(len(a) + len(b))
        )

    zero2, zero3 = ((F(0),) * 2,) * 2, ((F(0),) * 3,) * 3
    assert prod == hg.SpaceSpec(
        "moved", 5, 4, block_sum(s2.g, s3.g), block_sum(s2.beta, s3.beta),
        tuple(block_sum(m, zero3) for m in s2.E)
        + tuple(block_sum(zero2, m) for m in s3.E),
    )
    order = 3
    a, b, c = (hg.heat_coefficients(s, order).coeffs for s in (s2, s3, prod))
    assert c == tuple(
        sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(order + 1)
    )


def test_sphere_dimension_helper():
    assert catalog.sphere_dimension("S4") == 4
    assert catalog.sphere_dimension("S2xS2") is None
    assert catalog.sphere_dimension("flat(2)") is None


def test_roundtrip_is_exact(tmp_path):
    for name in ("S3", "S2xS2", "flat2"):
        spec = hg.builtin(name)
        path = tmp_path / f"{name}.json"
        hg.save(spec, path)
        loaded = hg.load(path)
        assert loaded == spec


def test_roundtrip_preserves_non_integer_rationals(tmp_path):
    s2 = hg.builtin("S2")
    spec = hg.SpaceSpec(
        "S2-third",
        2,
        1,
        s2.g,
        ((F(1, 3),),),
        s2.E,
    )
    path = tmp_path / "third.json"
    hg.save(spec, path)
    assert hg.load(path) == spec
    assert '"1/3"' in path.read_text()


def test_load_rejects_bad_json_with_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "schema_version": 1,\n  "name": }\n')
    with pytest.raises(hg.ParseError, match="line 3"):
        hg.load(path)


def test_load_rejects_unknown_field(tmp_path):
    spec = hg.builtin("S2")
    path = tmp_path / "extra.json"
    hg.save(spec, path)
    doc = json.loads(path.read_text())
    doc["comment"] = "hello"
    path.write_text(json.dumps(doc))
    with pytest.raises(hg.ParseError, match="unknown fields"):
        hg.load(path)


def test_load_rejects_wrong_schema_version(tmp_path):
    # true and 1.0 compare equal to 1, but only the integer 1 is version 1.
    spec = hg.builtin("S2")
    path = tmp_path / "version.json"
    hg.save(spec, path)
    doc = json.loads(path.read_text())
    for version in (9, True, 1.0):
        doc["schema_version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(hg.ParseError, match="schema_version"):
            hg.load(path)


def test_load_rejects_float_contamination(tmp_path):
    spec = hg.builtin("S2")
    path = tmp_path / "float.json"
    hg.save(spec, path)
    doc = json.loads(path.read_text())
    doc["g"][0][0] = "1.5"
    path.write_text(json.dumps(doc))
    with pytest.raises(hg.ParseError, match=r"g\[0\]\[0\]"):
        hg.load(path)


def _int_limit_message(digits: str) -> str:
    with pytest.raises(ValueError) as info:
        int(digits)
    return str(info.value)


@pytest.mark.parametrize("text,message", [
    ("0/0", "zero denominator in '0/0'"),
    ("1/-2", "expected a rational string like '3' or '-7/2', got '1/-2'"),
    ("+1", "expected a rational string like '3' or '-7/2', got '+1'"),
    (" 1", "expected a rational string like '3' or '-7/2', got ' 1'"),
    ("1" * 5000, _int_limit_message("1" * 5000)),
    ("3/" + "7" * 5000, _int_limit_message("7" * 5000)),
], ids=["0/0", "1/-2", "+1", "space 1", "5000-digit numerator",
        "5000-digit denominator"])
def test_parse_rational_errors_name_the_entry(text, message):
    with pytest.raises(hg.ParseError) as info:
        catalog._parse_rational(text, "beta[1][0]")
    assert str(info.value) == f"beta[1][0]: {message}"


@pytest.mark.parametrize("text,value", [
    ("0", F(0)), ("-0", F(0)), ("-0/5", F(0)), ("6/4", F(3, 2)),
    ("-7/2", F(-7, 2)), ("12", F(12)), ("1\n", F(1)),
    ("9" * 300 + "/3", F(int("3" * 300))),
], ids=["0", "-0", "-0/5", "6/4", "-7/2", "12", "1 newline", "300 digits"])
def test_parse_rational_reads_lowest_terms(text, value):
    # A trailing newline passes the pattern's $, as it always has.
    got = catalog._parse_rational(text, "g[0][0]")
    assert type(got) is F and got == value


def test_load_rejects_zero_denominator(tmp_path):
    spec = hg.builtin("S2")
    path = tmp_path / "zden.json"
    hg.save(spec, path)
    doc = json.loads(path.read_text())
    doc["beta"][0][0] = "3/0"
    path.write_text(json.dumps(doc))
    with pytest.raises(hg.ParseError, match="denominator"):
        hg.load(path)


def test_load_names_non_antisymmetric_generator(tmp_path):
    spec = hg.builtin("S3")
    path = tmp_path / "asym.json"
    hg.save(spec, path)
    doc = json.loads(path.read_text())
    doc["E"][1][0][2] = "5"  # breaks antisymmetry of generator 1
    path.write_text(json.dumps(doc))
    with pytest.raises(hg.ParseError, match="generator 1"):
        hg.load(path)


def test_load_missing_field(tmp_path):
    path = tmp_path / "missing.json"
    path.write_text('{"schema_version": 1, "name": "x"}')
    with pytest.raises(hg.ParseError, match="missing fields"):
        hg.load(path)


def test_load_parses_and_prepare_validates(tmp_path):
    # An anisotropically squashed S3 parses fine but is not symmetric.
    s3 = hg.builtin("S3")
    squashed = hg.SpaceSpec(
        "squashed",
        3,
        3,
        s3.g,
        ((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(2))),
        s3.E,
    )
    path = tmp_path / "squashed.json"
    hg.save(squashed, path)
    # load parses only; the structural checks are prepare's.
    loaded = hg.load(path)
    assert loaded == squashed
    with pytest.raises(hg.ValidationError) as err:
        hg.prepare(loaded)
    assert "generator_connection_identity" in str(err.value)


def test_uniformly_rescaled_sphere_file_loads(tmp_path):
    # A uniform beta rescale is a radius change and must stay loadable.
    s3 = hg.builtin("S3")
    rescaled = hg.SpaceSpec(
        "S3-rescaled",
        3,
        3,
        s3.g,
        tuple(tuple(2 * x for x in row) for row in s3.beta),
        s3.E,
    )
    path = tmp_path / "rescaled.json"
    hg.save(rescaled, path)
    assert hg.load(path) == rescaled
