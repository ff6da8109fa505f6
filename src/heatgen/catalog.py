"""Builtin curvature data and a JSON interchange format for space files.

Builtins cover the unit spheres S2 through S6, the products S2xS2 and
S2xS3, and flat(n) for n <= MAX_FLAT.  For a unit n-sphere the
generators are indexed by coordinate pairs c < d with (E^(cd))_ab =
delta_ca delta_db - delta_da delta_cb, the metric is the identity, and
beta is the identity, which reconstructs R_abcd = g_ac g_bd - g_ad g_bc
exactly.  Products are block direct sums of their factors.

Files are JSON with every rational written as a string such as "3" or
"-7/2"; floats never appear.  Loading parses the file and constructs the
datum, whose constructor checks shapes, the size of the check tensors,
symmetry and definiteness; the structural identities are checked by
curvature.prepare, which every computation runs first.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from pathlib import Path

from .curvature import MAX_CHECK_ENTRIES, SpaceSpec
from .errors import InvalidSpaceSpec, ParseError, UnknownSpace
from .rational import Matrix, format_rational, identity, zeros

SCHEMA_VERSION = 1

_SPHERES = ("S2", "S3", "S4", "S5", "S6")
PRODUCT_FACTORS: dict[str, tuple[str, str]] = {
    "S2xS2": ("S2", "S2"),
    "S2xS3": ("S2", "S3"),
}
# The largest flat(n) that SpaceSpec takes: its checks build n^4 entries.
MAX_FLAT = math.isqrt(math.isqrt(MAX_CHECK_ENTRIES))
_FLAT_RE = re.compile(r"^flat(?:([0-9]+)|\(([0-9]+)\))$")
_RATIONAL_RE = re.compile(r"^(-?[0-9]+)(?:/([0-9]+))?$")


def sphere_dimension(name: str) -> int | None:
    """Tangent dimension when the name is a builtin unit sphere, else None."""
    return int(name[1:]) if name in _SPHERES else None


def catalog_names() -> tuple[str, ...]:
    """All builtin names, with flat(n) shown generically."""
    return _SPHERES + tuple(PRODUCT_FACTORS) + ("flat(n)",)


def _sphere_fields(n: int) -> tuple:
    """(n, p, g, beta, E) of the unit n-sphere, SpaceSpec's fields."""
    pairs = [(c, d) for c in range(n) for d in range(c + 1, n)]
    one, zero = Fraction(1), Fraction(0)
    E = []
    for c, d in pairs:
        mat = [[zero] * n for _ in range(n)]
        mat[c][d] = one
        mat[d][c] = -one
        E.append(tuple(tuple(row) for row in mat))
    return n, len(pairs), identity(n), identity(len(pairs)), tuple(E)


def _sphere_spec(n: int, name: str) -> SpaceSpec:
    return SpaceSpec(name, *_sphere_fields(n))


def _flat_spec(n: int, name: str) -> SpaceSpec:
    return SpaceSpec(name=name, n=n, p=0, g=identity(n), beta=(), E=())


def _block_diag(a: Matrix, b: Matrix) -> Matrix:
    """The square matrix with diagonal blocks a and b, zero elsewhere."""
    zero = Fraction(0)
    return tuple(tuple(row) + (zero,) * len(b) for row in a) + tuple(
        (zero,) * len(a) + tuple(row) for row in b
    )


def _direct_sum(left: tuple, right: tuple) -> tuple:
    """The fields of the block direct sum of two data, given by theirs."""
    (n1, p1, g1, b1, E1), (n2, p2, g2, b2, E2) = left, right
    pad_left, pad_right = zeros(n1, n1), zeros(n2, n2)
    E = tuple(_block_diag(m, pad_right) for m in E1) + tuple(
        _block_diag(pad_left, m) for m in E2
    )
    return n1 + n2, p1 + p2, _block_diag(g1, g2), _block_diag(b1, b2), E


def product_spec(name: str, left: SpaceSpec, right: SpaceSpec) -> SpaceSpec:
    """Block direct sum of two curvature data."""
    fields = [(s.n, s.p, s.g, s.beta, s.E) for s in (left, right)]
    return SpaceSpec(name, *_direct_sum(*fields))


def builtin_fields(name: str) -> tuple | None:
    """(n, p, g, beta, E), SpaceSpec's fields, of the builtin sphere or
    product with the given name, None for any other name: builtin builds
    from them, and invariants.compare tests a datum against them without
    building and checking a second SpaceSpec."""
    if name in _SPHERES:
        return _sphere_fields(int(name[1:]))
    if name in PRODUCT_FACTORS:
        # The factors' fields alone: each factor is not built and checked.
        a, b = (_sphere_fields(int(x[1:])) for x in PRODUCT_FACTORS[name])
        return _direct_sum(a, b)
    return None


def builtin(name: str) -> SpaceSpec:
    """Return the builtin curvature datum with the given name.

    Sphere names are S2..S6, products S2xS2 and S2xS3, and flat spaces may
    be written flat(3) or flat3.
    """
    fields = builtin_fields(name)
    if fields is not None:
        return SpaceSpec(name, *fields)
    m = _FLAT_RE.match(name)
    if m:
        digits = (m.group(1) or m.group(2)).lstrip("0")
        if not digits:
            raise UnknownSpace("flat dimension must be at least 1")
        # Length first: int() refuses strings past 4300 digits.
        if len(digits) > len(str(MAX_FLAT)) or int(digits) > MAX_FLAT:
            raise UnknownSpace(f"flat dimension must be at most {MAX_FLAT}")
        return _flat_spec(int(digits), f"flat({digits})")
    raise UnknownSpace(
        f"no builtin space named {name!r}; known: {', '.join(catalog_names())}"
    )


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

_REQUIRED_FIELDS = ("schema_version", "name", "n", "p", "g", "beta", "E")


def _location(where: str, index: tuple[int, ...]) -> str:
    return where + "".join(f"[{k}]" for k in index)


def _parse_rational(text, where: str, *index: int) -> Fraction:
    """The Fraction a rational string writes, built from the groups of
    its one validating match.  An error names where, followed by [k] for
    each index: that location is built only when the entry is refused."""
    match = _RATIONAL_RE.match(text) if isinstance(text, str) else None
    if match is None:
        raise ParseError(
            f"{_location(where, index)}: expected a rational string like "
            f"'3' or '-7/2', got {text!r}"
        )
    num, den = match.groups()
    try:
        if den is None:
            return Fraction(int(num))
        return Fraction(int(num), int(den))
    except ZeroDivisionError as exc:
        raise ParseError(
            f"{_location(where, index)}: zero denominator in {text!r}"
        ) from exc
    except ValueError as exc:
        # Python refuses integers of more than sys.get_int_max_str_digits()
        # digits.
        raise ParseError(f"{_location(where, index)}: {exc}") from None


def _parse_matrix(data, rows: int, cols: int, where: str,
                  parsed: dict[str, Fraction]):
    """The rows x cols matrix that data writes.  parsed holds the entries
    read so far, by their text, so that each distinct text is parsed once
    per file."""
    if not isinstance(data, list) or len(data) != rows:
        raise ParseError(f"{where}: expected {rows} rows")
    out = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"{where}[{i}]: expected {cols} entries")
        values = []
        for j, x in enumerate(row):
            value = parsed.get(x) if isinstance(x, str) else None
            if value is None:
                value = parsed[x] = _parse_rational(x, where, i, j)
            values.append(value)
        out.append(tuple(values))
    return tuple(out)


def load(path) -> SpaceSpec:
    """Read a space file into a SpaceSpec, without the structural checks
    (curvature.prepare runs those).

    Text that is not UTF-8, syntax errors, JSON nested beyond the
    parser's recursion limit, a schema_version other than the integer
    SCHEMA_VERSION, unknown fields, malformed rationals, and construction
    defects (shapes, check tensors past MAX_CHECK_ENTRIES, symmetry,
    positive definiteness, generator independence) raise ParseError with
    the offending location.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    unknown = sorted(set(doc) - set(_REQUIRED_FIELDS))
    if unknown:
        raise ParseError(f"{path}: unknown fields {unknown}")
    missing = [f for f in _REQUIRED_FIELDS if f not in doc]
    if missing:
        raise ParseError(f"{path}: missing fields {missing}")
    version = doc["schema_version"]
    if (not isinstance(version, int) or isinstance(version, bool)
            or version != SCHEMA_VERSION):
        raise ParseError(
            f"{path}: unsupported schema_version {version!r}"
        )
    name = doc["name"]
    if not isinstance(name, str) or not name:
        raise ParseError(f"{path}: name must be a nonempty string")
    n, p = doc["n"], doc["p"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ParseError(f"{path}: n must be a nonnegative integer")
    if not isinstance(p, int) or isinstance(p, bool) or p < 0:
        raise ParseError(f"{path}: p must be a nonnegative integer")
    parsed: dict[str, Fraction] = {}
    g = _parse_matrix(doc["g"], n, n, "g", parsed)
    beta = _parse_matrix(doc["beta"], p, p, "beta", parsed)
    if not isinstance(doc["E"], list) or len(doc["E"]) != p:
        raise ParseError(f"E: expected {p} generator matrices")
    E = tuple(
        _parse_matrix(mat, n, n, f"E[{i}]", parsed)
        for i, mat in enumerate(doc["E"])
    )
    try:
        return SpaceSpec(name=name, n=n, p=p, g=g, beta=beta, E=E)
    except InvalidSpaceSpec as exc:
        raise ParseError(f"{path}: {exc}") from exc


def save(spec: SpaceSpec, path) -> None:
    """Write a space file that load() reproduces exactly."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "name": spec.name,
        "n": spec.n,
        "p": spec.p,
        "g": [[format_rational(x) for x in row] for row in spec.g],
        "beta": [[format_rational(x) for x in row] for row in spec.beta],
        "E": [
            [[format_rational(x) for x in row] for row in mat]
            for mat in spec.E
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
