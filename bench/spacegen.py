"""Seeded space files for the spacefiles workload.

Each file is a builtin curvature datum (g, beta, E) moved by exact
transformations whose effect on the heat coefficients is known:

- tangent change P:   g' = P^T g P,  E'^i = P^T E^i P          a_k unchanged
- generator change N: E'^i = sum_j (N^-T)_ij E^j, beta' = N beta N^T
                                                               a_k unchanged
- scaling mu, nu:     (mu g, nu beta, E)                       a_k nu^k / mu^2k

so the expected coefficients follow from the pinned base values alone.
P and N are unit-triangular rational matrices (P also carries a rational
diagonal), which keeps every entry a small rational.  Half of the files
keep the builtin beta (N = 1, nu = 1), so the moment memos of a process
are shared between them; the other half each bring a beta of their own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import heatgen

from expected import coeffs as pinned_coeffs

BASES = ("S2", "S3", "S2xS2", "S2xS3", "S4")
# Highest order drawn per base.  S2xS3 stops at 3 and S4 at 2, where the
# word enumeration is still cheaper than parsing, validation and holonomy
# derivation: this workload measures the fixed per-request costs, which
# exact-catalog leaves in the noise.
MAX_ORDER = {"S2": 4, "S3": 4, "S2xS2": 4, "S2xS3": 3, "S4": 2}
MIN_ORDER = 2
# Metric scale of the overflow probe: a valid datum whose exact path
# overflows int64 arithmetic in the generator-identity check.
BIG_MU = 3**40


@dataclass(frozen=True)
class SpaceFile:
    """One generated request with its expected answer."""

    path: str
    name: str
    base: str
    order: int
    expected: tuple[str, ...]
    beta_kept: bool


def _matmul(a, b):
    cols = list(zip(*b))
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols)
        for row in a
    )


def _transpose(a):
    return tuple(zip(*a))


def _identity(size):
    return tuple(
        tuple(Fraction(int(i == j)) for j in range(size)) for i in range(size)
    )


def _small_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-2, 2), rng.randint(1, 3))


def _unit_triangular(rng: random.Random, size: int, lower: bool):
    return tuple(
        tuple(
            Fraction(1) if i == j
            else _small_rational(rng) if (i > j) == lower
            else Fraction(0)
            for j in range(size)
        )
        for i in range(size)
    )


def _unit_lower_inverse(m):
    """Exact inverse of a unit lower-triangular matrix by substitution."""
    size = len(m)
    inv = [list(row) for row in _identity(size)]
    for col in range(size):
        for i in range(col + 1, size):
            inv[i][col] = -sum(
                (m[i][k] * inv[k][col] for k in range(col, i)), Fraction(0)
            )
    return tuple(tuple(row) for row in inv)


def transform(spec, *, mu, nu, P, N, name: str):
    """Apply the tangent change P, the generator change N and the
    scaling (mu, nu) to a SpaceSpec."""
    PT = _transpose(P)
    E = [_matmul(_matmul(PT, m), P) for m in spec.E]
    NinvT = _transpose(_unit_lower_inverse(N))
    p, n = spec.p, spec.n
    E = tuple(
        tuple(
            tuple(
                sum((NinvT[i][j] * E[j][a][b] for j in range(p)), Fraction(0))
                for b in range(n)
            )
            for a in range(n)
        )
        for i in range(p)
    )
    g = tuple(tuple(mu * x for x in row) for row in _matmul(_matmul(PT, spec.g), P))
    beta = _matmul(_matmul(N, spec.beta), _transpose(N))
    beta = tuple(tuple(nu * x for x in row) for row in beta)
    return heatgen.SpaceSpec(name=name, n=n, p=p, g=g, beta=beta, E=E)


def scaled_coeffs(base: str, order: int, mu: Fraction, nu: Fraction):
    """Expected a_0..a_order after the transformations, as strings."""
    return tuple(
        str(a * nu**k / mu ** (2 * k))
        for k, a in enumerate(pinned_coeffs(base, order))
    )


def draw(rng: random.Random, base: str, order: int, name: str,
         beta_kept: bool, big_mu: bool = False):
    """Draw one transformed copy of a builtin space.  Returns the moved
    SpaceSpec and its expected coefficients up to `order`."""
    spec = heatgen.builtin(base)
    mu = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    if big_mu:
        mu *= BIG_MU
    diag = [Fraction(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(spec.n)]
    U = _unit_triangular(rng, spec.n, lower=False)
    P = tuple(tuple(u * d for u, d in zip(row, diag)) for row in U)
    if beta_kept:
        nu, N = Fraction(1), _identity(spec.p)
    else:
        nu = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        N = _unit_triangular(rng, spec.p, lower=True)
    moved = transform(spec, mu=mu, nu=nu, P=P, N=N, name=name)
    return moved, scaled_coeffs(base, order, mu, nu)


def write(spec, directory) -> str:
    """Save spec as <directory>/<name>.json with heatgen.save."""
    path = str(Path(directory) / f"{spec.name}.json")
    heatgen.save(spec, path)
    return path


def plan(count: int) -> list[tuple[str, int, bool]]:
    """(base, order, beta_kept) for `count` files.  Bases take turns, each
    base cycles through its orders, and each order comes both with and
    without the builtin beta, so every seed asks for the same mix of work."""
    out = []
    for index in range(count):
        base = BASES[index % len(BASES)]
        turn = index // len(BASES)
        orders = range(MIN_ORDER, MAX_ORDER[base] + 1)
        out.append((base, orders[turn % len(orders)],
                    (turn // len(orders)) % 2 == 0))
    return out


def generate(seed: int, count: int, directory, *, big_mu: bool = False,
             tag: str = "f") -> list[SpaceFile]:
    """Write `count` seeded space files into `directory` with heatgen.save
    and return them with their expected coefficients.  The seed draws the
    transformations and the request order.  With big_mu every metric
    scale is multiplied by 3^40."""
    rng = random.Random(f"spacefiles:{seed}:{tag}")
    items = plan(count)
    rng.shuffle(items)
    out = []
    for index, (base, order, beta_kept) in enumerate(items):
        name = f"{base}-{tag}{index:03d}"
        moved, want = draw(rng, base, order, name, beta_kept, big_mu)
        out.append(SpaceFile(write(moved, directory), name, base, order,
                             want, beta_kept))
    return out
