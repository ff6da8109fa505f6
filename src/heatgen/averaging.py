"""Gaussian averages over the holonomy variables: the oracles of the
production average, series.whitened_average, exact and numeric.

The group average integrates against the centered Gaussian whose
covariance is Cov(omega^i, omega^j) = 2 beta^{ij}, where beta^{ij} are the
entries of the inverse of beta.  That normalization is pinned down by the
one-dimensional quadrature oracle: for p = 1, beta = 1 the even moments
must be <omega^{2k}> = (2k-1)!! 2^k.

average() on an OmegaPolynomial is the exact oracle: it takes the
moments in omega from a sum over pairings (_moments).  Each call of
average or wick_moment builds one table of sub-moments and drops it on
return, so no table outlives a call and a long-lived process does not
grow with every beta it sees.

The numeric path evaluates the full (not truncated) integrand in floating
point, by Monte Carlo over all of h or by Gauss-Hermite quadrature on a
maximal torus.  Both factors are skew once rewritten by the Cholesky
factors of g and beta (see _Integrand), and with s_j the singular values
of a skew X, det(sinh X / X) = prod_j sin(s_j)/s_j; the point is kept
inside the regularity ball max_j s_j < pi - _MARGIN, a condition that
does not depend on the tangent or holonomy basis.  Each factor's
generators are split once per integrand, exactly and before any float
is formed, into invariant blocks (rational.invariant_split): the common
kernel is dropped, and a part larger than 4 x 4 divided by the rational
eigenspaces of the self-adjoint commutant.  That separates the simple
ideals of F (S4's so(4) into two 3 x 3 blocks) and the de Rham factors
of D in any basis.  The blocks up to 4 x 4 are compiled into rotation
planes (_Factor), kept squared, u = s^2: one projection product for both
factors gives each plane's u as the square of one row (a 2 x 2 block)
or the sum of squares of a row triple (a 3 x 3 block; a 4 x 4 block's
two planes from two triples and one sqrt), and a larger block gives its
eigenvalue pairs of -X^2, one batched symmetric eigensolve each.  A
block of one plane has the exact form K_ij = -1/2 tr(G_i G_j), u =
omega^T K omega; a D block and an F block of equal forms have equal
planes at every point, so their sin(s)/s cancel in the ratio, and the
pair's plane is projected once, from D's rows, for the ball and the
Weyl weight alone (S3's integrand is 1 inside the ball).  The ball is
max u < (pi - _MARGIN)^2, and sin(s)/s = (1 - u/pi^2) P(u) with P a
fitted polynomial (_sin_ratio), so a plane costs no sin, no sqrt and no
division; u is clamped to the ball first, so a point far outside stays
finite.  The half-determinant sqrt(det(sinh X/X)) is the product of
sin(s)/s over the planes.  The integrand depends on t only through the
scale of its points, so one serves a whole compare grid.  Both methods
call it on blocks of at most _BLOCK points, whose temporaries stay
within a core's L2 cache.  Monte Carlo draws rounds of that size; the
generator fills rows in stream order, so the samples do not depend on
it.

The integrand is Ad(H)-invariant and so is its Gaussian, so Weyl's
integration formula gives its average over h as one over a maximal
torus t = span(U), U = hol.torus of shape (r, p), r = rank h:
<f>_h = sum w f(U^T eta) J(eta) / sum w J(eta), with eta on an r-fold
Gauss-Hermite grid for N(0, 2 (U beta U^T)^{-1}) and the Weyl weight
J = prod_{alpha>0} alpha(eta)^2, taken in floats from the same planes of
F as the integrand (_Integrand.weyl) and divided by its largest value on
the grid, so both sums come from one walk of the grid.  The map from the
grid to omega is folded into the projection rows once per averager, so a
point costs r multiply-adds per row, not p.  An abelian h takes the same
path: its torus is all of h (r = p, U = I), it has no roots, and J = 1.
S3 takes 40 + 36 points where a p-fold grid would take 40^3 + 36^3, and
every builtin fits the grid limit at the default 40 nodes.  Quadrature
evaluates the first half of its symmetric grid, each point standing for
its mirror too (the integrand and J are even).  That half, in C order,
and its weights are built once per averager from the point indices,
never from the whole grid, and walked _BLOCK points at a time (_Rule).
The 1-d rule comes from the eigenvalues of the Jacobi matrix of
exp(-x^2) and the Christoffel function of its orthonormal recurrence
(_hermite_rule, Golub and Welsch), mirrored exactly, as the half grid
needs.  So memory does not grow with the samples, apart from Monte
Carlo's vector of accepted values, 8 bytes a sample (and the one
temporary of its size that its standard deviation takes), and the half
grid's points and weights, (r + 1) 4 bytes a grid point.  The Monte
Carlo and quadrature sizes and the seed are checked before the datum is
prepared (_MAX_SAMPLES, _MAX_NODES), and the grid of nodes^r points
against _MAX_GRID_POINTS when the torus is built, before any grid array
is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .curvature import Prepared, SpaceSpec, check_skew, prepare
from .errors import HeatgenError, check_time
from .rational import (
    Matrix,
    ScaledTensor,
    exact_einsum,
    float_stack,
    invariant_split,
    near_unit,
)
from .series import OmegaPolynomial, TSeries

__all__ = [
    "wick_moment",
    "average",
    "NumericAverage",
    "numeric_average",
]

def _moments(beta_inv: Matrix):
    """The exact moment function of the Gaussian with covariance
    2 * beta_inv: called on an index tuple, it returns <omega_{i1} ...
    omega_{id}> by the sum over pairings of the first index with each
    other one.  The sub-moments go into a table that lives as long as the
    function, so one call of an oracle shares them and keeps nothing."""
    cov = [[2 * Fraction(x) for x in row] for row in beta_inv]
    table = {(): Fraction(1)}

    def moment(key: tuple[int, ...]) -> Fraction:
        if len(key) % 2:
            return Fraction(0)
        if key not in table:
            first, rest = key[0], key[1:]
            total = Fraction(0)
            for idx in range(len(rest)):
                c = cov[first][rest[idx]]
                if c:
                    total += c * moment(rest[:idx] + rest[idx + 1 :])
            table[key] = total
        return table[key]

    return moment


def wick_moment(key, beta_inv: Matrix) -> Fraction:
    """Exact Gaussian moment <omega_{i1} ... omega_{id}> by a sum over
    pairings, with covariance 2 * beta_inv."""
    idx = tuple(sorted(int(i) for i in key))
    p = len(beta_inv)
    if any(i < 0 or i >= p for i in idx):
        raise ValueError("moment index out of range")
    return _moments(beta_inv)(idx)


def average(poly: OmegaPolynomial, beta_inv: Matrix) -> TSeries:
    """Average an OmegaPolynomial term by term, keeping the explicit
    t-grade of each monomial.  Odd monomials vanish."""
    if poly.p > len(beta_inv):
        raise ValueError("moment index out of range")
    moment = _moments(beta_inv)
    coeffs = [Fraction(0)] * (poly.order + 1)
    for (grade, exps), val in poly.terms.items():
        degree = sum(exps)
        if degree == 0:
            coeffs[grade] += val
            continue
        if degree % 2:
            continue
        m = moment(tuple(i for i, e in enumerate(exps) for _ in range(e)))
        if m:
            coeffs[grade] += val * m
    return TSeries(poly.order, tuple(coeffs))


# ---------------------------------------------------------------------------
# Floating-point evaluation of the untruncated integrand
# ---------------------------------------------------------------------------

# A point is kept when every factor's top singular value stays below
# pi - _MARGIN, where sinh X / X is still well away from singular.
_MARGIN = 0.01
# Quadrature limits: the k-node rule's nodes are the eigenvalues of a
# k x k symmetric matrix (_hermite_rule); the tensor grid on a torus of
# rank r has nodes**r points, and the first half of it is kept, points
# and weights, (r + 1) 4 bytes a grid point: 4 MB for 64^3 points.
_MAX_NODES = 256
_MAX_GRID_POINTS = 64**3
# Monte Carlo limit: 50 times compare's default, and a values vector of
# 80 MB, the one array that grows with the sample count.
_MAX_SAMPLES = 10**7
# Monte Carlo gives up once its draws reach this many per sample asked
# for, a ball that accepts under 1 % of them: every benchmark request
# accepts over 96 %, and S4 at t = 10 about 4 %, while S4 at t = 200
# accepts about 1e-5 and would draw 10^10 times for 10^5 samples.  A
# refused request costs at most 100 times a well-posed one, and a
# quadrature average has no such floor.
_DRAWS_PER_SAMPLE = 100
# Points per integrand call, Monte Carlo round or quadrature block: every
# temporary of the factor kernels stays within a core's L2 cache.
_BLOCK = 8192
# sin(s)/s = (1 - u/pi^2) P(u) in u = s^2, with P(u) = sum_n _SIN_RATIO[n]
# u^n fitted to sin(s)/s / (1 - s^2/pi^2) = prod_{k>=2} (1 - u/(k pi)^2)
# on [0, pi^2], by least squares in the relative error at 400 Chebyshev
# points in 60-digit arithmetic with P(0) = 1 held: its own error, 9e-18,
# is far below rounding, so a value is as accurate as np.sin(s)/s.
_SIN_RATIO = (
    1.0, -0.06534548302432878, 0.0017124516476276304,
    -2.4905070544208292e-05, 2.3232069574846863e-07,
    -1.5131003360127907e-09, 7.281276823935411e-12,
    -2.696130353448335e-14, 7.889084654537133e-17,
    -1.715917335372976e-19,
)


def _sin_ratio(u: np.ndarray) -> np.ndarray:
    """sin(s)/s at s = sqrt(u), elementwise, for u in [0, pi^2]: (1 -
    u/pi^2) P(u) by Horner, exactly 1 at u = 0.  It needs no sin, sqrt or
    division, so a plane with s = 0 is no 0/0; past pi^2 the fit does not
    hold, and the integrand clamps u to its ball first."""
    out = u * _SIN_RATIO[-1]
    out += _SIN_RATIO[-2]
    for c in _SIN_RATIO[-3::-1]:
        out *= u
        out += c
    root = u * (-1.0 / math.pi**2)
    root += 1.0
    out *= root
    return out


@dataclass(frozen=True)
class NumericAverage:
    """Result of a floating-point group average."""

    value: float
    std_error: float
    singularity_hits: int
    evaluations: int
    method: str


def _inv_sqrt(sym: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(sym)
    return (v / np.sqrt(w)) @ v.T


def _skew_stack(gens: np.ndarray, metric: ScaledTensor) -> np.ndarray:
    """C^T G C^{-T} for each G in the stack, with metric = C C^T up to a
    positive scale (Cholesky): skew-symmetric when metric . G is
    antisymmetric.  The rounding is antisymmetrized away, which leaves an
    already skew G (metric = I) bit for bit unchanged."""
    chol = np.linalg.cholesky(near_unit(metric)[0])
    out = chol.T @ gens @ np.linalg.inv(chol).T
    return (out - out.transpose(0, 2, 1)) / 2.0


def _squares(rows: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(rows @ y^T)^2, (len(rows), N): every projection row at the points
    y (N, dim), squared, from one product for the whole batch."""
    x = rows @ y.T
    x *= x
    return x


def _plane_form(gens: ScaledTensor) -> ScaledTensor:
    """The exact form K_ij = -1/2 tr(G_i G_j), (k, k), of a block of one
    plane, d <= 3, whose stack (k, d, d) is skew for some metric: X =
    sum_i omega_i G_i is similar to a skew A, and tr X^2 = tr A^2 = -2 s^2,
    so s^2 = omega^T K omega.  The trace does not see the metric, nor the
    similarity that whitens the block."""
    return exact_einsum("iab,jba->ij", gens, gens).scale(Fraction(-1, 2))


class _Factor:
    """Blocks of one factor, D or F, compiled from their whitened skew
    stacks (dim, d, d): at points y (N, dim) it gives the squares u = s^2
    of the rotation planes of X(y) = sum_l y_l G_l, each plane once (its
    s is one of an equal pair of singular values).

    A block of size 4 or less has its planes in closed form, from at
    most six linear functions of y, the projection rows:

    - d = 2: one plane, u = x01^2, from one row.
    - d = 3: one plane, u = x01^2 + x02^2 + x12^2, from a row triple.
    - d = 4: so(4) = so(3) + so(3).  The norms a and b of the self-dual
      and anti-self-dual parts, (x01 + x23, x02 - x13, x03 + x12) and
      (x01 - x23, x02 + x13, x03 - x12), are s_1 + s_2 and |s_1 - s_2|
      in some order, so the planes are (a + b)/2 and (a - b)/2.  The six
      rows are halved (exactly), so with u_sd = a^2/4 and u_asd = b^2/4
      the planes are u_sd + u_asd +- 2 sqrt(u_sd u_asd): one sqrt a pair.

    rows stacks the triples row-major, the 4 x 4 blocks' self-dual ones
    first, then their anti-self-dual ones, then the 3 x 3 blocks', and
    after the triples the 2 x 2 blocks' single rows; planes finishes
    them from the squared rows (_squares).  Blocks of size 5 or more
    (eigen) take one symmetric eigensolve each.  count is the number of
    planes, 0 for a factor with no block.
    """

    def __init__(self, blocks: list[np.ndarray], dim: int):
        # (x01, x02, x03) and (x23, -x13, x12) of each 4 x 4 block.
        fours = [
            (g[:, [0, 0, 0], [1, 2, 3]],
             g[:, [2, 1, 1], [3, 3, 2]] * np.array([1.0, -1.0, 1.0]))
            for g in blocks if g.shape[-1] == 4
        ]
        rows = [(left + right).T / 2.0 for left, right in fours]
        rows += [(left - right).T / 2.0 for left, right in fours]
        rows += [g[:, [0, 0, 1], [1, 2, 2]].T
                 for g in blocks if g.shape[-1] == 3]
        self.triples = len(rows)
        rows += [g[:, 0, 1][None] for g in blocks if g.shape[-1] == 2]
        self.rows = np.concatenate(rows) if rows else np.zeros((0, dim))
        self.fours = len(fours)
        self.eigen = [g for g in blocks if g.shape[-1] >= 5]
        self.closed = len(self.rows) - 2 * self.triples
        self.count = self.closed + sum(g.shape[-1] // 2 for g in self.eigen)

    def planes(self, x: np.ndarray, y: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
        """u of every plane at the points y, (count, N), written into out
        when given, from x, the squares of rows at y: each triple's sum
        and each single row, the 4 x 4 pairs finished, then each
        eigensolved block's.  The eigenvalues of -X^2 = X^T X are the
        s_j^2, ascending, in equal pairs after a zero when d is odd; one
        of each pair is a plane."""
        if out is None:
            out = np.empty((self.count, len(y)))
        n = self.triples
        if n:
            np.add(x[0 : 3 * n : 3], x[1 : 3 * n : 3], out=out[:n])
            out[:n] += x[2 : 3 * n : 3]
        out[n : self.closed] = x[3 * n :]
        if self.fours:
            a, b = out[: self.fours], out[self.fours : 2 * self.fours]
            cross = a * b
            np.sqrt(cross, out=cross)
            cross += cross
            total = a + b
            np.add(total, cross, out=a)
            np.subtract(total, cross, out=b)
        start = self.closed
        for gens in self.eigen:
            d = gens.shape[-1]
            mats = (y @ gens.reshape(len(gens), -1)).reshape(len(y), d, d)
            pairs = np.linalg.eigvalsh(-(mats @ mats))[:, d % 2 :: 2]
            out[start : start + d // 2] = pairs.T
            start += d // 2
        return out


class _Integrand:
    """Shared evaluation core for both numeric methods, as a function of
    the point y = sqrt(t) beta^{1/2} omega over all of h, or, given an
    integer basis U (r, p) of a maximal torus, of y = sqrt(t) L^T eta
    with omega = U^T eta and U beta U^T = L L^T.

    The factor matrices (sqrt(t)/2) D(omega) and (sqrt(t)/2) F(omega)
    depend on t and omega only through sqrt(t) omega, so one integrand
    serves every t; the caller scales its points (a standard normal z
    gives y = sqrt(2t) z, a Gauss-Hermite node x gives y = 2 sqrt(t) x).

    D(omega) is skew for g and F(omega) for beta (curvature.check_skew,
    run on the raw generators when the integrand is built).
    Once per integrand each family is split exactly into invariant blocks
    (rational.invariant_split): its common kernel, where every factor
    matrix vanishes, is dropped, and the rest, when it is larger than
    4 x 4, divided by the eigenspaces of its self-adjoint commutant, so
    the simple ideals of F and the de Rham factors of D each become a
    block of their own; a block of 4 x 4 or less is left whole, since
    its planes have a closed form whatever it holds (_Factor).  Each
    block is then rewritten by the Cholesky factor of its own metric,
    the restriction of g or beta (_skew_stack), a similarity, so that
    every factor matrix is skew, and the ball max_j s_j < pi - margin on
    its singular values is the same in every tangent and holonomy basis.
    The map from y to omega, (p, p) or, on the torus, (p, r), is folded
    into the generators, after dividing beta by 4^k and the generators by
    2^k exactly (rational.near_unit), which changes no factor matrix and
    keeps every float in range; a point then costs r multiply-adds per
    projection row, not p.

    Each F block of one plane is paired, in exact arithmetic, with a D
    block of one plane whose form (_plane_form) is equal: D and F share
    the map from y to omega and its scale, so the two planes are equal
    at every point, and the pair's sin(s)/s cancels in the ratio (S3,
    S2xS3's S3 factor: h and m carry one representation).  The pair's
    plane is projected once, from D's rows, and enters the ball and the
    Weyl weight alone.

    blocks holds the whitened stacks of the D blocks and of the F
    blocks, and factors the three compiled from them (_Factor): D's
    unpaired blocks, F's unpaired blocks and the pairs.  Their rows form
    one projection, so a batch of points costs one product, and planes
    gives the squared planes u of all three in that order: D's split
    first, F's own up to shared, the pairs' after.  The value is
    prod_F sin(s)/s / prod_D sin(s)/s over the unpaired planes, the
    square root of det(sinh X_F/X_F) / det(sinh X_D/X_D), and a point is
    kept when max u < (pi - margin)^2 over every plane, the ball
    (values).
    """

    def __init__(self, prep: Prepared, margin: float,
                 basis: np.ndarray | None = None):
        spec, hol = prep.spec, prep.hol
        check_skew(prep)
        bound = math.pi - margin
        # bound^2 with the sign of bound: a margin past pi keeps no point.
        self.ball = bound * abs(bound)
        splits = (
            invariant_split(hol.D, spec.tensors.g),
            invariant_split(hol.F_mats, spec.tensors.beta),
        )
        beta, shrink = near_unit(spec.tensors.beta)
        if basis is None:
            root = _inv_sqrt(beta) / 2.0
        else:
            chol = np.linalg.cholesky(basis @ beta @ basis.T)
            root = basis.T @ np.linalg.inv(chol).T / 2.0
        dim = len(root.T)
        # Positive roots of h on the torus: each is one plane of F.
        self.roots = (hol.p - dim) // 2

        def whitened(gens, metric):
            skew = _skew_stack(float_stack(gens, shrink), metric)
            return np.einsum("ij,iab->jab", root, skew)

        self.blocks = tuple(
            [whitened(*block) for block in split] for split in splits
        )
        d_forms, f_forms = (
            [(k, _plane_form(gens)) for k, (gens, metric) in enumerate(split)
             if len(metric.array) <= 3]
            for split in splits
        )
        paired: dict[int, int] = {}  # D block -> its F block
        for j, form in f_forms:
            match = next((i for i, other in d_forms
                          if i not in paired and form.equals(other)), None)
            if match is not None:
                paired[match] = j
        d_blocks, f_blocks = self.blocks
        self.factors = (
            _Factor([b for i, b in enumerate(d_blocks) if i not in paired],
                    dim),
            _Factor([b for j, b in enumerate(f_blocks)
                     if j not in paired.values()], dim),
            _Factor([d_blocks[i] for i in paired], dim),
        )
        self.rows = np.concatenate([f.rows for f in self.factors])
        self.split = self.factors[0].count
        self.shared = self.split + self.factors[1].count
        self.count = self.shared + self.factors[2].count

    def planes(self, y: np.ndarray) -> np.ndarray:
        """u = s^2 of every rotation plane of X_D(y) and X_F(y), (count,
        N): D's unpaired planes first, F's up to shared, the pairs'
        after."""
        x = _squares(self.rows, y)
        u = np.empty((self.count, len(y)))
        row = plane = 0
        for factor in self.factors:
            rows, planes = len(factor.rows), factor.count
            factor.planes(x[row : row + rows], y, u[plane : plane + planes])
            row, plane = row + rows, plane + planes
        return u

    def values(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(values, acceptance mask) at the points whose planes are u;
        rejected rows hold 0.  Inside the ball every sin(s)/s is
        positive; u is clamped to it before the polynomial (_sin_ratio),
        so a point far outside stays finite.  The pairs' planes count in
        the ball only."""
        ok = np.max(u, axis=0, initial=0.0) < self.ball
        ratio = _sin_ratio(np.minimum(u[: self.shared], self.ball))
        num = np.prod(ratio[self.split :], axis=0)
        den = np.prod(ratio[: self.split], axis=0)
        return np.divide(num, den, out=np.zeros(len(ok)), where=ok), ok

    def __call__(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Returns (values, acceptance mask); rejected rows hold 0."""
        return self.values(self.planes(y))

    def weyl(self, u: np.ndarray, scale: float) -> np.ndarray:
        """The Weyl weight J = prod_{alpha>0} alpha(eta)^2, up to a
        constant factor, at the torus nodes x whose points y = scale * x
        have the planes u.  X_F(y) is ad(omega)/2 up to a similarity,
        whose eigenvalues are +-i alpha(omega)/2 and r zeros, so its
        roots nonzero planes are the positive roots: J is the product of
        the roots largest u of F, its own and the pairs', the others
        being zero up to rounding (a u that rounds below zero counts as
        zero), each divided by scale^2, so that J is taken at x and does
        not under- or overflow with t.  J vanishes at the origin and on
        every root hyperplane."""
        f = u[self.split :]
        if len(f) > self.roots:
            f = np.partition(f, len(f) - self.roots, axis=0)
            f = f[len(f) - self.roots :]
        f = np.maximum(f, 0.0)
        f /= scale * scale
        return np.prod(f, axis=0)


def _hermite_rule(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k-node Gauss-Hermite rule (x, w) of the weight exp(-x^2), by
    Golub and Welsch: the nodes are the eigenvalues of the symmetric
    tridiagonal Jacobi matrix of the weight (zero diagonal, off-diagonal
    b_j = sqrt(j/2) for j = 1..k-1).  Each weight is the Christoffel
    function 1 / sum_{j<k} p_j(x)^2 at its node, with p_j the orthonormal
    polynomials of the weight, from the recurrence x p_j = b_{j+1}
    p_{j+1} + b_j p_{j-1}, p_0 = pi^(-1/4): O(k^2), where the eigenvectors
    would cost O(k^3).  The rule is then mirrored, so node k-1-i is
    exactly minus node i, with the same weight, and the middle node of an
    odd rule is exactly 0."""
    off = np.sqrt(np.arange(1, k) / 2.0)
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    x = (x - x[::-1]) / 2
    prev, cur = np.zeros(k), np.full(k, math.pi**-0.25)
    total = cur * cur
    b_prev = 0.0
    for b in off.tolist():
        prev, cur = cur, (x * cur - b_prev * prev) / b
        total += cur * cur
        b_prev = b
    w = 1.0 / total
    return x, (w + w[::-1]) / 2


@dataclass(frozen=True, eq=False)
class _Rule:
    """The first half, in C order, of the r-fold tensor grid of the
    k-node Gauss-Hermite rule: its (k^r + 1) // 2 points (half, r), the
    last coordinate varying fastest, and their weights, the products of
    their coordinates' weights.  Both are built from the point indices,
    never from the whole grid."""

    points: np.ndarray
    weights: np.ndarray

    @classmethod
    def build(cls, k: int, r: int) -> _Rule:
        x, w = _hermite_rule(k)
        if not (np.isfinite(w).all() and w.sum() > 0.0):
            raise HeatgenError(
                f"the {k}-node Gauss-Hermite rule has non-finite or "
                f"vanishing weights; use fewer nodes"
            )
        index = np.unravel_index(np.arange((k**r + 1) // 2), (k,) * r)
        weights = w[index[0]]
        for axis in index[1:]:
            weights *= w[axis]
        return cls(np.stack([x[axis] for axis in index], axis=1), weights)

    def average(
        self, integrand: _Integrand, scale: float
    ) -> tuple[float, int]:
        """The mean of the integrand at the points scale * x over the
        whole grid, and the number of rejected points, from the stored
        half, _BLOCK points at a time.

        The mean is sum w J f / sum w J, with the Weyl weight J taken
        from the same planes as f (_Integrand.weyl; J = 1 when h has no
        roots), so each point costs one pass.  J is divided by the
        largest value so far, and the sums so far are rescaled when a
        block raises it, so both sums weigh by J / max J whatever the
        scale of J.

        The nodes are exactly symmetric, so point N-1-i of the grid is
        minus point i, with the same weight (J is even), and the
        integrand is even: each point of the first half counts twice,
        except the middle one of an odd grid, the origin."""
        total = mass = peak = 0.0
        hits = 0
        for start in range(0, len(self.points), _BLOCK):
            pts = self.points[start : start + _BLOCK] * scale
            u = integrand.planes(pts)
            j = integrand.weyl(u, scale)
            top = float(j.max())
            if top > peak:
                total, mass = total * (peak / top), mass * (peak / top)
                peak = top
            w = self.weights[start : start + _BLOCK] * j
            if peak > 0.0:
                w /= peak
            mass += float(w.sum())
            vals, ok = integrand.values(u)
            vals *= w
            total += float(vals.sum())
            hits += len(ok) - int(ok.sum())
        total, mass, hits = 2.0 * total, 2.0 * mass, 2 * hits
        # The middle point of an odd grid, the origin, is its own mirror.
        middle = not self.points[-1].any()
        if middle:
            total -= float(vals[-1])
            mass -= float(w[-1])
            hits -= int(not ok[-1])
        if not peak > 0.0:
            raise HeatgenError(
                f"every point of the {2 * len(self.points) - middle}-point "
                f"grid of the torus lies where the Weyl weight vanishes; "
                f"use more nodes"
            )
        return total / mass, hits


def _is_integer(x) -> bool:
    """An int or numpy integer, not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_integer(label: str, x) -> None:
    if not _is_integer(x):
        raise ValueError(f"{label} must be an integer, got {x!r}")


def _sample_std(values: np.ndarray, mean: float) -> float:
    """values.std(ddof=1) for mean = values.mean(), bit for bit: numpy's
    steps (deviations, their squares, one pairwise sum, division by the
    count less one, square root), done in place, so values is
    overwritten and no second array as large is allocated."""
    values -= mean
    np.square(values, out=values)
    return math.sqrt(float(values.sum()) / (len(values) - 1))


def _numeric_method(method: str, samples: int, nodes: int,
                    seed: int) -> str:
    """method, once the samples, nodes and seed pass every check that
    needs no prepared datum; ValueError otherwise.  "auto" is checked
    for both methods, since which one runs depends on the rank of h:
    _NumericAverager resolves it, and checks the grid size, once the
    torus is built.  Callers run this on the parsed datum, before it is
    prepared."""
    if method not in ("auto", "mc", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    _check_integer("Monte Carlo samples", samples)
    _check_integer("quadrature nodes", nodes)
    if method == "quadrature":
        _check_integer("the seed", seed)
    if method != "quadrature":
        if samples < 2:
            raise ValueError(
                f"Monte Carlo needs at least 2 samples for a standard "
                f"error, got {samples}"
            )
        if samples > _MAX_SAMPLES:
            raise ValueError(
                f"Monte Carlo is limited to {_MAX_SAMPLES} samples, got "
                f"{samples}"
            )
        if not (_is_integer(seed) and seed >= 0):
            raise ValueError(
                f"Monte Carlo seed must be a non-negative integer, got "
                f"{seed!r}"
            )
    if method != "mc" and not 1 <= nodes <= _MAX_NODES:
        raise ValueError(
            f"quadrature nodes must be in 1..{_MAX_NODES}, got {nodes}"
        )
    return method


class _NumericAverager:
    """numeric_average of one prepared datum, by one method with one set
    of parameters (checked by _numeric_method), at any number of times t
    (each checked by the caller).

    Quadrature runs on a maximal torus (hol.torus, U of shape (r, p)):
    by Weyl's integration formula the average over h of the
    Ad(H)-invariant integrand is <f J>_t / <J>_t over the torus, with
    eta ~ N(0, 2 (U beta U^T)^{-1}) and the Weyl weight J (_Integrand.
    weyl), on an r-fold grid instead of a p-fold one; J and f come from
    one pass over each point (_Rule.average).  An abelian h is no
    special case: its torus is all of h (r = p, U = I) and J = 1.
    Monte Carlo samples all of h.  The grid of nodes^r points is checked
    against _MAX_GRID_POINTS here, when the torus is built and before
    any grid array is; "auto" takes quadrature when it fits and Monte
    Carlo otherwise.  The integrand (_Integrand) and the quadrature rules
    (_Rule) do not depend on t, so they are built at the first time that
    needs them and serve every later time."""

    def __init__(self, prep: Prepared, method: str, samples: int,
                 nodes: int, seed: int):
        self.basis = None
        if method != "mc":
            torus = prep.hol.torus.array
            r = len(torus)
            fits = nodes**r <= _MAX_GRID_POINTS
            if method == "auto":
                method = "quadrature" if fits else "mc"
            elif not fits:
                raise ValueError(
                    f"a quadrature grid of {nodes}^{r} points (a maximal "
                    f"torus of rank {r}) exceeds the limit of "
                    f"{_MAX_GRID_POINTS}; use fewer nodes or mc"
                )
            if method == "quadrature":
                self.basis = torus
        self.prep, self.method = prep, method
        self.samples, self.nodes, self.seed = samples, nodes, seed
        self._integrand: _Integrand | None = None
        self._rules: list[_Rule] | None = None

    def integrand(self) -> _Integrand:
        if self._integrand is None:
            strict = np.errstate(divide="raise", over="raise", invalid="raise")
            try:
                with strict:
                    self._integrand = _Integrand(
                        self.prep, _MARGIN, self.basis
                    )
            except (OverflowError, FloatingPointError, np.linalg.LinAlgError):
                raise HeatgenError(
                    "g or beta spans more than the float range, or the "
                    "factor matrices exceed it; this datum has no numeric "
                    "average"
                ) from None
        return self._integrand

    def __call__(self, t: float) -> NumericAverage:
        curv, p = self.prep.curv, self.prep.spec.p
        try:
            prefactor = math.exp(float(curv.R / 8 + curv.R_H / 6) * t)
        except OverflowError:
            raise HeatgenError(
                f"the scalar prefactor overflows at t={t}; this t is far "
                f"too large for a numeric average"
            ) from None
        if p == 0:
            return NumericAverage(prefactor, 0.0, 0, 0, self.method)
        integrand = self.integrand()
        # omega ~ N(0, 2 beta^{-1}) is sqrt(2) beta^{-1/2} z for a standard
        # normal z, and 2 beta^{-1/2} x for a node x of the weight
        # exp(-x^2); the integrand takes y = sqrt(t) beta^{1/2} omega.
        if self.method == "mc":
            scale = math.sqrt(2.0 * t)
            rng = np.random.default_rng(self.seed)
            values = np.empty(self.samples)
            filled = hits = 0
            rejected_run = 0
            while filled < self.samples:
                # The generator fills rows in stream order, so the samples
                # do not depend on the size of a round.
                draw = min(_BLOCK, self.samples - filled)
                y = rng.standard_normal((draw, p))
                y *= scale
                vals, ok = integrand(y)
                accepted = int(ok.sum())
                values[filled : filled + accepted] = vals[ok]
                filled += accepted
                hits += draw - accepted
                # Give up after 8 * 65536 consecutive rejected draws, or 8
                # times the samples asked for if fewer, or once the draws
                # reach _DRAWS_PER_SAMPLE per sample: counted in draws, so
                # the round size does not move either threshold.  Not the
                # samples still missing: the last rounds are that small,
                # and a few rejected ones would end a run that was fine.
                rejected_run = 0 if accepted else rejected_run + draw
                if filled < self.samples and (
                    rejected_run >= 8 * min(65536, self.samples)
                    or filled + hits >= _DRAWS_PER_SAMPLE * self.samples
                ):
                    raise HeatgenError(
                        f"the regularity ball rejects essentially every "
                        f"sample at t={t}; this t is too large for a "
                        f"numeric average"
                    )
            mean = float(values.mean())
            sem = _sample_std(values, mean) / math.sqrt(self.samples)
            return NumericAverage(
                prefactor * mean, prefactor * sem, hits, self.samples + hits,
                "mc",
            )

        scale = 2.0 * math.sqrt(t)
        r = len(self.basis)
        sizes = [self.nodes] + [self.nodes - 4] * (self.nodes >= 12)
        if self._rules is None:
            self._rules = [_Rule.build(k, r) for k in sizes]
        means = [rule.average(integrand, scale) for rule in self._rules]
        value, hits = means[0]
        err = abs(value - means[1][0]) if len(means) > 1 else 0.0
        used = sum(k**r for k in sizes)
        return NumericAverage(
            prefactor * value, prefactor * err, hits, used, "quadrature"
        )


def numeric_average(
    spec: SpaceSpec | Prepared,
    t: float,
    method: str = "auto",
    *,
    samples: int = 100_000,
    nodes: int = 40,
    seed: int = 0,
) -> NumericAverage:
    """Evaluate the full generating average at time t in floating point.

    Samples falling where a factor matrix, in its skew form, has a
    singular value of pi - _MARGIN or more (outside the ball, where a
    factor can lose positivity) are rejected, counted, and resampled;
    the result is the scalar-prefactor times the mean over the retained
    domain, with the Monte Carlo standard error or a quadrature
    refinement delta as std_error.  Quadrature runs on a maximal torus of
    rank r with the Weyl weight (_NumericAverager), all of h when h is
    abelian, on grids of nodes and nodes - 4 (from 12 nodes on) points a
    side, so its evaluations are the sum of k**r over both.  "auto" takes
    quadrature when nodes**r is at most _MAX_GRID_POINTS, Monte Carlo
    otherwise.  The sample count
    (2.._MAX_SAMPLES) and the Monte Carlo seed (a non-negative integer;
    quadrature ignores its value) under "mc" or "auto", and the node
    count (1.._MAX_NODES) under "quadrature" or "auto", are checked
    before the datum is prepared, as is t, which must be finite and
    positive; samples, nodes and seed must be integers (not bools)
    whichever method runs.  The grid size needs r: it is checked once
    the torus is built, before any grid array.
    """
    check_time(t)
    method = _numeric_method(method, samples, nodes, seed)
    return _NumericAverager(prepare(spec), method, samples, nodes, seed)(t)
