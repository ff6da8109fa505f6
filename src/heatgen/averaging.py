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
kernel is dropped, and the rest divided by the rational eigenspaces of
the self-adjoint commutant.  That separates the simple ideals of F
(S4's so(4) into two 3 x 3 blocks) and the de Rham factors of D in any
basis.  The blocks up to 4 x 4 are compiled into rotation planes
(_Factor): one projection product per factor gives every plane's s as
the norm of a row triple, and the half-determinant sqrt(det(sinh X/X))
is the product of sin(s)/s over the planes.  Larger blocks take one
batched symmetric eigensolve each.  The integrand depends on t only
through the scale of its points, so one serves a whole compare grid.
Both methods call it on blocks of at most _BLOCK points, whose
temporaries stay within a core's L2 cache.  Monte Carlo draws rounds of
that size; the generator fills rows in stream order, so the samples do
not depend on it.

The integrand is Ad(H)-invariant and so is its Gaussian, so Weyl's
integration formula gives its average over h as one over a maximal
torus t = span(U), U = hol.torus of shape (r, p), r = rank h:
<f>_h = sum w f(U^T eta) J(eta) / sum w J(eta), with eta on an r-fold
Gauss-Hermite grid for N(0, 2 (U beta U^T)^{-1}) and the Weyl weight
J = prod_{alpha>0} alpha(eta)^2, taken in floats from the planes of F
(_Integrand.weyl) and divided by its largest value on the grid.  The map
from the grid to omega is folded into the projection rows once per
averager, so a point costs r multiply-adds per row, not p.  For an
abelian h the torus is all of h (r = p, U = I, J = 1), and its p-fold
grid runs as before.  S3 takes 40 + 36 points where the p-fold grid took
40^3 + 36^3, and every builtin fits the grid limit at the default 40
nodes.  Quadrature evaluates the first half of its symmetric grid, each
point standing for its mirror too (the integrand and J are even), in
slabs of the first axis broadcast from an (r-1)-dimensional unit grid
that is built, with the 1-d rule and the weights of the half grid, once
per averager (_Rule).  The 1-d rule comes from the eigenvalues of the
Jacobi matrix of exp(-x^2) and the Christoffel function of its
orthonormal recurrence (_hermite_rule, Golub and Welsch), mirrored
exactly, as the half grid needs.  So memory does not grow with the
samples, apart from Monte Carlo's vector of accepted values, 8 bytes a
sample (and the one temporary of its size that its standard deviation
takes), and the weights of the half grid, 4 bytes a grid point.  The
Monte Carlo and quadrature sizes and the seed are checked before the
datum is prepared (_MAX_SAMPLES, _MAX_NODES), and the grid of nodes^r
points against _MAX_GRID_POINTS when the torus is built, before any grid
array is allocated.
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
# k x k symmetric matrix (_hermite_rule), and r = 1 evaluates its whole
# grid of k points; the tensor grid on a torus of rank r has nodes**r
# points, evaluated a block at a time, and its half-grid weights are
# kept.
_MAX_NODES = 256
_MAX_GRID_POINTS = 64**3
# Monte Carlo limit: 50 times compare's default, and a values vector of
# 80 MB, the one array that grows with the sample count.
_MAX_SAMPLES = 10**7
# Points per integrand call, Monte Carlo round or quadrature block: every
# temporary of the factor kernels stays within a core's L2 cache.
_BLOCK = 8192


def _sin_ratio(s: np.ndarray) -> np.ndarray:
    """sin(s)/s elementwise, exactly 1 where s == 0."""
    with np.errstate(invalid="ignore"):
        out = np.sin(s)
        out /= s
    out[s == 0.0] = 1.0
    return out


def _skew_half_dets(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(det(sinh(X)/X)) and the largest singular value for a batch of
    d x d skew-symmetric matrices, by one symmetric eigensolve.

    The i s_j are the eigenvalues of X, each s_j a singular value, and
    sinh(i s)/(i s) = sin(s)/s, so det(sinh(X)/X) = prod_j sin(s_j)/s_j
    over the eigenvalues s_j^2 of X^T X = -X^2, which come in equal pairs.
    The determinant is a smooth function of the s_j^2, so the clamp of a
    tiny negative s_j^2 to zero costs no accuracy; the product of pairs
    is nonnegative, and one that rounds below zero (near a root of sin,
    far outside the ball) gives 0, which the positivity guard rejects.
    """
    s = np.sqrt(np.maximum(np.linalg.eigvalsh(-(mats @ mats)), 0.0))
    det = np.prod(_sin_ratio(s), axis=-1)
    return np.sqrt(np.maximum(det, 0.0)), s[:, -1]


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


class _Factor:
    """One factor of the integrand, D or F, compiled from its whitened
    skew blocks (p, d, d) into one projection: called on points y (N, p),
    it returns sqrt(det(sinh X/X)), the half-determinant, and the top
    singular value of X(y) = sum_l y_l G_l.

    Each X(y) of a block of size 4 or less has its singular values in
    closed form, from at most six linear functions of y:

    - d <= 3: one rotation plane, s = sqrt(sum_{i<j} x_ij^2), from three
      rows, the upper entries x_ij padded with zero rows.
    - d = 4: so(4) = so(3) + so(3).  The norms a and b of the self-dual
      and anti-self-dual parts, (x01 + x23, x02 - x13, x03 + x12) and
      (x01 - x23, x02 + x13, x03 - x12), are s_1 + s_2 and |s_1 - s_2|
      in some order, so the planes are (a + b)/2 and (a - b)/2, with no
      cancellation in the top one.  The six rows are halved (exactly),
      so the planes are a' + b' and a' - b'.

    rows stacks them row-major, the 4 x 4 blocks' self-dual triples
    first, then their anti-self-dual ones, then the smaller blocks'; a
    batch costs one product rows @ y^T, a sum of squares over each row
    triple and one sin(s)/s per plane.  The half-determinant is the
    product over planes, each s_j counted once, and the top the largest
    s.  Blocks of size 5 or more go to one symmetric eigensolve each
    (_skew_half_dets).  A factor with no block gives 1 and 0.
    """

    def __init__(self, blocks: list[np.ndarray]):
        # (x01, x02, x03) and (x23, -x13, x12) of each 4 x 4 block.
        fours = [
            (g[:, [0, 0, 0], [1, 2, 3]],
             g[:, [2, 1, 1], [3, 3, 2]] * np.array([1.0, -1.0, 1.0]))
            for g in blocks if g.shape[-1] == 4
        ]
        rows = [(left + right).T / 2.0 for left, right in fours]
        rows += [(left - right).T / 2.0 for left, right in fours]
        for g in blocks:
            if g.shape[-1] <= 3:
                upper = np.zeros((3, len(g)))
                i, j = np.triu_indices(g.shape[-1], 1)
                upper[: len(i)] = g[:, i, j].T
                rows.append(upper)
        self.rows = np.concatenate(rows) if rows else None
        self.fours = len(fours)
        self.eigen = [g for g in blocks if g.shape[-1] >= 5]

    def _closed(self, y: np.ndarray) -> np.ndarray | None:
        """s of the closed-form planes, (planes, N), or None without
        them."""
        if self.rows is None:
            return None
        x = self.rows @ y.T
        x *= x
        s = x[0::3] + x[1::3]
        s += x[2::3]
        np.sqrt(s, out=s)
        a, b = slice(0, self.fours), slice(self.fours, 2 * self.fours)
        s[a], s[b] = s[a] + s[b], s[a] - s[b]
        return s

    def _mats(self, y: np.ndarray, gens: np.ndarray) -> np.ndarray:
        d = gens.shape[-1]
        return (y @ gens.reshape(len(gens), -1)).reshape(len(y), d, d)

    def __call__(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s = self._closed(y)
        if s is None:
            half, top = np.ones(len(y)), np.zeros(len(y))
        else:
            half, top = np.prod(_sin_ratio(s), axis=0), s.max(axis=0)
        for gens in self.eigen:
            block_half, block_top = _skew_half_dets(self._mats(y, gens))
            half, top = half * block_half, np.maximum(top, block_top)
        return half, top

    def planes(self, y: np.ndarray) -> np.ndarray:
        """The s of every rotation plane of X(y), (planes, N), each
        equal pair of an eigensolved block once: its ascending s_j^2 are
        the pairs, after a zero when d is odd."""
        closed = self._closed(y)
        s = [] if closed is None else [closed]
        for gens in self.eigen:
            mats = self._mats(y, gens)
            squares = np.linalg.eigvalsh(-(mats @ mats))
            pairs = squares[:, gens.shape[-1] % 2 :: 2].T
            s.append(np.sqrt(np.maximum(pairs, 0.0)))
        return np.concatenate(s) if s else np.zeros((0, len(y)))


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
    matrix vanishes, is dropped, and the rest divided by the eigenspaces
    of its self-adjoint commutant, so the simple ideals of F and the de
    Rham factors of D each become a block of their own.  Each block is
    then rewritten by the Cholesky factor of its own metric, the restriction
    of g or beta (_skew_stack), a similarity, so that every factor
    matrix is skew, and the ball max_j s_j < pi - margin on its singular
    values is the same in every tangent and holonomy basis.  The map
    from y to omega, (p, p) or, on the torus, (p, r), is folded into the
    generators, after dividing beta by 4^k and the generators by 2^k
    exactly (rational.near_unit), which changes no factor matrix and
    keeps every float in range; a point then costs r multiply-adds per
    projection row, not p.

    blocks holds the whitened stacks of the D blocks and of the F
    blocks, and factors the two compiled from them (_Factor): a batch of
    points costs one projection product per family.  The value is
    half_F / half_D, the square root of det(sinh X_F/X_F) /
    det(sinh X_D/X_D).
    """

    def __init__(self, prep: Prepared, margin: float,
                 basis: np.ndarray | None = None):
        spec, hol = prep.spec, prep.hol
        check_skew(prep)
        self.bound = math.pi - margin
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
        # Positive roots of h on the torus: each is one plane of F.
        self.roots = (hol.p - len(root.T)) // 2

        def whitened(gens, metric):
            skew = _skew_stack(float_stack(gens, shrink), metric)
            return np.einsum("ij,iab->jab", root, skew)

        self.blocks = tuple(
            [whitened(*block) for block in split] for split in splits
        )
        self.factors = tuple(_Factor(blocks) for blocks in self.blocks)

    def __call__(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Returns (values, acceptance mask); rejected rows hold 0."""
        half_d, top_d = self.factors[0](y)
        half_f, top_f = self.factors[1](y)
        # Inside the ball every sin(s)/s is positive; the guard rejects a
        # half-determinant that rounds to zero (_skew_half_dets' clamp),
        # so the quotient never divides by it.
        ok = (top_d < self.bound) & (top_f < self.bound)
        ok &= (half_d > 0.0) & (half_f > 0.0)
        vals = np.divide(half_f, half_d, out=np.zeros(len(y)), where=ok)
        return vals, ok

    def weyl(self, y: np.ndarray) -> np.ndarray:
        """The Weyl weight J = prod_{alpha>0} alpha(eta)^2 at torus points
        y, up to a constant factor.  X_F(y) is ad(omega)/2 up to a
        similarity, whose eigenvalues are +-i alpha(omega)/2 and r zeros,
        so its q/2 = roots nonzero planes are the positive roots: J is
        the product of the squares of the roots largest planes, the
        others being zero up to rounding.  J vanishes at the origin and
        on every root hyperplane."""
        s = self.factors[1].planes(y)
        s = np.partition(s, len(s) - self.roots, axis=0)[len(s) - self.roots:]
        return np.prod(s * s, axis=0)


def _tensor_grid(x: np.ndarray, p: int) -> np.ndarray:
    """The p-fold tensor grid of the 1-d nodes x in C order, (k^p, p),
    the last coordinate varying fastest."""
    k = len(x)
    pts = np.empty((k,) * p + (p,))
    for axis in range(p):
        pts[..., axis] = x.reshape((k,) + (1,) * (p - 1 - axis))
    return pts.reshape(k**p, p)


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


def _grid_blocks(k: int, m: int):
    """The first half, in C order, of a grid of k slabs of m points,
    (k*m + 1) // 2 points, in blocks of at most _BLOCK points: whole
    slabs or, if a slab is larger, a run of one slab's points.  Yields
    (start, rows, cols, count): the block is the product of the slabs
    rows with their points cols, cut to its first count points, and
    starts at point start of the grid."""
    half = (k * m + 1) // 2
    size, cols = max(1, _BLOCK // m), min(m, _BLOCK)
    for i in range(0, -(-half // m), size):
        for j in range(0, m, cols):
            start = i * m + j
            if start >= half:
                return
            rows, run = slice(i, i + size), slice(j, j + cols)
            count = len(range(k)[rows]) * len(range(m)[run])
            yield start, rows, run, min(count, half - start)


@dataclass(frozen=True, eq=False)
class _Rule:
    """The k-node Gauss-Hermite rule x of an r-fold tensor grid, the
    C-ordered (r-1)-fold grid of its nodes, the unit grid that every
    slab of the first axis shares, and the weights of the first half of
    the grid: the products of its coordinates' weights, times the Weyl
    weight J / max J of the torus when there is one.  norm is one over
    the weight of the whole grid: pi^(-r/2), the mass of exp(-|x|^2),
    without J, and one over the grid's sum of w J with it."""

    x: np.ndarray
    unit_x: np.ndarray
    weights: np.ndarray
    norm: float

    @classmethod
    def build(cls, k: int, r: int, weyl=None) -> _Rule:
        x, w = _hermite_rule(k)
        if not (np.isfinite(w).all() and w.sum() > 0.0):
            raise HeatgenError(
                f"the {k}-node Gauss-Hermite rule has non-finite or "
                f"vanishing weights; use fewer nodes"
            )
        unit_x, unit_w = _tensor_grid(x, r - 1), _tensor_grid(w, r - 1)
        weights = np.empty((k**r + 1) // 2)
        for start, rows, cols, count in _grid_blocks(k, len(unit_x)):
            weight = np.empty((len(x[rows]), len(unit_x[cols])))
            weight[...] = w[rows, None]
            for axis in range(r - 1):
                weight *= unit_w[cols, axis]
            weights[start : start + count] = weight.reshape(-1)[:count]
        rule = cls(x, unit_x, weights, math.pi ** (-r / 2))
        if weyl is None:
            return rule
        j = np.concatenate([
            weyl(rule._points(rows, cols, count))
            for _, rows, cols, count in _grid_blocks(k, len(unit_x))
        ])
        if not j.max() > 0.0:
            raise HeatgenError(
                f"every point of the {k}-node grid of the torus lies where "
                f"the Weyl weight vanishes; use more nodes"
            )
        weights *= j / j.max()
        mass = 2.0 * float(weights.sum()) - (k**r % 2) * float(weights[-1])
        return cls(x, unit_x, weights, 1.0 / mass)

    def _points(self, rows: slice, cols: slice, count: int) -> np.ndarray:
        """The first count points of a block, unscaled: the unit grid
        broadcast against the first coordinates."""
        x, unit_x = self.x[rows], self.unit_x[cols]
        pts = np.empty((len(x), len(unit_x), unit_x.shape[1] + 1))
        pts[..., 0] = x[:, None]
        pts[..., 1:] = unit_x
        return pts.reshape(-1, pts.shape[-1])[:count]

    def half_sum(
        self, integrand: _Integrand, scale: float
    ) -> tuple[float, int]:
        """The weighted sum of the integrand at the points scale * x over
        the whole grid, and the number of rejected points, from the first
        half of the grid in C order, a block at a time (_grid_blocks).

        The nodes are exactly symmetric, so point N-1-i of the grid is
        minus point i, with the same weight (J is even), and the
        integrand is even: each point of the first half counts twice,
        except the middle one of an odd grid."""
        k, m = len(self.x), len(self.unit_x)
        total, hits = 0.0, 0
        for start, rows, cols, count in _grid_blocks(k, m):
            pts = self._points(rows, cols, count)
            pts *= scale
            vals, ok = integrand(pts)
            vals *= self.weights[start : start + count]
            total += float(vals.sum())
            hits += count - int(ok.sum())
        total, hits = 2.0 * total, 2 * hits
        if (k * m) % 2:
            # The middle point, the origin, is its own mirror.
            total -= float(vals[-1])
            hits -= int(not ok[-1])
        return total, hits


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
    weyl), on an r-fold grid instead of a p-fold one.  For an abelian h
    the torus is all of h (r = p, U = I, J = 1), and the grid over all of
    h runs as it is.  The grid of nodes^r points is checked against
    _MAX_GRID_POINTS here, when the torus is built and before any grid
    array is; "auto" takes quadrature when it fits and Monte Carlo
    otherwise.  The integrand (_Integrand) and the quadrature rules
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
            if method == "quadrature" and r < prep.spec.p:
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
                # times the samples still missing if fewer: counted in
                # draws, so the round size does not move the threshold.
                rejected_run = 0 if accepted else rejected_run + draw
                missing = self.samples - filled
                if not accepted and rejected_run >= 8 * min(65536, missing):
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
        r = p if self.basis is None else len(self.basis)
        if self._rules is None:
            sizes = [self.nodes] + [self.nodes - 4] * (self.nodes >= 12)
            weyl = None if self.basis is None else integrand.weyl
            self._rules = [_Rule.build(k, r, weyl) for k in sizes]
        sums = [rule.half_sum(integrand, scale) for rule in self._rules]
        value, hits = sums[0][0] * self._rules[0].norm, sums[0][1]
        err = (
            abs(value - sums[1][0] * self._rules[1].norm)
            if len(sums) > 1 else 0.0
        )
        used = sum(len(rule.x) ** r for rule in self._rules)
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
    singular value within _MARGIN of pi (or where a factor loses
    positivity) are rejected, counted, and resampled; the result is the
    scalar-prefactor times the mean over the retained domain, with the
    Monte Carlo standard error or a quadrature refinement delta as
    std_error.  Quadrature runs on a maximal torus of rank r with the
    Weyl weight (_NumericAverager), on grids of nodes and nodes - 4 (from
    12 nodes on) points a side, so its evaluations are the sum of k**r
    over both.  "auto" takes quadrature when nodes**r is at most
    _MAX_GRID_POINTS, Monte Carlo otherwise.  The sample count
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
