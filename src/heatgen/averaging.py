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
point, by Monte Carlo or tensorized Gauss-Hermite quadrature.  Both
factors are skew once rewritten by the Cholesky factors of g and beta
(see _Integrand), and with s_j the singular values of a skew X,
det(sinh X / X) = prod_j sin(s_j)/s_j; the point is kept inside the
regularity ball max_j s_j < pi - _MARGIN, a condition that does not
depend on the tangent or holonomy basis.  Each factor's generators are
split once per integrand, exactly and before any float is formed, into
invariant blocks (rational.invariant_split): the common kernel is
dropped, and the rest divided by the rational eigenspaces of the
self-adjoint commutant.  That separates the simple ideals of F (S4's
so(4) into two 3 x 3 blocks) and the de Rham factors of D in any
basis.  The blocks up to 4 x 4 are compiled into rotation
planes (_Factor): one projection product per factor gives every plane's
s as the norm of a row triple, and the half-determinant
sqrt(det(sinh X/X)) is the product of sin(s)/s over the planes.  Larger
blocks take one batched symmetric eigensolve each.  The integrand
depends on t only through the scale of its points, so one serves a
whole compare grid.  Both methods call it on blocks of at most _BLOCK
points, whose temporaries stay within a core's L2 cache.  Monte Carlo
draws rounds of that size; the generator fills rows in stream order, so
the samples do not depend on it.  Quadrature evaluates the first half of
its symmetric grid, each point standing for its mirror too (the
integrand is even), in slabs of the first axis broadcast from a
(p-1)-dimensional unit grid that is built, with the 1-d rule, once per
averager (_Rule).  The 1-d rule comes from one symmetric eigensolve of
the Jacobi matrix of exp(-x^2) (_hermite_rule, Golub and Welsch),
mirrored exactly, as the half grid needs.  So memory does not grow with
the samples or the nodes, apart from Monte Carlo's vector of accepted
values, 8 bytes a sample (and the one temporary of its size that its
standard deviation takes).  Monte Carlo and quadrature sizes and the
seed are checked from p alone, before the datum is prepared
(_MAX_SAMPLES, _MAX_NODES, _MAX_GRID_POINTS).
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
# Quadrature limits: the k-node rule is one k x k symmetric eigensolve
# (_hermite_rule), O(k^3), and p = 1 evaluates its whole grid of k
# points; the tensor grid has nodes**p points, evaluated a block at a
# time.
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

    def __call__(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self.rows is None:
            half, top = np.ones(len(y)), np.zeros(len(y))
        else:
            x = self.rows @ y.T
            x *= x
            s = x[0::3] + x[1::3]
            s += x[2::3]
            np.sqrt(s, out=s)
            a, b = slice(0, self.fours), slice(self.fours, 2 * self.fours)
            s[a], s[b] = s[a] + s[b], s[a] - s[b]
            half, top = np.prod(_sin_ratio(s), axis=0), s.max(axis=0)
        for gens in self.eigen:
            d = gens.shape[-1]
            mats = (y @ gens.reshape(len(gens), -1)).reshape(len(y), d, d)
            block_half, block_top = _skew_half_dets(mats)
            half, top = half * block_half, np.maximum(top, block_top)
        return half, top


class _Integrand:
    """Shared evaluation core for both numeric methods, as a function of
    the point y = sqrt(t) beta^{1/2} omega.

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
    from y to omega is folded into the generators, after dividing beta
    by 4^k and the generators by 2^k exactly (rational.near_unit), which
    changes no factor matrix and keeps every float in range.

    blocks holds the whitened stacks of the D blocks and of the F
    blocks, and factors the two compiled from them (_Factor): a batch of
    points costs one projection product per family.  The value is
    half_F / half_D, the square root of det(sinh X_F/X_F) /
    det(sinh X_D/X_D).
    """

    def __init__(self, prep: Prepared, margin: float):
        spec, hol = prep.spec, prep.hol
        check_skew(prep)
        self.bound = math.pi - margin
        splits = (
            invariant_split(hol.D, spec.tensors.g),
            invariant_split(hol.F_mats, spec.tensors.beta),
        )
        beta, shrink = near_unit(spec.tensors.beta)
        root = _inv_sqrt(beta) / 2.0

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
    sqrt(j/2) for j = 1..k-1), and each weight is the mass sqrt(pi) times
    the square of the first component of its unit eigenvector.  The rule
    is then mirrored, so node k-1-i is exactly minus node i, with the same
    weight, and the middle node of an odd rule is exactly 0."""
    off = np.sqrt(np.arange(1, k) / 2.0)
    x, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w = math.sqrt(math.pi) * v[0] ** 2
    return (x - x[::-1]) / 2, (w + w[::-1]) / 2


@dataclass(frozen=True, eq=False)
class _Rule:
    """The k-node Gauss-Hermite rule (x, w) of a p-fold tensor grid, and
    the C-ordered (p-1)-fold grids of its nodes and of its weights, the
    unit grid that every slab of the first axis shares."""

    x: np.ndarray
    w: np.ndarray
    unit_x: np.ndarray
    unit_w: np.ndarray

    @classmethod
    def build(cls, k: int, p: int) -> _Rule:
        x, w = _hermite_rule(k)
        if not (np.isfinite(w).all() and w.sum() > 0.0):
            raise HeatgenError(
                f"the {k}-node Gauss-Hermite rule has non-finite or "
                f"vanishing weights; use fewer nodes"
            )
        return cls(x, w, _tensor_grid(x, p - 1), _tensor_grid(w, p - 1))

    def half_sum(
        self, integrand: _Integrand, scale: float
    ) -> tuple[float, int]:
        """The weighted sum of the integrand at the points scale * x over
        the whole grid, and the number of rejected points, from the first
        half of the grid in C order.

        The nodes are exactly symmetric, so point N-1-i of the grid is
        minus point i, with the same weight, and the integrand is even:
        each point of the first half counts twice, except the middle one
        of an odd grid.  The half is cut into blocks of at most _BLOCK
        points, each whole slabs of the first axis or, if a slab is
        larger, a run of one slab's points; each block is the unit grid
        broadcast against its first coordinates, and its weights are the
        products of its coordinates' weights from the first on."""
        k, m = len(self.x), len(self.unit_x)
        p = self.unit_x.shape[1] + 1
        half = (k * m + 1) // 2
        rows, cols = max(1, _BLOCK // m), min(m, _BLOCK)
        total, hits = 0.0, 0
        for i in range(0, -(-half // m), rows):
            for j in range(0, m, cols):
                start = i * m + j
                if start >= half:
                    break
                x, unit_x = self.x[i : i + rows], self.unit_x[j : j + cols]
                pts = np.empty((len(x), len(unit_x), p))
                pts[..., 0] = x[:, None]
                pts[..., 1:] = unit_x
                weight = np.empty(pts.shape[:2])
                weight[...] = self.w[i : i + rows, None]
                for axis in range(p - 1):
                    weight *= self.unit_w[j : j + cols, axis]
                count = min(weight.size, half - start)
                pts = pts.reshape(-1, p)[:count]
                pts *= scale
                vals, ok = integrand(pts)
                vals *= weight.reshape(-1)[:count]
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


def _numeric_method(p: int, method: str, samples: int, nodes: int,
                    seed: int) -> str:
    """The method that runs on a datum with p holonomy variables ("auto"
    takes quadrature up to p = 3), once the samples, nodes and seed pass
    every check that needs p alone; ValueError otherwise.  Callers run it
    on the parsed datum, before it is prepared."""
    if method == "auto":
        method = "quadrature" if p <= 3 else "mc"
    if method not in ("mc", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    _check_integer("Monte Carlo samples", samples)
    _check_integer("quadrature nodes", nodes)
    if method == "quadrature":
        _check_integer("the seed", seed)
    if method == "mc" and samples < 2:
        raise ValueError(
            f"Monte Carlo needs at least 2 samples for a standard "
            f"error, got {samples}"
        )
    if method == "mc" and samples > _MAX_SAMPLES:
        raise ValueError(
            f"Monte Carlo is limited to {_MAX_SAMPLES} samples, got "
            f"{samples}"
        )
    if method == "mc" and not (_is_integer(seed) and seed >= 0):
        raise ValueError(
            f"Monte Carlo seed must be a non-negative integer, got "
            f"{seed!r}"
        )
    if method == "quadrature":
        if p > 3:
            raise ValueError(
                "tensorized quadrature is limited to p <= 3; use mc"
            )
        if not 1 <= nodes <= _MAX_NODES:
            raise ValueError(
                f"quadrature nodes must be in 1..{_MAX_NODES}, got "
                f"{nodes}"
            )
        if nodes**p > _MAX_GRID_POINTS:
            raise ValueError(
                f"a quadrature grid of {nodes}^{p} points exceeds the "
                f"limit of {_MAX_GRID_POINTS}; use fewer nodes"
            )
    return method


class _NumericAverager:
    """numeric_average of one prepared datum, by one method with one set
    of parameters (both checked by _numeric_method), at any number of
    times t (each checked by the caller).  The integrand (_Integrand) and
    the quadrature rules (_Rule) do not depend on t, so they are built at
    the first time that needs them and serve every later time."""

    def __init__(self, prep: Prepared, method: str, samples: int,
                 nodes: int, seed: int):
        self.prep, self.method = prep, method
        self.samples, self.nodes, self.seed = samples, nodes, seed
        self._integrand: _Integrand | None = None
        self._rules: list[_Rule] | None = None

    def integrand(self) -> _Integrand:
        if self._integrand is None:
            strict = np.errstate(divide="raise", over="raise", invalid="raise")
            try:
                with strict:
                    self._integrand = _Integrand(self.prep, _MARGIN)
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
        if self._rules is None:
            sizes = [self.nodes] + [self.nodes - 4] * (self.nodes >= 12)
            self._rules = [_Rule.build(k, p) for k in sizes]
        # Gauss-Hermite weights integrate against exp(-|x|^2), of mass
        # pi^(p/2).
        norm = math.pi ** (-p / 2)
        sums = [rule.half_sum(integrand, scale) for rule in self._rules]
        value, hits = sums[0][0] * norm, sums[0][1]
        err = abs(value - sums[1][0] * norm) if len(sums) > 1 else 0.0
        used = sum(len(rule.x) ** p for rule in self._rules)
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
    std_error.  The sample count (2.._MAX_SAMPLES), the Monte Carlo seed
    (a non-negative integer; quadrature ignores its value) and the
    quadrature grid (1.._MAX_NODES nodes, at most _MAX_GRID_POINTS
    points) are checked before the datum is prepared, as is t, which must
    be finite and positive; samples, nodes and seed must be integers (not
    bools) whichever method runs.
    """
    check_time(t)
    p = (spec.spec if isinstance(spec, Prepared) else spec).p
    method = _numeric_method(p, method, samples, nodes, seed)
    return _NumericAverager(prepare(spec), method, samples, nodes, seed)(t)
