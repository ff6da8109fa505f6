"""Reference implementations that the tests hold heatgen to.

No request and no compare call runs any of this.  It uses only public
heatgen names, so each reference stays independent of the code it
checks; dense_integrand alone is no reference but a harness that drives
series' private graded log and exponential for the tests that hold them
to the dict pipeline:

- Fraction matrices as tuples of tuples, with per-entry arithmetic,
  including an LDL^T factorization;
- fock_moment, a Gaussian moment engine unrelated to wick_moment;
- the log(sinh z / z) constants by a formal logarithm, and Bernoulli
  denominators by von Staudt-Clausen;
- sinh_ratio_dets, an eigenvalue-free det(sinh X / X), and the
  determinant factorization identity built on it;
- the numeric average by Gauss-Hermite quadrature summed over a whole
  grid from numpy's hermgauss: p-fold over all of h (grid_average), the
  independent oracle of the torus grid, or r-fold on a maximal torus
  with the Weyl weight from the eigenvalues of the raw F(omega)
  (torus_grid_average), for any integrand of the points over all of h;
- the power sums tr X(omega)^{2m} of a generator family by the Gram
  step at every grade, with no Newton's identities;
- the two-sphere coefficients by series inversion in one variable, the
  odd-sphere coefficients from the spectrum by Poisson summation, and a
  fit of the sphere spectral sum;
- Gilkey's a_3 of a locally symmetric space from its eight cubic
  curvature invariants;
- curvature data moved by changes of basis and scalings, as functions
  and as Hypothesis strategies;
- the four structural checks as separate einsum contractions, one per
  term, added as ScaledTensors.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from functools import cache
from typing import Sequence

import numpy as np
from hypothesis import strategies as st

import heatgen as hg
from heatgen import series
from heatgen.rational import Matrix, exact_einsum, identity

# ---------------------------------------------------------------------------
# Fraction matrices
# ---------------------------------------------------------------------------


def rat(x) -> Fraction:
    """Coerce an int, string, or Fraction to Fraction.

    Floats and bools raise TypeError: exact data must never pass through
    binary floating point.
    """
    if isinstance(x, bool) or not isinstance(x, (int, str, Fraction)):
        raise TypeError(f"expected exact rational, got {type(x).__name__}")
    return Fraction(x)


def matrix(rows) -> Matrix:
    """Build an immutable Fraction matrix from any nested iterable."""
    out = tuple(tuple(rat(x) for x in row) for row in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged rows in matrix")
    return out


def add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def scale(a: Matrix, c: Fraction) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return sub(matmul(a, b), matmul(b, a))


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def trace(a: Matrix) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def trace_product(a: Matrix, b: Matrix) -> Fraction:
    """tr(a @ b) without forming the product."""
    return sum(
        (a[i][j] * b[j][i] for i in range(len(a)) for j in range(len(b))),
        Fraction(0),
    )


def determinant(a: Matrix) -> Fraction:
    """Exact determinant by fraction-free Bareiss elimination."""
    n = len(a)
    if n == 0:
        return Fraction(1)
    m = [list(row) for row in a]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            m[i][k] = Fraction(0)
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def inverse(a: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination."""
    n = len(a)
    m = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        m[col], m[piv] = m[piv], m[col]
        if m[col][col] != 1:
            inv = 1 / m[col][col]
            m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y if y else x for x, y in zip(m[r], m[col])]
    return tuple(tuple(row[n:]) for row in m)


def rank(a: Matrix) -> int:
    """Rank by Gaussian elimination in Fractions."""
    m = [list(row) for row in a]
    done = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(done, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[done], m[piv] = m[piv], m[done]
        for r in range(done + 1, len(m)):
            f = m[r][col] / m[done][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[done])]
        done += 1
    return done


def ldl(a: Matrix) -> tuple[Matrix, tuple[Fraction, ...]]:
    """a = L diag(d) L^T for a symmetric positive definite a, entry by
    entry: d_j = a_jj - sum_k L_jk^2 d_k and L_ij = (a_ij - sum_k L_ik
    L_jk d_k) / d_j below the diagonal."""
    n = len(a)
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    d: list[Fraction] = []
    for j in range(n):
        d.append(a[j][j] - sum(
            (lower[j][k] ** 2 * d[k] for k in range(j)), Fraction(0)
        ))
        if d[j] <= 0:
            raise ValueError(f"pivot {j} is not positive")
        for i in range(j + 1, n):
            lower[i][j] = (a[i][j] - sum(
                (lower[i][k] * lower[j][k] * d[k] for k in range(j)),
                Fraction(0),
            )) / d[j]
    return tuple(tuple(row) for row in lower), tuple(d)


def span_decompose(
    basis: Sequence[Matrix], targets: Sequence[Matrix]
) -> tuple[int, list[tuple[Fraction, ...] | None]]:
    """Express each target matrix in the linear span of the basis matrices.

    Returns (rank of the basis, list of coefficient tuples), with None in
    place of any target that lies outside the span.  A single Gauss-Jordan
    elimination over the stacked column vectors handles every target at
    once.
    """
    if not basis:
        flat_ok = [all(x == 0 for row in t for x in row) for t in targets]
        return 0, [() if ok else None for ok in flat_ok]
    dim = len(basis[0]) * len(basis[0][0])
    nb = len(basis)
    cols = [
        [m[i][j] for m in basis] + [t[i][j] for t in targets]
        for i in range(len(basis[0]))
        for j in range(len(basis[0][0]))
    ]  # one row per vectorized entry
    rows = [list(map(Fraction, r)) for r in cols]
    pivots: list[tuple[int, int]] = []  # (row, basis column)
    r = 0
    for c in range(nb):
        piv = next((i for i in range(r, dim) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(dim):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append((r, c))
        r += 1
    rank = len(pivots)
    out: list[tuple[Fraction, ...] | None] = []
    for k in range(len(targets)):
        col = nb + k
        if any(rows[i][col] != 0 for i in range(rank, dim)):
            out.append(None)
            continue
        coeffs = [Fraction(0)] * nb
        for row_i, c in pivots:
            coeffs[c] = rows[row_i][col]
        out.append(tuple(coeffs))
    return rank, out


def random_spd(rng: random.Random, size: int) -> Matrix:
    """A random rational symmetric positive definite matrix, A A^T + 1."""
    a = tuple(
        tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4))
              for _ in range(size))
        for _ in range(size)
    )
    return add(matmul(a, transpose(a)), identity(size))


def combined_scalar(spec, hol) -> Fraction:
    """R_G as -1/4 sum_AB (g + beta)^{AB} tr(C_A C_B), entry by entry,
    with g + beta block diagonal on the combined (tangent + holonomy)
    index."""
    n, p = spec.n, spec.p
    metric_inv = inverse(
        tuple(tuple(row) + (Fraction(0),) * p for row in spec.g)
        + tuple((Fraction(0),) * n + tuple(row) for row in spec.beta)
    )
    C = hol.C.to_fractions()
    return -sum(
        (
            metric_inv[a][b] * trace_product(C[a], C[b])
            for a in range(len(C))
            for b in range(len(C))
            if metric_inv[a][b]
        ),
        Fraction(0),
    ) / 4


# ---------------------------------------------------------------------------
# Trace powers by the Gram step at every grade
# ---------------------------------------------------------------------------


def gram_power_sums(gens: Sequence[Matrix], order: int) -> list[dict]:
    """[s_1, ..., s_order], s_m the coefficients of tr X(omega)^{2m} for
    X(omega) = sum_i omega_i A_i, A the Fraction matrices gens, as dicts
    from exponent tuples to nonzero Fractions.  No Newton's identities and
    no characteristic polynomial: every grade by the Gram step.

    The omega^alpha coefficient of X^k sums the products of the A along
    every word with letter counts alpha, each one product from degree
    k - 1.  A word of length 2m splits into halves of length m, so s_m
    sums tr(P[alpha] P[beta]) over alpha + beta = gamma: one matmul of
    the stacked halves per grade, on Python ints over the common
    denominator."""
    p = len(gens)
    den = math.lcm(*(x.denominator for a in gens for row in a for x in row))
    mats = [np.array([[int(x * den) for x in row] for row in a], dtype=object)
            for a in gens]
    powers = {(0,) * p: np.eye(len(gens[0]), dtype=int).astype(object)}
    out = []
    for m in range(1, order + 1):
        step: dict = {}
        for alpha, mat in powers.items():
            for i in range(p):
                key = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]
                prod = mat.dot(mats[i])
                step[key] = step[key] + prod if key in step else prod
        powers = step
        keys = list(powers)
        rows = np.array([powers[k].ravel() for k in keys])
        cols = np.array([powers[k].T.ravel() for k in keys]).T
        gram = rows.dot(cols).tolist()
        sums: dict = {}
        for a, alpha in enumerate(keys):
            for b, beta in enumerate(keys):
                key = tuple(x + y for x, y in zip(alpha, beta))
                sums[key] = sums.get(key, 0) + gram[a][b]
        out.append({k: Fraction(v, den ** (2 * m))
                    for k, v in sums.items() if v})
    return out


# ---------------------------------------------------------------------------
# The dense exponential over all of h, for the tests of series
# ---------------------------------------------------------------------------


def dense_integrand(d, f, order: int):
    """exp of the omega-dependent log of the integrand for generator
    families d (p, n, n) and f (p, p, p), by series' own graded log and
    exponential, with no budget: the same graded log as
    integrand_log_expansion, exponentiated grade by grade.  Returns
    (codes, grades): grade g is the ScaledTensor grades[g] over the
    degree-2g monomials codes[2g], one exact integer array (int64 or
    Python ints) over one denominator."""
    p = d.array.shape[0]
    codes = series._monomial_codes(p, 2 * order)
    log, _ = series._graded_log(d, f, order, codes)
    return codes, series._graded_exp(log, codes)


# ---------------------------------------------------------------------------
# Gaussian moments by normal ordering
# ---------------------------------------------------------------------------


def _fock_apply(state: dict, i: int, binv: Matrix) -> dict:
    """One variable acting on a creation polynomial: create against the
    covariance row, plus differentiate in the i-th creator."""
    out: dict = {}

    def bump(mono, k, step, weight):
        key = mono[:k] + (mono[k] + step,) + mono[k + 1:]
        out[key] = out.get(key, Fraction(0)) + weight

    for mono, coef in state.items():
        for k, entry in enumerate(binv[i]):
            if entry:
                bump(mono, k, 1, 2 * entry * coef)
        if mono[i]:
            bump(mono, i, -1, mono[i] * coef)
    return {key: value for key, value in out.items() if value}


@cache
def _fock_raw(binv: Matrix, key: tuple[int, ...]) -> Fraction:
    p = len(binv)
    state: dict = {(0,) * p: Fraction(1)}
    for i in reversed(key):
        state = _fock_apply(state, i, binv)
    return state.get((0,) * p, Fraction(0))


def fock_moment(key, beta_inv: Matrix) -> Fraction:
    """The Gaussian moment of heatgen.wick_moment by a normal-ordering
    calculus: each variable acts on a creation-operator polynomial as
    (2 sum_k beta^{ik} b*_k .) + d/d b*_i, and the vacuum coefficient is
    the moment, up to a normalization calibrated on the degree-2 moment
    of wick_moment.  An odd key never returns to the vacuum.  beta_inv is
    a tuple matrix, the memo key."""
    idx = tuple(sorted(key))
    calibration = hg.wick_moment((0, 0), beta_inv) / _fock_raw(
        beta_inv, (0, 0)
    )
    return _fock_raw(beta_inv, idx) * calibration ** (len(idx) // 2)


# ---------------------------------------------------------------------------
# Series constants
# ---------------------------------------------------------------------------


def formal_log_sinh_ratio(k: int) -> tuple[Fraction, ...]:
    """(c_1, ..., c_k) of log(sinh z / z) in powers of z^2, by the formal
    logarithm of the sinh z / z series, with no Bernoulli number."""
    # sinh z / z = s(u) = sum_m s_m u^m with s_m = 1/(2m+1)! and u = z^2.
    # l = log s satisfies u l' s = u s', so with s_0 = 1
    # l_m = s_m - (1/m) sum_{j<m} j l_j s_{m-j}: O(k^2) products.
    s = [Fraction(1, math.factorial(2 * m + 1)) for m in range(k + 1)]
    formal: list[Fraction] = [Fraction(0)]
    for m in range(1, k + 1):
        acc = sum(
            (j * formal[j] * s[m - j] for j in range(1, m)), Fraction(0)
        )
        formal.append(s[m] - acc / m)
    return tuple(formal[1:])


def staudt_clausen_denominator(m: int) -> int:
    """The denominator of B_m for even m >= 2 by von Staudt-Clausen: the
    product of the primes p with (p - 1) | m."""
    out = 1
    for d in range(1, m + 1):
        p = d + 1
        if m % d == 0 and all(p % q for q in range(2, math.isqrt(p) + 1)):
            out *= p
    return out


# ---------------------------------------------------------------------------
# det(sinh X / X) without eigenvalues
# ---------------------------------------------------------------------------

_SINH_RATIO_COEFFS = [1.0 / math.factorial(2 * m + 1) for m in range(7)]
_COSH_COEFFS = [1.0 / math.factorial(2 * m) for m in range(7)]
_SCALE_TARGET = 0.5


def sinh_ratio_dets(mats: np.ndarray) -> np.ndarray:
    """det(sinh(X)/X) for a batch of square matrices, eigenvalue-free.

    X is halved until its Frobenius norm is small, sinh(X)/X and cosh(X)
    are summed as short even series, the halving is undone with the
    doubling rules T(2X) = T(X) cosh(X), cosh(2X) = 2 cosh(X)^2 - 1, and
    the determinant comes from an LU factorization.
    """
    if mats.size == 0:
        return np.ones(mats.shape[0])
    d = mats.shape[-1]
    fro = np.sqrt((mats * mats).sum(axis=(-2, -1)))
    fmax = float(fro.max())
    halvings = 0
    if fmax > _SCALE_TARGET:
        halvings = math.ceil(math.log2(fmax / _SCALE_TARGET))
    y = mats / (2.0**halvings)
    y2 = y @ y
    eye = np.broadcast_to(np.eye(d), y2.shape)
    ratio = np.zeros_like(y2)
    cosh = np.zeros_like(y2)
    for c_r, c_c in zip(reversed(_SINH_RATIO_COEFFS), reversed(_COSH_COEFFS)):
        ratio = ratio @ y2 + c_r * eye
        cosh = cosh @ y2 + c_c * eye
    for _ in range(halvings):
        ratio = ratio @ cosh
        cosh = 2.0 * (cosh @ cosh) - eye
    return np.linalg.det(ratio)


def skew_half_dets(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(det(sinh(X)/X)) and the largest singular value for a batch of
    skew-symmetric matrices, by one symmetric eigensolve of the whole
    matrix: its i s_j are the eigenvalues of X, and det(sinh(X)/X) =
    prod_j sin(s_j)/s_j over the eigenvalues s_j^2 of X^T X = -X^2."""
    s = np.sqrt(np.maximum(np.linalg.eigvalsh(-(mats @ mats)), 0.0))
    ratio = np.ones_like(s)
    np.divide(np.sin(s), s, out=ratio, where=s > 0.0)
    det = np.prod(ratio, axis=-1)
    return np.sqrt(np.maximum(det, 0.0)), s[:, -1]


def _hermite_grid(nodes: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The whole dim-fold grid of numpy's nodes-point Gauss-Hermite rule:
    points (nodes**dim, dim) and their weights, by meshgrid."""
    x1, w1 = np.polynomial.hermite.hermgauss(nodes)
    grids = np.meshgrid(*([x1] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*([w1] * dim), indexing="ij")
    return pts, np.prod(np.stack([w.ravel() for w in wgrids]), axis=0)


def _grid_average(prep, t, nodes, dim, weighted_sum) -> hg.NumericAverage:
    """numeric_average's quadrature result from weighted_sum(k), which
    gives (mean, rejected points) on the k-node grid: the prefactor, the
    refinement delta against k - 4 nodes from 12 nodes on, and every
    grid point counted."""
    curv = prep.curv
    prefactor = math.exp(float(curv.R / 8 + curv.R_H / 6) * t)
    value, hits = weighted_sum(nodes)
    err, used = 0.0, nodes**dim
    if nodes >= 12:
        err = abs(value - weighted_sum(nodes - 4)[0])
        used += (nodes - 4) ** dim
    return hg.NumericAverage(prefactor * value, prefactor * err, hits, used,
                             "quadrature")


def grid_average(integrand, prep, t, nodes) -> hg.NumericAverage:
    """The average over all of h by the p-fold Gauss-Hermite grid, summed
    whole: omega ~ N(0, 2 beta^{-1}) is 2 beta^{-1/2} x at a node x, and
    integrand(y) gives (values, acceptance mask) at y = sqrt(t) beta^{1/2}
    omega = 2 sqrt(t) x."""
    p = prep.spec.p

    def weighted_sum(k):
        pts, weight = _hermite_grid(k, p)
        vals, ok = integrand(2.0 * math.sqrt(t) * pts)
        return float(weight @ vals) * math.pi ** (-p / 2), int((~ok).sum())

    return _grid_average(prep, t, nodes, p, weighted_sum)


def torus_grid_average(integrand, prep, t, nodes) -> hg.NumericAverage:
    """The same average by Weyl's integration formula on the maximal
    torus U = hol.torus (r, p), summed over the whole r-fold grid: eta ~
    N(0, 2 (U beta U^T)^{-1}) is 2 L^{-T} x at a node x, with U beta U^T =
    L L^T, omega = U^T eta, and the mean is sum w J f / sum w J, with J
    the product of the p - r largest |eigenvalues| of the raw F(omega) =
    sum_i omega_i F_i (each root alpha(omega) twice).  integrand takes the
    points over all of h, y = sqrt(t) beta^{1/2} omega."""
    basis = np.array(prep.hol.torus.to_fractions(), dtype=float)
    r, p = basis.shape
    beta = np.array(prep.spec.beta, dtype=float)
    w, v = np.linalg.eigh(beta)
    root = (v * np.sqrt(w)) @ v.T
    chol = np.linalg.cholesky(basis @ beta @ basis.T)
    to_omega = basis.T @ np.linalg.inv(chol).T * 2.0
    F = np.array(prep.hol.F_mats.to_fractions(), dtype=float)

    def weighted_sum(k):
        pts, weight = _hermite_grid(k, r)
        omegas = pts @ to_omega.T
        eig = np.abs(np.linalg.eigvals(np.einsum("si,ijk->sjk", omegas, F)))
        J = np.prod(np.sort(eig, axis=1)[:, r:], axis=1)
        vals, ok = integrand(math.sqrt(t) * omegas @ root.T)
        return float((weight * J) @ vals) / float(weight @ J), int((~ok).sum())

    return _grid_average(prep, t, nodes, r, weighted_sum)


def random_rational_omegas(
    p: int, count: int, seed: int = 0, denominator: int = 64
) -> tuple[tuple[Fraction, ...], ...]:
    """Deterministic rational sample vectors in [-1, 1]^p."""
    rng = random.Random(seed)
    return tuple(
        tuple(
            Fraction(rng.randint(-denominator, denominator), denominator)
            for _ in range(p)
        )
        for _ in range(count)
    )


def check_det_factorization(hol, omega_samples) -> float:
    """The largest relative error, over a nonempty list of samples, of
    det T(sum_i omega_i C_i / 2) = det T(D(omega)/2) det T(F(omega)/2)
    with T(X) = sinh(X)/X, in floating point."""
    count = len(omega_samples)
    half = np.array(omega_samples, dtype=float).reshape(count, hol.p) / 2.0

    def dets(stack):
        gens = np.array(stack.to_fractions(), dtype=float)
        return sinh_ratio_dets(
            np.einsum("si,iab->sab", half, gens.reshape(stack.array.shape))
        )

    lhs = dets(hol.C[hol.n:])
    rhs = dets(hol.D) * dets(hol.F_mats)
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
    return float((np.abs(lhs - rhs) / scale).max())


# ---------------------------------------------------------------------------
# Sphere references
# ---------------------------------------------------------------------------


def double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def sin_ratio_inverse_series(order: int) -> list[Fraction]:
    """Coefficients q_m of z/sin(z) in powers of z^2, by inverting the
    sin(z)/z series.  Classical values: 1, 1/6, 7/360, 31/15120, ..."""
    s = [Fraction((-1) ** m, math.factorial(2 * m + 1))
         for m in range(order + 1)]
    q = [Fraction(1)]
    for m in range(1, order + 1):
        q.append(-sum(q[j] * s[m - j] for j in range(m)))
    return q


def two_sphere_series(order: int) -> tuple[Fraction, ...]:
    """Independent 1-D oracle for the unit two-sphere.

    The average reduces to a single Gaussian variable with second moment 2:
    <(u/sin u)> with u^2 = t w^2 / 4, times the scalar factor exp(t/4), so
    a_k = sum_m q_m (2m-1)!!/2^m * (1/4)^{k-m}/(k-m)!.  No pipeline code.
    """
    q = sin_ratio_inverse_series(order)
    return tuple(
        sum(
            (
                q[m] * double_factorial(2 * m - 1) / 2**m
                / (4 ** (k - m) * math.factorial(k - m))
                for m in range(k + 1)
            ),
            Fraction(0),
        )
        for k in range(order + 1)
    )


def odd_sphere_series(n: int, order: int) -> tuple[Fraction, ...]:
    """Exact a_0..a_order of the unit n-sphere, n >= 3 odd, from its
    spectrum.  No pipeline code.

    The eigenvalues nu^2 - rho^2, rho = (n-1)/2, nu = rho, rho+1, ...,
    have the multiplicity P(nu) = 2 nu^2 prod_{k=1}^{rho-1} (nu^2 - k^2)
    / (n-1)!, even and zero at |nu| < rho, so the heat trace is
    e^{rho^2 t}/2 sum_{nu in Z} P(nu) e^{-nu^2 t}.  Poisson summation
    turns the sum into sum_j p_j Gamma(j + 1/2) t^{-j-1/2}, p_j the nu^{2j}
    coefficient of P, up to terms exponentially small in 1/t.  Hence
    sum_k a_k t^k = e^{rho^2 t} Q(t)/Q(0) with
    Q(t) = sum_{j=1}^{rho} p_j (2j-1)!!/2^j t^{rho-j}."""
    rho = (n - 1) // 2
    # P as coefficients of x = nu^2, built one factor x - k^2 at a time.
    poly = [Fraction(0), Fraction(2, math.factorial(n - 1))]
    for k in range(1, rho):
        poly = [a - k * k * b for a, b in zip([0] + poly, poly + [0])]
    # q[i], the t^i coefficient of Q, comes from j = rho - i.
    q = [poly[rho - i] * double_factorial(2 * (rho - i) - 1) / 2 ** (rho - i)
         for i in range(rho)]
    return tuple(
        sum((q[i] / q[0] * Fraction(rho**2) ** (k - i) / math.factorial(k - i)
             for i in range(min(k, rho - 1) + 1)), Fraction(0))
        for k in range(order + 1)
    )


def gilkey_a3(spec) -> Fraction:
    """a_3 of a locally symmetric datum (nabla R = 0) from Gilkey's eight
    cubic curvature invariants, with R_ijkl = -riemann, Ric_jk = R_ijki
    and every contraction through g^-1, on Fraction object arrays built
    from spec.g, spec.beta and spec.E.  No pipeline code."""
    n, p = spec.n, spec.p
    ginv = np.array(inverse(spec.g), dtype=object)
    beta = np.array(spec.beta, dtype=object).reshape(p, p)
    E = np.array(spec.E, dtype=object).reshape(p, n, n)
    # optimize: pairwise contractions instead of one loop over all letters.
    contract = functools.partial(np.einsum, optimize=True)
    low = -contract("ik,iab,kcd->abcd", beta, E, E)

    def up(t, *axes):
        for ax in axes:
            t = np.moveaxis(np.tensordot(ginv, t, axes=(1, ax)), 0, ax)
        return t

    ric = contract("ia,ajki->jk", ginv, low)
    ric_up, mixed = up(ric, 0, 1), up(ric, 0)
    R = np.trace(mixed)
    terms = (
        Fraction(35, 9) * R**3,
        Fraction(-14, 3) * R * np.sum(ric * ric_up),
        Fraction(14, 3) * R * np.sum(low * up(low, 0, 1, 2, 3)),
        Fraction(-208, 9) * np.trace(mixed @ mixed @ mixed),
        Fraction(-64, 3) * contract("ij,kl,ikjl->", ric_up, ric_up, low),
        Fraction(-16, 3) * contract("jk,jnli,knli->", ric_up, low,
                                     up(low, 1, 2, 3)),
        Fraction(-44, 9) * contract("ijkn,ijlp,knlp->", low, up(low, 0, 1),
                                     up(low, 0, 1, 2, 3)),
        Fraction(-80, 9) * contract("ijkn,ilkp,jlnp->", low,
                                     up(low, 0, 2, 3), up(low, 0, 1, 2)),
    )
    return sum(terms, Fraction(0)) / math.factorial(7)


def spectral_coefficient_fit(n: int, t0: float = 0.01) -> tuple[float, float]:
    """Self-check of the spectral oracle: fit the first two normalized
    expansion coefficients from three small times.  Returns (a0, a1),
    which must come out near 1 and n(n-1)/6."""
    ts = (t0, t0 / 2, t0 / 4)
    ys = [
        (4 * math.pi * t) ** (n / 2) * hg.sphere_spectral_trace(n, t)
        for t in ts
    ]
    # Quadratic fit through three points; the constant and linear terms
    # are what we report.
    x0, x1, x2 = ts
    y0, y1, y2 = ys
    denom = (x0 - x1) * (x0 - x2) * (x1 - x2)
    a = (x2 * (y1 - y0) + x1 * (y0 - y2) + x0 * (y2 - y1)) / denom
    b = (x2**2 * (y0 - y1) + x1**2 * (y2 - y0) + x0**2 * (y1 - y2)) / denom
    c = y0 - a * x0**2 - b * x0
    return c, b


# ---------------------------------------------------------------------------
# Moved curvature data
# ---------------------------------------------------------------------------


def moved(spec, P, N, mu, nu):
    """The datum moved by a tangent change P, a generator change N and
    the scalings (mu, nu): g' = mu P^T g P, E'^i = sum_j (N^-T)_ij P^T E^j P,
    beta' = nu N beta N^T."""
    PT = transpose(P)
    E = [matmul(matmul(PT, m), P) for m in spec.E]
    ninv_t = transpose(inverse(N))
    E = tuple(
        tuple(
            tuple(
                sum((ninv_t[i][j] * E[j][a][b] for j in range(spec.p)),
                    Fraction(0))
                for b in range(spec.n)
            )
            for a in range(spec.n)
        )
        for i in range(spec.p)
    )
    g = scale(matmul(matmul(PT, spec.g), P), mu)
    beta = scale(matmul(matmul(N, spec.beta), transpose(N)), nu)
    return hg.SpaceSpec(spec.name, spec.n, spec.p, g, beta, E)


SMALL = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))
# The last draw gives a metric a large integer content, which
# rational._eigenspace divides out before it reads eigenvalues; the
# random 70-bit fractions above rarely do.
SCALES = st.one_of(
    st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)),
    st.builds(Fraction, st.integers(1, 2**70), st.integers(1, 2**70)),
    st.sampled_from([65537, 2**20 + 3, 3**40]).map(Fraction),
)


@st.composite
def moved_spaces(draw, bases=("S2", "S3", "S2xS2", "S2xS3"), mixed=False):
    """A builtin of the bases moved by an upper triangular P with a
    rational diagonal, a unit lower triangular N and two scalings.  With
    mixed, every entry of N below the diagonal is nonzero."""
    spec = hg.builtin(draw(st.sampled_from(bases)))
    below = SMALL.filter(bool) if mixed else SMALL
    n, p = spec.n, spec.p
    diag = [draw(st.builds(Fraction, st.integers(1, 3), st.integers(1, 2)))
            for _ in range(n)]
    P = tuple(
        tuple(diag[j] if i == j else draw(SMALL) if i < j else Fraction(0)
              for j in range(n))
        for i in range(n)
    )
    N = tuple(
        tuple(Fraction(1) if i == j else draw(below) if i > j else Fraction(0)
              for j in range(p))
        for i in range(p)
    )
    return moved(spec, P, N, draw(SCALES), draw(SCALES))


# ---------------------------------------------------------------------------
# Structural checks, one einsum per term
# ---------------------------------------------------------------------------


def check_generator_identity(spec, hol) -> hg.CheckResult:
    """E^i_bc D^c_ka - E^i_ac D^c_kb = E^j_ab F^i_jk for all i, k, a, b."""
    name = "generator_connection_identity"
    if spec.p == 0:
        return hg.CheckResult(name, True, "no holonomy generators; vacuous")
    E, D, F = spec.tensors.E, hol.D, hol.F
    lhs1 = exact_einsum("ibc,kca->ikab", E, D)
    lhs2 = exact_einsum("iac,kcb->ikab", E, D)
    # F[j][i][k] is the D_j coefficient in [D_i, D_k]; the right side wants
    # the free holonomy index up, i.e. F^i_jk.
    rhs = exact_einsum("jab,ijk->ikab", E, F)
    ok = (lhs1 - lhs2).equals(rhs)
    return hg.CheckResult(
        name, ok, "holds" if ok else "generator/connection intertwining fails"
    )


def check_integrability(spec) -> hg.CheckResult:
    """The curvature operator annihilates the curvature tensor:
    R_fgea R^e_bcd - R_fgeb R^e_acd + R_fgec R^e_dab - R_fged R^e_cab = 0."""
    name = "curvature_integrability"
    if spec.p == 0 or spec.n == 0:
        return hg.CheckResult(name, True, "flat datum; vacuous")
    R, ginv = spec.tensors.riemann, spec.tensors.ginv
    Rup = exact_einsum("ef,fbcd->ebcd", ginv, R)
    # All four terms are index permutations of one contraction
    # U_fgxbcd = R_fgex R^e_bcd.
    U = exact_einsum("fgex,ebcd->fgxbcd", R, Rup)
    t1 = U
    t2 = exact_einsum("fgbacd->fgabcd", U)
    t3 = exact_einsum("fgcdab->fgabcd", U)
    t4 = exact_einsum("fgdcab->fgabcd", U)
    ok = (t1 - t2 + t3 - t4).is_zero()
    return hg.CheckResult(
        name, ok, "holds" if ok else "curvature is not parallel"
    )


def check_structure_jacobi(hol) -> hg.CheckResult:
    """Jacobi identity for the combined structure constants read off the
    C matrices: sum over cyclic permutations of C^E_AD C^D_BC vanishes."""
    name = "structure_jacobi"
    if hol.n + hol.p == 0:
        return hg.CheckResult(name, True, "empty algebra; vacuous")
    # The three cyclic terms are index permutations of one contraction.
    j1 = exact_einsum("aed,bdc->abce", hol.C, hol.C)
    j2 = exact_einsum("bcae->abce", j1)
    j3 = exact_einsum("cabe->abce", j1)
    ok = (j1 + j2 + j3).is_zero()
    return hg.CheckResult(
        name, ok, "holds" if ok else "combined structure constants fail Jacobi"
    )


def check_riemann_symmetries(spec) -> hg.CheckResult:
    """Antisymmetry in both pairs, pair exchange, and the first Bianchi
    identity for the reconstructed tensor."""
    name = "riemann_symmetries"
    if spec.p == 0 or spec.n == 0:
        return hg.CheckResult(name, True, "flat datum; vacuous")
    R = spec.tensors.riemann
    failures = []
    if not (R + exact_einsum("abcd->bacd", R)).is_zero():
        failures.append("antisymmetry in the first pair")
    if not (R + exact_einsum("abcd->abdc", R)).is_zero():
        failures.append("antisymmetry in the second pair")
    if not (R - exact_einsum("abcd->cdab", R)).is_zero():
        failures.append("pair exchange symmetry")
    cyclic = exact_einsum("abcd->acdb", R) + exact_einsum("abcd->adbc", R)
    if not (R + cyclic).is_zero():
        failures.append("first Bianchi identity")
    ok = not failures
    return hg.CheckResult(name, ok, "holds" if ok else "; ".join(failures))


def validation_checks(spec, hol) -> tuple[hg.CheckResult, ...]:
    """The four checks in the order validate_symmetric_space runs them."""
    return (
        check_generator_identity(spec, hol),
        check_integrability(spec),
        check_structure_jacobi(hol),
        check_riemann_symmetries(spec),
    )
