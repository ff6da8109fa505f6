"""Exact truncated series machinery for the generating function.

The group average needs the expansion of

    log det( sinh(X)/X )  with  X = sqrt(t)/2 * (generator matrix),

which reduces to trace powers: log(sinh z / z) = sum_m c_m z^{2m} with
c_m = 2^{2m} B_{2m} / (2m (2m)!), so c_1 = 1/6 and c_2 = -1/180.  Both
c_m and B_{2m} are read from one integer table of tangent numbers
(_tangent_numbers), built fresh per call in O(k^2) integer operations;
the formal logarithm of the sinh z / z series that checks the table is
in tests/oracles.py.

Trace powers of the omega-linear matrices D(omega) and F(omega) are built
over monomials, not index words.  Both families are scaled to integers
over their common denominator; the omega^alpha coefficients of X^k for
every degree-k monomial alpha are stacked into one integer array, step k
coming from step k-1 times each generator.  The coefficients of
tr F^{2m} - tr D^{2m} are then one signed Gram matrix of F's powers
beside D's, tr(P_m[alpha] P_m[beta]), scattered onto alpha + beta, with
monomials ranked by an additive mixed-radix code.  All arithmetic is
exact.  Each product of the two steps goes through rational.exact_matmul
with a bound on every operand entry and every partial sum.  Below 2**53
it runs on float64 BLAS: a product of two entries, a partial sum and a
fused multiply-add result are then all integers of magnitude below 2**53,
which float64 represents exactly, so no rounding happens in any summation
order, blocking or thread count, and the cast back to int64 is exact.  The
Gram step scatters those blocks with np.bincount, whose float64 bin sums
are partial sums of one coefficient and so fall under the same bound.
Past 2**53 the arrays are int64 while the bound stays below 2**62, and
Python ints beyond.

Grade m of the log is kept as one integer array over the degree-2m codes
with one denominator: the signed Gram sum over the common denominator to
the power 2m, scaled by c_m / (2 4^m).  ScaledTensor.scale picks int64 or
Python ints for it, so the coefficient bounds written out here are those
of the matrix powers (_matrix_powers), the Gram step (_graded_log) and
the exponential (_graded_exp).  The production path (dense_integrand,
and the Gaussian core) exponentiates it in that form by the recurrence
g E_g = sum_m m P_m E_{g-m}, pairing the nonzero entries of each product
and scattering them onto the summed codes.  The Gaussian core
(_gaussian_average) averages it over the span of an integer basis U of
h: it restricts the generators to U, factors U beta U^T = L diag(d) L^T
exactly (over all of h, U = I, the datum's own factor SpaceSpec.beta_ldl,
from construction), rewrites the generators in eta = L^T omega, of
diagonal covariance 2 diag(1/d), and averages their dense exponential
with the closed form <eta^{2b}> = prod_i (2b_i - 1)!! (2/d_i)^{b_i}.
The integrand is Ad(H)-invariant and
so is the Gaussian, since beta is, so Weyl's integration formula gives
the same average over a maximal torus t, in r = rank h variables instead
of p = dim h: <f>_h = <f J>_t / <J>_t with J = prod_{alpha>0} alpha^2 =
e_{p-r}(ad), built by Newton's identities from the trace powers
(_weyl_weight).  whitened_average takes the torus (hol.torus, the
Cartan data) when the dense work units pass _TORUS_UNITS and the
torus's own (torus_units) are fewer, and all of h otherwise; both give
the same exact coefficients.
integrand_log_expansion returns the same log as an OmegaPolynomial,
whose dict-of-Fraction exp, the prefactor product
exponentiate_with_prefactor and averaging.average are kept as the
independent oracle of that path.  The budget (budget=, the CLI's
--budget, DEFAULT_WORD_BUDGET when None) counts work units of the
average that runs, over all of h or over a maximal torus: the dense
units are the Gram step's sum_m C(p+m-1, m)^2 (trace_units) plus the
exponential's coefficient pairs (exp_units), in all p variables, which
check_budget holds for the dict expansion too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, lcm

import numpy as np

from .curvature import HolonomyRealization, Prepared
from .errors import HeatgenError, InternalInconsistency, OrderTooLarge
from .rational import (
    ScaledTensor,
    exact_dtype,
    exact_einsum,
    exact_matmul,
    ldl,
    max_abs,
    product_dtype,
    upper_indices,
)

__all__ = [
    "bernoulli",
    "log_sinh_ratio_series",
    "TSeries",
    "OmegaPolynomial",
    "integrand_log_expansion",
    "dense_integrand",
    "whitened_average",
    "exponentiate_with_prefactor",
    "DEFAULT_WORD_BUDGET",
]

DEFAULT_WORD_BUDGET = 10**8


def _tangent_numbers(k: int) -> list[int]:
    """Tangent numbers [T_1, ..., T_k], tan z = sum_m T_m z^{2m-1}/(2m-1)!.

    Brent & Harvey's recurrence (arXiv:1108.0286, Algorithm
    TangentNumbers): k^2/2 integer multiply-adds, no division, no gcd."""
    t = [1] * k
    for j in range(1, k):
        t[j] = j * t[j - 1]
    for i in range(1, k):
        for j in range(i, k):
            t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
    return t


def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m (B_1 = -1/2); for m = 2j >= 2,
    B_{2j} = (-1)^{j-1} 2j T_j / (4^j (4^j - 1)) with T_j a tangent number."""
    if m < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if m == 0:
        return Fraction(1)
    if m == 1:
        return Fraction(-1, 2)
    if m % 2:
        return Fraction(0)
    j = m // 2
    tj = _tangent_numbers(j)[-1]
    return Fraction((-1) ** (j - 1) * m * tj, 4**j * (4**j - 1))


def log_sinh_ratio_series(k: int) -> tuple[Fraction, ...]:
    """Coefficients (c_1, ..., c_k) of log(sinh z / z) in powers of z^2:
    c_m = 4^m B_{2m} / (2m (2m)!) = (-1)^{m-1} T_m / ((4^m - 1) (2m)!)."""
    out = []
    fact = 1
    for m, tm in enumerate(_tangent_numbers(k), start=1):
        fact *= (2 * m - 1) * 2 * m
        out.append(Fraction((-1) ** (m - 1) * tm, (4**m - 1) * fact))
    return tuple(out)


@dataclass(frozen=True)
class TSeries:
    """Truncated power series in t with exact rational coefficients."""

    order: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coefficient count must be order + 1")

    @classmethod
    def constant(cls, value, order: int) -> "TSeries":
        c = [Fraction(0)] * (order + 1)
        c[0] = Fraction(value)
        return cls(order, tuple(c))

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k]

    def __mul__(self, other: "TSeries") -> "TSeries":
        k = min(self.order, other.order)
        out = [Fraction(0)] * (k + 1)
        for i, a in enumerate(self.coeffs[: k + 1]):
            if not a:
                continue
            for j, b in enumerate(other.coeffs[: k + 1 - i]):
                if b:
                    out[i + j] += a * b
        return TSeries(k, tuple(out))

    def eval_float(self, t: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * t + to_float(c)
        return acc


def to_float(c: Fraction) -> float:
    """float(c); HeatgenError when c lies beyond the float range."""
    try:
        return float(c)
    except OverflowError:
        raise HeatgenError(
            f"an exact coefficient with {_digits(abs(c.numerator))} digits "
            f"is beyond the float range"
        ) from None


def _digits(n: int) -> int:
    """Decimal digits of n > 0, without str(n), which refuses ints of more
    than sys.get_int_max_str_digits() digits."""
    # 0.30102999 < log10(2): a lower bound, raised to the exact count.
    digits = (n.bit_length() - 1) * 30102999 // 10**8 + 1
    while n >= 10**digits:
        digits += 1
    return digits


class OmegaPolynomial:
    """Polynomial in the holonomy average variables with an attached
    t-grade per monomial, truncated beyond a fixed t order.

    Terms map (t_grade, exponent tuple) to an exact coefficient.  The
    t-grade is explicit rather than inferred from the monomial degree
    because scalar prefactor terms carry t without any omega content.
    """

    __slots__ = ("p", "order", "terms")

    def __init__(self, p: int, order: int, terms=None):
        self.p = p
        self.order = order
        cleaned = {}
        for key, val in (terms or {}).items():
            grade, exps = key
            if val and grade <= order:
                cleaned[(grade, tuple(exps))] = Fraction(val)
        self.terms = cleaned

    @classmethod
    def constant(cls, p: int, order: int, value=1) -> "OmegaPolynomial":
        return cls(p, order, {(0, (0,) * p): Fraction(value)})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OmegaPolynomial)
            and self.p == other.p
            and self.order == other.order
            and self.terms == other.terms
        )

    def __add__(self, other: "OmegaPolynomial") -> "OmegaPolynomial":
        if self.p != other.p:
            raise ValueError("mixed variable counts")
        out = dict(self.terms)
        for key, val in other.terms.items():
            acc = out.get(key, Fraction(0)) + val
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
        return OmegaPolynomial(self.p, min(self.order, other.order), out)

    def __mul__(self, other: "OmegaPolynomial") -> "OmegaPolynomial":
        if self.p != other.p:
            raise ValueError("mixed variable counts")
        order = min(self.order, other.order)
        out: dict = {}
        for (g1, e1), v1 in self.terms.items():
            for (g2, e2), v2 in other.terms.items():
                g = g1 + g2
                if g > order:
                    continue
                key = (g, tuple(a + b for a, b in zip(e1, e2)))
                acc = out.get(key, Fraction(0)) + v1 * v2
                if acc:
                    out[key] = acc
                else:
                    out.pop(key, None)
        return OmegaPolynomial(self.p, order, out)

    def scale(self, c) -> "OmegaPolynomial":
        f = Fraction(c)
        if not f:
            return OmegaPolynomial(self.p, self.order, {})
        return OmegaPolynomial(
            self.p, self.order, {k: f * v for k, v in self.terms.items()}
        )

    def min_grade(self) -> int:
        return min((g for g, _ in self.terms), default=self.order + 1)

    def exp(self) -> "OmegaPolynomial":
        """exp as a truncated Taylor sum; needs every term to carry t."""
        if self.min_grade() < 1:
            raise ValueError("exp needs strictly positive t-grades")
        result = OmegaPolynomial.constant(self.p, self.order)
        power = OmegaPolynomial.constant(self.p, self.order)
        for j in range(1, self.order + 1):
            power = power * self
            if not power.terms:
                break
            result = result + power.scale(Fraction(1, factorial(j)))
        return result


# ---------------------------------------------------------------------------
# Trace powers over monomial-indexed matrix powers
# ---------------------------------------------------------------------------

# Gram rows are built in blocks of at most this many entries.
_GRAM_BLOCK = 2**20


def trace_units(p: int, order: int) -> int:
    """Work units of integrand_log_expansion: the coefficient-matrix pairs
    of its Gram step, sum_m C(p+m-1, m)^2 for m = 1..order."""
    return sum(comb(p + m - 1, m) ** 2 for m in range(1, order + 1))


def _monomial_codes(p: int, top: int) -> list[np.ndarray]:
    """codes[k] lists the degree-k monomials in p variables, k <= top, as
    sorted mixed-radix codes sum_i e_i R^i with R = top + 1.  The code is
    additive, so the monomial alpha + beta has code(alpha) + code(beta)
    and searchsorted on codes[k] ranks any degree-k monomial."""
    radix = top + 1
    dtype = exact_dtype(radix**p)
    weights = np.array([radix**i for i in range(p)], dtype=dtype)
    codes = [np.zeros(1, dtype=dtype)]
    for _ in range(top):
        # Sort and drop repeats by hand: np.unique pulls in numpy.ma on
        # first use, which costs more than the whole expansion for small p.
        step = np.sort((codes[-1][:, None] + weights).ravel())
        codes.append(step[np.concatenate(([True], step[1:] != step[:-1]))])
    return codes


def _exponents(codes: np.ndarray, p: int, top: int) -> np.ndarray:
    """Exponent rows, one per monomial, of mixed-radix codes from
    _monomial_codes."""
    radix = top + 1
    digits = np.empty((len(codes), p), dtype=np.int64)
    rest = codes.copy()
    for i in range(p):
        # Not np.divmod: it has no loop for object arrays.
        digits[:, i] = rest % radix
        rest //= radix
    return digits


def _step_ranks(codes: list[np.ndarray]) -> list[np.ndarray]:
    """ranks[k][j, i] is the rank in codes[k] of beta + e_i, beta the j-th
    degree-(k-1) monomial, for every k of codes (ranks[0] unused)."""
    return [None] + [
        np.searchsorted(codes[k], codes[k - 1][:, None] + codes[1])
        for k in range(1, len(codes))
    ]


def _matrix_powers(
    gens: ScaledTensor, codes: list[np.ndarray], ranks: list[np.ndarray]
) -> list[ScaledTensor]:
    """powers[k].array[rank(alpha)] is the omega^alpha coefficient of
    (sum_i omega_i A_i)^k, A = gens.array the numerators (the
    denominator is the caller's), k = 0..len(ranks) - 1: the sum of A
    along every word with letter counts alpha.  ranks[k][j, i] is the
    rank in codes[k] of beta + e_i, beta the j-th degree-(k-1) monomial
    (ranks[0] unused).  Each power is an integer tensor over denominator
    1, so its bound is measured once, by the next step or the caller.

    Step k forms every powers[k-1][beta] @ A_i in one product
    (N dim, dim) @ (dim, p dim) and adds it onto beta + e_i, which for a
    fixed i hits every target once."""
    a = gens.array
    p, dim = a.shape[0], a.shape[1]
    step = a.transpose(1, 0, 2).reshape(dim, p * dim)
    powers = [ScaledTensor(np.eye(dim, dtype=a.dtype)[None], 1)]
    for k in range(1, len(ranks)):
        prev = powers[-1]
        n = len(prev.array)
        # Each monomial collects at most min(p, k) products.
        bound = prev.bound * gens.bound * dim * min(p, k)
        prod = exact_matmul(prev.array.reshape(n * dim, dim), step, bound)
        prod = prod.reshape(n, dim, p, dim)
        cur = np.zeros((len(codes[k]), dim, dim), dtype=prod.dtype)
        for i in range(p):
            cur[ranks[k][:, i]] += prod[:, :, i]
        powers.append(ScaledTensor(cur, 1))
    return powers


def exp_units(p: int, order: int) -> int:
    """Work units of the dense exponential in dense_integrand: coefficient
    pairs of its products P_m E_{g-m}, sum over 1 <= m <= g <= order of
    N_{2m} N_{2(g-m)} with N_k = C(p+k-1, k) degree-k monomials, N_0 = 1."""
    sizes = [1] + [comb(p + 2 * j - 1, 2 * j) for j in range(1, order + 1)]
    below = list(accumulate(sizes))
    return sum(sizes[m] * below[order - m] for m in range(1, order + 1))


def _over_budget(needs: str, what: str, p: int, order: int, limit: int
                 ) -> OrderTooLarge:
    return OrderTooLarge(
        f"the expansion needs {needs} work units ({what}) for p={p}, "
        f"order {order}, exceeding the budget of {limit}; lower the order, "
        f"use a numeric average, or raise --budget (budget= in the library)"
    )


_DENSE_UNITS = (
    "coefficient-matrix pairs, sum_m C(p+m-1,m)^2, plus the coefficient "
    "pairs of the exponential"
)


def _budget_limit(p: int, order: int, budget: int | None) -> int:
    """The budget, DEFAULT_WORD_BUDGET when None.  Every grade of the
    log, and every product of the exponential, costs at least one unit,
    so an order whose least count exceeds the budget is refused before
    any binomial is summed."""
    limit = DEFAULT_WORD_BUDGET if budget is None else budget
    least = order + order * (order + 1) // 2
    if least > limit:
        raise _over_budget(f"at least {least}", _DENSE_UNITS, p, order, limit)
    return limit


def check_budget(p: int, order: int, budget: int | None) -> int:
    """The work units of the exponential of an expansion in p >= 0
    variables, trace_units of the log plus exp_units; OrderTooLarge when
    they exceed the budget (default DEFAULT_WORD_BUDGET), or when its
    least count does (_budget_limit)."""
    limit = _budget_limit(p, order, budget)
    units = trace_units(p, order) + exp_units(p, order)
    if units > limit:
        raise _over_budget(str(units), _DENSE_UNITS, p, order, limit)
    return units


def _graded_log(
    d: ScaledTensor, f: ScaledTensor, order: int, codes: list[np.ndarray]
) -> list[ScaledTensor]:
    """grades[m][rank(gamma)] is the coefficient of t^m omega^gamma in
    sum_m t^m (c_m / 4^m) [tr F(omega)^{2m}/2 - tr D(omega)^{2m}/2], over
    the degree-2m codes (grades[0] unused).

    A word of length 2m splits into halves of length m, so the trace
    coefficient of gamma sums tr(powers[m][alpha] @ powers[m][beta]) over
    alpha + beta = gamma.  A row of the signed Gram matrix holds F's
    powers beside D's, and its columns negate D's.  It is symmetric, so
    only pairs with rank(alpha) <= rank(beta) are ranked and scattered,
    and the off-diagonal ones count twice.  A block of rows s..e forms
    its products with the columns s..n; of its square part [s:e, s:e]
    only the upper triangle is used."""
    cs = log_sinh_ratio_series(order)
    den = lcm(d.denom, f.denom)
    # The same step ranks serve both families.
    steps = _step_ranks(codes[: order + 1])
    f_powers, d_powers = (
        _matrix_powers(t.scale(den // t.denom), codes, steps) for t in (f, d)
    )
    grades = [None]
    for m in range(1, order + 1):
        n = len(codes[m])
        f_half, d_half = f_powers[m].array, d_powers[m].array
        rows = np.concatenate(
            [f_half.reshape(n, -1), d_half.reshape(n, -1)], axis=1
        )
        cols = np.concatenate([
            f_half.transpose(0, 2, 1).reshape(n, -1),
            -d_half.transpose(0, 2, 1).reshape(n, -1),
        ], axis=1).T
        # A Gram entry is a sum of rows.shape[1] products; each degree-2m
        # monomial collects at most n of them, and so does each partial
        # sum of its scatter.
        top = max(f_powers[m].bound, d_powers[m].bound)
        bound = top**2 * rows.shape[1] * n
        out = np.zeros(len(codes[2 * m]), dtype=exact_dtype(bound, rows))
        block = max(1, _GRAM_BLOCK // n)
        for s in range(0, n, block):
            e = min(s + block, n)
            # The pairs (s + i, s + j) with i <= j: the square part's
            # upper triangle and the rectangle to its right.
            i, j = upper_indices(e - s, 0, n - s)
            ranks = np.searchsorted(
                codes[2 * m], codes[m][s + i] + codes[m][s + j]
            )
            gram = exact_matmul(rows[s:e], cols[:, s:], bound)[i, j]
            gram *= 2 - (i == j)
            if product_dtype(bound, gram) is np.float64:
                # Every bin sum is a partial sum of one monomial.
                out += np.bincount(
                    ranks, weights=gram, minlength=len(out)
                ).astype(np.int64)
            else:
                np.add.at(out, ranks, gram)
        grade = ScaledTensor(out, den ** (2 * m))
        grades.append(grade.scale(cs[m - 1] / (2 * 4**m)).reduced())
    return grades


def _nonzero(values: np.ndarray, codes: np.ndarray):
    """(codes, values) of the nonzero entries of a dense coefficient
    array over the monomial codes."""
    nz = np.flatnonzero(values)
    return codes[nz], values[nz]


def _scatter_product(out, out_codes, a, b, scale: int) -> None:
    """out[rank(alpha + beta)] += scale * a[alpha] * b[beta] over the
    nonzero entries (codes, values) a and b, in blocks of at most
    _GRAM_BLOCK pairs.  The codes are additive, so alpha + beta is ranked
    by searchsorted on the sum of the two codes."""
    if len(a[1]) > len(b[1]):
        a, b = b, a
    (a_codes, a_vals), (b_codes, b_vals) = a, b
    rows, cols = a_vals.astype(out.dtype) * scale, b_vals.astype(out.dtype)
    block = max(1, _GRAM_BLOCK // len(cols))
    for s in range(0, len(rows), block):
        idx = np.searchsorted(
            out_codes, a_codes[s : s + block, None] + b_codes
        )
        np.add.at(out, idx, rows[s : s + block, None] * cols)


def _graded_exp(
    log: list[ScaledTensor], codes: list[np.ndarray]
) -> list[ScaledTensor]:
    """exp of a graded log, grade g over the degree-2g codes, by the
    recurrence g E_g = sum_{m=1..g} m P_m E_{g-m} (E_0 = 1) that comes
    from dE/dt = P'(t) E.

    The products of one grade share the lcm of their denominators.  An
    entry collects at most min(nnz P_m, nnz E_{g-m}) pairs from each
    product, which bounds it for the int64 test; each grade's bound is
    measured once, the first time it enters a product."""
    exp = [ScaledTensor(np.ones(1, dtype=np.int64), 1)]
    log_nz = [None] + [
        _nonzero(grade.array, codes[2 * m])
        for m, grade in enumerate(log[1:], 1)
    ]
    exp_nz = [_nonzero(exp[0].array, codes[0])]
    for g in range(1, len(log)):
        ms = [
            m for m in range(1, g + 1)
            if len(log_nz[m][1]) and len(exp_nz[g - m][1])
        ]
        pair_den = {m: log[m].denom * exp[g - m].denom for m in ms}
        den = lcm(1, *pair_den.values())
        scale = {m: m * (den // pair_den[m]) for m in ms}
        bound = sum(
            scale[m]
            * log[m].bound
            * exp[g - m].bound
            * min(len(log_nz[m][1]), len(exp_nz[g - m][1]))
            for m in ms
        )
        factors = [log_nz[m][1] for m in ms] + [exp_nz[g - m][1] for m in ms]
        out = np.zeros(len(codes[2 * g]), dtype=exact_dtype(bound, *factors))
        for m in ms:
            _scatter_product(
                out, codes[2 * g], log_nz[m], exp_nz[g - m], scale[m]
            )
        exp.append(ScaledTensor(out, g * den).reduced())
        exp_nz.append(_nonzero(exp[g].array, codes[2 * g]))
    return exp


def dense_integrand(
    d: ScaledTensor, f: ScaledTensor, order: int
) -> tuple[list[np.ndarray], list[ScaledTensor]]:
    """exp of the omega-dependent log of the integrand for generator
    families d (p, n, n) and f (p, p, p): the same graded log as
    integrand_log_expansion, exponentiated grade by grade.  Returns
    (codes, grades): grade g is the ScaledTensor grades[g] over the
    degree-2g monomials codes[2g], one exact integer array (int64 or
    Python ints) over one denominator.  Its work is trace_units +
    exp_units, which the caller checks first."""
    p = d.array.shape[0]
    codes = _monomial_codes(p, 2 * order)
    log = _graded_log(d, f, order, codes)
    return codes, _graded_exp(log, codes)


# Up to this many work units the average runs in all p variables: below
# it the Cartan data and the Weyl weight of the torus average cost more
# than its smaller integrand saves.
_TORUS_UNITS = 10**4


def torus_units(p: int, r: int, order: int) -> int:
    """Work units of the torus average of a p-dimensional h of rank r, in
    the units of trace_units + exp_units: the integrand in r variables,
    the Weyl weight of degree q = p - r and the products E_g J.

    The weight builds one product of p x p matrices per monomial of degree
    1..q in r variables; such a product, p^3 multiply-adds, counts p
    units, a Gram pair being a sum of about p^2 of them.  Newton's
    identities multiply power sums like an exponential to order q/2."""
    q = p - r
    sizes = [comb(r + k - 1, k) for k in range(max(2 * order, q) + 1)]
    return (
        trace_units(r, order)
        + exp_units(r, order)
        + p * (comb(r + q, q) - 1)
        + exp_units(r, q // 2)
        + sizes[q] * sum(sizes[: 2 * order + 1 : 2])
    )


def whitened_average(
    prep: Prepared, order: int, *, budget: int | None = None
) -> TSeries:
    """<exp(L(omega, t))> over omega ~ N(0, 2 beta^{-1}), truncated at the
    order, where L is the omega-dependent log of the integrand
    (integrand_log_expansion): the exact production average.

    It runs over all of h (_gaussian_average with no basis), or, past
    _TORUS_UNITS dense work units (trace_units + exp_units), over the
    maximal torus hol.torus when that average's units (torus_units) are
    fewer.  The budget holds the units of the average that runs: past
    it, OrderTooLarge names them.  An order whose least count passes the
    budget (_budget_limit) is refused before anything is built.  Both
    averages give the same exact coefficients."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    hol = prep.hol
    p = hol.p
    limit = _budget_limit(p, order, budget)
    if p == 0 or order == 0:
        return TSeries.constant(1, order)
    units = trace_units(p, order) + exp_units(p, order)
    basis, cost, what = None, units, _DENSE_UNITS
    if units > _TORUS_UNITS:
        torus = hol.torus
        r = len(torus.array)
        torus_cost = torus_units(p, r, order)
        if torus_cost < units:
            basis, cost = torus, torus_cost
            what = (f"its average over a maximal torus of rank {r}; "
                    f"{units} over all of h")
    if cost > limit:
        raise _over_budget(str(cost), what, p, order, limit)
    return _gaussian_average(prep, basis, order)


def _gaussian_average(
    prep: Prepared, basis: ScaledTensor | None, order: int
) -> TSeries:
    """<exp(L)> over all of h (basis None) or, by Weyl's integration
    formula, over the abelian subalgebra t spanned by the integer rows u_j
    of basis (r, p), a maximal torus: <f>_h = <f J>_t / <J>_t for every
    Ad-invariant f, L among them, with the Weyl weight J (_weyl_weight)
    and the restriction of the Gaussian to t.

    On t, omega = U^T eta and eta ~ N(0, 2 (U beta U^T)^{-1}).  The
    generators are restricted, D_j(U) = sum_i U_ji D_i, and whitened by
    the factor (L^-1, d) of U beta U^T (of beta itself, spec.beta_ldl,
    over all of h): D'_k = sum_j (L^-1)_kj D_j(U), the same for F_mats.
    The exponential is built densely grade by grade in the whitened
    variables (_graded_log and _graded_exp, as in dense_integrand), on
    codes that reach degree 2 order + q, q = p - r; each grade E_g is
    multiplied by J, of degree q (over all of h, q = 0 and J = 1), and
    the monomial eta^{2b} averages to prod_i (2b_i - 1)!! (2/d_i)^{b_i}."""
    hol = prep.hol
    if basis is None:
        back, pivots = prep.spec.beta_ldl
    else:
        beta = prep.spec.tensors.beta
        back, pivots = ldl(exact_einsum("ji,ik,lk->jl", basis, beta, basis))
        back = exact_einsum("jk,ki->ji", back, basis)
    d, f = (
        exact_einsum("ji,iab->jab", back, gens).reduced()
        for gens in (hol.D, hol.F_mats)
    )
    r, q = len(pivots), hol.p - len(pivots)
    codes = _monomial_codes(r, 2 * order + q)
    grades = _graded_exp(_graded_log(d, f, order, codes), codes)
    if q:
        weight = _weyl_weight(f, codes)
        for g, grade in enumerate(grades):
            out = np.zeros(len(codes[2 * g + q]), dtype=object)
            _scatter_product(
                out, codes[2 * g + q], _nonzero(grade.array, codes[2 * g]),
                weight, 1,
            )
            grades[g] = ScaledTensor(out, grade.denom)
    variances = [2 / x for x in pivots]
    odd = [1]  # odd[b] = (2b - 1)!!
    for b in range(1, order + q // 2 + 1):
        odd.append(odd[-1] * (2 * b - 1))
    totals, dens = [], []
    for g in range(order + 1):
        top = g + q // 2
        # Only the all-even monomials 2 beta have a nonzero centred
        # moment; the additive code of 2 beta is twice that of beta.
        nums = grades[g].array[
            np.searchsorted(codes[2 * top], 2 * codes[top])
        ]
        half = _exponents(codes[top], r, len(codes) - 1)
        # prod_i (2b_i - 1)!! v_i^{b_i}, as integers over the common
        # denominator prod_i den(v_i)^top.
        moments = np.ones(len(half), dtype=object)
        scale = 1
        for i, v in enumerate(variances):
            table = [
                odd[b]
                * v.numerator**b
                * v.denominator ** (top - b)
                for b in range(top + 1)
            ]
            moments *= np.array(table, dtype=object)[half[:, i]]
            scale *= v.denominator**top
        totals.append(int(np.dot(nums.astype(object), moments)))
        dens.append(grades[g].denom * scale)
    if totals[0] <= 0:
        raise InternalInconsistency(
            f"the Weyl weight of the torus has the average {totals[0]}/"
            f"{dens[0]}, not a positive number"
        )
    # a_g = <E_g J> / <J>, and E_0 = 1.
    return TSeries(order, tuple(
        Fraction(total * dens[0], den * totals[0])
        for total, den in zip(totals, dens)
    ))


def _weyl_weight(
    f: ScaledTensor, codes: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """(codes, values) of the nonzero coefficients of the Weyl weight of
    a torus times f.denom^q, for its whitened structure matrices f
    (r, p, p): the integer polynomial e_q(A(eta)), q = p - r, A(eta) =
    sum_i eta_i A_i, A the numerators f.array, over the degree-q codes
    (codes[q], codes reaching at least degree q), as Python ints.

    On a torus element H the eigenvalues of ad H are r zeros and the
    pairs +-i alpha(H) over the positive roots, so e_q(ad H) =
    prod_{alpha>0} alpha(H)^2.  Newton's identities give e_q from the
    power sums s_k = tr A(eta)^k.  The A_i commute, being ad of a torus,
    so A(eta)^k = sum_{|alpha|=k} k!/alpha! eta^alpha A^alpha with A^alpha
    = prod_i A_i^{alpha_i}, each one product from a monomial of degree
    k - 1; only the previous degree is kept.  ad H is skew for beta, so
    every A^alpha of odd degree has trace 0 (InternalInconsistency
    otherwise), the odd s_k vanish, and 2j e_{2j} = -sum_{i=1..j}
    e_{2(j-i)} s_{2i}, whose divisions by 2j are then exact, e_k of an
    integer matrix being an integer polynomial."""
    r, p = f.array.shape[:2]
    q, top = p - r, len(codes) - 1
    gens = f.array
    factorials = np.array([factorial(k) for k in range(q + 1)], dtype=object)
    power = np.eye(p, dtype=gens.dtype)[None]
    sums = {}
    for k in range(1, q + 1):
        exps = _exponents(codes[k], r, top)
        # A^alpha = A^(alpha - e_i) A_i, i the first variable of alpha.
        first = (exps > 0).argmax(axis=1)
        prev = np.searchsorted(codes[k - 1], codes[k] - codes[1][first])
        bound = max_abs(power) * f.bound * p
        power = exact_matmul(power[prev], gens[first], bound)
        traces = power.diagonal(axis1=1, axis2=2).astype(object).sum(axis=1)
        if k % 2:
            if traces.any():
                raise InternalInconsistency(
                    f"a torus power of odd degree {k} has a nonzero trace; "
                    f"the structure matrices are not skew"
                )
            continue
        multinomial = np.full(len(exps), factorials[k], dtype=object)
        for i in range(r):
            multinomial //= factorials[exps[:, i]]
        sums[k] = _nonzero(multinomial * traces, codes[k])
    elementary = [_nonzero(np.ones(1, dtype=object), codes[0])]
    for j in range(1, q // 2 + 1):
        out = np.zeros(len(codes[2 * j]), dtype=object)
        for i in range(1, j + 1):
            if len(elementary[j - i][1]) and len(sums[2 * i][1]):
                _scatter_product(
                    out, codes[2 * j], elementary[j - i], sums[2 * i], 1
                )
        elementary.append(_nonzero(-out // (2 * j), codes[2 * j]))
    return elementary[-1]


def integrand_log_expansion(
    hol: HolonomyRealization, order: int, budget: int | None = None
) -> OmegaPolynomial:
    """Logarithm of the omega-dependent part of the generating integrand.

    Returns sum over m of t^m (c_m / 4^m) [ tr F(omega)^{2m}/2
    - tr D(omega)^{2m}/2 ] as an OmegaPolynomial of the given t order,
    where D(omega) and F(omega) are the omega-linear generator matrices
    and c_m are the log(sinh z/z) coefficients.  Its callers always
    exponentiate it, so the work units of log and exponential,
    trace_units + exp_units, must stay within the budget; this is checked
    before anything is built."""
    p = hol.p
    if order < 0:
        raise ValueError("order must be nonnegative")
    check_budget(p, order, budget)
    if p == 0 or order == 0:
        return OmegaPolynomial(p, order, {})
    codes = _monomial_codes(p, 2 * order)
    log = _graded_log(hol.D, hol.F_mats, order, codes)
    terms: dict = {}
    for m in range(1, order + 1):
        monomials, values = _nonzero(log[m].array, codes[2 * m])
        rows = _exponents(monomials, p, 2 * order).tolist()
        for exps, val in zip(rows, values.tolist()):
            terms[(m, tuple(exps))] = Fraction(val, log[m].denom)
    return OmegaPolynomial(p, order, terms)


def exponentiate_with_prefactor(
    log_poly: OmegaPolynomial, scalar_r: Fraction, scalar_rh: Fraction
) -> OmegaPolynomial:
    """exp((R/8 + R_H/6) t) * exp(log_poly), truncated at the t order of
    log_poly.  This is the full integrand of the group average."""
    order = log_poly.order
    p = log_poly.p
    s = Fraction(scalar_r) / 8 + Fraction(scalar_rh) / 6
    zero_key = (0,) * p
    pref_terms = {
        (m, zero_key): s**m / factorial(m) for m in range(order + 1)
    }
    prefactor = OmegaPolynomial(p, order, pref_terms)
    return prefactor * log_poly.exp()
