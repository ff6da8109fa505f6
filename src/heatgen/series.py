"""Exact truncated series machinery for the generating function.

The group average needs the expansion of

    log det( sinh(X)/X )  with  X = sqrt(t)/2 * (generator matrix),

which reduces to trace powers: log(sinh z / z) = sum_m c_m z^{2m} with
c_m = 2^{2m} B_{2m} / (2m (2m)!), so c_1 = 1/6 and c_2 = -1/180.  Both
c_m and B_{2m} are read from one integer table of tangent numbers
(_tangent_numbers), built fresh per call in O(k^2) integer operations;
the formal logarithm of the sinh z / z series that checks the table is
in tests/oracles.py.

Trace powers of the omega-linear matrices D(omega) and F(omega) come
from one pass over monomials, not index words (_power_sums).  Each
generator is skew for its metric (g for D, beta for F), so a d x d
X(omega) has an even characteristic polynomial sum_j e_{2j} lambda^{d-2j}
that fixes every power sum s_m = tr X^{2m} from the first d // 2 (Newton's
identities and Cayley-Hamilton; Macdonald, Symmetric Functions and Hall
Polynomials, ch. I.2).  Those come from the Gram step: the omega^alpha
coefficients of X^k for every degree-k monomial alpha, stacked into one
integer array, step k from step k-1 times each generator, and s_m is
tr(P_m[alpha] P_m[beta]) scattered onto alpha + beta, with monomials
ranked by an additive mixed-radix code.  Every matrix product goes
through rational.exact_matmul with a bound on every operand entry and
partial sum: float64 BLAS below 2**53, exact in any summation order, and
scattered by np.bincount, whose bin sums are partial sums of one
coefficient; int64 below 2**62 and Python ints beyond, the rule by which
the polynomial products of Newton's identities, the recurrence and the
exponential also pick their dtype.

Grade m of the log is one integer array over the degree-2m codes with
one denominator, s^F_m - s^D_m scaled by c_m / (2 4^m).  The Gaussian
core (_gaussian_average) exponentiates it in that form by the recurrence
g E_g = sum_m m P_m E_{g-m}, pairing the nonzero entries of each product
and scattering them onto the summed codes, and averages it over the span
of an integer basis U of h, in whitened variables eta = L^T omega,
U beta U^T = L diag(d) L^T, with <eta^{2b}> = prod_i (2b_i - 1)!!
(2/d_i)^{b_i}.  The integrand is Ad(H)-invariant and so is the Gaussian,
since beta is, so Weyl's integration formula gives the same average over
a maximal torus t, in r = rank h variables instead of p = dim h: <f>_h =
<f J>_t / <J>_t with J = prod_{alpha>0} alpha^2 = e_{p-r}(ad), the
coefficient of F's characteristic polynomial from the same pass.
integrand_log_expansion returns the same log as an OmegaPolynomial,
whose dict-of-Fraction exp, the prefactor product
exponentiate_with_prefactor and averaging.average are kept as the
independent oracle of that path.

One count prices every average.  _plan fixes how far each family's Gram
step runs and where Newton's identities take over; average_units counts,
in the r variables of a basis, the dense coefficient pairs that plan
runs: the Gram pairs, the Newton and Cayley-Hamilton products, the
exponential's products and, with a weight of degree q > 0, the products
E_g J.  All of h is r = p, q = 0, and the torus r = rank, q = p - r.
whitened_average takes the torus (hol.torus) when the units over all of
h pass _TORUS_UNITS and the torus's own are fewer; both give the same
exact coefficients.  The budget (budget=, the CLI's --budget,
DEFAULT_WORD_BUDGET when None) holds the units of the average that runs,
and those over all of h for integrand_log_expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, lcm, prod
from operator import mul

import numpy as np

from .curvature import HolonomyRealization, Prepared, check_skew
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
    weights = np.array([radix**i for i in range(p)], dtype=codes.dtype)
    return (codes[:, None] // weights % radix).astype(np.int64)


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


def _plan(sizes: list[int], order: int, q: int = 0
          ) -> tuple[list[int], list[int]]:
    """(grams, newton) of the power-sum pass over families of d x d skew
    matrices, one d per family in sizes: family k runs its Gram step to
    grade grams[k] = min(order, d // 2) and Newton's identities to
    e_{2 newton[k]}: d // 2 when the order passes it, none otherwise; the
    first family runs both at least to q/2, for the Weyl weight e_q."""
    halves = [d // 2 for d in sizes]
    grams = [min(order, h) for h in halves]
    newton = [h if order > h else 0 for h in halves]
    grams[0], newton[0] = max(grams[0], q // 2), max(newton[0], q // 2)
    return grams, newton


def average_units(r: int, sizes: list[int], order: int, q: int = 0) -> int:
    """Work units of an average in r >= 1 variables whose power sums run
    _plan(sizes, order, q): dense coefficient pairs, with N_k = C(r+k-1,
    k) monomials of degree k, of the Gram step (N_m^2 matrix pairs at
    each grade m to the top Gram grade), of the products e_{2j} s_{m-j}
    of Newton's identities and Cayley-Hamilton (N_{2j} N_{2(m-j)}, j to
    the top Newton grade, m to the order or past it), of the exponential
    (N_{2m} N_{2(g-m)}, 1 <= m <= g <= order) and, with the weight J of
    degree q > 0, of the products E_g J (N_{2g} N_q)."""
    grams, newton = _plan(sizes, order, q)
    top = max(newton)
    last = max(order, top)
    n = [comb(r + k - 1, k) for k in range(max(2 * last, q) + 1)]
    even = n[::2]
    below = list(accumulate(even[: order + 1]))
    return (
        sum(x * x for x in n[1 : max(grams) + 1])
        + sum(even[j] * even[m - j] for m in range(2, last + 1)
              for j in range(1, min(m - 1, top) + 1))
        + sum(even[m] * below[order - m] for m in range(1, order + 1))
        + (n[q] * below[order] if q else 0)
    )


def _over_budget(needs: str, where: str, p: int, order: int, limit: int
                 ) -> OrderTooLarge:
    return OrderTooLarge(
        f"the expansion needs {needs} work units (coefficient pairs of its "
        f"power sums and exponential, {where}) for p={p}, order {order}, "
        f"exceeding the budget of {limit}; lower the order, use a numeric "
        f"average, or raise --budget (budget= in the library)"
    )


def _order_gate(p: int, order: int, budget: int | None) -> int:
    """The limit of an expansion in p variables to the order: the budget,
    DEFAULT_WORD_BUDGET when None.  A negative order, or a budget that is
    neither None nor a positive int (a bool is not one), is a ValueError.
    Every grade of the log, and every product of the exponential, costs at
    least one unit, so an order whose least count exceeds the limit is
    refused from p, the order and the budget alone, before the datum is
    prepared or any binomial summed."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    if budget is not None and not (
        isinstance(budget, int) and not isinstance(budget, bool) and budget > 0
    ):
        raise ValueError(
            f"budget must be a positive integer or None, got {budget!r}"
        )
    limit = DEFAULT_WORD_BUDGET if budget is None else budget
    least = order + order * (order + 1) // 2
    if least > limit:
        raise _over_budget(f"at least {least}", "on either average", p, order,
                           limit)
    return limit


def _budget_gate(hol: HolonomyRealization, order: int, budget: int | None
                 ) -> tuple[int, int]:
    """(limit, units over all of h) of an expansion of hol to the order:
    the limit of _order_gate, and 0 units when the expansion is trivial
    (p == 0 or order == 0)."""
    p = hol.p
    limit = _order_gate(p, order, budget)
    return limit, average_units(p, [p, hol.n], order) if p and order else 0


def _power_sums(
    families: list[ScaledTensor], order: int, codes: list[np.ndarray],
    q: int = 0,
) -> tuple[list[ScaledTensor], list[ScaledTensor]]:
    """(sums, elementary) for one or two families of generators (k, d, d),
    each matrix skew for some metric: sums[m] is tr X(omega)^{2m} of the
    first family minus that of the second, over the degree-2m codes
    (m = 1..order), and elementary[j] the coefficient e_{2j} of the first
    family's characteristic polynomial over the degree-2j codes, at least
    to e_q, the Weyl weight when that family is ad of a torus.  Each is an
    integer array over the families' common denominator to its degree.

    s_m comes from the Gram step to the grades of _plan (h = d // 2, for
    the first family also q/2, or the order): the coefficient of gamma
    sums tr(powers[m][alpha] powers[m][beta]) over alpha + beta = gamma,
    a word of length 2m split in halves.  The Gram matrix is symmetric:
    only the pairs rank(alpha) <= rank(beta) are ranked, once per block
    for both families, and the off-diagonal ones count twice; rows s..e
    take the columns s..n.  With c_m = sum_{j=1..m-1} e_{2j} s_{m-j},
    Newton's identities give e_{2m} = -(s_m + c_m) / 2m, exact for an
    integer matrix, and past h, where e_{2m} vanishes, s_m = -c_m
    (Cayley-Hamilton): both families at once, as the rows of one array, a
    row past its Gram grades zero until then."""
    den = lcm(*(x.denom for x in families))
    gens = [x if x.denom == den else x.scale(den // x.denom) for x in families]
    grams, newton = _plan([x.array.shape[1] for x in gens], order, q)
    # The same step ranks serve every family.
    steps = _step_ranks(codes[: max(grams) + 1])
    powers = [
        _matrix_powers(x, codes, steps[: top + 1])
        for x, top in zip(gens, grams)
    ]
    sums = [None]
    for m in range(1, max(grams) + 1):
        n = len(codes[m])
        live = [(k, powers[k][m]) for k, top in enumerate(grams) if top >= m]
        # A Gram entry is a sum of d^2 products; each degree-2m monomial
        # collects at most n of them, and so does each partial sum of its
        # scatter.
        bounds = [x.bound**2 * x.array[0].size * n for _, x in live]
        dtype = exact_dtype(max(bounds), *(x.array for _, x in live))
        out = np.zeros((len(gens), len(codes[2 * m])), dtype=dtype)
        parts = [
            (out[k], x.array.reshape(n, -1),
             x.array.transpose(0, 2, 1).reshape(n, -1).T, bound)
            for (k, x), bound in zip(live, bounds)
        ]
        block = max(1, _GRAM_BLOCK // n)
        for s in range(0, n, block):
            e = min(s + block, n)
            # The pairs (s + i, s + j) with i <= j: the square part's
            # upper triangle and the rectangle to its right.
            i, j = upper_indices(e - s, 0, n - s)
            ranks = np.searchsorted(
                codes[2 * m], codes[m][s + i] + codes[m][s + j]
            )
            twice = 2 - (i == j)
            for row, rows, cols, bound in parts:
                gram = exact_matmul(rows[s:e], cols[:, s:], bound)[i, j]
                gram *= twice
                if product_dtype(bound, gram) is np.float64:
                    # Every bin sum is a partial sum of one monomial.
                    row += np.bincount(
                        ranks, weights=gram, minlength=len(row)
                    ).astype(np.int64)
                else:
                    np.add.at(row, ranks, gram)
        sums.append(out)
    elementary = [np.ones((len(gens), 1), dtype=np.int64)]
    if any(newton) or max(grams) < order:
        top = max(newton)
        last = max(order, top)
        # Rows past their Gram grades hold zeros until the recurrence.
        lates = np.arange(last + 1) > np.array(grams)[:, None]
        sums += [np.zeros((len(gens), len(codes[2 * m])), np.int64)
                 for m in range(len(sums), last + 1)]
        s_nz, e_nz = [None], [None]
        for m in range(1, last + 1):
            late = lates[:, m : m + 1]
            terms = [(1, e_nz[j], s_nz[m - j])
                     for j in range(1, min(m - 1, top) + 1)]
            acc = _products(codes[2 * m], terms, sums[m])  # s_m + c_m
            sums[m] = sums[m] - late * acc
            if m < last:
                s_nz.append(_nonzero(sums[m], codes[2 * m]))
            if m <= top:
                elementary.append(acc * ~late // (-2 * m))
                e_nz.append(_nonzero(elementary[m], codes[2 * m]))
    # int64 rows lie below 2**62, so their difference fits int64.
    total = [ScaledTensor(s[0] - s[1] if len(s) > 1 else s[0], den ** (2 * m))
             for m, s in enumerate(sums[: order + 1]) if m]
    return [None] + total, [
        ScaledTensor(x[0], den ** (2 * j)) for j, x in enumerate(elementary)
    ]


def _graded_log(
    d: ScaledTensor, f: ScaledTensor, order: int, codes: list[np.ndarray],
    q: int = 0,
) -> tuple[list[ScaledTensor], ScaledTensor]:
    """(grades, weight): grades[m][rank(gamma)] is the coefficient of
    t^m omega^gamma in sum_m t^m (c_m / 4^m) [tr F(omega)^{2m}/2
    - tr D(omega)^{2m}/2] over the degree-2m codes (grades[0] unused),
    weight e_q(F(omega)) from the same pass (_power_sums)."""
    cs = log_sinh_ratio_series(order)
    sums, elementary = _power_sums([f, d], order, codes, q)
    grades = [None] + [
        sums[m].scale(cs[m - 1] / (2 * 4**m)).reduced()
        for m in range(1, order + 1)
    ]
    return grades, elementary[q // 2]


def _nonzero(values: np.ndarray, codes: np.ndarray, bound=None):
    """(codes, values, bound) of the coefficients over the codes (the last
    axis of values) where a row is nonzero; bound, measured unless given,
    is their largest magnitude."""
    nz = (values if values.ndim == 1 else values.any(0)).nonzero()[0]
    values = values[..., nz]
    return codes[nz], values, max_abs(values) if bound is None else bound


def _products(out_codes: np.ndarray, terms, start=None) -> np.ndarray:
    """start (zeros when None) plus the sum of scale * a * b over the
    terms (scale, a, b), a and b from _nonzero with the same rows, over
    out_codes: int64 or Python ints as the bound allows, an entry taking
    at most min(nnz a, nnz b) pairs from each product.  The codes are
    additive, so searchsorted on the sum of two codes ranks alpha + beta,
    once for every row; the pairs go in blocks of about _GRAM_BLOCK."""
    terms = [t for t in terms if len(t[1][0]) and len(t[2][0])]
    bound = sum(
        abs(c) * a[2] * b[2] * min(len(a[0]), len(b[0])) for c, a, b in terms
    )
    factors = [x[1] for _, a, b in terms for x in (a, b)]
    if start is None:
        out = np.zeros(len(out_codes), dtype=exact_dtype(bound, *factors))
    else:
        bound += max_abs(start) if terms else 0
        out = start.astype(exact_dtype(bound, start, *factors))
    for c, a, b in terms:
        if len(a[0]) > len(b[0]):
            a, b = b, a
        rows = a[1].astype(out.dtype, copy=False)
        rows = rows * c if c != 1 else rows
        cols = b[1].astype(out.dtype, copy=False)
        block = max(1, _GRAM_BLOCK // cols.size)
        for s in range(0, len(a[0]), block):
            ranks = np.searchsorted(
                out_codes, a[0][s : s + block, None] + b[0]
            )
            if out.ndim == 1:
                np.add.at(out, ranks, rows[s : s + block, None] * cols)
            else:  # One row per family, sharing the ranks.
                pairs = rows[:, s : s + block, None] * cols[:, None, :]
                np.add.at(out, (slice(None), ranks), pairs)
    return out


def _graded_exp(
    log: list[ScaledTensor], codes: list[np.ndarray]
) -> list[ScaledTensor]:
    """exp of a graded log, grade g over the degree-2g codes, by g E_g =
    sum_{m=1..g} m P_m E_{g-m} (E_0 = 1), from dE/dt = P'(t) E, each
    grade's products over the lcm of their denominators."""
    exp = [ScaledTensor(np.ones(1, dtype=np.int64), 1)]
    log_nz = [None] + [
        _nonzero(grade.array, codes[2 * m], grade.bound)
        for m, grade in enumerate(log[1:], 1)
    ]
    exp_nz = [_nonzero(exp[0].array, codes[0])]
    for g in range(1, len(log)):
        ms = [m for m in range(1, g + 1)
              if len(log_nz[m][1]) and len(exp_nz[g - m][1])]
        pair_den = {m: log[m].denom * exp[g - m].denom for m in ms}
        den = lcm(1, *pair_den.values())
        out = _products(codes[2 * g], [
            (m * (den // pair_den[m]), log_nz[m], exp_nz[g - m]) for m in ms
        ])
        exp.append(ScaledTensor(out, g * den).reduced())
        exp_nz.append(_nonzero(exp[g].array, codes[2 * g], exp[g].bound))
    return exp


# Up to this many work units the average runs in all p variables: below
# it the Cartan data and the Weyl weight of the torus average cost more
# than its smaller integrand saves.
_TORUS_UNITS = 10**4


def whitened_average(
    prep: Prepared, order: int, *, budget: int | None = None
) -> TSeries:
    """<exp(L(omega, t))> over omega ~ N(0, 2 beta^{-1}) to the order, L
    the omega-dependent log of the integrand: the exact production
    average, its log and Weyl weight from one power-sum pass.

    It runs over all of h (_gaussian_average with no basis; average_units
    in r = p variables, q = 0), or, past _TORUS_UNITS of those, over the
    maximal torus hol.torus (r = rank, q = p - r, the Weyl weight's Gram,
    Newton and E_g J pairs included) when its units are fewer; both give
    the same exact coefficients.  The budget holds the units of the
    average that runs: past it, OrderTooLarge names them, and an order
    whose least count passes it (_order_gate) is refused at once."""
    hol = prep.hol
    limit, units = _budget_gate(hol, order, budget)
    if not units:
        return TSeries.constant(1, order)
    basis, cost, where = None, units, "over all of h"
    if units > _TORUS_UNITS:
        torus = hol.torus
        r = len(torus.array)
        torus_cost = average_units(r, [hol.p, hol.n], order, hol.p - r)
        if torus_cost < units:
            basis, cost = torus, torus_cost
            where = f"over a maximal torus of rank {r}; {units} over all of h"
    if cost > limit:
        raise _over_budget(str(cost), where, hol.p, order, limit)
    return _gaussian_average(prep, basis, order)


def _gaussian_average(
    prep: Prepared, basis: ScaledTensor | None, order: int
) -> TSeries:
    """<exp(L)> over all of h (basis None) or, by Weyl's integration
    formula, over the abelian subalgebra t spanned by the integer rows u_j
    of basis (r, p), a maximal torus: <f>_h = <f J>_t / <J>_t for every
    Ad-invariant f, L among them, with the Weyl weight J.

    On t, omega = U^T eta and eta ~ N(0, 2 (U beta U^T)^{-1}).  The
    generators are restricted, D_j(U) = sum_i U_ji D_i, and whitened by
    the factor (L^-1, d) of U beta U^T (of beta itself, spec.beta_ldl,
    over all of h): D'_k = sum_j (L^-1)_kj D_j(U), the same for F_mats.
    The power sums need them skew for their metric (g for D, beta for F),
    which check_skew asserts of the raw generators, and so of every
    combination.  On a torus element H, ad H has r zero eigenvalues
    and the pairs +-i alpha(H), so J = prod_{alpha>0} alpha(H)^2 =
    e_q(ad H), q = p - r, from _graded_log beside the log.  Each grade
    E_g of the exponential, on codes to degree 2 order + q, is multiplied
    by J (over all of h, J = 1), and eta^{2b} averages to
    prod_i (2b_i - 1)!! (2/d_i)^{b_i}, read for every grade from one
    table per variable at the top degree order + q/2."""
    check_skew(prep)
    hol, tensors = prep.hol, prep.spec.tensors
    if basis is None:
        back, pivots = prep.spec.beta_ldl
    else:
        beta = tensors.beta
        back, pivots = ldl(exact_einsum("ji,ik,lk->jl", basis, beta, basis))
        back = exact_einsum("jk,ki->ji", back, basis)
    d, f = (
        exact_einsum("ji,iab->jab", back, gens).reduced()
        for gens in (hol.D, hol.F_mats)
    )
    r, q = len(pivots), hol.p - len(pivots)
    codes = _monomial_codes(r, 2 * order + q)
    log, weight = _graded_log(d, f, order, codes, q)
    grades = _graded_exp(log, codes)
    if q:
        weight = _nonzero(weight.array, codes[q])
        grades = [ScaledTensor(_products(
            codes[2 * g + q], [(1, _nonzero(x.array, codes[2 * g]), weight)]
        ), x.denom) for g, x in enumerate(grades)]
    top = order + q // 2
    odd = list(accumulate(range(1, 2 * top, 2), mul, initial=1))  # (2b-1)!!
    # tables[i, b] = (2b - 1)!! v_i^b, v_i = 2 / d_i, as integers over the
    # common denominator prod_i den(v_i)^top, for every b <= top.
    variances = [2 / x for x in pivots]
    tables = np.array([
        [odd[b] * v.numerator**b * v.denominator ** (top - b)
         for b in range(top + 1)]
        for v in variances
    ], dtype=object)
    scale = prod(v.denominator**top for v in variances)
    # Grade g has degree 2 (g + q/2).  Only its all-even monomials 2 beta
    # have a nonzero centred moment; the additive code of 2 beta is twice
    # that of beta.  Every grade's moments come from one table lookup.
    halves = [codes[g + q // 2] for g in range(order + 1)]
    nums = np.concatenate([
        grades[g].array[np.searchsorted(codes[2 * (g + q // 2)], 2 * half)]
        for g, half in enumerate(halves)
    ])
    moments = tables[
        np.arange(r), _exponents(np.concatenate(halves), r, len(codes) - 1)
    ].prod(axis=1)
    starts = np.cumsum([0] + [len(half) for half in halves[:-1]])
    totals = np.add.reduceat(nums * moments, starts)
    dens = [grade.denom * scale for grade in grades]
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


def integrand_log_expansion(
    hol: HolonomyRealization, order: int, budget: int | None = None
) -> OmegaPolynomial:
    """Logarithm of the omega-dependent part of the generating integrand.

    Returns sum over m of t^m (c_m / 4^m) [ tr F(omega)^{2m}/2
    - tr D(omega)^{2m}/2 ] as an OmegaPolynomial of the given t order,
    where D(omega) and F(omega) are the omega-linear generator matrices
    and c_m are the log(sinh z/z) coefficients, from power sums that need
    D and F skew for some metric, as a derived holonomy's are (D for g,
    F = ad for an invariant form of the compact h).  Its callers always
    exponentiate it, so the budget holds the units of the average over
    all of h (average_units in p variables), checked before anything is
    built."""
    p = hol.p
    limit, units = _budget_gate(hol, order, budget)
    if not units:
        return OmegaPolynomial(p, order, {})
    if units > limit:
        raise _over_budget(str(units), "over all of h", p, order, limit)
    codes = _monomial_codes(p, 2 * order)
    log, _ = _graded_log(hol.D, hol.F_mats, order, codes)
    terms: dict = {}
    for m in range(1, order + 1):
        monomials, values, _ = _nonzero(log[m].array, codes[2 * m])
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
