"""Exact truncated series machinery for the generating function.

The group average needs the expansion of

    log det( sinh(X)/X )  with  X = sqrt(t)/2 * (generator matrix),

which reduces to trace powers: log(sinh z / z) = sum_m c_m z^{2m} with
c_m = 2^{2m} B_{2m} / (2m (2m)!), so c_1 = 1/6 and c_2 = -1/180.  The
coefficients are computed twice, from that closed form and from a formal
logarithm of the sinh z / z series, and must agree exactly.

Trace powers of the omega-linear matrices D(omega) and F(omega) are built
over monomials, not index words.  Each generator family is scaled to
integers over one common denominator; the omega^alpha coefficients of
X^k for every degree-k monomial alpha are stacked into one integer array,
step k coming from step k-1 times each generator.  The coefficients of
tr X^{2m} are then a Gram matrix tr(P_m[alpha] P_m[beta]) scattered onto
alpha + beta, with monomials ranked by an additive mixed-radix code.  The
work, and the budget, is counted in coefficient-matrix pairs of that Gram
step, sum_m C(p+m-1, m)^2.  All arithmetic is exact: arrays are int64 only
where a magnitude bound proves it safe, and Python ints otherwise.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import numpy as np

from .curvature import HolonomyRealization
from .errors import InternalInconsistency, OrderTooLarge
from .rational import ScaledTensor, exact_dtype, max_abs

__all__ = [
    "bernoulli",
    "log_sinh_ratio_series",
    "TSeries",
    "OmegaPolynomial",
    "integrand_log_expansion",
    "exponentiate_with_prefactor",
    "DEFAULT_WORD_BUDGET",
    "enumeration_budget",
]

DEFAULT_WORD_BUDGET = 10**8
_BUDGET_ENV = "HEATGEN_BUDGET"


def enumeration_budget() -> int:
    """Budget in trace_units for integrand_log_expansion, overridable via
    HEATGEN_BUDGET."""
    raw = os.environ.get(_BUDGET_ENV)
    if raw is None:
        return DEFAULT_WORD_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise OrderTooLarge(f"{_BUDGET_ENV} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise OrderTooLarge(f"{_BUDGET_ENV} must be positive, got {value}")
    return value


@lru_cache(maxsize=None)
def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m (B_1 = -1/2), by the defining recurrence
    sum_{j=0}^{m} binom(m+1, j) B_j = 0."""
    if m < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if m == 0:
        return Fraction(1)
    if m == 1:
        return Fraction(-1, 2)
    if m % 2:
        return Fraction(0)
    acc = sum(
        (comb(m + 1, j) * bernoulli(j) for j in range(m)), Fraction(0)
    )
    return -acc / (m + 1)


@lru_cache(maxsize=None)
def log_sinh_ratio_series(k: int) -> tuple[Fraction, ...]:
    """Coefficients (c_1, ..., c_k) of log(sinh z / z) in powers of z^2.

    Computed from the closed Bernoulli form and independently from the
    formal logarithm of the sinh z / z series; the two must agree exactly.
    """
    closed = tuple(
        Fraction(4**m) * bernoulli(2 * m) / (2 * m * factorial(2 * m))
        for m in range(1, k + 1)
    )
    # sinh z / z = sum_m u^m / (2m+1)!  with u = z^2; log via the
    # alternating series applied to the tail s - 1.
    tail = TSeries(k, (Fraction(0),) + tuple(
        Fraction(1, factorial(2 * m + 1)) for m in range(1, k + 1)
    ))
    logs = TSeries.constant(0, k)
    power = TSeries.constant(1, k)
    for j in range(1, k + 1):
        power = power * tail
        logs = logs + power.scale(Fraction((-1) ** (j + 1), j))
    formal = logs.coeffs[1:]
    if formal != closed:
        raise InternalInconsistency(
            "log(sinh z/z) series mismatch between the Bernoulli closed "
            "form and the formal logarithm"
        )
    return closed


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

    def __add__(self, other: "TSeries") -> "TSeries":
        k = min(self.order, other.order)
        return TSeries(
            k, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

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

    def scale(self, c) -> "TSeries":
        f = Fraction(c)
        return TSeries(self.order, tuple(f * x for x in self.coeffs))

    def exp(self) -> "TSeries":
        """exp of a series with zero constant term, truncated exactly."""
        if self.coeffs[0] != 0:
            raise ValueError("exp needs a vanishing constant term")
        result = TSeries.constant(1, self.order)
        power = TSeries.constant(1, self.order)
        for j in range(1, self.order + 1):
            power = power * self
            result = result + power.scale(Fraction(1, factorial(j)))
        return result

    def eval_float(self, t: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * t + float(c)
        return acc


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

    def omega_free_series(self) -> TSeries:
        """The t-series obtained by setting every omega variable to zero."""
        zero_key = (0,) * self.p
        coeffs = [Fraction(0)] * (self.order + 1)
        for (g, exps), val in self.terms.items():
            if exps == zero_key:
                coeffs[g] = val
        return TSeries(self.order, tuple(coeffs))


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
        codes.append(step[np.r_[True, step[1:] != step[:-1]]])
    return codes


def _decode(codes: np.ndarray, p: int, top: int) -> list[tuple[int, ...]]:
    """Exponent tuples of mixed-radix codes from _monomial_codes."""
    radix = top + 1
    digits = np.empty((len(codes), p), dtype=codes.dtype)
    rest = codes.copy()
    for i in range(p):
        # Not np.divmod: it has no loop for object arrays.
        digits[:, i] = rest % radix
        rest //= radix
    return [tuple(map(int, row)) for row in digits.tolist()]


def _trace_power_sums(
    gens: np.ndarray, order: int, codes: list[np.ndarray]
) -> list[np.ndarray]:
    """sums[m][rank(gamma)] = coefficient of omega^gamma in
    tr (sum_i omega_i gens[i])^{2m}, for m = 1..order (sums[0] unused).

    powers[k][rank(alpha)] is the omega^alpha coefficient of X^k, the sum
    of gens along every word with letter counts alpha.  Step k adds
    powers[k-1][beta] @ gens[i] onto beta + e_i, which for a fixed i hits
    every target once.  A word of length 2m splits into two halves of
    length m, so the trace coefficient is sum over alpha + beta = gamma of
    tr(powers[m][alpha] @ powers[m][beta]): a Gram matrix of the flattened
    powers, scattered onto the code of alpha + beta.  The Gram matrix is
    symmetric, so only pairs with rank(alpha) <= rank(beta) are formed and
    the off-diagonal ones count twice."""
    p, dim = gens.shape[0], gens.shape[1]
    weights = codes[1]  # code of e_i, sorted by i
    powers = [np.eye(dim, dtype=gens.dtype)[None]]
    for k in range(1, order + 1):
        prev = powers[-1]
        # Each monomial collects at most min(p, k) products.
        bound = max_abs(prev) * max_abs(gens) * dim * min(p, k)
        dtype = exact_dtype(bound, prev, gens)
        prev, step = prev.astype(dtype), gens.astype(dtype)
        cur = np.zeros((len(codes[k]), dim, dim), dtype=dtype)
        for i in range(p):
            cur[np.searchsorted(codes[k], codes[k - 1] + weights[i])] += (
                prev @ step[i]
            )
        powers.append(cur)
    sums = [None]
    for m in range(1, order + 1):
        half = powers[m]
        n = len(half)
        # A Gram entry is a sum of dim^2 products; each degree-2m monomial
        # collects at most n of them.
        bound = max_abs(half) ** 2 * dim * dim * n
        dtype = exact_dtype(bound, half)
        rows = half.astype(dtype).reshape(n, dim * dim)
        cols = half.astype(dtype).transpose(0, 2, 1).reshape(n, dim * dim).T
        out = np.zeros(len(codes[2 * m]), dtype=dtype)
        block = max(1, _GRAM_BLOCK // n)
        for s in range(0, n, block):
            e = min(s + block, n)
            gram = rows[s:e] @ cols[:, s:]
            square = gram[:, : e - s]
            gram[:, : e - s] = np.triu(square) + np.triu(square, 1)
            gram[:, e - s :] *= 2
            idx = np.searchsorted(
                codes[2 * m], codes[m][s:e, None] + codes[m][s:]
            )
            np.add.at(out, idx, gram)
        sums.append(out)
    return sums


def integrand_log_expansion(
    hol: HolonomyRealization, order: int, budget: int | None = None
) -> OmegaPolynomial:
    """Logarithm of the omega-dependent part of the generating integrand.

    Returns sum over m of t^m (c_m / 4^m) [ tr F(omega)^{2m}/2
    - tr D(omega)^{2m}/2 ] as an OmegaPolynomial of the given t order,
    where D(omega) and F(omega) are the omega-linear generator matrices
    and c_m are the log(sinh z/z) coefficients.  The work units
    trace_units(p, order) must stay within the budget; this is checked
    before anything is built."""
    p = hol.p
    if order < 0:
        raise ValueError("order must be nonnegative")
    result = OmegaPolynomial(p, order, {})
    if p == 0 or order == 0:
        return result
    limit = enumeration_budget() if budget is None else budget
    units = trace_units(p, order)
    if units > limit:
        raise OrderTooLarge(
            f"the trace expansion needs {units} units (coefficient-matrix "
            f"pairs, sum_m C(p+m-1,m)^2) for p={p}, order {order}, "
            f"exceeding the budget of {limit}; lower the order, use a "
            f"numeric average, or raise {_BUDGET_ENV}"
        )
    cs = log_sinh_ratio_series(order)
    codes = _monomial_codes(p, 2 * order)
    d = ScaledTensor.from_nested(hol.D)
    f = ScaledTensor.from_nested(hol.F_mats)
    d_sums = _trace_power_sums(d.array, order, codes)
    f_sums = _trace_power_sums(f.array, order, codes)
    terms: dict = {}
    for m in range(1, order + 1):
        coef = cs[m - 1] / Fraction(4**m) / 2
        d_den, f_den = d.denom ** (2 * m), f.denom ** (2 * m)
        nz = np.flatnonzero((d_sums[m] != 0) | (f_sums[m] != 0))
        exps_list = _decode(codes[2 * m][nz], p, 2 * order)
        for exps, td, tf in zip(
            exps_list, d_sums[m][nz].tolist(), f_sums[m][nz].tolist()
        ):
            val = coef * (Fraction(tf, f_den) - Fraction(td, d_den))
            if val:
                terms[(m, exps)] = val
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
