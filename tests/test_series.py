"""Series engine: Bernoulli numbers, the log sinh-ratio expansion, exact
truncated series types, and the trace-power expansion."""

import functools
import itertools
import math
import random
import types
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heatgen as hg
import oracles
from heatgen import catalog, curvature, rational, series


# ---------------------------------------------------------------------------
# Bernoulli numbers and the sinh-ratio logarithm
# ---------------------------------------------------------------------------


def test_bernoulli_table():
    want = {
        0: F(1),
        1: F(-1, 2),
        2: F(1, 6),
        4: F(-1, 30),
        6: F(1, 42),
        8: F(-1, 30),
        10: F(5, 66),
        12: F(-691, 2730),
    }
    for m, value in want.items():
        assert hg.bernoulli(m) == value
    assert all(hg.bernoulli(m) == 0 for m in (3, 5, 7, 9, 11))


@given(st.integers(min_value=1, max_value=40))
def test_bernoulli_recurrence(m):
    total = sum(math.comb(m + 1, j) * hg.bernoulli(j) for j in range(m + 1))
    assert total == 0


def test_log_sinh_ratio_leading_terms():
    cs = hg.log_sinh_ratio_series(4)
    assert cs[0] == F(1, 6)
    assert cs[1] == F(-1, 180)
    assert cs[2] == F(1, 2835)
    assert cs[3] == F(-1, 37800)


def _cubic_formal_log(k):
    """log(sinh z / z) in u = z^2 by the alternating series of the tail,
    k truncated products: the cubic-cost formal logarithm, as an oracle."""
    tail = hg.TSeries(k, (F(0),) + tuple(
        F(1, math.factorial(2 * m + 1)) for m in range(1, k + 1)
    ))
    logs = [F(0)] * (k + 1)
    power = hg.TSeries.constant(1, k)
    for j in range(1, k + 1):
        power = power * tail
        for idx, c in enumerate(power.coeffs):
            logs[idx] += F((-1) ** (j + 1), j) * c
    return tuple(logs[1:])


def test_log_sinh_ratio_matches_the_cubic_formal_logarithm():
    assert hg.log_sinh_ratio_series(40) == _cubic_formal_log(40)
    long = hg.log_sinh_ratio_series(120)
    m = 120
    assert len(long) == m
    assert long[-1] == F(4**m) * hg.bernoulli(2 * m) / (
        2 * m * math.factorial(2 * m)
    )


def test_log_sinh_ratio_matches_the_formal_logarithm():
    assert hg.log_sinh_ratio_series(200) == oracles.formal_log_sinh_ratio(200)


def _check_staudt_clausen(m):
    b = hg.bernoulli(2 * m)
    assert b.denominator == oracles.staudt_clausen_denominator(2 * m)
    assert (b > 0) == (m % 2 == 1)
    return b


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=600))
def test_bernoulli_von_staudt_clausen(m):
    _check_staudt_clausen(m)


def test_constants_past_a_thousand_bernoulli_numbers():
    # Past B_1024 the cost must keep growing as a polynomial in the
    # index, with no cliff where a bounded memo fills up.
    m = 520
    b = _check_staudt_clausen(m)
    assert hg.log_sinh_ratio_series(m)[-1] == F(4**m) * b / (
        2 * m * math.factorial(2 * m)
    )


def test_log_sinh_ratio_exponentiates_back():
    # exp of the claimed series must reproduce sinh(z)/z = sum u^m/(2m+1)!
    k = 8
    cs = hg.log_sinh_ratio_series(k)
    logs = hg.TSeries(k, (F(0),) + cs)
    acc = [F(1)] + [F(0)] * k
    power = hg.TSeries.constant(1, k)
    for j in range(1, k + 1):
        power = power * logs
        for idx in range(k + 1):
            acc[idx] += F(1, math.factorial(j)) * power[idx]
    assert acc == [F(1, math.factorial(2 * m + 1)) for m in range(k + 1)]


# ---------------------------------------------------------------------------
# TSeries
# ---------------------------------------------------------------------------


def test_tseries_mul_truncates_to_min_order():
    a = hg.TSeries(3, (F(1), F(1), F(0), F(0)))
    b = hg.TSeries(2, (F(1), F(2), F(3)))
    prod = a * b
    assert prod.order == 2
    assert prod.coeffs == (F(1), F(3), F(5))


def _cauchy_product(a, b):
    """The Fraction double loop that TSeries.__mul__ replaced."""
    k = min(len(a), len(b)) - 1
    out = [F(0)] * (k + 1)
    for i in range(k + 1):
        for j in range(k + 1 - i):
            out[i + j] += a[i] * b[j]
    return tuple(out)


_DIGITS_1000 = st.integers(10**999, 10**1000 - 1)
_COEFFS = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-9, 9), st.integers(1, 9)),
    st.builds(lambda sign, num, den: F(sign * num, den),
              st.sampled_from([-1, 1]), _DIGITS_1000,
              st.one_of(st.integers(1, 10**6), _DIGITS_1000)),
)


@settings(max_examples=60, deadline=None)
@given(a=st.lists(_COEFFS, min_size=1, max_size=10),
       b=st.lists(_COEFFS, min_size=1, max_size=10))
def test_tseries_product_equals_the_fraction_double_loop(a, b):
    # Zeros, unequal orders and numerators of 1000 digits: the integer
    # convolution over one lcm per operand gives the same Fractions.
    got = hg.TSeries(len(a) - 1, tuple(a)) * hg.TSeries(len(b) - 1, tuple(b))
    assert got.order == min(len(a), len(b)) - 1
    assert got.coeffs == _cauchy_product(a, b)
    assert all(type(c) is F for c in got.coeffs)


def test_tseries_eval_float():
    t = hg.TSeries(2, (F(1), F(1, 2), F(1, 4)))
    assert t.eval_float(2.0) == pytest.approx(1 + 1 + 1)


# ---------------------------------------------------------------------------
# OmegaPolynomial
# ---------------------------------------------------------------------------


def test_omega_polynomial_exp_homomorphism():
    a = hg.OmegaPolynomial(2, 3, {(1, (2, 0)): F(1, 3), (2, (1, 1)): F(-2)})
    b = hg.OmegaPolynomial(2, 3, {(1, (0, 2)): F(1, 5)})
    lhs = (a + b).exp()
    rhs = a.exp() * b.exp()
    assert lhs == rhs


def test_omega_polynomial_truncates_by_grade():
    a = hg.OmegaPolynomial(1, 2, {(2, (2,)): F(1)})
    sq = a * a
    assert sq.terms == {}


# ---------------------------------------------------------------------------
# Trace powers against a brute-force sum over every index word
# ---------------------------------------------------------------------------


def _word_trace(mats, word):
    prod = mats[word[0]]
    for ch in word[1:]:
        prod = oracles.matmul(prod, mats[ch])
    return oracles.trace(prod)


def _word_sum_expansion(hol, order):
    """integrand_log_expansion from its definition: tr X^{2m} summed over
    all p^{2m} index words, with no grouping or reuse of products."""
    cs = series.log_sinh_ratio_series(order)
    D, F_mats = hol.D.to_fractions(), hol.F_mats.to_fractions()
    terms: dict = {}
    for m in range(1, order + 1):
        coef = cs[m - 1] / F(4**m) / 2
        for word in itertools.product(range(hol.p), repeat=2 * m):
            key = (m, tuple(word.count(i) for i in range(hol.p)))
            val = coef * (_word_trace(F_mats, word) - _word_trace(D, word))
            terms[key] = terms.get(key, F(0)) + val
    return hg.OmegaPolynomial(hol.p, order, terms)


_ENTRIES = {
    "int": lambda rng: F(rng.randint(-3, 3)),
    "rational": lambda rng: F(rng.randint(-9, 9), rng.randint(1, 12)),
    # float64 matrix powers under float64, int64 and Python-int Gram steps.
    "wide": lambda rng: F(rng.randint(-(2**12), 2**12)),
    # int64 for the generators, promoted to Python ints once the powers
    # or the Gram step could pass 2**62.
    "promoted": lambda rng: F(rng.randint(-(2**21), 2**21)),
    # Entries above 2**62: Python ints from the start.
    "huge": lambda rng: F(rng.randint(-(2**70), 2**70), rng.randint(1, 2**40)),
}


def _skew(size, draw):
    """A random antisymmetric size x size Fraction matrix, its entries
    above the diagonal from draw()."""
    upper = {(a, b): draw() for a in range(size) for b in range(a + 1, size)}
    return oracles.matrix([
        [upper[a, b] if a < b else -upper[b, a] if a > b else F(0)
         for b in range(size)]
        for a in range(size)
    ])


def _random_hol(kind, p, dim, seed):
    """A stand-in holonomy with p random antisymmetric D and F matrices,
    skew for the identity as a datum's generators are for its metrics,
    which the power sums need; the expansion reads nothing else but p
    and n, the size of D, for its budget, so F need not be p x p here."""
    rng = random.Random(seed)

    def mats(size):
        return rational.ScaledTensor.from_nested(tuple(
            _skew(size, lambda: _ENTRIES[kind](rng)) for _ in range(p)
        ))

    return types.SimpleNamespace(p=p, n=dim, D=mats(dim),
                                 F_mats=mats(dim + 1))


@pytest.mark.parametrize("kind", sorted(_ENTRIES))
@pytest.mark.parametrize(
    "p,dim,order",
    # p = 40 at order 1: 3**40 > 2**62, so the monomial codes themselves
    # are Python ints.
    [(1, 3, 4), (2, 3, 3), (3, 2, 3), (40, 1, 1)],
)
def test_log_expansion_matches_full_word_sum(kind, p, dim, order):
    hol = _random_hol(kind, p, dim, seed=f"{kind}-{p}")
    assert hg.integrand_log_expansion(hol, order) == _word_sum_expansion(
        hol, order
    )


def _spy_products(monkeypatch):
    """(dtype, inner width) of every exact_matmul the series runs."""
    seen = []

    def spy(a, b, bound):
        seen.append((rational.product_dtype(bound, a, b), a.shape[1]))
        return rational.exact_matmul(a, b, bound)

    monkeypatch.setattr(series, "exact_matmul", spy)
    return seen


def test_signed_gram_falls_back_to_python_ints(monkeypatch):
    hol = _random_hol("promoted", 2, 6, seed=4)
    assert hol.D.array.dtype == hol.F_mats.array.dtype == np.int64
    seen = _spy_products(monkeypatch)
    series._graded_log(hol.D, hol.F_mats, 3, series._monomial_codes(2, 6))
    # Three power steps of F (dim 7) and of D (dim 6), then Gram products
    # of width 7^2 and 6^2 for each of m = 1, 2, 3: with d // 2 = 3 every
    # grade comes from the Gram step.
    f64 = np.float64
    assert seen == (
        [(f64, 7), (f64, 7), (object, 7), (f64, 6), (f64, 6), (object, 6)]
        + [(f64, 49), (f64, 36)] + [(object, 49), (object, 36)] * 2
    )
    assert hg.integrand_log_expansion(hol, 3) == _word_sum_expansion(hol, 3)


def test_signed_gram_mixes_float_and_integer_products(monkeypatch):
    hol = _random_hol("wide", 2, 6, seed="mixed")
    seen = _spy_products(monkeypatch)
    series._graded_log(hol.D, hol.F_mats, 3, series._monomial_codes(2, 6))
    f64 = np.float64
    assert seen == (
        [(f64, 7)] * 3 + [(f64, 6)] * 3
        + [(f64, 49), (f64, 36), (np.int64, 49), (np.int64, 36)]
        + [(object, 49), (object, 36)]
    )
    assert hg.integrand_log_expansion(hol, 3) == _word_sum_expansion(hol, 3)


@pytest.mark.parametrize("d_den,f_den", [(1, 3**40), (2**61 - 1, 2**31 - 1)])
def test_log_expansion_rebases_far_apart_denominators(
    monkeypatch, d_den, f_den
):
    # Rebased to the common denominator, D (times 3^40 > 2^62) or F (times
    # 2^61 - 1) leaves int64, and its power step and Gram run on Python
    # ints.
    rng = random.Random(f"{d_den}-{f_den}")

    def mats(size, den):
        return rational.ScaledTensor.from_nested(tuple(
            _skew(size, lambda: F(rng.randint(-9, 9), den)) for _ in range(2)
        ))

    hol = types.SimpleNamespace(p=2, n=3, D=mats(3, d_den),
                                F_mats=mats(4, f_den))
    assert (hol.D.denom, hol.F_mats.denom) == (d_den, f_den)
    seen = _spy_products(monkeypatch)
    assert hg.integrand_log_expansion(hol, 3) == _word_sum_expansion(hol, 3)
    widths = (3, 3**2) if f_den == 3**40 else (4, 4**2)
    assert {dtype for dtype, width in seen if width in widths} == {object}


def test_builtin_log_expansion_matches_full_word_sum(hols):
    for name, order in (("S2xS2", 2), ("S4", 1), ("S2xS3", 2)):
        assert hg.integrand_log_expansion(
            hols[name], order
        ) == _word_sum_expansion(hols[name], order)


def test_gram_blocks_do_not_change_the_result(hols, monkeypatch):
    whole = hg.integrand_log_expansion(hols["S4"], 3)
    # One Gram row per block: every pair crosses a block boundary.
    monkeypatch.setattr(series, "_GRAM_BLOCK", 1)
    assert hg.integrand_log_expansion(hols["S4"], 3) == whole
    assert hg.integrand_log_expansion(
        hols["S2xS3"], 2
    ) == _word_sum_expansion(hols["S2xS3"], 2)


def test_shared_pair_ranks_with_one_row_per_block(hols, monkeypatch):
    # S5 has D of dim 5 and F of dim 10: each one-row Gram block holds
    # both families side by side, 10^2 + 5^2 columns.
    hol = hols["S5"]
    log = hg.integrand_log_expansion(hol, 3)
    exp = log.exp()
    monkeypatch.setattr(series, "_GRAM_BLOCK", 1)
    assert hg.integrand_log_expansion(hol, 3) == log
    dense = oracles.dense_integrand(hol.D, hol.F_mats, 3)
    assert _dense_to_poly(dense, 3) == exp


def _series_power_sums(gens, order):
    """series._power_sums of one generator family as the dicts of
    oracles.gram_power_sums."""
    k = len(gens.array)
    codes = series._monomial_codes(k, 2 * order)
    sums, _ = series._power_sums([gens], order, codes)
    out = []
    for m in range(1, order + 1):
        nz = np.flatnonzero(sums[m].array)
        rows = series._exponents(codes[2 * m][nz], k, 2 * order).tolist()
        out.append({tuple(row): F(int(v), sums[m].denom)
                    for row, v in zip(rows, sums[m].array[nz].tolist())})
    return out


def _check_power_sums(gens, order):
    # Past half the matrix size every grade comes from the
    # characteristic polynomial, which the reference never forms.
    assert order > gens.array.shape[1] // 2
    want = oracles.gram_power_sums(gens.to_fractions(), order)
    assert _series_power_sums(gens, order) == want


# D (size n) over all of h, or on the torus where p would make the
# reference's Gram too large, and F (size p) where p is small.
@pytest.mark.parametrize("name,family,torus,order", [
    ("S2", "D", False, 4), ("S3", "D", False, 4), ("S4", "D", False, 4),
    ("S5", "D", False, 3), ("S6", "D", True, 5), ("S2xS2", "D", False, 4),
    ("S2xS3", "D", False, 4), ("S7", "D", True, 5), ("S8", "D", True, 6),
    ("S9", "D", True, 6),
    ("S3", "F_mats", False, 3), ("S2xS3", "F_mats", False, 4),
    ("S4", "F_mats", False, 5), ("S5", "F_mats", True, 7),
    ("S6", "F_mats", True, 9),
])
def test_power_sums_past_half_the_matrix_size(prepared, name, family, torus,
                                              order):
    prep = prepared.get(name) or hg.prepare(
        catalog._sphere_spec(int(name[1:]), name)
    )
    gens = getattr(prep.hol, family)
    if torus:
        gens = rational.exact_einsum(
            "ji,iab->jab", prep.hol.torus, gens
        ).reduced()
    _check_power_sums(gens, order)


@settings(max_examples=20, deadline=None)
@given(spec=oracles.moved_spaces(mixed=True))
def test_power_sums_past_half_the_matrix_size_on_moved_spaces(spec):
    hol = hg.prepare(spec).hol
    _check_power_sums(hol.D, spec.n // 2 + 2)
    _check_power_sums(hol.F_mats, spec.p // 2 + 2)


def _record_gram_grades(monkeypatch):
    """Record the top grade of every _matrix_powers call."""
    tops = []
    powers = series._matrix_powers

    def spy(gens, codes, ranks):
        tops.append(len(ranks) - 1)
        return powers(gens, codes, ranks)

    monkeypatch.setattr(series, "_matrix_powers", spy)
    return tops


# Orders below and past d // 2 of D (n // 2) and of F (p // 2), over all
# of h and on the torus, where F runs at least to q/2; the top Gram
# grades of F and D.
@pytest.mark.parametrize("name,torus,order,f_top,d_top", [
    ("S3", False, 1, 1, 1), ("S3", False, 3, 1, 1),
    ("S3", True, 1, 1, 1), ("S3", True, 3, 1, 1),
    ("S4", False, 2, 2, 2), ("S4", False, 5, 3, 2),
    ("S4", True, 1, 2, 1), ("S4", True, 5, 3, 2),
    ("S6", False, 2, 2, 2), ("S6", False, 4, 4, 3),
    ("S6", True, 2, 6, 2), ("S6", True, 9, 7, 3),
])
def test_power_sums_run_the_gram_grades_of_the_plan(
    prepared, monkeypatch, name, torus, order, f_top, d_top
):
    hol = prepared[name].hol
    d, f = hol.D, hol.F_mats
    r, q = hol.p, 0
    if torus:
        d, f = (rational.exact_einsum("ji,iab->jab", hol.torus, x).reduced()
                for x in (d, f))
        r = len(hol.torus.array)
        q = hol.p - r
    grams, _ = series._plan([hol.p, hol.n], order, q)
    assert grams == [f_top, d_top]
    tops = _record_gram_grades(monkeypatch)
    series._power_sums([f, d], order, series._monomial_codes(r, 2 * order + q),
                       q)
    assert tops == grams


def test_average_units_counts_the_plan():
    # S2 (F 1 x 1, D 2 x 2, one variable): one Gram grade, then one
    # Newton product per grade past it, and the exponential; the least
    # count of _budget_gate, exactly.
    assert series._plan([1, 2], 4) == ([0, 1], [0, 1])
    assert [series.average_units(1, [1, 2], k) for k in range(5)] == [
        k + k * (k + 1) // 2 for k in range(5)
    ]
    # S4 over all of h at order 4: F (6 x 6) and D (4 x 4) stop their
    # Gram steps at 3 and 2, and Newton's identities run to e_6, with
    # N_k = C(5+k, k) degree-k monomials in 6 variables.
    assert series._plan([6, 4], 4) == ([3, 2], [3, 2])
    assert series._plan([6, 4], 2) == ([2, 2], [0, 0])
    n1, n2, n3, n4, n6 = 6, 21, 56, 126, 462
    gram = n1 * n1 + n2 * n2 + n3 * n3
    newton = n2 * n2 + 2 * n2 * n4 + (2 * n2 * n6 + n4 * n4)
    assert series.average_units(6, [6, 4], 4) == (
        gram + newton + series.average_units(6, [1], 4)
    )
    # S6 on its torus (rank 3): F's Gram step runs to q/2 = 6 for the
    # Weyl weight e_12 whatever the order, to 7 = 15 // 2 at most.
    assert series._plan([15, 6], 2, 12) == ([6, 2], [6, 0])
    assert series._plan([15, 6], 8, 12) == ([7, 3], [7, 3])


def test_average_units_counts_the_exponential():
    # A 1 x 1 family has no Gram grade and no Newton grade: what is left
    # is the exponential.  One variable: grade g pairs P_m with E_{g-m}
    # for m = 1..g.
    assert [series.average_units(1, [1], k) for k in range(5)] == [
        0, 1, 3, 6, 10
    ]
    assert series.average_units(2, [1], 1) == 3
    # S6 (p = 15) at order 4, with N_k = C(14+k, k) degree-k monomials.
    n2, n4, n6, n8 = 120, 3060, 38760, 319770
    assert series.average_units(15, [1], 4) == (
        n2 + (n2 * n2 + n4) + (2 * n2 * n4 + n6) + (2 * n2 * n6 + n4 * n4 + n8)
    )
    # On S3's torus (rank 1) the weight J = e_2 needs no grade past the
    # plan over all of h, and adds one product E_g J per grade g = 0..3.
    assert series._plan([3, 3], 3, 2) == series._plan([3, 3], 3)
    assert series.average_units(1, [3, 3], 3, 2) == (
        series.average_units(1, [3, 3], 3) + 4
    )
    # S6 over all of h at order 4 fits the default budget.
    units = series.average_units(15, [15, 6], 4)
    assert units == 49_031_935 < hg.DEFAULT_WORD_BUDGET


def _dense_to_poly(dense, order):
    """dense_integrand's (codes, grades) as an OmegaPolynomial, entry by
    entry."""
    codes, grades = dense
    p = len(codes[1])  # one degree-1 monomial per variable
    terms = {}
    for g in range(order + 1):
        num, den = grades[g].array, grades[g].denom
        nz = np.flatnonzero(num)
        exps = series._exponents(codes[2 * g][nz], p, 2 * order)
        for row, val in zip(exps.tolist(), num[nz].tolist()):
            terms[(g, tuple(row))] = F(val, den)
    return hg.OmegaPolynomial(p, order, terms)


@pytest.mark.parametrize("kind", sorted(_ENTRIES))
@pytest.mark.parametrize("p,dim,order", [(1, 3, 5), (2, 3, 3), (3, 2, 3)])
def test_dense_integrand_matches_dict_exp(kind, p, dim, order):
    hol = _random_hol(kind, p, dim, seed=f"exp-{kind}-{p}")
    dense = oracles.dense_integrand(hol.D, hol.F_mats, order)
    assert _dense_to_poly(dense, order) == hg.integrand_log_expansion(
        hol, order
    ).exp()


def test_dense_exp_falls_back_to_python_ints():
    hol = _random_hol("promoted", 2, 3, seed=4)
    dense = oracles.dense_integrand(hol.D, hol.F_mats, 3)
    _, grades = dense
    assert grades[1].array.dtype == np.int64
    assert grades[3].array.dtype == object
    assert _dense_to_poly(dense, 3) == hg.integrand_log_expansion(hol, 3).exp()


@pytest.mark.parametrize("space,block", [
    # S4 at order 3 has 21 and 56 monomials of degree 2 and 3.  Blocks of
    # 200 entries take rows 9 + 9 + 3 of degree 2 and 18 x 3 + 2 of
    # degree 3; blocks of 1000 take degree 2 whole and 3 x 17 + 5 rows of
    # degree 3.  Every block after the first starts its triangle at s > 0.
    ("S4", 200), ("S4", 1000),
    # Two variables at order 3: degree 3 has 4 monomials, in blocks of 3
    # rows and 1, with Gram products in int64 ("wide") or Python ints
    # ("promoted"), scattered by np.add.at.
    ("wide", 12), ("promoted", 12),
])
def test_gram_blocks_with_a_square_part_and_a_ragged_end(
    hols, monkeypatch, space, block
):
    if space in hols:
        hol = hols[space]
    else:
        hol = _random_hol(space, 2, 3, seed=f"ragged-{space}")
    log = hg.integrand_log_expansion(hol, 3)
    monkeypatch.setattr(series, "_GRAM_BLOCK", block)
    assert hg.integrand_log_expansion(hol, 3) == log
    dense = oracles.dense_integrand(hol.D, hol.F_mats, 3)
    assert _dense_to_poly(dense, 3) == log.exp()


def test_dense_exp_blocks_do_not_change_the_result(hols, monkeypatch):
    d, f = hols["S2xS3"].D, hols["S2xS3"].F_mats
    whole = _dense_to_poly(oracles.dense_integrand(d, f, 3), 3)
    # One pair per block: every product crosses a block boundary.
    monkeypatch.setattr(series, "_GRAM_BLOCK", 1)
    assert _dense_to_poly(oracles.dense_integrand(d, f, 3), 3) == whole
    assert whole == hg.integrand_log_expansion(hols["S2xS3"], 3).exp()


# ---------------------------------------------------------------------------
# The production average: exact whitening and closed-form moments
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,order", [("S2", 5), ("S2xS3", 3), ("S4", 3)])
def test_whitened_average_matches_dict_oracle(prepared, name, order):
    prep = prepared[name]
    log_poly = hg.integrand_log_expansion(prep.hol, order)
    want = hg.average(log_poly.exp(), oracles.inverse(prep.spec.beta))
    assert hg.whitened_average(prep, order) == want


def test_whitened_average_refuses_once_naming_the_chosen_units():
    # S9's dense units pass any budget below them; the refusal still
    # names the torus units that would run, the budget that admits it.
    prep = hg.prepare(catalog._sphere_spec(9, "S9"))
    p, n = prep.hol.p, prep.hol.n
    dense = series.average_units(p, [p, n], 4)
    torus = series.average_units(4, [p, n], 4, p - 4)
    assert torus == 26_114_894 < dense
    want = (f"needs {torus} work units (coefficient pairs of its power sums "
            f"and exponential, over a maximal torus of rank 4; {dense} over "
            f"all of h)")
    for budget in (1000, torus - 1):
        with pytest.raises(hg.OrderTooLarge) as info:
            hg.whitened_average(prep, 4, budget=budget)
        assert want in str(info.value)


@settings(max_examples=30, deadline=None)
@given(spec=oracles.moved_spaces())
def test_whitened_average_matches_dict_oracle_on_moved_spaces(spec):
    # A moved datum's beta is in general not diagonal, nor its g the
    # identity, so the exact whitening is not the identity, as it is on
    # the builtins.
    prep = hg.prepare(spec)
    log_poly = hg.integrand_log_expansion(prep.hol, 3)
    want = hg.average(log_poly.exp(), oracles.inverse(spec.beta))
    assert hg.whitened_average(prep, 3) == want


# ---------------------------------------------------------------------------
# The torus average: Cartan data, Weyl weight and the selection
# ---------------------------------------------------------------------------

RANKS = {"S2": 1, "S3": 1, "S4": 2, "S5": 2, "S6": 3, "S2xS2": 2, "S2xS3": 2}


def _check_maximal_abelian(hol):
    """hol.torus commutes exactly, and its centraliser is its span."""
    basis = hol.torus
    assert basis.denom == 1
    ads = rational.exact_einsum("ji,iab->jab", basis, hol.F_mats)
    # ad(u_j) u_k = [u_j, u_k].
    assert rational.exact_einsum("jab,kb->jka", ads, basis).is_zero()
    r, p = basis.array.shape
    centraliser = rational.nullspace(
        rational.ScaledTensor(ads.array.reshape(-1, p), 1)
    ).array
    assert centraliser.shape[1] == r
    rows = oracles.matrix(basis.array.tolist() + centraliser.T.tolist())
    assert oracles.rank(rows) == r


@pytest.mark.parametrize("name", sorted(RANKS))
def test_torus_is_a_maximal_abelian_subalgebra(prepared, name):
    hol = prepared[name].hol
    _check_maximal_abelian(hol)
    assert len(hol.torus.array) == RANKS[name]
    if hol.F.is_zero():
        assert np.array_equal(hol.torus.array, np.eye(hol.p, dtype=int))


# Each curved builtin at an order whose dense average fits the default
# budget: S5 and S6 at the highest such order, the smaller algebras
# where the dense average still takes milliseconds.
@pytest.mark.parametrize("name,order", [
    ("S3", 12), ("S2xS3", 8), ("S4", 8), ("S5", 5), ("S6", 4),
])
def test_torus_average_equals_the_dense_one(prepared, name, order):
    prep = prepared[name]
    p, n = prep.hol.p, prep.hol.n
    assert series.average_units(p, [p, n], order) <= hg.DEFAULT_WORD_BUDGET
    torus = series._gaussian_average(prep, prep.hol.torus, order)
    assert torus == series._gaussian_average(prep, None, order)


def test_tilted_s4_torus_extends_by_its_centraliser():
    # N mixes every generator into the later ones, so the greedy pass
    # keeps one generator and the centraliser adds a mixed one.
    base = hg.builtin("S4")
    N = oracles.matrix([[int(i == j) if j >= i else F(1, 2) for j in range(6)]
                        for i in range(6)])
    prep = hg.prepare(oracles.moved(base, rational.identity(4), N, 1, 1))
    _check_maximal_abelian(prep.hol)
    rows = prep.hol.torus.array
    assert (np.abs(rows).sum(axis=1) > 1).any()
    torus = series._gaussian_average(prep, prep.hol.torus, 4)
    assert torus == series._gaussian_average(prep, None, 4)
    assert hg.heat_coefficients(prep, 4).coeffs == \
        hg.heat_coefficients(base, 4).coeffs


@settings(max_examples=30, deadline=None)
@given(spec=oracles.moved_spaces(
    bases=("S2", "S3", "S2xS2", "S2xS3", "S4"), mixed=True
))
def test_torus_average_equals_the_dense_one_on_moved_spaces(spec):
    prep = hg.prepare(spec)
    _check_maximal_abelian(prep.hol)
    assert len(prep.hol.torus.array) == RANKS[spec.name]
    torus = series._gaussian_average(prep, prep.hol.torus, 3)
    assert torus == series._gaussian_average(prep, None, 3)


# ---------------------------------------------------------------------------
# The rank-one average: univariate series over one denominator per grade
# ---------------------------------------------------------------------------


def test_rank_one_average_equals_the_multivariate_one(prepared):
    # S2 has p = 1 and averages over all of h; S3 takes its rank-one
    # torus from order 7.
    s2, s3 = prepared["S2"], prepared["S3"]
    for order in range(41):
        assert series._rank_one_average(s2, None, order) == \
            series._gaussian_average(s2, None, order)
    torus = s3.hol.torus
    for order in range(7, 33):
        assert series._rank_one_average(s3, torus, order) == \
            series._gaussian_average(s3, torus, order)


@settings(max_examples=30, deadline=None)
@given(spec=oracles.moved_spaces(bases=("S2",), mixed=True))
def test_rank_one_average_equals_the_multivariate_one_on_moved_spaces(spec):
    # A moved datum whitens to one generator over a denominator that is
    # in general not 1, with a pivot that is not 1.
    prep = hg.prepare(spec)
    for order in (1, 2, 7):
        assert series._rank_one_average(prep, None, order) == \
            series._gaussian_average(prep, None, order)


@pytest.mark.parametrize("num,den", [(2, 1), (3, 2)])
def test_rank_one_torus_average_of_a_log_that_does_not_vanish(prepared, num,
                                                              den):
    # On S3, D and F have one spectrum and the log vanishes.  D scaled by
    # num/den is still g-skew, and its log runs through the exponential
    # beside the Weyl weight of degree 2, over the lcm of two
    # denominators.
    prep = prepared["S3"]
    d = prep.hol.D
    hol = types.SimpleNamespace(
        p=prep.hol.p, F_mats=prep.hol.F_mats,
        D=rational.ScaledTensor(d.array * num, d.denom * den),
    )
    scaled = types.SimpleNamespace(spec=prep.spec, hol=hol)
    torus = prep.hol.torus
    for order in (1, 5, 12):
        got = series._rank_one_average(scaled, torus, order)
        assert got == series._gaussian_average(scaled, torus, order)
        assert any(got.coeffs[1:])


def test_weyl_weight_that_is_not_positive_is_refused(prepared, monkeypatch):
    # A negated pivot makes <J> = e_2 (2/d) negative on S3's torus.
    ldl = series.ldl

    def negated(a):
        back, pivots = ldl(a)
        return back, tuple(-x for x in pivots)

    monkeypatch.setattr(series, "ldl", negated)
    prep = prepared["S3"]
    for average in (series._rank_one_average, series._gaussian_average):
        with pytest.raises(hg.InternalInconsistency,
                           match="not a positive number"):
            average(prep, prep.hol.torus, 7)


@pytest.mark.parametrize("name,order,rank_one", [
    ("S2", 6, True), ("S3", 6, False), ("S3", 7, True), ("S2xS2", 6, False),
    ("S4", 4, False),
])
def test_whitened_average_runs_the_rank_one_path_at_rank_one(
    prepared, monkeypatch, name, order, rank_one
):
    ran = []
    for fn in ("_rank_one_average", "_gaussian_average"):
        def spy(*args, _fn=fn, _average=getattr(series, fn)):
            ran.append(_fn)
            return _average(*args)

        monkeypatch.setattr(series, fn, spy)
    hg.whitened_average(prepared[name], order)
    assert ran == ["_rank_one_average" if rank_one else "_gaussian_average"]


def _elementary_symmetric(a, k):
    """e_k of a Fraction matrix: the sum of its principal k x k minors."""
    return sum(
        (oracles.determinant([[a[i][j] for j in idx] for i in idx])
         for idx in itertools.combinations(range(len(a)), k)),
        F(0),
    )


@pytest.mark.parametrize("name", ["S3", "S4", "S5"])
def test_torus_weight_is_the_sum_of_principal_minors(prepared, name):
    hol = prepared[name].hol
    d, f = (rational.exact_einsum("ji,iab->jab", hol.torus, gens).reduced()
            for gens in (hol.D, hol.F_mats))
    r, p = f.array.shape[:2]
    codes = series._monomial_codes(r, 2 + p - r)
    _, weight = series._graded_log(d, f, 1, codes, p - r)
    nz = np.flatnonzero(weight.array)
    exponents = series._exponents(codes[p - r][nz], r, 2 + p - r)
    mats = f.to_fractions()
    rng = random.Random(name)
    for _ in range(2):
        eta = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(r)]
        a = [[sum(e * m[i][j] for e, m in zip(eta, mats)) for j in range(p)]
             for i in range(p)]
        want = _elementary_symmetric(a, p - r)
        got = sum(
            F(int(v), weight.denom) * math.prod(e**x for e, x in zip(eta, row))
            for row, v in zip(exponents.tolist(), weight.array[nz].tolist())
        )
        assert got == want
        # prod over the positive roots of alpha(H)^2.
        assert want > 0


@pytest.mark.parametrize("family", ["D", "F_mats"])
def test_average_refuses_generators_that_are_not_skew(prepared, family):
    # One diagonal entry makes a generator's trace 1: the power sums past
    # half the matrix size would then be wrong with no error.
    prep = prepared["S3"]
    gens = getattr(prep.hol, family)
    array = gens.array.copy()
    array[0, 0, 0] += gens.denom
    hol = types.SimpleNamespace(p=prep.hol.p, D=prep.hol.D,
                                F_mats=prep.hol.F_mats)
    setattr(hol, family, rational.ScaledTensor(array, gens.denom))
    broken = types.SimpleNamespace(spec=prep.spec, hol=hol)
    for basis in (None, prep.hol.torus):
        with pytest.raises(hg.InternalInconsistency, match="not skew"):
            series._gaussian_average(broken, basis, 2)
    with pytest.raises(hg.InternalInconsistency, match="not skew"):
        series._rank_one_average(broken, prep.hol.torus, 2)


def _count_torus_builds(monkeypatch):
    """Record p for every HolonomyRealization.torus that is built."""
    builds = []
    build = curvature.HolonomyRealization.torus.func

    def spy(hol):
        builds.append(hol.p)
        return build(hol)

    prop = functools.cached_property(spy)
    prop.__set_name__(curvature.HolonomyRealization, "torus")
    monkeypatch.setattr(curvature.HolonomyRealization, "torus", prop)
    return builds


# spacefiles' and numeric-oracle's requests, and exact-catalog's but S4
# o4 and S5 o3: the dense average, no Cartan data.
@pytest.mark.parametrize("name,order", [
    ("S2", 6), ("S3", 2), ("S3", 3), ("S3", 4), ("S3", 6), ("S4", 2),
    ("S2xS3", 2), ("S2xS3", 3), ("S2xS3", 4), ("S2xS2", 6),
])
def test_small_requests_never_build_the_torus(monkeypatch, name, order):
    spec = hg.builtin(name)
    units = series.average_units(spec.p, [spec.p, spec.n], order)
    assert units <= series._TORUS_UNITS
    builds = _count_torus_builds(monkeypatch)
    hg.heat_coefficients(spec, order)
    assert builds == []


def _record_bases(monkeypatch):
    """Record the basis rank (None over all of h) of every
    _gaussian_average that runs."""
    bases = []
    average = series._gaussian_average

    def spy(prep, basis, order):
        bases.append(None if basis is None else len(basis.array))
        return average(prep, basis, order)

    monkeypatch.setattr(series, "_gaussian_average", spy)
    return bases


def test_abelian_holonomy_averages_over_all_of_h(monkeypatch):
    # An abelian h is its own torus, whose units pass the dense ones.
    spec = hg.builtin("S2xS2")
    sizes = [spec.p, spec.n]
    units = series.average_units(spec.p, sizes, 40)
    assert units > series._TORUS_UNITS
    # r = p and q = 0: the same count, which the strict test keeps dense.
    assert series.average_units(len(hg.prepare(spec).hol.torus.array),
                                sizes, 40, 0) == units
    bases = _record_bases(monkeypatch)
    hg.heat_coefficients(spec, 40)
    assert bases == [None]


# exact-catalog's S4 o4 and S5 o3, and S4 o3, the least order on S4's
# torus.
@pytest.mark.parametrize("name,order", [
    ("S4", 3), ("S4", 4), ("S5", 3), ("S6", 3),
])
def test_large_requests_build_the_torus_once(monkeypatch, name, order):
    builds = _count_torus_builds(monkeypatch)
    spec = hg.builtin(name)
    hg.heat_coefficients(spec, order)
    assert builds == [spec.p]


# so(n) has rank n // 2, so its Weyl weight has degree q = p - n // 2:
# 18 for S7, 24 for S8, 32 for S9.  At order 2 the weight costs S8 and
# S9 more than their whole dense average, which then runs.
@pytest.mark.parametrize("n,torus", [(7, True), (8, False), (9, False)])
def test_sphere_files_take_the_cheaper_average(tmp_path, monkeypatch, n,
                                               torus):
    path = tmp_path / f"S{n}.json"
    hg.save(catalog._sphere_spec(n, f"S{n}"), path)
    prep = hg.prepare(hg.load(path))
    p, r = prep.hol.p, n // 2
    units = series.average_units(p, [p, n], 2)
    assert units <= hg.DEFAULT_WORD_BUDGET
    assert (series.average_units(r, [p, n], 2, p - r) < units) == torus
    bases = _record_bases(monkeypatch)
    rep = hg.heat_coefficients(prep, 2)
    assert bases == [r if torus else None]
    assert rep.coeffs[1:] == hg.closed_form_coefficients(prep)


def test_budget_refusal_precedes_allocation():
    class Unbuilt:
        p, n = 10**6, 1415

        @property
        def D(self):
            raise AssertionError("generators read before the budget check")

        F_mats = D

    with pytest.raises(hg.OrderTooLarge) as info:
        hg.integrand_log_expansion(Unbuilt(), 3)
    message = str(info.value)
    units = series.average_units(10**6, [10**6, 1415], 3)
    assert str(units) in message
    assert "units" in message
    assert "--budget" in message
    assert str(hg.DEFAULT_WORD_BUDGET) in message


def test_least_count_never_exceeds_the_units(prepared):
    # _budget_gate refuses on a least count before any binomial is
    # summed: it must not refuse an order that either average admits.
    preps = [prepared[name] for name in RANKS]
    preps += [hg.prepare(catalog._sphere_spec(n, f"S{n}")) for n in (7, 8, 9)]
    for prep in preps:
        p, n = prep.hol.p, prep.hol.n
        r = len(prep.hol.torus.array)
        for order in range(1, 17):
            least = order + order * (order + 1) // 2
            assert least <= series.average_units(p, [p, n], order)
            assert least <= series.average_units(r, [p, n], order, p - r)


# ---------------------------------------------------------------------------
# integrand_log_expansion
# ---------------------------------------------------------------------------


def test_s2_log_expansion_hand_value():
    # One generator with D^2 = -identity: tr D(w)^{2m} = 2(-1)^m w^{2m},
    # F = 0, so the order-1 term is -c_1/8 * (-2) w^2 = w^2/24.
    hol = hg.derive_holonomy(hg.builtin("S2"))
    poly = hg.integrand_log_expansion(hol, 1)
    assert poly.terms == {(1, (2,)): F(1, 24)}


def test_s2_log_expansion_order2():
    hol = hg.derive_holonomy(hg.builtin("S2"))
    poly = hg.integrand_log_expansion(hol, 2)
    # order-2 term: -c_2/32 * tr D(w)^4 = (1/180)/32 * 2 w^4 = w^4/2880
    assert poly.terms[(2, (4,))] == F(1, 2880)


def test_s3_log_expansion_vanishes(hols):
    # On S3 the holonomy and tangent generator matrices have identical
    # spectra for every omega, so the two trace families cancel exactly.
    poly = hg.integrand_log_expansion(hols["S3"], 6)
    assert poly.terms == {}


def test_log_expansion_even_degree_matches_grade(hols):
    for name in ("S2", "S4", "S2xS2"):
        poly = hg.integrand_log_expansion(hols[name], 3)
        for (grade, exps), _ in poly.terms.items():
            assert sum(exps) == 2 * grade


def test_flat_log_expansion_empty(hols):
    poly = hg.integrand_log_expansion(hols["flat2"], 5)
    assert poly.terms == {}
    assert poly.order == 5


def test_budget_refusal():
    hol = hg.derive_holonomy(hg.builtin("S4"))
    with pytest.raises(hg.OrderTooLarge, match="budget"):
        hg.integrand_log_expansion(hol, 4, budget=100)


def test_log_budget_counts_the_exponential_it_feeds(hols):
    # S2 has a single generator: order 3 costs one Gram pair, two Newton
    # products and 6 exponential units, and the log is refused below
    # their sum.
    units = series.average_units(1, [1, 2], 3)
    assert units == 9
    assert hg.integrand_log_expansion(hols["S2"], 3, budget=units).terms
    with pytest.raises(hg.OrderTooLarge, match="budget of 8;"):
        hg.integrand_log_expansion(hols["S2"], 3, budget=units - 1)


def test_budget_environment_variable_is_not_read(hols, monkeypatch):
    # The budget is budget= (the CLI's --budget) alone; an environment
    # value that refused S2 at order 3 before is ignored.
    monkeypatch.setenv("HEATGEN_BUDGET", "2")
    assert hg.integrand_log_expansion(hols["S2"], 3).terms
    rep = hg.heat_coefficients(hg.builtin("S2"), 3)
    assert rep.coeffs == (F(1), F(1, 3), F(1, 15), F(4, 315))


# ---------------------------------------------------------------------------
# exponentiate_with_prefactor
# ---------------------------------------------------------------------------


def test_prefactor_alone_for_vanishing_log():
    poly = hg.OmegaPolynomial(1, 3, {})
    out = hg.exponentiate_with_prefactor(poly, F(6), F(3, 2))
    # R/8 + R_H/6 = 1, so the scalar series is exp(t).
    assert out.terms == {
        (k, (0,)): F(1, math.factorial(k)) for k in range(4)
    }


def test_prefactor_times_log_expansion_s2():
    hol = hg.derive_holonomy(hg.builtin("S2"))
    log_poly = hg.integrand_log_expansion(hol, 1)
    out = hg.exponentiate_with_prefactor(log_poly, F(2), F(0))
    assert out.terms[(0, (0,))] == F(1)
    assert out.terms[(1, (0,))] == F(1, 4)
    assert out.terms[(1, (2,))] == F(1, 24)
