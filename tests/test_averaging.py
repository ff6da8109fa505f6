"""Gaussian moment engines and the floating-point average."""

import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heatgen as hg
from heatgen import averaging, rational, series
from heatgen.rational import inverse

ID1 = ((F(1),),)
BETA2 = ((F(2), F(1)), (F(1), F(3)))
BINV2 = inverse(BETA2)


# ---------------------------------------------------------------------------
# Exact moments
# ---------------------------------------------------------------------------


def double_factorial(k):
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


@pytest.mark.parametrize("k", range(5))
def test_wick_one_dimensional_closed_form(k):
    # Covariance 2 * beta^{-1} = 2, so <w^{2k}> = (2k-1)!! 2^k.
    key = (0,) * (2 * k)
    assert hg.wick_moment(key, ID1) == double_factorial(2 * k - 1) * 2**k


def test_odd_moments_vanish():
    assert hg.wick_moment((0,), ID1) == 0
    assert hg.wick_moment((0, 0, 0), ID1) == 0
    assert hg.fock_moment((0, 1, 1), BINV2) == 0


def test_empty_moment_is_one():
    assert hg.wick_moment((), BINV2) == 1
    assert hg.fock_moment((), BINV2) == 1


def test_moment_index_range_checked():
    with pytest.raises(ValueError):
        hg.wick_moment((0, 2), BINV2)
    with pytest.raises(ValueError):
        hg.fock_moment((-1, 0), BINV2)


def test_degree_two_moment_is_twice_inverse():
    for i in range(2):
        for j in range(2):
            assert hg.wick_moment((i, j), BINV2) == 2 * BINV2[i][j]


@given(st.lists(st.integers(min_value=0, max_value=2), min_size=0, max_size=8))
def test_wick_permutation_invariance(key):
    beta = ((F(3), F(1), F(0)), (F(1), F(2), F(1, 2)), (F(0), F(1, 2), F(1)))
    binv = inverse(beta)
    beta_id = averaging._intern_matrix(binv)
    assert averaging._wick(beta_id, tuple(key)) == averaging._wick(
        beta_id, tuple(sorted(key))
    )


def test_wick_equals_fock_exhaustive_small():
    for p, binv in ((1, ID1), (2, BINV2), (3, inverse(
        ((F(2), F(0), F(1)), (F(0), F(1), F(0)), (F(1), F(0), F(3)))
    ))):
        for deg in (0, 2, 4, 6):
            for key in itertools.combinations_with_replacement(range(p), deg):
                assert hg.wick_moment(key, binv) == hg.fock_moment(key, binv)


def test_block_diagonal_moments_factor():
    beta = ((F(2), F(0)), (F(0), F(5)))
    binv = inverse(beta)
    sub0 = ((binv[0][0],),)
    sub1 = ((binv[1][1],),)
    for a in (2, 4):
        for b in (2, 4):
            key = (0,) * a + (1,) * b
            assert hg.wick_moment(key, binv) == hg.wick_moment(
                (0,) * a, sub0
            ) * hg.wick_moment((0,) * b, sub1)


def test_moments_match_adaptive_quadrature():
    from scipy.integrate import quad

    beta = ((F(3, 2),),)
    binv = inverse(beta)
    var = 2 * float(binv[0][0])
    for deg in (2, 4, 6, 8):
        exact = float(hg.wick_moment((0,) * deg, binv))
        num, err = quad(
            lambda w: w**deg
            * math.exp(-(w**2) / (2 * var))
            / math.sqrt(2 * math.pi * var),
            -40,
            40,
            epsabs=1e-13,
            epsrel=1e-13,
        )
        assert abs(num - exact) <= 1e-10 * max(1.0, abs(exact))


def _random_spd(rng, size):
    """A random rational symmetric positive definite matrix, A A^T + 1."""
    a = rational.matrix(
        [[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(size)]
         for _ in range(size)]
    )
    return rational.add(
        rational.matmul(a, rational.transpose(a)), rational.identity(size)
    )


def _whitened_moment(key, beta):
    """<omega_{k1} ... omega_{kd}> from the whitened closed form: with
    beta = L diag(d) L^T and omega = L^{-T} eta, eta has covariance
    2 diag(1/d), and <eta^e> = prod_i (e_i - 1)!! (2/d_i)^{e_i/2} when
    every e_i is even."""
    lower, d = rational.ldl(beta)
    back = rational.transpose(rational.inverse(lower))
    p = len(beta)
    # Expand the product of the linear forms omega_k = sum_j back[k][j]
    # eta_j into eta monomials.
    poly = {(0,) * p: F(1)}
    for k in key:
        out: dict = {}
        for exps, coef in poly.items():
            for j in range(p):
                if back[k][j]:
                    up = exps[:j] + (exps[j] + 1,) + exps[j + 1 :]
                    out[up] = out.get(up, F(0)) + coef * back[k][j]
        poly = out
    total = F(0)
    for exps, coef in poly.items():
        if all(e % 2 == 0 for e in exps):
            term = coef
            for e, di in zip(exps, d):
                term *= double_factorial(e - 1) * (2 / di) ** (e // 2)
            total += term
    return total


@pytest.mark.parametrize("size", [2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_moment_engines_match_whitened_closed_form(size, seed):
    beta = _random_spd(random.Random(f"{size}-{seed}"), size)
    assert any(beta[i][j] for i in range(size) for j in range(i))
    binv = inverse(beta)
    for deg in range(7):
        for key in itertools.combinations_with_replacement(range(size), deg):
            want = _whitened_moment(key, beta)
            assert hg.wick_moment(key, binv) == want
            assert hg.fock_moment(key, binv) == want


def test_moment_memos_stay_bounded():
    def tables():
        return {
            name: len(value)
            for name, value in vars(averaging).items()
            if not name.startswith("__")
            and isinstance(value, (dict, list, set))
        }

    before = tables()
    for k in range(500):
        binv = inverse(((F(k + 2), F(1)), (F(1), F(k + 3))))
        hg.wick_moment((0, 0, 1, 1), binv)
        hg.fock_moment((0, 0, 1, 1), binv)
    assert tables() == before
    for module in (averaging, series):
        for name, value in vars(module).items():
            if hasattr(value, "cache_info"):
                info = value.cache_info()
                assert info.maxsize is not None, name
                assert info.currsize <= info.maxsize, name
    # 500 distinct betas filled the per-beta calibration memo to its bound.
    assert averaging._fock_scale.cache_info().currsize == (
        averaging._fock_scale.cache_info().maxsize
    )


# ---------------------------------------------------------------------------
# The production average: exact whitening and closed-form moments
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,order", [("S2", 5), ("S2xS3", 3), ("S4", 3)])
def test_whitened_average_matches_dict_oracle(prepared, name, order):
    prep = prepared[name]
    log_poly = hg.integrand_log_expansion(prep.hol, order)
    want = hg.average(log_poly.exp(), inverse(prep.spec.beta))
    assert hg.whitened_average(prep.hol, prep.spec.beta, order) == want


def test_whitened_average_checks_budget_before_building(monkeypatch):
    monkeypatch.delenv("HEATGEN_BUDGET", raising=False)

    class Unbuilt:
        p = 10**3

        @property
        def D(self):
            raise AssertionError("generators read before the budget check")

        F_mats = D

    with pytest.raises(hg.OrderTooLarge) as info:
        hg.whitened_average(Unbuilt(), None, 3)
    units = series.trace_units(10**3, 3) + series.exp_units(10**3, 3)
    assert str(units) in str(info.value)


def test_whitened_average_refuses_a_non_positive_pivot(prepared):
    hol = prepared["S2xS2"].hol
    singular = rational.matrix([[1, 1], [1, 1]])
    with pytest.raises(hg.InternalInconsistency, match="pivot 1"):
        hg.whitened_average(hol, singular, 2)


# ---------------------------------------------------------------------------
# average() on polynomials
# ---------------------------------------------------------------------------


def test_average_keeps_scalar_terms_and_drops_odd():
    poly = hg.OmegaPolynomial(
        1,
        2,
        {(0, (0,)): F(1), (1, (1,)): F(7), (1, (2,)): F(1, 24), (2, (0,)): F(5)},
    )
    s = hg.average(poly, ID1)
    # <w^2> = 2, so the omega term contributes 2/24 = 1/12 at grade 1.
    assert s.coeffs == (F(1), F(1, 12), F(5))


def test_average_is_linear():
    a = hg.OmegaPolynomial(2, 2, {(1, (2, 0)): F(1, 3)})
    b = hg.OmegaPolynomial(2, 2, {(1, (0, 2)): F(2), (2, (1, 1)): F(1)})
    lhs = hg.average(a + b, BINV2)
    rhs = hg.average(a, BINV2) + hg.average(b, BINV2)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# Floating-point determinant helpers
# ---------------------------------------------------------------------------


def test_sinh_ratio_dets_scalar_cases():
    xs = [1e-9, 0.3, 1.0, 3.0, 10.0]
    mats = np.array([[[x]] for x in xs])
    got = averaging._sinh_ratio_dets(mats)
    want = np.array([math.sinh(x) / x for x in xs])
    assert np.allclose(got, want, rtol=1e-12)


def test_sinh_ratio_dets_rotation_block():
    # X = theta * J with J^2 = -I gives det(sinh X / X) = (sin theta/theta)^2.
    for theta in (0.5, 1.3, 2.5):
        mats = np.array([[[0.0, -theta], [theta, 0.0]]])
        got = averaging._sinh_ratio_dets(mats)[0]
        want = (math.sin(theta) / theta) ** 2
        assert got == pytest.approx(want, rel=1e-11)


def test_sinh_ratio_dets_zero_matrix():
    mats = np.zeros((3, 4, 4))
    assert np.allclose(averaging._sinh_ratio_dets(mats), 1.0)


def test_max_singular_value_mask():
    close = 2.3 * np.eye(2)  # Frobenius 3.25 > pi but top value 2.3 < pi
    big = np.diag([3.3, 0.1])
    small = np.diag([0.2, 0.1])
    mats = np.stack([close, big, small])
    mask = averaging._max_singular_value_below(mats, math.pi)
    assert mask.tolist() == [True, False, True]


# ---------------------------------------------------------------------------
# numeric_average
# ---------------------------------------------------------------------------


def test_numeric_average_flat_is_prefactor_only(prepared):
    out = hg.numeric_average(prepared["flat2"], 0.7)
    assert out.value == 1.0
    assert out.std_error == 0.0
    assert out.singularity_hits == 0
    assert out.evaluations == 0


def test_numeric_average_rejects_nonpositive_t(prepared):
    for bad in (0.0, -1.0):
        with pytest.raises(hg.NonPositiveT):
            hg.numeric_average(prepared["S2"], bad)


@pytest.mark.parametrize("method", ["mc", "quadrature"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_numeric_average_rejects_non_finite_t(prepared, method, bad):
    with pytest.raises(hg.InvalidTime):
        hg.numeric_average(prepared["S2"], bad, method)


def test_numeric_average_unknown_method(prepared):
    with pytest.raises(ValueError):
        hg.numeric_average(prepared["S2"], 0.1, method="magic")


def test_quadrature_limited_to_three_variables(prepared):
    with pytest.raises(ValueError, match="p <= 3"):
        hg.numeric_average(prepared["S4"], 0.1, method="quadrature")


@pytest.mark.parametrize("samples", [1, 0, -5])
def test_mc_needs_two_samples(prepared, samples):
    with pytest.raises(ValueError, match="at least 2 samples"):
        hg.numeric_average(prepared["S2"], 0.1, method="mc",
                           samples=samples)


@pytest.fixture
def no_grid(monkeypatch):
    """Fail the test if a quadrature rule or grid is ever built."""

    def boom(*args, **kwargs):
        raise AssertionError("quadrature grid built before validation")

    monkeypatch.setattr(np.polynomial.hermite, "hermgauss", boom)
    monkeypatch.setattr(np, "meshgrid", boom)


@pytest.mark.parametrize("nodes", [0, -1, 10**12])
def test_quadrature_node_count_checked_first(prepared, no_grid, nodes):
    with pytest.raises(ValueError, match="nodes must be in"):
        hg.numeric_average(prepared["S2"], 0.1,
                           method="quadrature", nodes=nodes)


def test_quadrature_grid_size_checked_first(specs, prepared, no_grid):
    assert specs["S3"].p == 3
    with pytest.raises(ValueError, match="exceeds the limit"):
        hg.numeric_average(prepared["S3"], 0.1,
                           method="quadrature", nodes=65)


def test_auto_method_selection(prepared):
    q = hg.numeric_average(prepared["S2"], 0.05, nodes=16)
    assert q.method == "quadrature"
    m = hg.numeric_average(prepared["S4"], 0.05, samples=2000)
    assert m.method == "mc"


def test_mc_is_reproducible_per_seed(prepared):
    kw = dict(method="mc", samples=5000, seed=42)
    a = hg.numeric_average(prepared["S2"], 0.05, **kw)
    b = hg.numeric_average(prepared["S2"], 0.05, **kw)
    assert a == b
    c = hg.numeric_average(prepared["S2"], 0.05, method="mc",
                           samples=5000, seed=43)
    assert c.value != a.value


def test_methods_agree_on_s2(prepared):
    q = hg.numeric_average(prepared["S2"], 0.05,
                           method="quadrature", nodes=40)
    m = hg.numeric_average(prepared["S2"], 0.05, method="mc",
                           samples=60_000, seed=7)
    assert q.value == pytest.approx(m.value,
                                    abs=4 * m.std_error + 10 * q.std_error)


def test_quadrature_refinement_delta_only_with_enough_nodes(prepared):
    coarse = hg.numeric_average(prepared["S2"], 0.05,
                                method="quadrature", nodes=8)
    assert coarse.std_error == 0.0
    fine = hg.numeric_average(prepared["S2"], 0.05,
                              method="quadrature", nodes=20)
    assert fine.std_error >= 0.0
    assert fine.evaluations == 20 + 16


def test_singularity_hits_counted(prepared):
    out = hg.numeric_average(prepared["S2"], 9.0, method="mc",
                             samples=2000, seed=1)
    assert out.singularity_hits > 0
    assert out.evaluations == 2000 + out.singularity_hits
    assert math.isfinite(out.value) and out.value > 0

    quad = hg.numeric_average(prepared["S2"], 9.0,
                              method="quadrature", nodes=24)
    assert quad.singularity_hits > 0


def test_mc_aborts_when_ball_rejects_everything(prepared):
    # margin > pi empties the acceptance region entirely.
    with pytest.raises(hg.HeatgenError, match="rejects essentially every"):
        hg.numeric_average(prepared["S2"], 0.1, method="mc",
                           samples=50, seed=0, margin=4.0)


def test_prefactor_overflow_reported(prepared):
    with pytest.raises(hg.HeatgenError, match="far too large"):
        hg.numeric_average(prepared["S2"], 1e12, method="mc",
                           samples=10, seed=0)


def test_tight_margin_rejects_more(prepared):
    loose = hg.numeric_average(prepared["S2"], 1.0, method="mc",
                               samples=3000, seed=2, margin=0.01)
    tight = hg.numeric_average(prepared["S2"], 1.0, method="mc",
                               samples=3000, seed=2, margin=2.9)
    assert tight.singularity_hits > loose.singularity_hits


# ---------------------------------------------------------------------------
# Determinant factorization identity
# ---------------------------------------------------------------------------


def test_det_factorization_all_catalog(specs, hols):
    for name, spec in specs.items():
        samples = hg.random_rational_omegas(spec.p, 25, seed=3)
        report = hg.check_det_factorization(hols[name], samples)
        assert report.all_pass, (name, report.max_rel_err)
        assert report.samples == 25
        assert report.max_rel_err <= 1e-10


def test_det_factorization_empty_input(hols):
    report = hg.check_det_factorization(hols["S2"], ())
    assert report.samples == 0 and report.all_pass


def test_random_rational_omegas_deterministic():
    a = hg.random_rational_omegas(3, 4, seed=9)
    b = hg.random_rational_omegas(3, 4, seed=9)
    assert a == b
    assert len(a) == 4 and all(len(row) == 3 for row in a)
    for row in a:
        for x in row:
            assert -1 <= x <= 1
            assert (x * 64).denominator == 1
