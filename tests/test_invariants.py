"""End-to-end coefficient pipeline against independent closed forms."""

import math
import random
import re
import warnings
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heatgen as hg
import oracles
from heatgen import averaging, catalog, curvature, invariants, rational, series
from heatgen.invariants import sphere_volume


def test_sin_ratio_inverse_series_classical_values():
    q = oracles.sin_ratio_inverse_series(3)
    assert q == [F(1), F(1, 6), F(7, 360), F(31, 15120)]


def test_s2_matches_independent_one_dimensional_oracle(s2_order6):
    assert s2_order6.coeffs == oracles.two_sphere_series(6)


def test_s2_first_coefficients_pinned(s2_order6):
    assert s2_order6.coeffs[:5] == (
        F(1),
        F(1, 3),
        F(1, 15),
        F(4, 315),
        F(1, 315),
    )


def test_s3_coefficients_are_inverse_factorials(s3_order6):
    assert s3_order6.coeffs == tuple(
        F(1, math.factorial(k)) for k in range(7)
    )


def test_s4_coefficients_pinned(s4_order4):
    assert s4_order4.coeffs == (F(1), F(2), F(29, 15), F(74, 63), F(149, 315))


def test_zeroth_coefficient_is_one_everywhere(specs):
    for spec in specs.values():
        rep = hg.heat_coefficients(spec, 1)
        assert rep.coeffs[0] == 1


def test_flat_space_has_no_corrections(specs):
    rep = hg.heat_coefficients(specs["flat2"], 5)
    assert rep.coeffs == (F(1), F(0), F(0), F(0), F(0), F(0))
    assert rep.remainder_estimate(1e308) == 0.0


def test_heat_coefficients_rejects_negative_order(specs):
    with pytest.raises(ValueError):
        hg.heat_coefficients(specs["S2"], -1)


def test_heat_coefficients_rejects_invalid_data():
    base = hg.builtin("S3")
    squashed = hg.SpaceSpec(
        name="bad",
        n=base.n,
        p=base.p,
        g=base.g,
        beta=((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(2))),
        E=base.E,
    )
    with pytest.raises(hg.ValidationError, match="generator_connection"):
        hg.heat_coefficients(squashed, 2)


def test_metric_scaled_by_huge_power_of_three():
    # (mu g, beta, E) has a_k / mu^2k; mu = 3^40 overflows int64 in the
    # generator identity check unless its sums are promoted.
    base = hg.builtin("S2")
    mu = 3**40
    big = hg.SpaceSpec(
        name="S2big", n=base.n, p=base.p,
        g=tuple(tuple(mu * x for x in row) for row in base.g),
        beta=base.beta, E=base.E,
    )
    want = hg.heat_coefficients(base, 4).coeffs
    got = hg.heat_coefficients(big, 4).coeffs
    assert got == tuple(a / F(3) ** (80 * k) for k, a in enumerate(want))


def _scaled(spec, lam, c=F(1)):
    """The datum (lam g, lam beta, c E)."""
    return hg.SpaceSpec(
        name=spec.name, n=spec.n, p=spec.p,
        g=oracles.scale(spec.g, lam),
        beta=oracles.scale(spec.beta, lam),
        E=tuple(oracles.scale(e, c) for e in spec.E),
    )


def _verdicts(spec):
    hol = hg.derive_holonomy(spec)
    return [
        (c.name, c.passed)
        for c in hg.validate_symmetric_space(spec, hol).checks
    ]


HUGE_RATIONALS = st.builds(F, st.integers(1, 2**90), st.integers(1, 2**90))
SCALED_SPACES = [("S2", 4), ("S3", 3), ("S2xS3", 2)]


@settings(max_examples=6, deadline=None)
@given(lam=HUGE_RATIONALS)
@pytest.mark.parametrize("name,order", SCALED_SPACES)
def test_scaling_law_is_exact(specs, name, order, lam):
    # (lam g, lam beta, E) keeps D and F and divides the covariance by
    # lam, so a_k becomes a_k / lam^k; the whitening pivots are lam d_i.
    base = specs[name]
    big = _scaled(base, lam)
    assert _verdicts(big) == _verdicts(base)
    want = hg.heat_coefficients(base, order).coeffs
    got = hg.heat_coefficients(big, order).coeffs
    assert got == tuple(a / lam**k for k, a in enumerate(want))


@settings(max_examples=6, deadline=None)
@given(lam=HUGE_RATIONALS, c=HUGE_RATIONALS)
@pytest.mark.parametrize("name,order", SCALED_SPACES)
def test_scaling_law_with_huge_generators(specs, name, order, lam, c):
    # c E scales D and F by c, so the dense exponential runs on Python
    # ints, and the curvature by c^2: a_k becomes a_k c^2k / lam^k.
    base = specs[name]
    big = _scaled(base, lam, c)
    assert _verdicts(big) == _verdicts(base)
    want = hg.heat_coefficients(base, order).coeffs
    got = hg.heat_coefficients(big, order).coeffs
    assert got == tuple(a * c ** (2 * k) / lam**k for k, a in enumerate(want))


@settings(max_examples=6, deadline=None)
@given(lam=HUGE_RATIONALS)
def test_scaling_keeps_a_failed_verdict(specs, lam):
    base = specs["S3"]
    squashed = hg.SpaceSpec(
        name="squashed", n=3, p=3, g=base.g,
        beta=((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(2))),
        E=base.E,
    )
    verdicts = _verdicts(squashed)
    assert not all(passed for _, passed in verdicts)
    assert _verdicts(_scaled(squashed, lam)) == verdicts


def _dict_oracle(prep, order):
    """The coefficients through the dict pipeline: the trace log as an
    OmegaPolynomial, OmegaPolynomial.exp with the prefactor, and the Wick
    average against beta^{-1}."""
    log_poly = hg.integrand_log_expansion(prep.hol, order)
    integrand = hg.exponentiate_with_prefactor(
        log_poly, prep.curv.R, prep.curv.R_H
    )
    return hg.average(integrand, oracles.inverse(prep.spec.beta)).coeffs


@pytest.mark.parametrize("name,order", [("S4", 4), ("S5", 3)])
def test_heat_coefficients_match_dict_oracle(prepared, name, order):
    prep = prepared[name]
    assert hg.heat_coefficients(prep, order).coeffs == _dict_oracle(
        prep, order
    )


def test_non_diagonal_beta_file_matches_dict_oracle(tmp_path):
    # The generator change E'^i = sum_j (N^{-T})_ij E^j, beta' = N beta
    # N^T with N unit lower-triangular leaves the curvature, and so every
    # a_k, unchanged.
    base = hg.builtin("S2xS3")
    p = base.p
    rng = random.Random(11)
    mix = oracles.matrix(
        [[F(int(i == j)) if j >= i
          else F(rng.randint(-3, 3), rng.randint(1, 4))
          for j in range(p)] for i in range(p)]
    )
    mixed = oracles.moved(base, rational.identity(base.n), mix, 1, 1)
    assert any(mixed.beta[i][j] for i in range(p) for j in range(i))
    path = tmp_path / "mixed.json"
    hg.save(mixed, path)
    prep = hg.prepare(hg.load(path))
    got = hg.heat_coefficients(prep, 3).coeffs
    assert got == _dict_oracle(prep, 3)
    assert got == hg.heat_coefficients(base, 3).coeffs


def test_s6_order4_fits_the_default_budget():
    rep = hg.heat_coefficients(hg.builtin("S6"), 4)
    assert rep.coeffs == (F(1), F(5), F(12), F(1139, 63), F(833, 45))


def test_s6_order8_through_the_torus():
    # Far past the default budget of the dense average, in 3 variables.
    prep = hg.prepare(hg.builtin("S6"))
    rep = hg.heat_coefficients(prep, 8, budget=10**12)
    assert rep.coeffs[1:3] == hg.closed_form_coefficients(prep)
    assert rep.coeffs[:5] == (F(1), F(5), F(12), F(1139, 63), F(833, 45))


S6_ORDER8 = (F(1), F(5), F(12), F(1139, 63), F(833, 45), F(137, 11),
             F(485768, 135135), F(-90502, 27027), F(-23068481, 3828825))


def test_s6_order8_fits_the_default_budget():
    # The budget holds the torus average that runs, 92 322 units, not
    # the dense one it replaces (7.5e11).
    prep = hg.prepare(hg.builtin("S6"))
    torus = series.average_units(3, [15, 6], 8, 12)
    assert torus == 92_322 <= hg.DEFAULT_WORD_BUDGET
    coeffs = hg.heat_coefficients(prep, 8).coeffs
    assert coeffs == S6_ORDER8
    assert coeffs == hg.heat_coefficients(prep, 8, budget=10**12).coeffs


def test_s8_sphere_file_order6_fits_the_default_budget(tmp_path):
    # so(8): p = 28, rank 4, 6.6e6 torus units against 7.3e12 dense.
    path = tmp_path / "S8.json"
    hg.save(catalog._sphere_spec(8, "S8"), path)
    prep = hg.prepare(hg.load(path))
    units = series.average_units(28, [28, 8], 6)
    torus = series.average_units(4, [28, 8], 6, 24)
    assert torus <= hg.DEFAULT_WORD_BUDGET < units
    coeffs = hg.heat_coefficients(prep, 6).coeffs
    assert len(coeffs) == 7
    assert coeffs[1:3] == hg.closed_form_coefficients(prep)


def test_budget_names_the_units_of_the_cheaper_average():
    prep = hg.prepare(hg.builtin("S6"))
    torus = series.average_units(3, [15, 6], 8, 12)
    dense = series.average_units(15, [15, 6], 8)
    assert torus < dense
    with pytest.raises(hg.OrderTooLarge) as info:
        hg.heat_coefficients(prep, 8, budget=torus - 1)
    message = str(info.value)
    assert message.startswith(f"the expansion needs {torus} work units")
    assert "maximal torus of rank 3" in message
    assert f"budget of {torus - 1};" in message


def test_budget_counts_log_and_exponential_units(specs):
    # S4 at order 2 stays on all of h (order 3 now takes the torus).
    units = series.average_units(6, [6, 4], 2)
    assert units <= series._TORUS_UNITS
    hg.heat_coefficients(specs["S4"], 2, budget=units)
    with pytest.raises(hg.OrderTooLarge, match=str(units)):
        hg.heat_coefficients(specs["S4"], 2, budget=units - 1)


@pytest.mark.parametrize("name", ["flat3", "S2"])
def test_budget_refuses_flat_and_curved_data_alike(name):
    # 50 + 50 * 51 / 2 = 1325 units at least, past a budget of 100.
    with pytest.raises(hg.OrderTooLarge, match="at least 1325"):
        hg.heat_coefficients(hg.builtin(name), 50, budget=100)
    prep = hg.prepare(hg.builtin(name))
    with pytest.raises(hg.OrderTooLarge, match="at least 1325"):
        hg.integrand_log_expansion(prep.hol, 50, budget=100)
    # The least count fits: exactly the units of S2 (p = 1), and flat
    # data have no other.
    coeffs = hg.heat_coefficients(prep, 50, budget=1325).coeffs
    assert len(coeffs) == 51 and coeffs[0] == 1


def derive_calls(monkeypatch) -> list:
    """Replace derive_holonomy, the first stage of prepare, by a spy."""
    calls = []
    monkeypatch.setattr(curvature, "derive_holonomy", calls.append)
    return calls


@pytest.mark.parametrize("budget", [0, -1, 2.5, True, "10"])
def test_bad_budget_refused_before_the_spec_is_prepared(monkeypatch, budget):
    calls = derive_calls(monkeypatch)
    spec = hg.builtin("S2")
    with pytest.raises(ValueError, match="budget must be a positive integer"):
        hg.heat_coefficients(spec, 2, budget=budget)
    with pytest.raises(ValueError, match="budget must be a positive integer"):
        hg.compare(spec, 2, [0.1], budget=budget)
    assert calls == []


def test_over_budget_order_refused_before_the_file_is_prepared(
    monkeypatch, tmp_path
):
    # The least count needs only p, the order and the budget: a 36-variable
    # sphere file is never derived.
    path = tmp_path / "nine_sphere.json"
    hg.save(catalog._sphere_spec(9, "S9"), path)
    spec = hg.load(path)
    calls = derive_calls(monkeypatch)
    order = 10**9
    least = order + order * (order + 1) // 2
    message = (
        f"the expansion needs at least {least} work units (coefficient "
        f"pairs of its power sums and exponential, on either average) for "
        f"p=36, order {order}, exceeding the budget of 100000000; lower the "
        f"order, use a numeric average, or raise --budget (budget= in the "
        f"library)"
    )
    for run in (
        lambda: hg.heat_coefficients(spec, order),
        lambda: hg.compare(spec, order, [0.1]),
    ):
        with pytest.raises(hg.OrderTooLarge) as info:
            run()
        assert str(info.value) == message
    assert calls == []


def test_validation_report_attached(s2_order6):
    rep = s2_order6.validation
    assert rep is not None and rep.all_passed
    assert len(rep.checks) == 4


def test_report_eval_and_remainder(s2_order6):
    t = 0.1
    want = sum(float(c) * t**k for k, c in enumerate(s2_order6.coeffs))
    assert s2_order6.eval_float(t) == pytest.approx(want, rel=1e-15)
    assert s2_order6.remainder_estimate(t) == pytest.approx(
        abs(float(s2_order6.coeffs[6])) * t**6
    )


# ---------------------------------------------------------------------------
# Closed-form references
# ---------------------------------------------------------------------------


def test_closed_form_coefficients_values(prepared):
    a1, a2 = hg.closed_form_coefficients(prepared["S2"])
    assert (a1, a2) == (F(1, 3), F(1, 15))
    a1, a2 = hg.closed_form_coefficients(prepared["S4"])
    assert (a1, a2) == (F(2), F(29, 15))
    assert hg.closed_form_coefficients(prepared["flat2"]) == (F(0), F(0))


@pytest.mark.parametrize("name,n", [("S2", 2), ("S3", 3), ("S4", 4),
                                    ("S5", 5), ("S6", 6)])
def test_sphere_a1_is_scalar_curvature_over_six(prepared, name, n):
    a1, _ = hg.closed_form_coefficients(prepared[name])
    assert a1 == F(n * (n - 1), 6)


def test_pipeline_matches_closed_forms_on_products(specs, prepared):
    for name in ("S2xS2", "S2xS3"):
        rep = hg.heat_coefficients(specs[name], 2)
        a1, a2 = hg.closed_form_coefficients(prepared[name])
        assert rep.coeffs[1] == a1
        assert rep.coeffs[2] == a2


# The builtins S3 and S5 at order 16, S7 at orders 8 and 16 and S9 at
# order 4 run on their maximal tori, S9 at order 2 on all of so(9): both
# sides of the average's gate.  At order 16, F on S7's torus (size 21)
# passes half its size, where its power sums follow from its
# characteristic polynomial.
@pytest.mark.parametrize("n,order,torus", [
    (3, 16, True), (5, 16, True), (7, 8, True), (7, 16, True),
    (9, 2, False), (9, 4, True),
])
def test_odd_spheres_match_their_spectrum(n, order, torus):
    spec = catalog._sphere_spec(n, f"S{n}")
    p = spec.p
    r = n // 2
    dense = series.average_units(p, [p, n], order)
    assert (dense > series._TORUS_UNITS
            and series.average_units(r, [p, n], order, p - r) < dense) == torus
    want = oracles.odd_sphere_series(n, order)
    assert hg.heat_coefficients(spec, order).coeffs == want


def test_odd_sphere_oracle_values():
    assert oracles.odd_sphere_series(7, 3)[1:] == (F(7), F(707, 30),
                                                   F(501, 10))
    assert oracles.odd_sphere_series(9, 3)[1:] == (F(12), F(348, 5),
                                                   F(5408, 21))


def test_rank_one_high_orders_match_the_sphere_oracles():
    # S3 at order 1024 runs on its rank-one torus, S2 at order 200 in its
    # one variable: univariate series over one denominator per grade and
    # the integer prefactor product.  two_sphere_series, a Fraction
    # double loop, takes about a second at order 200.
    s3 = hg.heat_coefficients(hg.builtin("S3"), 1024).coeffs
    assert s3 == oracles.odd_sphere_series(3, 1024)
    s2 = hg.heat_coefficients(hg.builtin("S2"), 200).coeffs
    assert s2 == oracles.two_sphere_series(200)


GILKEY_A3 = {
    "S2": F(4, 315), "S3": F(1, 6), "S4": F(74, 63), "S5": F(16, 3),
    "S6": F(1139, 63), "S2xS2": F(22, 315), "S2xS3": F(26, 63),
}


@pytest.mark.parametrize("name", sorted(GILKEY_A3))
def test_gilkey_a3_on_the_builtins(prepared, name):
    assert oracles.gilkey_a3(prepared[name].spec) == GILKEY_A3[name]
    assert hg.heat_coefficients(prepared[name], 3).coeffs[3] == \
        GILKEY_A3[name]


@settings(max_examples=20, deadline=None)
@given(spec=oracles.moved_spaces(mixed=True))
def test_gilkey_a3_on_moved_spaces(spec):
    assert hg.heat_coefficients(spec, 3).coeffs[3] == oracles.gilkey_a3(spec)


# ---------------------------------------------------------------------------
# Product factorization
# ---------------------------------------------------------------------------


def test_product_coefficients_factor(specs, s2_order6, s3_order6):
    direct = hg.heat_coefficients(specs["S2xS2"], 4)
    conv = hg.product_factorize([s2_order6, s2_order6], 4)
    assert direct.coeffs == conv
    assert conv[:3] == (F(1), F(2, 3), F(11, 45))

    direct = hg.heat_coefficients(specs["S2xS3"], 3)
    conv = hg.product_factorize([s2_order6, s3_order6], 3)
    assert direct.coeffs == conv


def test_product_factorize_requires_enough_order(s2_order6):
    short = hg.heat_coefficients(hg.builtin("S2"), 2)
    with pytest.raises(hg.OrderMismatch):
        hg.product_factorize([s2_order6, short], 4)


def test_product_factorize_no_factors_is_identity():
    assert hg.product_factorize([], 3) == (F(1), F(0), F(0), F(0))


# ---------------------------------------------------------------------------
# Spectral oracle
# ---------------------------------------------------------------------------


def test_spectral_trace_input_validation():
    with pytest.raises(ValueError):
        hg.sphere_spectral_trace(1, 0.1)
    with pytest.raises(ValueError):
        hg.sphere_spectral_trace(7, 0.1)
    with pytest.raises(hg.NonPositiveT):
        hg.sphere_spectral_trace(3, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_spectral_trace_rejects_non_finite_t(bad):
    with pytest.raises(hg.InvalidTime):
        hg.sphere_spectral_trace(2, bad)


def test_compare_rejects_non_finite_t(specs):
    with pytest.raises(hg.InvalidTime):
        hg.compare(specs["S2"], 2, [math.nan])


@pytest.mark.parametrize("n", range(2, 7))
def test_spectral_trace_large_time_limit(n):
    # Only the constant eigenfunction survives: the trace tends to 1/Vol.
    assert hg.sphere_spectral_trace(n, 50.0) * sphere_volume(n) == \
        pytest.approx(1.0, abs=1e-15)


def test_spectral_trace_at_a_huge_time_warns_nothing():
    # Every level past 0 decays to exactly 0; its exponent overflows to
    # -inf on the way, silently.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = hg.sphere_spectral_trace(2, 1e308)
    assert value * sphere_volume(2) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("n", [2, 6])
def test_spectral_trace_small_time(n):
    # t = 1e-9 needs about 2.2e5 levels; the normalized trace is then
    # 1 + a_1 t to double precision, with a_1 = n(n-1)/6.
    t = 1e-9
    value = (4 * math.pi * t) ** (n / 2) * hg.sphere_spectral_trace(n, t)
    assert value == pytest.approx(1 + n * (n - 1) / 6 * t, rel=1e-13)


def test_spectral_trace_refuses_beyond_the_level_cap():
    cap = str(invariants._MAX_SPECTRAL_LEVELS)
    with pytest.raises(ValueError, match=cap):
        hg.sphere_spectral_trace(2, 1e-14)


@pytest.mark.parametrize("t", [1e-310, 5e-324])
def test_spectral_trace_refuses_subnormal_times(t):
    # Below t = 50 / DBL_MAX the quotient 50 / t overflows to inf; the
    # level count must still be named and refused, not raise OverflowError.
    with pytest.raises(ValueError, match="levels, more than the cap"):
        hg.sphere_spectral_trace(2, t)


def test_sphere_volumes():
    assert sphere_volume(2) == pytest.approx(4 * math.pi)
    assert sphere_volume(3) == pytest.approx(2 * math.pi**2)


@pytest.mark.parametrize("n", range(2, 7))
def test_spectral_fit_recovers_leading_coefficients(n):
    a0, a1 = oracles.spectral_coefficient_fit(n)
    assert abs(a0 - 1.0) < 1e-5
    assert abs(a1 - n * (n - 1) / 6.0) < 5e-3


# ---------------------------------------------------------------------------
# compare(): the full oracle battery
# ---------------------------------------------------------------------------


def test_compare_s2_all_checks_pass(specs):
    rep = hg.compare(specs["S2"], 4, [0.05], nodes=30)
    names = [c.name for c in rep.checks]
    assert "a1_closed_form" in names
    assert "a2_closed_form" in names
    assert "spectral_oracle@t=0.05" in names
    assert "numeric_average@t=0.05" in names
    assert rep.all_passed, [c for c in rep.checks if not c.passed]


def test_compare_s3_all_checks_pass(specs):
    rep = hg.compare(specs["S3"], 4, [0.1], nodes=24)
    assert rep.all_passed, [c for c in rep.checks if not c.passed]


@pytest.mark.parametrize("name", ["S3", "S4", "S5", "S6", "S2xS3"])
def test_compare_checks_by_torus_quadrature(name):
    # auto runs quadrature on every builtin's maximal torus (rank 1 to 3)
    # at the default 40 nodes, and it passes the default tolerance
    # 10 delta + remainder + 1e-8.
    rep = hg.compare(hg.builtin(name), 4, [0.05, 0.1])
    assert rep.all_passed, [c for c in rep.checks if not c.passed]
    numeric = [c.detail for c in rep.checks if c.name.startswith("numeric")]
    assert len(numeric) == 2
    assert all(detail.startswith("quadrature ") for detail in numeric)


def test_compare_past_a_vanishing_last_coefficient(tmp_path):
    # S9's a_8 vanishes, so the truncation remainder at order 8 is a_7 t^7,
    # not 0.  auto runs quadrature on the torus of rank 4 at 22 nodes; the
    # series misses a_9 t^9 (about 2.4e-6 at t = 0.1), far more than ten
    # refinement deltas plus 1e-8.
    path = tmp_path / "nine_sphere.json"
    hg.save(catalog._sphere_spec(9, "S9"), path)
    rep = hg.compare(hg.load(path), 8, [0.1], nodes=22)
    assert rep.coeffs[8] == 0 and rep.coeffs[7] == F(262144, 175)
    assert rep.remainder_estimate(0.1) == float(rep.coeffs[7]) * 0.1**7
    assert rep.all_passed, [c for c in rep.checks if not c.passed]
    (detail,) = [c.detail for c in rep.checks if c.name.startswith("numeric")]
    diff = float(re.search(r"\|diff\| (\S+)", detail).group(1))
    assert detail.startswith("quadrature ") and 1e-6 < diff < 1e-5


def test_compare_builds_one_integrand_for_the_grid(specs, monkeypatch):
    # t enters the numeric integrand only as the scale sqrt(t) of its
    # points, so its exact split (one call for D, one for F) runs once
    # for the whole grid, and each time still gets numeric_average's value.
    calls = []
    split = averaging.invariant_split

    def spy(*args):
        calls.append(args)
        return split(*args)

    monkeypatch.setattr(averaging, "invariant_split", spy)
    grid = [0.05, 0.1]
    prep = hg.prepare(specs["S3"])
    rep = hg.compare(prep, 4, grid, method="quadrature", nodes=16)
    assert len(calls) == 2
    assert rep.all_passed, [c for c in rep.checks if not c.passed]
    details = {c.name: c.detail for c in rep.checks}
    for t in grid:
        num = hg.numeric_average(prep, t, "quadrature", nodes=16)
        assert details[f"numeric_average@t={t:g}"].startswith(
            f"quadrature {num.value:.12g} vs"
        )


def test_compare_product_includes_factorization(specs):
    rep = hg.compare(specs["S2xS2"], 3, [0.05], nodes=24)
    names = [c.name for c in rep.checks]
    assert "product_factorization" in names
    assert "spectral_oracle@t=0.05" not in names
    assert rep.all_passed, [c for c in rep.checks if not c.passed]


@pytest.mark.parametrize("name,oracle", [
    ("S3", "spectral_oracle@t=0.05"), ("S2xS3", "product_factorization"),
])
@pytest.mark.parametrize("edited", [False, True])
def test_compare_holds_a_builtin_name_to_the_builtin_fields(
    monkeypatch, name, oracle, edited
):
    # compare tests the datum's fields against the builtin's, building no
    # second SpaceSpec: a builtin keeps its oracle, and the same name on
    # g and beta doubled (another space, other a_k) skips it.
    base = hg.builtin(name)
    spec = hg.SpaceSpec(name, base.n, base.p,
                        oracles.scale(base.g, 1 + edited),
                        oracles.scale(base.beta, 1 + edited), base.E)
    factors = catalog.PRODUCT_FACTORS.get(name, ())
    real = catalog.builtin

    def factors_only(key):
        assert key in factors, key
        return real(key)

    monkeypatch.setattr(catalog, "builtin", factors_only)
    rep = hg.compare(spec, 2, [0.05], method="quadrature", nodes=12)
    names = [c.name for c in rep.checks]
    assert (oracle in names) == (not edited)
    assert rep.all_passed, [c for c in rep.checks if not c.passed]


def test_compare_flat_numeric_only(specs):
    rep = hg.compare(specs["flat2"], 2, [0.5])
    assert rep.all_passed
    assert any(c.name.startswith("numeric_average") for c in rep.checks)


# The exact checks of compare, pinned: names and details are exact
# rationals, the same on every platform.
EXACT_CHECKS = {
    ("S3", 4): [
        ("a1_closed_form", "pipeline 1, scalar curvature gives 1"),
        ("a2_closed_form", "pipeline 1/2, curvature invariants give 1/2"),
    ],
    ("S2xS2", 6): [
        ("a1_closed_form", "pipeline 2/3, scalar curvature gives 2/3"),
        ("a2_closed_form",
         "pipeline 11/45, curvature invariants give 11/45"),
        ("product_factorization",
         "direct ['1', '2/3', '11/45', '22/315', '13/675', '106/17325', "
         "'35258/14189175'] vs convolution ['1', '2/3', '11/45', '22/315', "
         "'13/675', '106/17325', '35258/14189175']"),
    ],
    ("S2", 1): [
        ("a1_closed_form", "pipeline 1/3, scalar curvature gives 1/3"),
    ],
    ("flat3", 3): [
        ("a1_closed_form", "pipeline 0, scalar curvature gives 0"),
        ("a2_closed_form", "pipeline 0, curvature invariants give 0"),
    ],
    ("S2", 0): [],
}


@pytest.mark.parametrize("name,order", list(EXACT_CHECKS))
def test_compare_exact_checks_pinned(name, order):
    rep = hg.compare(hg.builtin(name), order, [0.05], method="quadrature",
                     nodes=8)
    exact = [c for c in rep.checks if "@" not in c.name]
    assert [(c.name, c.detail) for c in exact] == EXACT_CHECKS[name, order]
    assert all(c.passed is True for c in exact)


@pytest.mark.parametrize("name,order,t,method", [
    ("S2", 4, 1e308, "auto"),
    ("S2", 3, 1e103, "auto"),
    ("S4", 4, 1e90, "mc"),
])
def test_compare_remainder_beyond_the_float_range(specs, name, order, t,
                                                  method):
    rep = hg.compare(specs[name], order, [t], method=method, samples=100)
    failed = {c.name: c.detail for c in rep.checks if not c.passed}
    assert failed == {
        f"spectral_oracle@t={t:g}":
            f"the truncation remainder at t={t} is beyond the float range",
        f"numeric_average@t={t:g}":
            f"the scalar prefactor overflows at t={t}; this t is far too "
            f"large for a numeric average",
    }
    with pytest.raises(hg.HeatgenError, match="truncation remainder"):
        rep.remainder_estimate(t)
