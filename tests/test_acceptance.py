"""Acceptance criteria for the whole pipeline.

Each test prints exactly one CRITERION line (PASS or FAIL with a short
detail) before asserting, so the outcome of every criterion is visible in
the captured output even when a later assertion stops the run.
"""

import itertools
import math
import time
from fractions import Fraction as F

import heatgen as hg
import oracles
from heatgen.invariants import sphere_spectral_trace
from oracles import fock_moment


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# 1. First coefficient equals R/6, exactly, on every catalog space
# ---------------------------------------------------------------------------


def test_criterion_1_first_coefficient(specs, hols):
    worst = 0.0
    for name, spec in specs.items():
        start = time.perf_counter()
        rep = hg.heat_coefficients(spec, 1)
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        curv = hg.curvature_scalars(spec, hols[name])
        if rep.coeffs[1] != curv.R / 6 or elapsed >= 1.0:
            _report(
                1,
                False,
                f"{name}: a_1 {rep.coeffs[1]} vs R/6 {curv.R / 6} "
                f"in {elapsed:.2f}s",
            )
    _report(
        1,
        True,
        f"a_1 = R/6 exactly on {len(specs)} spaces, slowest "
        f"{worst * 1000:.0f} ms",
    )


# ---------------------------------------------------------------------------
# 2. Second coefficient equals the curvature-invariant closed form
# ---------------------------------------------------------------------------


def test_criterion_2_second_coefficient(specs, prepared):
    start = time.perf_counter()
    for name, spec in specs.items():
        rep = hg.heat_coefficients(spec, 2)
        _, a2 = hg.closed_form_coefficients(prepared[name])
        if rep.coeffs[2] != a2:
            _report(2, False, f"{name}: a_2 {rep.coeffs[2]} vs {a2}")
    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0
    _report(
        2,
        ok,
        f"a_2 matches the closed form on {len(specs)} spaces "
        f"in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. Two-sphere coefficients against an independent one-variable oracle
# ---------------------------------------------------------------------------


def test_criterion_3_two_sphere_exact(specs):
    rep = hg.heat_coefficients(specs["S2"], 4)
    want = (F(1), F(1, 3), F(1, 15), F(4, 315), F(1, 315))
    oracle = oracles.two_sphere_series(4)
    ok = rep.coeffs == want and oracle == want
    _report(3, ok, f"pipeline {rep.coeffs}, oracle {oracle}")


# ---------------------------------------------------------------------------
# 4. Determinant factorization identity on random rational samples
# ---------------------------------------------------------------------------


def test_criterion_4_det_factorization(specs, hols):
    worst = 0.0
    for name, spec in specs.items():
        samples = oracles.random_rational_omegas(spec.p, 100, seed=17)
        err = oracles.check_det_factorization(hols[name], samples)
        worst = max(worst, err)
        if err > 1e-10:
            _report(4, False, f"{name}: max rel err {err:.3g}")
    _report(
        4,
        True,
        f"100 samples per space, max rel err {worst:.3g} <= 1e-10",
    )


# ---------------------------------------------------------------------------
# 5. The two exact moment engines agree, and match adaptive quadrature
# ---------------------------------------------------------------------------


def test_criterion_5_moment_engines():
    from scipy.integrate import quad

    checked = 0
    for p in range(1, 7):
        ident = tuple(
            tuple(F(int(i == j)) for j in range(p)) for i in range(p)
        )
        for deg in (0, 2, 4, 6, 8):
            for key in itertools.combinations_with_replacement(
                range(p), deg
            ):
                if hg.wick_moment(key, ident) != fock_moment(key, ident):
                    _report(5, False, f"engines disagree on p={p} {key}")
                checked += 1
    rat2 = oracles.inverse(((F(2), F(1)), (F(1), F(3))))
    for deg in (2, 4, 6, 8):
        for key in itertools.combinations_with_replacement(range(2), deg):
            if hg.wick_moment(key, rat2) != fock_moment(key, rat2):
                _report(5, False, f"engines disagree on rational beta {key}")
            checked += 1

    var = 2.0
    worst = 0.0
    for deg in (2, 4, 6, 8):
        exact = float(hg.wick_moment((0,) * deg, ((F(1),),)))
        num, _ = quad(
            lambda w: w**deg
            * math.exp(-(w**2) / (2 * var))
            / math.sqrt(2 * math.pi * var),
            -40,
            40,
            epsabs=1e-13,
            epsrel=1e-13,
        )
        rel = abs(num - exact) / exact
        worst = max(worst, rel)
        if rel > 1e-10:
            _report(5, False, f"quadrature off at degree {deg}: rel {rel:.3g}")
    _report(
        5,
        True,
        f"{checked} keys agree across both engines; quadrature worst "
        f"rel err {worst:.3g} <= 1e-10",
    )


# ---------------------------------------------------------------------------
# 6. Products factor through Cauchy convolution
# ---------------------------------------------------------------------------


def test_criterion_6_product_factorization(specs, s2_order6, s3_order6):
    direct22 = hg.heat_coefficients(specs["S2xS2"], 4)
    conv22 = hg.product_factorize([s2_order6, s2_order6], 4)
    direct23 = hg.heat_coefficients(specs["S2xS3"], 3)
    conv23 = hg.product_factorize([s2_order6, s3_order6], 3)
    ok = direct22.coeffs == conv22 and direct23.coeffs == conv23
    _report(
        6,
        ok,
        f"S2xS2 to order 4: {direct22.coeffs} == {conv22}; "
        f"S2xS3 to order 3: {direct23.coeffs} == {conv23}",
    )


# ---------------------------------------------------------------------------
# 7. Series against the eigenvalue sums on round spheres
# ---------------------------------------------------------------------------


def test_criterion_7_spectral_oracle(specs):
    start = time.perf_counter()
    results = []
    for name, n, t in (("S2", 2, 0.05), ("S3", 3, 0.1)):
        rep = hg.heat_coefficients(specs[name], 6)
        series_val = rep.eval_float(t)
        oracle = (4 * math.pi * t) ** (n / 2) * sphere_spectral_trace(n, t)
        rel = abs(series_val - oracle) / abs(oracle)
        results.append((name, rel))
    elapsed = time.perf_counter() - start
    ok = all(rel < 1e-3 for _, rel in results) and elapsed < 10.0
    _report(
        7,
        ok,
        "; ".join(f"{name} rel err {rel:.3g}" for name, rel in results)
        + f"; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 8. Four-sphere series against a large Monte Carlo average
# ---------------------------------------------------------------------------


def test_criterion_8_monte_carlo(prepared, s4_order4):
    t = 0.05
    start = time.perf_counter()
    num = hg.numeric_average(
        prepared["S4"], t, method="mc", samples=1_000_000, seed=0
    )
    elapsed = time.perf_counter() - start
    series_val = s4_order4.eval_float(t)
    tol = 3.0 * num.std_error + s4_order4.remainder_estimate(t)
    diff = abs(num.value - series_val)
    ok = diff <= tol and elapsed < 120.0
    _report(
        8,
        ok,
        f"|mc - series| = {diff:.3g} <= {tol:.3g} "
        f"(SE {num.std_error:.3g}, hits {num.singularity_hits}) "
        f"in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 9. Combined scalar identity with a test-side contraction
# ---------------------------------------------------------------------------


def test_criterion_9_scalar_identity(specs, hols):
    for name, spec in specs.items():
        hol = hols[name]
        curv = hg.curvature_scalars(spec, hol)
        combined = oracles.combined_scalar(spec, hol)
        want = F(3, 4) * curv.R + curv.R_H
        if combined != want or combined != curv.R_G:
            _report(
                9,
                False,
                f"{name}: contraction {combined}, 3R/4 + R_H {want}, "
                f"pipeline {curv.R_G}",
            )
    _report(
        9,
        True,
        f"combined scalar equals 3R/4 + R_H exactly on {len(specs)} spaces",
    )
