"""Heat kernel coefficients and their independent cross-checks.

The diagonal short-time expansion is reported through coefficients a_k
normalized so that the diagonal equals (4 pi t)^{-n/2} sum_k a_k t^k; a_0
is always 1.  The pipeline takes the exact Gaussian average of the
exponentiated trace-power series (series.whitened_average) and
multiplies in the scalar prefactor exp((R/8 + R_H/6) t).

Cross-checks implemented here: the closed forms a_1 = R/6 and
a_2 = R^2/72 - |Ric|^2/180 + |Riem|^2/180 (the Laplacian term drops since
the curvature is parallel), multiplicativity under products via Cauchy
convolution, and for unit spheres the eigenvalue sum over spherical
harmonics with multiplicities (2l+n-1) (l+n-2)! / (l! (n-1)!).  The
spectral and numeric checks run at each grid time and allow the
truncation remainder, the last retained term that does not vanish; a
remainder beyond the float range at some t fails only that time's
checks.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import catalog as _catalog
from .averaging import _NumericAverager, _numeric_method
from .curvature import (
    CheckResult,
    Prepared,
    SpaceSpec,
    ValidationReport,
    prepare,
)
from .errors import (
    HeatgenError,
    InternalInconsistency,
    OrderMismatch,
    check_time,
)
from .rational import exact_einsum, format_rational
from .series import TSeries, _order_gate, to_float, whitened_average

__all__ = [
    "HeatReport",
    "heat_coefficients",
    "closed_form_coefficients",
    "product_factorize",
    "sphere_spectral_trace",
    "compare",
]


@dataclass(frozen=True)
class HeatReport:
    """Exact expansion coefficients for one space, with check outcomes."""

    space: str
    order: int
    coeffs: tuple[Fraction, ...]
    checks: tuple[CheckResult, ...]
    validation: ValidationReport
    timing_ms: float

    @property
    def all_passed(self) -> bool:
        return self.validation.all_passed and all(
            c.passed for c in self.checks
        )

    def eval_float(self, t: float) -> float:
        """Horner evaluation of sum_k a_k t^k."""
        return TSeries(self.order, self.coeffs).eval_float(t)

    def remainder_estimate(self, t: float) -> float:
        """Magnitude of the last retained term that does not vanish, of
        order 1 or more (a_0 at order 0), used as the truncation error
        proxy.  A vanishing coefficient, such as a sphere S9's a_8, says
        nothing of the terms after it, so the term before it stands in.
        0 at any t when a_1 .. a_order all vanish (flat space),
        HeatgenError when the term lies beyond the float range."""
        k = self.order
        while k > 1 and not self.coeffs[k]:
            k -= 1
        last = self.coeffs[k]
        if not last:
            return 0.0
        try:
            value = abs(to_float(last)) * t**k
            if value == math.inf:
                raise OverflowError
        except OverflowError:
            raise HeatgenError(
                f"the truncation remainder at t={t} is beyond the float range"
            ) from None
        return value


def _parsed(spec: SpaceSpec | Prepared) -> SpaceSpec:
    return spec.spec if isinstance(spec, Prepared) else spec


def heat_coefficients(
    spec: SpaceSpec | Prepared, order: int, *, budget: int | None = None
) -> HeatReport:
    """Exact coefficients a_0..a_order of a curvature datum, prepared here
    unless a Prepared is passed.

    Raises ValueError for a negative order or a budget that is not None
    or a positive int, and OrderTooLarge for an order whose least count
    passes the budget, both before the datum is prepared; then
    ValidationError when the structural identity checks fail and
    OrderTooLarge when the work units of the average that runs, over all
    of h or over a maximal torus, pass the budget.
    """
    _order_gate(_parsed(spec).p, order, budget)
    start = time.perf_counter()
    prep = prepare(spec)
    spec, curv = prep.spec, prep.curv
    averaged = whitened_average(prep, order, budget=budget)
    # The omega-free prefactor exp((R/8 + R_H/6) t), term by term.
    rate = curv.R / 8 + curv.R_H / 6
    prefactor = [Fraction(1)]
    for m in range(1, order + 1):
        prefactor.append(prefactor[-1] * rate / m)
    series = averaged * TSeries(order, tuple(prefactor))
    if series[0] != 1:
        raise InternalInconsistency(
            f"zeroth coefficient is {series[0]}, expected 1"
        )
    elapsed = (time.perf_counter() - start) * 1000.0
    return HeatReport(
        space=spec.name,
        order=order,
        coeffs=series.coeffs,
        checks=(),
        validation=prep.validation,
        timing_ms=elapsed,
    )


def closed_form_coefficients(prep: Prepared) -> tuple[Fraction, Fraction]:
    """Closed-form (a_1, a_2) from the curvature invariants alone."""
    spec, curv = prep.spec, prep.curv
    if spec.n == 0 or spec.p == 0:
        return Fraction(0), Fraction(0)
    ginv, riem, ric = spec.tensors.ginv, spec.tensors.riemann, curv.ricci
    ric_up = exact_einsum("xa,yb,ab->xy", ginv, ginv, ric)
    ric_sq = exact_einsum("ab,ab->", ric, ric_up).to_fractions()
    up1 = exact_einsum("xa,abcd->xbcd", ginv, riem)
    up2 = exact_einsum("yb,xbcd->xycd", ginv, up1)
    up3 = exact_einsum("zc,xycd->xyzd", ginv, up2)
    up4 = exact_einsum("wd,xyzd->xyzw", ginv, up3)
    riem_sq = exact_einsum("abcd,abcd->", riem, up4).to_fractions()
    a1 = curv.R / 6
    a2 = curv.R**2 / 72 - ric_sq / 180 + riem_sq / 180
    return a1, a2


def product_factorize(
    reports: Sequence[HeatReport], order: int
) -> tuple[Fraction, ...]:
    """Cauchy convolution of factor coefficient lists up to the order."""
    if any(r.order < order for r in reports):
        raise OrderMismatch(
            "every factor must be expanded at least to the requested order"
        )
    acc = TSeries.constant(1, order)
    for rep in reports:
        acc = acc * TSeries(rep.order, rep.coeffs)
    return acc.coeffs


def sphere_volume(n: int) -> float:
    return 2.0 * math.pi ** ((n + 1) / 2) / math.gamma((n + 1) / 2)


# The spectral sum stops at L = ceil(sqrt(50/t)) + 5 levels: the terms
# past L add less than (tL^2)^{(n-2)/2} e^{-tL^2} < 1e-18 of the total for
# n <= 6.  More than _MAX_SPECTRAL_LEVELS levels (t below about 5e-13)
# are refused; they are summed in chunks of _SPECTRAL_CHUNK.  compare
# allows the series a relative error of _SPECTRAL_TOL against the sum,
# beyond its truncation remainder.
_MAX_SPECTRAL_LEVELS = 10**7
_SPECTRAL_CHUNK = 2**16
_SPECTRAL_TOL = 1e-3


def _spectral_levels(t: float) -> int:
    """Levels of the spectral sum at t > 0; ValueError past the cap."""
    quotient = 50.0 / t
    # Below t = 50 / DBL_MAX (about 2.8e-307) the quotient overflows to
    # inf, whose ceil raises; the quotient of the roots stays finite.
    root = (
        math.sqrt(quotient) if math.isfinite(quotient)
        else math.sqrt(50.0) / math.sqrt(t)
    )
    levels = math.ceil(root) + 5
    if levels > _MAX_SPECTRAL_LEVELS:
        raise ValueError(
            f"the spectral sum at t={t:g} needs {levels:.3g} levels, more "
            f"than the cap of {_MAX_SPECTRAL_LEVELS}; use a larger t"
        )
    return levels


def sphere_spectral_trace(n: int, t: float) -> float:
    """Heat kernel diagonal on the unit n-sphere by direct eigenvalue sum:
    Vol^{-1} sum_l mult(l) exp(-t l (l+n-1)), with the level-l eigenspace
    dimension mult(l) = (2l+n-1) (l+n-2)! / (l! (n-1)!), over the levels
    predicted from t.  Raises ValueError when t needs more than
    _MAX_SPECTRAL_LEVELS levels."""
    if not 2 <= n <= 6:
        raise ValueError("spectral oracle covers n in 2..6")
    check_time(t)
    levels = _spectral_levels(t)
    total = 0.0
    for start in range(0, levels, _SPECTRAL_CHUNK):
        stop = min(start + _SPECTRAL_CHUNK, levels)
        level = np.arange(start, stop, dtype=float)
        mult = (2 * level + n - 1) / (n - 1)
        for j in range(1, n - 1):
            mult *= (level + j) / j
        # At a huge t the exponent of every level past 0 overflows to
        # -inf, and exp(-inf) = 0 is its exact contribution.
        with np.errstate(over="ignore"):
            decay = np.exp(-t * level * (level + n - 1))
        total += float(np.sum(mult * decay))
    return total / sphere_volume(n)


def _timed_check(name: str, measure, t: float) -> CheckResult:
    """The check measure(t) -> (passed, detail) at one grid time.  A
    HeatgenError, such as a value beyond the float range at this t, fails
    this check alone and becomes its detail."""
    try:
        passed, detail = measure(t)
    except HeatgenError as exc:
        return CheckResult(name, False, str(exc))
    return CheckResult(name, bool(passed), detail)


def compare(
    spec: SpaceSpec | Prepared,
    order: int,
    t_grid: Sequence[float],
    *,
    method: str = "auto",
    samples: int = 200_000,
    nodes: int = 40,
    seed: int = 0,
    budget: int | None = None,
) -> HeatReport:
    """Run the exact pipeline and every independent oracle that applies.

    Checks attached to the returned report: a_1 against R/6, a_2 against
    the closed form, product factorization when the datum is a builtin
    product's, the spectral sum on each grid time when it is a builtin
    sphere's (equal to catalog.builtin(spec.name), not only named so), and
    the floating-point average on each grid time: Monte Carlo within
    three standard errors plus the truncation remainder, quadrature on a
    maximal torus within ten refinement deltas plus the remainder plus
    1e-8.  "auto" takes quadrature whenever nodes**r fits the grid limit
    (every builtin at the default 40 nodes), Monte Carlo otherwise.  A
    grid time at which a check raises HeatgenError fails that check,
    with the message as its detail, and the others still run.  The times
    (on a builtin sphere with their spectral levels), the numeric
    parameters, the order and the budget are refused first, and an order
    whose least count passes the budget; then the datum is prepared
    once, unless a Prepared is passed, for the pipeline and every
    oracle, and the quadrature grid checked against its torus before the
    expansion.  Each distinct factor of a product is prepared and
    expanded once, on its own.  The numeric integrand is built once for
    the whole grid.
    """
    start = time.perf_counter()
    parsed = _parsed(spec)
    factors = _catalog.PRODUCT_FACTORS.get(parsed.name)
    sphere_n = _catalog.sphere_dimension(parsed.name)
    # The datum's fields against the builtin's: SpaceSpec's equality,
    # without building and checking a second SpaceSpec.
    fields = (parsed.n, parsed.p, parsed.g, parsed.beta, parsed.E)
    if (factors or sphere_n) and fields != _catalog.builtin_fields(
        parsed.name
    ):
        factors = sphere_n = None
    for t in t_grid:
        check_time(t)
        if sphere_n is not None:
            _spectral_levels(t)
    method = _numeric_method(method, samples, nodes, seed)
    _order_gate(parsed.p, order, budget)
    prep = prepare(spec)
    # One averager for the whole grid: the numeric integrand, its exact
    # split and its whitening do not depend on t, and are built at the
    # first grid time.
    average_at = _NumericAverager(prep, method, samples, nodes, seed)
    base = heat_coefficients(prep, order, budget=budget)
    checks: list[CheckResult] = []

    phrases = ("scalar curvature gives", "curvature invariants give")
    for k, (want, source) in enumerate(
        zip(closed_form_coefficients(prep)[:order], phrases), start=1
    ):
        got = base.coeffs[k]
        checks.append(
            CheckResult(
                f"a{k}_closed_form",
                got == want,
                f"pipeline {format_rational(got)}, {source} "
                f"{format_rational(want)}",
            )
        )

    if factors:
        # S2xS2's factors are one builtin twice: expand each name once.
        parts = {
            f: heat_coefficients(_catalog.builtin(f), order, budget=budget)
            for f in dict.fromkeys(factors)
        }
        conv = product_factorize([parts[f] for f in factors], order)
        checks.append(
            CheckResult(
                "product_factorization",
                conv == base.coeffs,
                f"direct {[format_rational(c) for c in base.coeffs]} vs "
                f"convolution {[format_rational(c) for c in conv]}",
            )
        )

    def spectral(t: float) -> tuple[bool, str]:
        series_val = base.eval_float(t)
        oracle = (4 * math.pi * t) ** (sphere_n / 2) * sphere_spectral_trace(
            sphere_n, t
        )
        rel = abs(series_val - oracle) / abs(oracle)
        budget_rel = base.remainder_estimate(t) / abs(oracle) + _SPECTRAL_TOL
        return rel <= budget_rel, (
            f"series {series_val:.12g}, eigenvalue sum {oracle:.12g}, rel "
            f"err {rel:.3g} (allowed {budget_rel:.3g})"
        )

    def numeric(t: float) -> tuple[bool, str]:
        num = average_at(t)
        series_val = base.eval_float(t)
        remainder = base.remainder_estimate(t)
        if num.method == "mc":
            tol = 3.0 * num.std_error + remainder + 1e-12
        else:
            tol = 10.0 * num.std_error + remainder + 1e-8
        diff = abs(num.value - series_val)
        return diff <= tol, (
            f"{num.method} {num.value:.12g} vs series {series_val:.12g}, "
            f"|diff| {diff:.3g} <= tol {tol:.3g}, hits "
            f"{num.singularity_hits}"
        )

    if sphere_n is not None:
        checks.extend(
            _timed_check(f"spectral_oracle@t={t:g}", spectral, t)
            for t in t_grid
        )
    checks.extend(
        _timed_check(f"numeric_average@t={t:g}", numeric, t) for t in t_grid
    )

    elapsed = (time.perf_counter() - start) * 1000.0
    return replace(base, checks=tuple(checks), timing_ms=elapsed)
