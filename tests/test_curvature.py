"""Curvature data, holonomy derivation, validation, and scalar invariants."""

import dataclasses
import math
import re
import types
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heatgen as hg
import oracles
from heatgen import curvature, rational
from heatgen.rational import identity

ZERO3 = tuple(tuple(F(0) for _ in range(3)) for _ in range(3))


def antisym(n, entries):
    m = [[F(0)] * n for _ in range(n)]
    for (i, j), v in entries.items():
        m[i][j] = F(v)
        m[j][i] = -F(v)
    return tuple(tuple(row) for row in m)


def as_fractions(hol):
    """(D, F, C) of a realization as nested tuples of Fraction."""
    return hol.D.to_fractions(), hol.F.to_fractions(), hol.C.to_fractions()


# ---------------------------------------------------------------------------
# SpaceSpec structural invariants
# ---------------------------------------------------------------------------


def test_spec_rejects_non_antisymmetric_generator():
    bad = ((F(0), F(1)), (F(1), F(0)))
    with pytest.raises(hg.InvalidSpaceSpec, match="antisymmetric"):
        hg.SpaceSpec("bad", 2, 1, identity(2), ((F(1),),), (bad,))


def test_spec_names_the_first_non_antisymmetric_generator():
    # Generators 1 and 2 both gain a diagonal entry.
    s3 = hg.builtin("S3")

    def unit(k):
        return tuple(
            tuple(F(int(a == b == k)) for b in range(3)) for a in range(3)
        )

    E = (s3.E[0], oracles.add(s3.E[1], unit(2)),
         oracles.add(s3.E[2], unit(0)))
    with pytest.raises(
        hg.InvalidSpaceSpec, match="^generator 1 is not antisymmetric$"
    ):
        hg.SpaceSpec("bad", 3, 3, s3.g, s3.beta, E)


def test_spec_rejects_indefinite_metric():
    # Constructed, since definiteness needs an elimination; refused by
    # prepare, whose first reading of the tensors factors each metric.
    g = ((F(0), F(0)), (F(0), F(1)))
    e = antisym(2, {(0, 1): 1})
    spec = hg.SpaceSpec("bad", 2, 1, g, ((F(1),),), (e,))
    with pytest.raises(
        hg.InvalidSpaceSpec, match="^g is not positive definite$"
    ):
        hg.prepare(spec)
    singular = ((F(1), F(1)), (F(1), F(1)))
    s2xs2 = dataclasses.replace(hg.builtin("S2xS2"), beta=singular)
    with pytest.raises(
        hg.InvalidSpaceSpec, match="^beta is not positive definite$"
    ):
        hg.prepare(s2xs2)


def test_dependent_connection_generators_are_a_degenerate_basis():
    # E^2 repeats E^0, so D_2 repeats D_0: derive_holonomy's Gram matrix
    # of D is singular.
    s3 = hg.builtin("S3")
    repeated = dataclasses.replace(s3, E=(s3.E[0], s3.E[1], s3.E[0]))
    with pytest.raises(
        hg.DegenerateBasis,
        match="^redundant holonomy generators: the E matrices, and so the "
        "connection generators, are linearly dependent$",
    ):
        hg.derive_holonomy(repeated)


@pytest.mark.parametrize("n, p, entries", [(46, 0, 46**4), (13, 1, 13**6)])
def test_prepare_refuses_check_tensors_past_the_bound(monkeypatch, n, p,
                                                      entries):
    # Integrability builds n^6 entries when p > 0, Jacobi (n+p)^4.  The
    # datum is refused at construction, before any entry is converted, so
    # prepare never receives it.
    E = (antisym(n, {(0, 1): 1}),) * p

    def unbuilt(*args):
        raise AssertionError("converted before the bound was checked")

    monkeypatch.setattr(rational.ScaledTensor, "from_nested", unbuilt)
    with pytest.raises(
        hg.InvalidSpaceSpec,
        match=f"^wide: n={n}, p={p} needs check tensors of {entries} "
        f"entries, past the limit of 4194304$",
    ):
        hg.SpaceSpec("wide", n, p, identity(n), identity(p), E)


@pytest.mark.parametrize("field", ["g", "beta", "E"])
def test_spec_rejects_float_entries_naming_the_field(field):
    # Floats and rational strings alike: a datum holds ints and Fractions.
    s2 = hg.builtin("S2")
    for kind, half, minus_half, zero, one in (
        ("float", 0.5, -0.5, 0, 1),
        ("str", "1/2", "-1/2", "0", "1"),
    ):
        inexact = {
            "g": ((half, zero), (zero, one)),
            "beta": ((half,),),
            "E": (((zero, half), (minus_half, zero)),),
        }
        with pytest.raises(hg.InvalidSpaceSpec, match=f"^{field}: .*{kind}$"):
            dataclasses.replace(s2, **{field: inexact[field]})


def test_spec_rejects_dependent_generators():
    # Constructed, since independence needs an elimination; refused by
    # prepare, before any structural check runs.
    e = antisym(3, {(0, 1): 1})
    e2 = antisym(3, {(0, 1): 2})
    spec = hg.SpaceSpec("bad", 3, 2, identity(3), identity(2), (e, e2))
    with pytest.raises(hg.DegenerateBasis, match="^redundant holonomy"):
        hg.prepare(spec)


def test_spec_rejects_shape_mismatch():
    e = antisym(2, {(0, 1): 1})
    with pytest.raises(hg.InvalidSpaceSpec):
        hg.SpaceSpec("bad", 3, 1, identity(3), ((F(1),),), (e,))


# ---------------------------------------------------------------------------
# derive_holonomy
# ---------------------------------------------------------------------------


def test_s2_connection_generator():
    D, Fs, _ = as_fractions(hg.derive_holonomy(hg.builtin("S2")))
    assert D[0] == ((F(0), F(-1)), (F(1), F(0)))
    assert Fs == (((F(0),),),)


def test_s3_structure_constants_are_so3():
    hol = hg.derive_holonomy(hg.builtin("S3"))
    nonzero = {
        (j, i, k): v
        for j, mat in enumerate(hol.F.to_fractions())
        for i, row in enumerate(mat)
        for k, v in enumerate(row)
        if v and i < k
    }
    assert nonzero == {(2, 0, 1): F(1), (1, 0, 2): F(-1), (0, 1, 2): F(1)}


def test_structure_constants_reproduce_commutators(hols):
    for hol in hols.values():
        D, Fs, _ = as_fractions(hol)
        for i in range(hol.p):
            for k in range(i + 1, hol.p):
                comm = oracles.commutator(D[i], D[k])
                recon = rational.zeros(hol.n, hol.n)
                for j in range(hol.p):
                    if Fs[j][i][k]:
                        recon = oracles.add(
                            recon, oracles.scale(D[j], Fs[j][i][k])
                        )
                assert comm == recon


def test_combined_generators_close_under_commutators(hols):
    # [C_A, C_B] must equal the combination of C's dictated by the C
    # matrices' own entries, for every catalog space.  With C = A / den
    # for an integer A, both sides are integer matrices over den^2:
    # A_a A_b - A_b A_a = sum_c (A_a)_cb A_c, compared exactly, in int64
    # when every sum is bounded below 2^63 and in Python ints otherwise.
    for hol in hols.values():
        ints = hol.C.array
        big_n = len(ints)
        top = max(map(abs, ints.ravel().tolist()), default=0)
        ints = ints.astype(np.int64 if 2 * big_n * top**2 < 2**63 else object)
        prods = np.matmul(ints[:, None], ints[None, :])
        comm = prods - prods.transpose(1, 0, 2, 3)
        # recon[a, b] = sum_c ints[a, c, b] ints[c]
        recon = np.tensordot(ints, ints, axes=([1], [0]))
        a, b = np.triu_indices(big_n, 1)
        assert np.array_equal(comm[a, b], recon[a, b])


def test_flat_space_has_abelian_translations():
    D, Fs, C = as_fractions(hg.derive_holonomy(hg.builtin("flat2")))
    assert D == ()
    assert Fs == ()
    assert len(C) == 2
    for a in range(2):
        for b in range(2):
            assert oracles.commutator(C[a], C[b]) == rational.zeros(2, 2)


def test_commutator_outside_span():
    e1 = antisym(3, {(0, 1): 1})
    e2 = antisym(3, {(0, 2): 1})
    spec = hg.SpaceSpec("open", 3, 2, identity(3), identity(2), (e1, e2))
    with pytest.raises(hg.CommutatorOutsideSpan):
        hg.derive_holonomy(spec)


# ---------------------------------------------------------------------------
# validate_symmetric_space
# ---------------------------------------------------------------------------


def test_catalog_spaces_validate(specs, hols):
    for name, spec in specs.items():
        report = hg.validate_symmetric_space(spec, hols[name])
        assert report.all_passed, (name, report.failed_names())
        assert len(report.checks) == 4


def test_uniformly_rescaled_beta_is_still_symmetric():
    # Scaling beta by a positive rational is a radius change; the derived
    # structure constants rescale along and every identity survives.
    s3 = hg.builtin("S3")
    scaled = hg.SpaceSpec(
        "S3-rescaled",
        3,
        3,
        s3.g,
        tuple(tuple(2 * x for x in row) for row in s3.beta),
        s3.E,
    )
    hol = hg.derive_holonomy(scaled)
    assert hg.validate_symmetric_space(scaled, hol).all_passed
    got = hol.F.to_fractions()
    base = hg.derive_holonomy(s3).F.to_fractions()
    assert all(
        got[j][i][k] == 2 * base[j][i][k]
        for j in range(3)
        for i in range(3)
        for k in range(3)
    )


def test_scaling_beta_scales_scalar_curvature():
    s3 = hg.builtin("S3")
    for c in (F(2), F(1, 3), F(7, 5)):
        scaled = hg.SpaceSpec(
            "S3-scaled",
            3,
            3,
            s3.g,
            tuple(tuple(c * x for x in row) for row in s3.beta),
            s3.E,
        )
        hol = hg.derive_holonomy(scaled)
        curv = hg.curvature_scalars(scaled, hol)
        assert curv.R == c * 6


def doubled_beta_three_sphere():
    s3 = hg.builtin("S3")
    return hg.SpaceSpec(
        "S3-rescaled",
        3,
        3,
        s3.g,
        tuple(tuple(2 * x for x in row) for row in s3.beta),
        s3.E,
    )


def assert_checks_match_oracle(spec, hol):
    """The report's (name, passed, detail) tuples equal those of the
    checks as one einsum per term (oracles.validation_checks)."""
    report = hg.validate_symmetric_space(spec, hol)
    assert report.checks == oracles.validation_checks(spec, hol)
    return report


def test_stale_structure_constants_fail_generator_identity():
    # Refreshing D for a rescaled beta while keeping the old F breaks the
    # intertwining identity and nothing else.
    scaled = doubled_beta_three_sphere()
    fresh = hg.derive_holonomy(scaled)
    stale = hg.derive_holonomy(hg.builtin("S3"))
    franken = hg.HolonomyRealization(
        n=3, p=3, D=fresh.D, F=stale.F, C=fresh.C
    )
    report = assert_checks_match_oracle(scaled, franken)
    assert report.failed_names() == ("generator_connection_identity",)


def test_replaced_stale_structure_constants_fail_generator_identity():
    # The same stale F put in by dataclasses.replace: the checks read the
    # realization's own fields, so the copy fails like the one built
    # through the constructor.
    scaled = doubled_beta_three_sphere()
    fresh = hg.derive_holonomy(scaled)
    franken = dataclasses.replace(
        fresh, F=hg.derive_holonomy(hg.builtin("S3")).F
    )
    report = assert_checks_match_oracle(scaled, franken)
    assert report.failed_names() == ("generator_connection_identity",)


def test_anisotropic_beta_fails_validation():
    s3 = hg.builtin("S3")
    beta = ((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(2)))
    squashed = hg.SpaceSpec("squashed", 3, 3, s3.g, beta, s3.E)
    report = assert_checks_match_oracle(
        squashed, hg.derive_holonomy(squashed)
    )
    assert report.failed_names() == (
        "generator_connection_identity", "curvature_integrability",
        "structure_jacobi",
    )


def test_bianchi_violation_detected():
    e = antisym(4, {(0, 1): 1, (2, 3): 2})
    spec = hg.SpaceSpec("nonbianchi", 4, 1, identity(4), ((F(1),),), (e,))
    report = assert_checks_match_oracle(spec, hg.derive_holonomy(spec))
    assert report.failed_names() == ("structure_jacobi", "riemann_symmetries")


def test_flat_validation_is_vacuous():
    spec = hg.builtin("flat3")
    report = hg.validate_symmetric_space(spec, hg.derive_holonomy(spec))
    assert report.all_passed


# ---------------------------------------------------------------------------
# validate_symmetric_space against the checks as one einsum per term (the
# builtins and moved data are compared in assert_matches_oracle below)
# ---------------------------------------------------------------------------


def with_one_changed_entry_of_C(hol):
    """The realization with C_{n, 0, 1}, a holonomy block entry, raised
    by one; nothing but the Jacobi check reads C."""
    C = hol.C.array.copy()
    C[hol.n, 0, 1] += 1
    return dataclasses.replace(hol, C=rational.ScaledTensor(C, hol.C.denom))


def test_one_changed_entry_of_C_fails_only_jacobi():
    spec = hg.builtin("S3")
    hol = with_one_changed_entry_of_C(hg.derive_holonomy(spec))
    report = assert_checks_match_oracle(spec, hol)
    assert report.failed_names() == ("structure_jacobi",)


@pytest.mark.parametrize("scale", [1, 2**70])
@pytest.mark.parametrize("kind", ["random", "first", "both", "outer"])
def test_riemann_failure_details_match_the_einsum_oracle(kind, scale):
    # No datum reaches the first three failures (R = beta E E has them),
    # so these tensors stand in for spec.tensors.riemann: random entries,
    # antisymmetrized in the first pair or in both, or A_ab A_cd.
    rng = np.random.default_rng(len(kind))
    r = rng.integers(-3, 4, (4, 4, 4, 4)).astype(object) * scale
    if kind in ("first", "both"):
        r = r - r.transpose(1, 0, 2, 3)
    if kind == "both":
        r = r - r.transpose(0, 1, 3, 2)
    if kind == "outer":
        a = rng.integers(-3, 4, (4, 4)).astype(object) * scale
        a = a - a.T
        r = np.einsum("ab,cd->abcd", a, a)
    if scale == 1:
        r = r.astype(np.int64)
    spec = types.SimpleNamespace(
        n=4, p=1,
        tensors=types.SimpleNamespace(riemann=rational.ScaledTensor(r, 3)),
    )
    got = curvature._check_riemann_symmetries(spec)
    assert got == oracles.check_riemann_symmetries(spec)
    assert not got.passed


def test_checks_on_python_ints_match_the_einsum_oracle():
    # beta * 10^1500 puts R, D, F and C past int64, so every check sums
    # Python ints.
    s3 = hg.builtin("S3")
    big = hg.SpaceSpec(
        "S3big", 3, 3, s3.g, oracles.scale(s3.beta, F(10**1500)), s3.E
    )
    hol = hg.derive_holonomy(big)
    assert big.tensors.riemann.array.dtype == object
    assert hol.C.array.dtype == hol.D.array.dtype == object
    assert assert_checks_match_oracle(big, hol).all_passed
    report = assert_checks_match_oracle(big, with_one_changed_entry_of_C(hol))
    assert report.failed_names() == ("structure_jacobi",)


# ---------------------------------------------------------------------------
# curvature_scalars
# ---------------------------------------------------------------------------


def test_sphere_scalar_curvatures(specs, hols):
    for n in range(2, 7):
        curv = hg.curvature_scalars(specs[f"S{n}"], hols[f"S{n}"])
        assert curv.R == n * (n - 1)


def test_s2_scalars():
    spec = hg.builtin("S2")
    curv = hg.curvature_scalars(spec, hg.derive_holonomy(spec))
    assert (curv.R, curv.R_H, curv.R_G) == (F(2), F(0), F(3, 2))


def test_s3_scalars():
    spec = hg.builtin("S3")
    curv = hg.curvature_scalars(spec, hg.derive_holonomy(spec))
    assert (curv.R, curv.R_H, curv.R_G) == (F(6), F(3, 2), F(6))


def test_flat_scalars_vanish():
    spec = hg.builtin("flat2")
    curv = hg.curvature_scalars(spec, hg.derive_holonomy(spec))
    assert (curv.R, curv.R_H, curv.R_G) == (0, 0, 0)


def test_combined_scalar_identity_all_catalog(specs, hols):
    # R_G is computed internally two ways (contraction of the combined
    # generators vs (3/4)R + R_H); recompute the contraction here as well.
    for name, spec in specs.items():
        hol = hols[name]
        curv = hg.curvature_scalars(spec, hol)
        direct = oracles.combined_scalar(spec, hol)
        assert curv.R_G == direct == F(3, 4) * curv.R + curv.R_H


def test_sphere_riemann_closed_form(specs):
    # Unit sphere curvature: R_abcd = g_ac g_bd - g_ad g_bc.
    for n in (2, 3, 4):
        spec = specs[f"S{n}"]
        riemann = spec.tensors.riemann.to_fractions()
        g = spec.g
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    for d in range(n):
                        want = g[a][c] * g[b][d] - g[a][d] * g[b][c]
                        assert riemann[a][b][c][d] == want


def test_ricci_proportional_to_metric_on_spheres(specs):
    for n in (2, 5):
        spec = specs[f"S{n}"]
        curv = hg.curvature_scalars(spec, hg.derive_holonomy(spec))
        ricci = curv.ricci.to_fractions()
        for a in range(n):
            for b in range(n):
                assert ricci[a][b] == (n - 1) * spec.g[a][b]


# ---------------------------------------------------------------------------
# derive_holonomy against a per-entry Fraction oracle
# ---------------------------------------------------------------------------


def oracle_holonomy(spec):
    """(D, F, C) by per-entry Fraction arithmetic: commutators from
    oracles.commutator, structure constants from span_decompose.  Raises
    CommutatorOutsideSpan for the first pair (i, k), i < k, that does not
    close."""
    n, p = spec.n, spec.p
    ginv = oracles.inverse(spec.g)
    D = []
    for i in range(p):
        acc = rational.zeros(n, n)
        for k in range(p):
            acc = oracles.add(acc, oracles.scale(spec.E[k], spec.beta[i][k]))
        D.append(oracles.scale(oracles.matmul(ginv, acc), F(-1)))
    pairs = [(i, k) for i in range(p) for k in range(i + 1, p)]
    comms = [oracles.commutator(D[i], D[k]) for i, k in pairs]
    rank, sols = oracles.span_decompose(D, comms)
    assert rank == p
    fs = [[[F(0)] * p for _ in range(p)] for _ in range(p)]
    for (i, k), sol in zip(pairs, sols):
        if sol is None:
            raise hg.CommutatorOutsideSpan(
                f"[D_{i}, D_{k}] is not a combination of the D generators"
            )
        for j in range(p):
            fs[j][i][k], fs[j][k][i] = sol[j], -sol[j]
    big_n = n + p
    C = [[[F(0)] * big_n for _ in range(big_n)] for _ in range(big_n)]
    for a in range(n):
        for b in range(n):
            for i in range(p):
                C[a][b][n + i] = -D[i][b][a]
                C[a][n + i][b] = spec.E[i][a][b]
                C[n + i][a][b] = D[i][a][b]
    for i in range(p):
        for j in range(p):
            for k in range(p):
                C[n + i][n + j][n + k] = fs[j][i][k]

    def freeze(x):
        return tuple(freeze(y) for y in x) if isinstance(x, list) else x

    return tuple(D), freeze(fs), freeze(C)


def assert_matches_oracle(spec):
    hol = hg.derive_holonomy(spec)
    assert as_fractions(hol) == oracle_holonomy(spec)
    if hol.p and assert_checks_match_oracle(spec, hol).all_passed:
        binv = oracles.inverse(spec.beta)
        F_mats = hol.F_mats.to_fractions()
        want = -sum(
            (binv[i][k] * oracles.trace_product(F_mats[i], F_mats[k])
             for i in range(hol.p) for k in range(hol.p)),
            F(0),
        ) / 4
        assert hg.curvature_scalars(spec, hol).R_H == want


@pytest.mark.parametrize(
    "name", ["S2", "S3", "S4", "S5", "S6", "S2xS2", "S2xS3", "flat3"]
)
def test_derive_holonomy_matches_fraction_oracle(name):
    assert_matches_oracle(hg.builtin(name))


def test_derive_holonomy_matches_oracle_on_a_huge_metric():
    base = hg.builtin("S2")
    mu = 3**40
    big = hg.SpaceSpec(
        "S2big", base.n, base.p, oracles.scale(base.g, F(mu)), base.beta,
        base.E,
    )
    assert_matches_oracle(big)
    assert hg.derive_holonomy(big).D.to_fractions()[0][0][1] == F(-1, mu)


@settings(max_examples=25, deadline=None)
@given(spec=oracles.moved_spaces())
def test_derive_holonomy_matches_oracle_on_moved_spaces(spec):
    assert_matches_oracle(spec)
    assert assert_checks_match_oracle(
        spec, hg.derive_holonomy(spec)
    ).all_passed


def test_moved_data_keeps_small_tensors_in_int64():
    # Reduced entries of F and C are 0 and +-1 here, so both stay int64.
    P = oracles.matrix([[2, 0, 0], [F(1, 2), F(1, 3), 0], [-1, F(2, 3), 1]])
    spec = oracles.moved(hg.builtin("S3"), P, identity(3), 1, 1)
    hol = hg.prepare(spec).hol
    for derived in (hol.F, hol.C):
        assert derived.array.dtype == np.int64
    report = hg.heat_coefficients(spec, 4)
    assert report.coeffs == tuple(F(1, math.factorial(k)) for k in range(5))


def elementary(n, a, b):
    return antisym(n, {(a, b): 1})


@pytest.mark.parametrize("gens,pair", [
    # [D_0, D_1] = 0 closes; [D_0, D_2] is the first pair outside the span.
    (((0, 1), (2, 3), (0, 2)), (0, 2)),
    # so(3) on 0, 1, 2 closes and D_3 on (2, 3) commutes with D_0 on
    # (0, 1); [D_1, D_3] is the first pair outside the span.
    (((0, 1), (0, 2), (1, 2), (2, 3)), (1, 3)),
    (((0, 1), (1, 2)), (0, 1)),
])
def test_commutator_outside_span_names_the_first_pair(gens, pair):
    n = 4
    spec = hg.SpaceSpec(
        "open", n, len(gens), identity(n), identity(len(gens)),
        tuple(elementary(n, a, b) for a, b in gens),
    )
    with pytest.raises(hg.CommutatorOutsideSpan) as want:
        oracle_holonomy(spec)
    with pytest.raises(hg.CommutatorOutsideSpan) as got:
        hg.derive_holonomy(spec)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(f"[D_{pair[0]}, D_{pair[1]}]")


@settings(max_examples=40, deadline=None)
@given(
    gens=st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4))
        .filter(lambda ab: ab[0] < ab[1]),
        min_size=2, max_size=5, unique=True,
    ),
    weights=st.lists(st.integers(1, 4), min_size=5, max_size=5),
)
def test_closure_verdict_matches_oracle(gens, weights):
    # Elementary generators on five axes either close (sums of so(k)
    # blocks) or not; a diagonal beta rescales them.
    n, p = 5, len(gens)
    beta = tuple(
        tuple(F(weights[i]) if i == j else F(0) for j in range(p))
        for i in range(p)
    )
    spec = hg.SpaceSpec(
        "random", n, p, identity(n), beta,
        tuple(elementary(n, a, b) for a, b in gens),
    )
    try:
        want = oracle_holonomy(spec)
    except hg.CommutatorOutsideSpan as exc:
        with pytest.raises(hg.CommutatorOutsideSpan, match=re.escape(str(exc))):
            hg.derive_holonomy(spec)
        return
    assert as_fractions(hg.derive_holonomy(spec)) == want
