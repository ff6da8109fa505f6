"""Gaussian moment engines and the floating-point average."""

import dataclasses
import importlib
import itertools
import math
import pkgutil
import random
import re
import tracemalloc
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heatgen as hg
import oracles
from heatgen import averaging, curvature, rational, series
from oracles import double_factorial, fock_moment, inverse

ID1 = ((F(1),),)
BETA2 = ((F(2), F(1)), (F(1), F(3)))
BINV2 = inverse(BETA2)


# ---------------------------------------------------------------------------
# Exact moments
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", range(5))
def test_wick_one_dimensional_closed_form(k):
    # Covariance 2 * beta^{-1} = 2, so <w^{2k}> = (2k-1)!! 2^k.
    key = (0,) * (2 * k)
    assert hg.wick_moment(key, ID1) == double_factorial(2 * k - 1) * 2**k


def test_odd_moments_vanish():
    assert hg.wick_moment((0,), ID1) == 0
    assert hg.wick_moment((0, 0, 0), ID1) == 0
    assert fock_moment((0, 1, 1), BINV2) == 0


def test_empty_moment_is_one():
    assert hg.wick_moment((), BINV2) == 1
    assert fock_moment((), BINV2) == 1


def test_moment_index_range_checked():
    with pytest.raises(ValueError):
        hg.wick_moment((0, 2), BINV2)


def test_degree_two_moment_is_twice_inverse():
    for i in range(2):
        for j in range(2):
            assert hg.wick_moment((i, j), BINV2) == 2 * BINV2[i][j]


@given(st.lists(st.integers(min_value=0, max_value=2), min_size=0, max_size=8))
def test_wick_permutation_invariance(key):
    beta = ((F(3), F(1), F(0)), (F(1), F(2), F(1, 2)), (F(0), F(1, 2), F(1)))
    binv = inverse(beta)
    assert averaging._moments(binv)(tuple(key)) == averaging._moments(binv)(
        tuple(sorted(key))
    )


def test_wick_equals_fock_exhaustive_small():
    for p, binv in ((1, ID1), (2, BINV2), (3, inverse(
        ((F(2), F(0), F(1)), (F(0), F(1), F(0)), (F(1), F(0), F(3)))
    ))):
        for deg in (0, 2, 4, 6):
            for key in itertools.combinations_with_replacement(range(p), deg):
                assert hg.wick_moment(key, binv) == fock_moment(key, binv)


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


def _whitened_moment(key, beta):
    """<omega_{k1} ... omega_{kd}> from the whitened closed form: with
    beta = L diag(d) L^T and omega = L^{-T} eta, eta has covariance
    2 diag(1/d), and <eta^e> = prod_i (e_i - 1)!! (2/d_i)^{e_i/2} when
    every e_i is even."""
    lower, d = oracles.ldl(beta)
    back = oracles.transpose(inverse(lower))
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
    beta = oracles.random_spd(random.Random(f"{size}-{seed}"), size)
    assert any(beta[i][j] for i in range(size) for j in range(i))
    binv = inverse(beta)
    for deg in range(7):
        for key in itertools.combinations_with_replacement(range(size), deg):
            want = _whitened_moment(key, beta)
            assert hg.wick_moment(key, binv) == want
            assert fock_moment(key, binv) == want


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
    assert tables() == before


def test_no_module_level_memo():
    # Each oracle call owns its tables; the one kept object is the CLI's
    # parser, built once.
    cached = [
        f"{info.name}.{name}"
        for info in pkgutil.iter_modules(hg.__path__)
        for name, value in vars(
            importlib.import_module(f"heatgen.{info.name}")
        ).items()
        if hasattr(value, "cache_info")
    ]
    assert cached == ["cli._parser"]


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
    lhs = hg.average(a + b, BINV2).coeffs
    rhs = tuple(
        x + y for x, y in zip(hg.average(a, BINV2).coeffs,
                              hg.average(b, BINV2).coeffs)
    )
    assert lhs == rhs


# ---------------------------------------------------------------------------
# Floating-point determinant helpers
# ---------------------------------------------------------------------------


def test_sinh_ratio_dets_scalar_cases():
    xs = [1e-9, 0.3, 1.0, 3.0, 10.0]
    mats = np.array([[[x]] for x in xs])
    got = oracles.sinh_ratio_dets(mats)
    want = np.array([math.sinh(x) / x for x in xs])
    assert np.allclose(got, want, rtol=1e-12)


def test_sinh_ratio_dets_rotation_block():
    # X = theta * J with J^2 = -I gives det(sinh X / X) = (sin theta/theta)^2.
    for theta in (0.5, 1.3, 2.5):
        mats = np.array([[[0.0, -theta], [theta, 0.0]]])
        got = oracles.sinh_ratio_dets(mats)[0]
        want = (math.sin(theta) / theta) ** 2
        assert got == pytest.approx(want, rel=1e-11)


def test_sinh_ratio_dets_zero_matrix():
    mats = np.zeros((3, 4, 4))
    assert np.allclose(oracles.sinh_ratio_dets(mats), 1.0)


def rotation_blocks(thetas, n, rng=None):
    """A skew n x n matrix with the 2x2 rotation blocks theta J, turned by
    a random orthogonal matrix when rng is given: its singular values are
    the thetas, each twice, and zeros."""
    out = np.zeros((n, n))
    for k, theta in enumerate(thetas):
        out[2 * k, 2 * k + 1], out[2 * k + 1, 2 * k] = -theta, theta
    if rng is not None:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        out = q @ out @ q.T
        out = (out - out.T) / 2.0
    return out


def factor_planes(factor, y):
    """The squared planes u of one compiled factor at the points y, from
    its own projection rows."""
    return factor.planes(averaging._plane_sums(factor.rows, y), y)


def half_and_top(factor, y):
    """sqrt(det(sinh X/X)) and the top singular value of X(y) from the
    planes of one compiled factor, with np.sin: the product of sin(s)/s
    over the planes (1 where s = 0) and the largest s (0 without one).
    Unlike the integrand's polynomial it holds past s = pi too."""
    s = np.sqrt(np.maximum(factor_planes(factor, y), 0.0))
    ratio = np.ones_like(s)
    np.divide(np.sin(s), s, out=ratio, where=s > 0.0)
    return np.prod(ratio, axis=0), np.max(s, axis=0, initial=0.0)


def skew_kernel(mats):
    """det(sinh X/X) and the top singular value of each skew X (N, n, n)
    through averaging._Factor: one block whose generators are the unit
    skew matrices e_ij - e_ji (i < j), at the points y = (x_ij), so that
    X(y) = X.  Blocks up to 4 x 4 take the plane path, larger ones the
    eigensolve.  The determinant is the square of the half-determinant."""
    n = mats.shape[-1]
    i, j = np.triu_indices(n, 1)
    gens = np.zeros((len(i), n, n))
    gens[np.arange(len(i)), i, j] = 1.0
    gens[np.arange(len(i)), j, i] = -1.0
    half, top = half_and_top(averaging._Factor([gens], len(i)), mats[:, i, j])
    return half**2, top


def test_skew_ball_mask():
    # The cases of the Frobenius/SVD mask this ball replaced, as skew
    # matrices with the same top singular values: the first has Frobenius
    # norm 3.25 > pi but top value 2.3 < pi.
    mats = np.stack([rotation_blocks(thetas, 4) for thetas in
                     ([2.3, 0.0], [3.3, 0.1], [0.2, 0.1])])
    _, tops = skew_kernel(mats)
    assert (tops < math.pi).tolist() == [True, False, True]


def svd_top(mats):
    return np.linalg.svd(mats, compute_uv=False)[:, 0]


@pytest.mark.parametrize("n", range(1, 16))
def test_skew_kernel_matches_the_eigen_free_reference(n):
    rng = np.random.default_rng(n)
    bound = math.pi - 0.01
    raw = rng.standard_normal((60, n, n)) * rng.uniform(0.05, 1.2, (60, 1, 1))
    batch = [(raw - raw.transpose(0, 2, 1)) / 2.0, np.zeros((2, n, n))]
    if n >= 2:
        # Rotations just inside and just outside the ball, beside smaller
        # blocks, in random bases.
        for theta in (bound * (1 - 1e-9), bound * (1 + 1e-9), 1.0, 3.5):
            rest = list(rng.uniform(0.0, 2.0, n // 2 - 1))
            batch.append(rotation_blocks([theta] + rest, n, rng)[None])
    mats = np.concatenate(batch)
    dets, tops = skew_kernel(mats)
    np.testing.assert_allclose(
        dets, oracles.sinh_ratio_dets(mats), rtol=1e-9, atol=1e-12
    )
    np.testing.assert_allclose(tops, svd_top(mats), rtol=1e-12, atol=1e-15)
    assert ((tops < bound) == (svd_top(mats) < bound)).all()
    if n >= 2:
        assert (tops[-4:-2] < bound).tolist() == [True, False]


def test_skew_kernel_on_an_empty_batch():
    for n in (3, 4, 6):
        dets, tops = skew_kernel(np.zeros((0, n, n)))
        assert dets.shape == tops.shape == (0,)


def self_dual(u):
    """The 4 x 4 skew matrix with x01 = x23, x02 = -x13, x03 = x12 from the
    vector u: its anti-self-dual part vanishes, so both singular values
    are |u|, exactly degenerate."""
    x01, x02, x03 = u
    out = np.array([[0.0, x01, x02, x03], [0.0, 0.0, x03, -x02],
                    [0.0, 0.0, 0.0, x01], [0.0, 0.0, 0.0, 0.0]])
    return out - out.T


def test_skew_kernel_on_degenerate_and_reflected_4x4():
    rng = np.random.default_rng(44)
    bound = math.pi - 0.01
    u = rng.standard_normal(3)
    mats = [self_dual(u * (r / np.linalg.norm(u))) for r in (0.3, 1.7)]
    mats += [rotation_blocks([theta, theta * (1 + 1e-9)], 4, rng)
             for theta in (1e-3, 0.8, 2.9)]
    mats += [rotation_blocks(thetas, 4, rng) for thetas in
             ([bound * (1 - 1e-9), 1.0], [bound * (1 + 1e-9), 1.0],
              [bound * (1 - 1e-9)] * 2, [bound * (1 + 1e-9)] * 2)]
    mats = np.stack(mats)
    # Conjugation by an orthogonal matrix of determinant -1 swaps the
    # self-dual and anti-self-dual parts.
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    q[:, 0] *= -np.sign(np.linalg.det(q))
    assert np.linalg.det(q) < 0
    flipped = q @ mats @ q.T
    flipped = (flipped - flipped.transpose(0, 2, 1)) / 2.0
    for batch in (mats, flipped):
        dets, tops = skew_kernel(batch)
        np.testing.assert_allclose(
            dets, oracles.sinh_ratio_dets(batch), rtol=1e-9, atol=1e-12
        )
        np.testing.assert_allclose(tops, svd_top(batch), rtol=1e-12,
                                   atol=1e-15)
        assert (tops[-4:] < bound).tolist() == [True, False, True, False]
    np.testing.assert_allclose(tops[:2], [0.3, 1.7], rtol=1e-15)


def antisymmetrized(raw):
    return raw - raw.transpose(0, 2, 1)


def test_degenerate_planes_give_exactly_one():
    # Planes with s = 0 exactly: every plane at y = 0, the zero padding of
    # a 2 x 2 block, and the second plane a' - b' of a 4 x 4 block of rank
    # 2 (one rotation plane, a' = b'); an exactly self-dual block has
    # b' = 0.  None of them may warn, and the integrand's sin(s)/s
    # (averaging._sin_ratio) is exactly 1 there.
    rng = np.random.default_rng(7)
    p = 3
    two = antisymmetrized(np.triu(rng.standard_normal((p, 2, 2)), 1))
    rank2 = np.zeros((p, 4, 4))
    rank2[:, 1, 3] = rng.standard_normal(p)
    rank2 = antisymmetrized(rank2)
    dual = np.stack([self_dual(u) for u in rng.standard_normal((p, 3))])
    five = antisymmetrized(rng.standard_normal((p, 5, 5)))
    y = np.vstack([np.zeros(p), rng.standard_normal((6, p)) * 0.3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for blocks in ([two], [rank2], [dual], [two, rank2, dual, five]):
            u = factor_planes(averaging._Factor(blocks, p), y)
            assert u.max() < math.pi**2
            half = np.prod(averaging._sin_ratio(u), axis=0)
            top = np.sqrt(np.max(u, axis=0))
            assert half[0] == 1.0 and top[0] == 0.0
            mats = [np.einsum("si,iab->sab", y, g) for g in blocks]
            want = np.prod([oracles.sinh_ratio_dets(m) for m in mats], axis=0)
            np.testing.assert_allclose(half**2, want, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(
                top, np.max([svd_top(m) for m in mats], axis=0),
                rtol=1e-12, atol=1e-15,
            )
        half, top = half_and_top(averaging._Factor([], p), y)
    np.testing.assert_array_equal(half, np.ones(len(y)))
    np.testing.assert_array_equal(top, np.zeros(len(y)))


def test_invariant_blocks_of_a_permuted_block_diagonal_stack():
    rng = np.random.default_rng(9)
    sizes = (1, 2, 3, 4, 5, 2)
    d, k = sum(sizes), 3
    stack = np.zeros((k, d, d), dtype=np.int64)
    start = 0
    for size in sizes:
        raw = rng.integers(-3, 4, (k, size, size))
        if size == 5:
            # A chain 0-1-2-3-4: connected only through several steps.
            raw = np.triu(np.tril(raw, 1), 1)
        part = slice(start, start + size)
        stack[:, part, part] = raw - raw.transpose(0, 2, 1)
        start += size
    perm = rng.permutation(d)
    stack = stack[:, perm][:, :, perm]
    blocks = rational.invariant_split(
        rational.ScaledTensor(stack, 1),
        rational.ScaledTensor(np.eye(d, dtype=np.int64), 1),
    )
    # The 1 x 1 block is zero, the common kernel, and is dropped.
    assert [len(metric.array) for _, metric in blocks] == [2, 2, 3, 4, 5]
    z = rng.standard_normal((200, k)) * 0.05
    skew = [averaging._skew_stack(rational.float_stack(gens, F(1)), metric)
            for gens, metric in blocks]
    half, tops = half_and_top(averaging._Factor(skew, k), z)
    want_half, want_tops = oracles.skew_half_dets(
        np.einsum("si,iab->sab", z, stack.astype(float))
    )
    assert want_tops.max() < math.pi
    np.testing.assert_allclose(half**2, want_half**2, rtol=1e-12)
    np.testing.assert_allclose(tops, want_tops, rtol=1e-13)


# The sizes of the whitened D and F blocks of the builtins.
BUILTIN_BLOCKS = {
    "S3": ([3], [3]), "S2xS3": ([2, 3], [3]),
    "S2xS2": ([4], []), "S4": ([4], [3, 3]), "S5": ([5], [10]),
}


@pytest.mark.parametrize("name", sorted(BUILTIN_BLOCKS))
def test_integrand_finds_the_invariant_blocks(prepared, name):
    integrand = averaging._Integrand(prepared[name], 0.01)
    d_blocks, f_blocks = integrand.blocks
    assert (
        [len(b[0]) for b in d_blocks], [len(b[0]) for b in f_blocks]
    ) == BUILTIN_BLOCKS[name]
    for block in d_blocks + f_blocks:
        np.testing.assert_array_equal(block, -block.transpose(0, 2, 1))


def exact_sin_ratio(u):
    """sin(s)/s at s^2 = u, for a Fraction u in [0, 10], as the Fraction
    sum of its Taylor series sum_n (-u)^n / (2n+1)! to 1e-40."""
    total, term, n = F(0), F(1), 0
    while abs(term) > F(1, 10**40):
        total += term
        n += 1
        term *= -u / ((2 * n) * (2 * n + 1))
    return total


def test_sin_ratio_polynomial_matches_the_exact_series():
    # 301 floats spread over [0, pi^2] and 100 more in [1/7, 6.1], each
    # exactly a Fraction: within rounding of sin(s)/s where the ball keeps
    # points, as np.sin(s)/s is (measured 3.4e-16 up to u = 6 and 1.0e-14
    # up to the bound, where sin(s)/s is 0.0032, against 4.5e-16 and
    # 1.3e-14 for np.sin(s)/s).  Past the bound, where no value is used,
    # the error stays absolute.
    bound = (math.pi - averaging._MARGIN) ** 2
    pts = [F(math.pi**2 * k / 300) for k in range(301)]
    pts += [F(6 * k / 100 + 1 / 7) for k in range(100)]
    got = averaging._sin_ratio(np.array([float(u) for u in pts]))
    assert got[0] == 1.0
    for value, u in zip(got.tolist(), pts):
        want = exact_sin_ratio(u)
        err = abs(F(value) - want)
        if u <= 6:
            assert err <= F(1, 10**15) * want, float(u)
        elif u <= bound:
            assert err <= 2 * F(1, 10**14) * want, float(u)
        else:
            assert err <= F(1, 10**16), float(u)


@pytest.mark.parametrize("name", ["S2", "S3", "S2xS2", "S4", "S5"])
def test_ball_boundary_to_a_few_ulps(prepared, name):
    # Points whose top singular value is pi - _MARGIN times 1 -+ 16 ulps,
    # along random directions, from an SVD of the whitened blocks: the
    # ball test on the squared planes keeps the first and rejects the
    # second, through 2 x 2, 3 x 3 and 4 x 4 planes and eigensolved pairs
    # (whose top s differs from the SVD's by up to 5 ulps, so 4 ulps are
    # too few).
    integrand = averaging._Integrand(prepared[name], averaging._MARGIN)
    blocks = integrand.blocks[0] + integrand.blocks[1]
    v = np.random.default_rng(8).standard_normal((50, prepared[name].spec.p))
    top = np.max([svd_top(np.einsum("si,iab->sab", v, g)) for g in blocks],
                 axis=0)
    bound = math.pi - averaging._MARGIN
    ulps = 16 * np.finfo(float).eps
    inside, outside = (v * (bound / top * (1 + k * ulps))[:, None]
                       for k in (-1, 1))
    assert integrand(inside)[1].all()
    assert not integrand(outside)[1].any()


@pytest.mark.parametrize("name", ["S2", "S3", "S2xS2", "S4", "S5"])
def test_integrand_stays_finite_far_outside_the_ball(prepared, name):
    # Monte Carlo points at t = 1e40, where sin(s)/s would need s ~ 1e20:
    # each plane is clamped to the ball before the polynomial, which would
    # overflow on it, so every point is rejected without a warning.
    with np.errstate(over="ignore"):
        assert not np.isfinite(averaging._sin_ratio(np.array([1e40])))[0]
    integrand = averaging._Integrand(prepared[name], averaging._MARGIN)
    y = np.random.default_rng(3).standard_normal((200, prepared[name].spec.p))
    y *= math.sqrt(2e40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, ok = integrand(y)
    assert not ok.any()
    np.testing.assert_array_equal(vals, np.zeros(len(y)))


def unit_lower(p):
    """A unit lower-triangular p x p matrix of small rationals."""
    return tuple(
        tuple(F(1) if i == j else F((i + 2 * j) % 5 - 2, 1 + (i + j) % 3)
              if i > j else F(0) for j in range(p))
        for i in range(p)
    )


def test_moved_s4_splits_f_into_its_two_ideals(prepared):
    base = prepared["S4"]
    p = base.spec.p
    N = unit_lower(p)
    moved = hg.prepare(
        oracles.moved(base.spec, rational.identity(base.spec.n), N, 1, 1)
    )
    beta = np.array(moved.spec.beta, dtype=float)
    assert (beta != np.diag(np.diag(beta))).any()
    blocks = rational.invariant_split(
        moved.hol.F_mats, moved.spec.tensors.beta
    )
    assert [len(metric.array) for _, metric in blocks] == [3, 3]
    # The moved D'(omega') is D(N^T omega'), and each integrand takes
    # sqrt(t) omega = beta^{-1/2} y, so the builtin's y corresponds to
    # y' = beta'^{1/2} N^{-T} beta^{-1/2} y.
    want = averaging._Integrand(base, 0.01)
    got = averaging._Integrand(moved, 0.01)
    assert [len(b[0]) for b in got.blocks[1]] == [3, 3]
    # Monte Carlo points at t = 0.3.
    y = np.random.default_rng(16).standard_normal((400, p)) * math.sqrt(0.6)
    omega = y @ averaging._inv_sqrt(np.array(base.spec.beta, float)).T
    omega_moved = omega @ np.linalg.inv(np.array(N, dtype=float))
    y_moved = omega_moved @ np.linalg.inv(averaging._inv_sqrt(beta)).T
    want_vals, want_ok = want(y)
    got_vals, got_ok = got(y_moved)
    assert want_ok.sum() > 300
    np.testing.assert_array_equal(got_ok, want_ok)
    np.testing.assert_allclose(got_vals, want_vals, rtol=1e-12)


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


def test_quadrature_runs_on_the_torus_past_three_variables(prepared):
    # S4 (p = 6) has a maximal torus of rank 2: 40^2 + 36^2 points, not
    # 40^6 + 36^6, which the p-fold grid refused.
    out = hg.numeric_average(prepared["S4"], 0.1, method="quadrature")
    assert len(prepared["S4"].hol.torus.array) == 2
    assert out.method == "quadrature"
    assert out.evaluations == 40**2 + 36**2
    assert math.isfinite(out.value) and math.isfinite(out.std_error)


@pytest.mark.parametrize("samples", [1, 0, -5])
def test_mc_needs_two_samples(prepared, samples):
    with pytest.raises(ValueError, match="at least 2 samples"):
        hg.numeric_average(prepared["S2"], 0.1, method="mc",
                           samples=samples)


@pytest.mark.parametrize("name,method", [("S2", "mc"), ("S4", "auto")])
@pytest.mark.parametrize("excess", [1, 10**11])
def test_mc_sample_count_checked_first(prepared, monkeypatch, name, method,
                                       excess):
    def boom(*args, **kwargs):
        raise AssertionError("integrand built before validation")

    monkeypatch.setattr(averaging, "_Integrand", boom)
    samples = 10**7 + excess
    with pytest.raises(ValueError, match=f"limited to 10000000 .* {samples}$"):
        hg.numeric_average(prepared[name], 0.1, method, samples=samples)


@pytest.mark.parametrize("name,method", [("S2", "mc"), ("S4", "auto")])
@pytest.mark.parametrize("seed", [-1, 1.5, "7", None])
def test_mc_seed_checked_first(prepared, monkeypatch, name, method, seed):
    def boom(*args, **kwargs):
        raise AssertionError("integrand built before validation")

    monkeypatch.setattr(averaging, "_Integrand", boom)
    with pytest.raises(ValueError, match="seed must be a non-negative "
                       f"integer, got {re.escape(repr(seed))}$"):
        hg.numeric_average(prepared[name], 0.1, method, samples=10,
                           seed=seed)


@pytest.mark.parametrize("method", ["mc", "quadrature"])
@pytest.mark.parametrize("name,value", [
    ("samples", True), ("samples", 1000.5), ("samples", "10"),
    ("nodes", True), ("nodes", 2.5), ("seed", True), ("seed", 2.0),
])
def test_numeric_parameters_must_be_integers(prepared, monkeypatch, method,
                                             name, value):
    def boom(*args, **kwargs):
        raise AssertionError("integrand built before validation")

    monkeypatch.setattr(averaging, "_Integrand", boom)
    with pytest.raises(ValueError, match=f"{name} must be a.*integer, got "
                       f"{re.escape(repr(value))}$"):
        hg.numeric_average(prepared["S2"], 0.1, method, **{name: value})


def test_numeric_average_prepares_a_spec_itself(prepared):
    spec = hg.builtin("S2")
    for kw in (dict(method="mc", samples=100), dict(nodes=8)):
        assert hg.numeric_average(spec, 0.1, **kw) == (
            hg.numeric_average(prepared["S2"], 0.1, **kw)
        )


@pytest.mark.parametrize("name,kw", [
    ("S2", dict(method="mc", samples=1)),
    ("S4", dict(method="quadrature", nodes=0)),
])
def test_numeric_parameters_refused_before_the_spec_is_prepared(
    monkeypatch, name, kw
):
    calls = []
    monkeypatch.setattr(curvature, "derive_holonomy", calls.append)
    with pytest.raises(ValueError):
        hg.numeric_average(hg.builtin(name), 0.1, **kw)
    assert calls == []


def test_quadrature_ignores_the_seed(prepared):
    kw = dict(method="quadrature", nodes=8)
    assert hg.numeric_average(prepared["S2"], 0.1, seed=-1, **kw) == (
        hg.numeric_average(prepared["S2"], 0.1, **kw)
    )


@pytest.fixture
def no_grid(monkeypatch):
    """Fail the test if a quadrature rule or grid is ever built."""

    def boom(*args, **kwargs):
        raise AssertionError("quadrature grid built before validation")

    monkeypatch.setattr(averaging, "_hermite_rule", boom)
    monkeypatch.setattr(averaging, "_tensor_grid", boom)


@pytest.mark.parametrize("nodes", [0, -1, 257, 10**12])
def test_quadrature_node_count_checked_first(prepared, no_grid, nodes):
    with pytest.raises(ValueError, match=r"nodes must be in 1\.\.256, got"):
        hg.numeric_average(prepared["S2"], 0.1,
                           method="quadrature", nodes=nodes)


def test_quadrature_grid_size_checked_first(prepared, monkeypatch, no_grid):
    # S6 has a torus of rank 3, so 65 nodes are 65^3 > 64^3 points: the
    # torus is built, and the grid refused before any grid array or the
    # integrand.
    def boom(*args, **kwargs):
        raise AssertionError("integrand built before validation")

    monkeypatch.setattr(averaging, "_Integrand", boom)
    with pytest.raises(ValueError, match=r"65\^3 points \(a maximal torus "
                       r"of rank 3\) exceeds the limit of 262144"):
        hg.numeric_average(prepared["S6"], 0.1,
                           method="quadrature", nodes=65)


def test_grid_where_the_weyl_weight_vanishes_is_reported(prepared):
    # One node is the origin alone, where J = 0: the torus average has
    # no weight to divide by.
    with pytest.raises(hg.HeatgenError, match="Weyl weight vanishes"):
        hg.numeric_average(prepared["S3"], 0.1, "quadrature", nodes=1)


@pytest.mark.parametrize("t", [1e-300, 1e-200, 1e-20])
def test_weyl_weight_is_taken_at_the_nodes_at_any_time(prepared, t):
    # J is read off the planes at the scaled points 2 sqrt(t) x, where a
    # product of S6's six roots would be of order t^6 and underflow; it is
    # divided back to the nodes x, so the grid keeps its weight.
    out = hg.numeric_average(prepared["S6"], t, "quadrature", nodes=8)
    assert out.value == pytest.approx(1.0, abs=1e-12)
    assert out.singularity_hits == 0


def test_largest_node_count_gives_a_finite_value(prepared):
    # 256 is the most quadrature accepts: a 256 x 256 eigensolve, whose
    # outer weights are tiny but finite.
    out = hg.numeric_average(prepared["S2"], 0.05, "quadrature", nodes=256)
    assert math.isfinite(out.value) and math.isfinite(out.std_error)
    assert out.value == pytest.approx(
        hg.numeric_average(prepared["S2"], 0.05, "quadrature").value,
        rel=1e-12,
    )
    assert out.evaluations == 256 + 252


RULE_SIZES = [1, 2, 3, 7, 8, 36, 40, 64, 256]


@pytest.mark.parametrize("k", RULE_SIZES)
def test_hermite_rule_integrates_the_even_moments(k):
    # A k-node rule is exact to degree 2k - 1: sum w x^(2j) is the
    # moment Gamma(j + 1/2) of exp(-x^2) for 2j < 2k.
    x, w = averaging._hermite_rule(k)
    for j in range(min(k, 12)):
        assert math.fsum(w * x ** (2 * j)) == pytest.approx(
            math.gamma(j + 0.5), rel=1e-12
        )


@pytest.mark.parametrize("k", RULE_SIZES)
def test_hermite_rule_is_exactly_mirrored(k):
    # The half-grid sum needs node k-1-i to be minus node i, with the
    # same weight, and the middle node of an odd rule to be the origin.
    x, w = averaging._hermite_rule(k)
    np.testing.assert_array_equal(x, -x[::-1])
    np.testing.assert_array_equal(w, w[::-1])
    assert (np.diff(x) > 0).all()
    if k % 2:
        assert x[k // 2] == 0.0


@pytest.mark.parametrize("k", RULE_SIZES)
def test_hermite_rule_matches_numpy(k):
    # numpy's companion-matrix rule, with its Newton step, is an
    # independent oracle for the Jacobi eigensolve.
    x, w = averaging._hermite_rule(k)
    want_x, want_w = np.polynomial.hermite.hermgauss(k)
    np.testing.assert_allclose(x, want_x, rtol=0, atol=1e-13)
    np.testing.assert_allclose(w, want_w, rtol=0, atol=1e-13 * want_w.max())


@pytest.mark.parametrize("weight", [math.nan, math.inf, 0.0])
def test_broken_quadrature_rule_is_reported(prepared, monkeypatch, weight):
    def rule(k):
        return np.linspace(-1.0, 1.0, k), np.full(k, weight)

    monkeypatch.setattr(averaging, "_hermite_rule", rule)
    with pytest.raises(hg.HeatgenError, match="8-node Gauss-Hermite"):
        hg.numeric_average(prepared["S2"], 0.05, "quadrature", nodes=8)


def test_auto_method_selection(prepared):
    # auto takes quadrature whenever nodes^r fits the grid limit, with r
    # the rank of h: every builtin at the default 40 nodes.
    for name in ("S2", "S3", "S4", "S2xS3", "S6"):
        q = hg.numeric_average(prepared[name], 0.05, nodes=16, samples=100)
        assert q.method == "quadrature"
    m = hg.numeric_average(prepared["S6"], 0.05, nodes=65, samples=2000)
    assert m.method == "mc"
    assert m == hg.numeric_average(prepared["S6"], 0.05, "mc", nodes=65,
                                   samples=2000)


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


def test_mc_aborts_when_ball_rejects_everything(prepared, monkeypatch):
    # margin > pi empties the acceptance region entirely.
    monkeypatch.setattr(averaging, "_MARGIN", 4.0)
    with pytest.raises(hg.HeatgenError, match="rejects essentially every"):
        hg.numeric_average(prepared["S2"], 0.1, method="mc",
                           samples=50, seed=0)


@pytest.mark.parametrize("name,t", [("S4", 0.05), ("S2xS3", 0.05),
                                    ("S2", 9.0)])
def test_mc_does_not_depend_on_the_block_size(prepared, monkeypatch, name, t):
    # The generator fills rows in stream order: rounds of 7 draws, of the
    # default block and of every sample at once see the same samples.
    samples = 20_000
    got = []
    for block in (7, averaging._BLOCK, samples):
        monkeypatch.setattr(averaging, "_BLOCK", block)
        got.append(hg.numeric_average(prepared[name], t, "mc",
                                      samples=samples, seed=3))
    assert got[0] == got[1] == got[2]
    assert (got[0].singularity_hits > 0) == (name == "S2")


def test_numeric_memory_does_not_grow_with_the_input(prepared):
    # Every temporary is one block: S6's 15 x 15 eigensolve on 8192
    # points is about 30 MB, on all 100 000 samples it would be 250 MB,
    # and on the whole 64^3 grid of S3 17 MB.
    tracemalloc.start()
    try:
        hg.numeric_average(prepared["S6"], 0.05, "mc", samples=100_000)
        mc_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        hg.numeric_average(prepared["S3"], 0.05, "quadrature", nodes=64)
        quadrature_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mc_peak < 48e6
    assert quadrature_peak < 8e6


def test_mc_needs_one_values_vector(prepared):
    # 10^6 samples are an 8 MB values vector; np.std allocated a second
    # one for the deviations (16.0 MB).
    tracemalloc.start()
    try:
        hg.numeric_average(prepared["S2"], 0.05, "mc", samples=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


@pytest.mark.parametrize("size", [2, 3, 9, 127, 128, 129, 1000, 8193,
                                  100_003, 1_234_567])
def test_sample_std_is_numpy_std_bit_for_bit(size):
    rng = np.random.default_rng(size)
    for values in (rng.standard_normal(size),
                   rng.lognormal(0.0, 3.0, size),
                   1e6 + rng.random(size)):
        want = float(np.std(values, ddof=1))
        got = averaging._sample_std(values.copy(), float(values.mean()))
        assert got == want


class CountingIntegrand(averaging._Integrand):
    """The integrand, recording the number of points of every plane
    pass: each Monte Carlo round and each quadrature block."""

    calls: list = []

    def planes(self, y):
        self.calls.append(len(y))
        return super().planes(y)


@pytest.fixture
def counting(monkeypatch):
    monkeypatch.setattr(CountingIntegrand, "calls", [])
    monkeypatch.setattr(averaging, "_Integrand", CountingIntegrand)
    return CountingIntegrand.calls


@pytest.mark.parametrize("samples,draws", [(50, 400), (100_000, 8 * 65536)])
def test_mc_abort_counts_rejected_draws(prepared, monkeypatch, counting,
                                        samples, draws):
    # The threshold, 8 * min(65536, samples), is counted in draws, so
    # rounds of any size give up at the same point.
    monkeypatch.setattr(averaging, "_MARGIN", 4.0)
    with pytest.raises(hg.HeatgenError, match="rejects essentially every"):
        hg.numeric_average(prepared["S2"], 0.1, method="mc",
                           samples=samples, seed=0)
    assert sum(counting) == draws
    assert max(counting) <= averaging._BLOCK


@pytest.mark.parametrize("name", ["S2", "S2xS2", "S3"])
@pytest.mark.parametrize("nodes", [7, 12])
def test_quadrature_counts_every_rejected_point(prepared, monkeypatch, name,
                                                nodes):
    # With margin > pi even the origin, the middle of an odd grid, is out.
    monkeypatch.setattr(averaging, "_MARGIN", 4.0)
    r = len(prepared[name].hol.torus.array)
    out = hg.numeric_average(prepared[name], 0.1, "quadrature", nodes=nodes)
    assert out.value == out.std_error == 0.0
    assert out.singularity_hits == nodes**r
    assert out.evaluations == nodes**r + (nodes >= 12) * (nodes - 4) ** r


def test_prefactor_overflow_reported(prepared):
    with pytest.raises(hg.HeatgenError, match="far too large"):
        hg.numeric_average(prepared["S2"], 1e12, method="mc",
                           samples=10, seed=0)


def test_beta_beyond_the_float_range_is_reported():
    # One factor's beta is 10^400 times smaller than the other's: no
    # float matrix holds both.
    s2 = hg.builtin("S2")
    tiny = hg.SpaceSpec("S2tiny", s2.n, s2.p, s2.g,
                        oracles.scale(s2.beta, F(1, 10**400)), s2.E)
    prep = hg.prepare(hg.catalog.product_spec("wide", s2, tiny))
    for method in ("mc", "quadrature"):
        with pytest.raises(hg.HeatgenError, match="float range"):
            hg.numeric_average(prep, 0.1, method, samples=10, nodes=8)


def test_tight_margin_rejects_more(prepared, monkeypatch):
    assert averaging._MARGIN == 0.01
    loose = hg.numeric_average(prepared["S2"], 1.0, method="mc",
                               samples=3000, seed=2)
    monkeypatch.setattr(averaging, "_MARGIN", 2.9)
    tight = hg.numeric_average(prepared["S2"], 1.0, method="mc",
                               samples=3000, seed=2)
    assert tight.singularity_hits > loose.singularity_hits


TANGENT_MOVES = {
    "S2": ((F(2), F(1)), (F(0), F(1, 3))),
    "S3": ((F(1), F(-2), F(1, 2)), (F(0), F(3), F(1)), (F(0), F(0), F(1, 2))),
    # Couples the S2 tangent (0, 1) with the S3 tangent (2, 3, 4): the
    # moved D(omega) has no block pattern, but splits as 2 + 3 exactly.
    "S2xS3": tuple(
        tuple(F(x) for x in row) for row in (
            (1, 0, 2, 0, -1), (0, 2, 1, F(1, 2), 0), (0, 0, 1, -1, 0),
            (0, 0, 0, 3, 1), (0, 0, 0, 0, F(1, 2)),
        )
    ),
}


@pytest.mark.parametrize("method,name", [
    ("mc", "S2"), ("mc", "S3"), ("mc", "S2xS3"),
    ("quadrature", "S2"), ("quadrature", "S3"),
])
def test_numeric_average_does_not_depend_on_the_tangent_basis(
    prepared, name, method
):
    # g' = P^T P is not the identity, so a ball on the raw singular values
    # of D(omega) would reject different points (S2 at t=2: 33 and 243
    # hits; S3: 378 and 32387).  For S2xS3 both split D into blocks of
    # 2 and 3, each in closed form: the builtin in its own coordinates,
    # the moved one in a basis of its two factors.
    base = prepared[name]
    ident = rational.identity(base.spec.p)
    other = hg.prepare(
        oracles.moved(base.spec, TANGENT_MOVES[name], ident, 1, 1)
    )
    assert other.spec.g != base.spec.g
    if name == "S2xS3":
        blocks = [averaging._Integrand(prep, 0.01).blocks[0]
                  for prep in (base, other)]
        assert [[len(b[0]) for b in x] for x in blocks] == [[2, 3], [2, 3]]
    kw = dict(method=method, samples=20_000, seed=4, nodes=24)
    want = hg.numeric_average(base, 2.0, **kw)
    got = hg.numeric_average(other, 2.0, **kw)
    assert want.singularity_hits > 0
    assert got.singularity_hits == want.singularity_hits
    assert got.evaluations == want.evaluations
    assert got.value == pytest.approx(want.value, rel=1e-12)


class ReferenceIntegrand:
    """The integrand as evaluated before the skew eigensolve: sqrt(t) omega
    = beta^{-1/2} y from the symmetric root of beta, the raw factor
    matrices, the Frobenius/SVD ball and the eigenvalue-free determinant
    of the accepted rows."""

    def __init__(self, prep, margin, basis=None):
        assert basis is None, "the reference runs over all of h"
        w, v = np.linalg.eigh(np.array(prep.spec.beta, dtype=float))
        self.transform = (v / np.sqrt(w)) @ v.T
        self.D = np.array(prep.hol.D.to_fractions(), dtype=float)
        self.F = np.array(prep.hol.F_mats.to_fractions(), dtype=float)
        self.bound = math.pi - margin

    def __call__(self, y):
        omegas = y @ self.transform.T
        x = np.einsum("si,iab->sab", omegas, self.D) / 2.0
        f = np.einsum("si,ijk->sjk", omegas, self.F) / 2.0
        ok = (svd_top(x) < self.bound) & (svd_top(f) < self.bound)
        det_d = oracles.sinh_ratio_dets(x[ok])
        det_f = oracles.sinh_ratio_dets(f[ok])
        positive = (det_d > 0.0) & (det_f > 0.0)
        ok[np.flatnonzero(ok)[~positive]] = False
        vals = np.zeros(len(y))
        vals[ok] = np.sqrt(det_f[positive]) / np.sqrt(det_d[positive])
        return vals, ok


def grid_reference(prep, t, nodes):
    """The quadrature that numeric_average runs, summed over the whole
    grid with the reference integrand: on the maximal torus, or over all
    of h when h is abelian (the torus is all of h)."""
    average = (oracles.grid_average if prep.hol.torus.array.shape[0]
               == prep.spec.p else oracles.torus_grid_average)
    return average(ReferenceIntegrand(prep, 0.01), prep, t, nodes)


# Every numeric average of the benchmark's numeric-oracle workload, at the
# CLI's default samples and nodes.
ORACLE_AVERAGES = [
    ("S4", 0.05, "mc", 11), ("S2xS3", 0.05, "mc", 12),
    ("S2xS3", 0.1, "mc", 13), ("S3", 0.05, "quadrature", 0),
    ("S3", 0.1, "quadrature", 0), ("S2xS2", 0.05, "quadrature", 0),
]


@pytest.mark.parametrize("name,t,method,seed", ORACLE_AVERAGES)
def test_numeric_average_matches_the_reference_path(
    prepared, monkeypatch, name, t, method, seed
):
    prep = prepared[name]
    got = hg.numeric_average(prep, t, method, seed=seed)
    if method == "quadrature":
        want = grid_reference(prep, t, 40)
    else:
        monkeypatch.setattr(averaging, "_Integrand", ReferenceIntegrand)
        want = hg.numeric_average(prep, t, method, seed=seed)
    assert got.value == pytest.approx(want.value, rel=1e-12)
    # A refinement delta of zero is rounding noise of the value's size.
    assert got.std_error == pytest.approx(
        want.std_error, rel=1e-12, abs=1e-12 * abs(want.value)
    )
    assert got.singularity_hits == want.singularity_hits
    assert got.evaluations == want.evaluations
    assert got.method == want.method == method


@pytest.mark.parametrize("method,kw", [
    ("mc", dict(samples=20_000, seed=5)), ("quadrature", dict(nodes=16)),
])
def test_numeric_average_matches_the_reference_path_on_s5(
    prepared, monkeypatch, method, kw
):
    # S5's D (5 x 5) and F (10 x 10) have no closed form: each block's
    # eigensolved pairs are merged into one array of planes, D's first.
    # At t = 0.5 the ball rejects some points.
    prep = prepared["S5"]
    got = hg.numeric_average(prep, 0.5, method, **kw)
    if method == "quadrature":
        want = grid_reference(prep, 0.5, kw["nodes"])
    else:
        monkeypatch.setattr(averaging, "_Integrand", ReferenceIntegrand)
        want = hg.numeric_average(prep, 0.5, method, **kw)
    assert got.value == pytest.approx(want.value, rel=1e-12)
    assert got.std_error == pytest.approx(
        want.std_error, rel=1e-12, abs=1e-12 * abs(want.value)
    )
    assert got.singularity_hits == want.singularity_hits > 0
    assert got.evaluations == want.evaluations


def test_quadrature_eigensolves_each_block_once(prepared, monkeypatch):
    # The Weyl weight comes from the integrand's own planes: S5 at 16
    # nodes takes one eigensolve of each rule's Jacobi matrix (16 and 12
    # nodes) and one of each large block (D 5 x 5, F 10 x 10) per grid
    # block (the 128 and 72 points of the half grids), not a second one
    # of F for J.
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    hg.numeric_average(prepared["S5"], 0.05, "quadrature", nodes=16)
    assert calls == [
        (16, 16), (12, 12), (128, 5, 5), (128, 10, 10), (72, 5, 5),
        (72, 10, 10),
    ]


@pytest.mark.parametrize("name,t", [
    ("S2", 2.0), ("S2xS2", 1.5), ("S3", 2.0), ("S4", 2.0), ("S2xS3", 1.5),
    ("S6", 0.5),
])
@pytest.mark.parametrize("nodes", [7, 8, 15, 16, 40])
def test_mirrored_quadrature_equals_the_full_grid(
    prepared, monkeypatch, counting, name, t, nodes
):
    # r = p for the abelian S2 and S2xS2; S3 runs on its torus, r = 1,
    # S4 and S2xS3 on theirs, r = 2, and S6 on its torus of rank 3.
    prep, r = prepared[name], len(prepared[name].hol.torus.array)
    x1 = np.polynomial.hermite.hermgauss(nodes)[0]
    # The broadcast grid, and the unit grids of its slabs, are the
    # meshgrid ones, bit for bit.
    for dim in range(1, r + 1):
        grids = np.meshgrid(*([x1] * dim), indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        np.testing.assert_array_equal(averaging._tensor_grid(x1, dim), pts)

    # Half the grid, in blocks of whole slabs or, at 5 points, in runs
    # smaller than a slab, against one sum over the whole grid.  From rank
    # 2 on, J weighs the points unevenly, from F's planes here and from
    # the eigenvalues of the raw F in the oracle: equal to 1e-12.
    want = grid_reference(prep, t, nodes)
    rel = 1e-14 if r < 2 or r == prep.spec.p else 1e-12
    sizes = [nodes] + [nodes - 4] * (nodes >= 12)
    for block in (averaging._BLOCK, 5):
        monkeypatch.setattr(averaging, "_BLOCK", block)
        counting.clear()
        got = hg.numeric_average(prep, t, "quadrature", nodes=nodes)
        # Each grid's first half, and nothing else, a block at a time.
        assert max(counting) <= block
        assert sum(counting) == sum(
            (k**r + 1) // 2 for k in sizes
        )
        assert got.singularity_hits == want.singularity_hits > 0
        assert got.evaluations == want.evaluations
        assert got.value == pytest.approx(want.value, rel=rel)
        assert got.std_error == pytest.approx(
            want.std_error, abs=4 * rel * want.value
        )


# ---------------------------------------------------------------------------
# Quadrature on a maximal torus
# ---------------------------------------------------------------------------


def over_h(prep):
    """The production integrand over all of h, Monte Carlo's."""
    return averaging._Integrand(prep, averaging._MARGIN)


@pytest.mark.parametrize("name", ["S3", "S2xS2"])
@pytest.mark.parametrize("t", [0.05, 0.1])
def test_torus_grid_matches_the_p_fold_grid(prepared, name, t):
    # Equal accuracy: both grids at 40 nodes, the p-fold one over all of
    # h (40^3 + 36^3 points for S3) against the torus's 40 + 36.  The
    # outer nodes of S3's p-fold grid leave the ball, with weights far
    # below rounding; no point of its torus grid does.
    prep = prepared[name]
    got = hg.numeric_average(prep, t, "quadrature")
    want = oracles.grid_average(over_h(prep), prep, t, 40)
    assert got.value == pytest.approx(want.value, rel=1e-13)
    assert got.singularity_hits == 0
    r = len(prep.hol.torus.array)
    assert got.evaluations == 40**r + 36**r


@settings(max_examples=20, deadline=None)
@given(spec=oracles.moved_spaces(bases=("S2", "S3", "S2xS2"), mixed=True))
def test_torus_grid_matches_the_p_fold_grid_on_moved_spaces(spec):
    # In a moved basis the torus basis has mixed entries and U beta U^T
    # is no longer diagonal.  At t R = 0.1 both are near rounding at 24
    # nodes.
    prep = hg.prepare(spec)
    t = float(F(1, 10) / prep.curv.R)
    got = hg.numeric_average(prep, t, "quadrature", nodes=24)
    want = oracles.grid_average(over_h(prep), prep, t, 24)
    assert got.value == pytest.approx(want.value, rel=1e-12)


@pytest.mark.parametrize("name,samples,seed", [
    ("S4", 100_000, 1), ("S5", 20_000, 2), ("S2xS3", 100_000, 3),
])
@pytest.mark.parametrize("t", [0.05, 0.2])
def test_torus_grid_matches_monte_carlo(prepared, name, samples, seed, t):
    # p > 3, which the p-fold grid never ran: the torus grid's value is
    # within Monte Carlo's own three standard errors of its mean.
    prep = prepared[name]
    quad = hg.numeric_average(prep, t, "quadrature")
    mc = hg.numeric_average(prep, t, "mc", samples=samples, seed=seed)
    assert quad.std_error < 1e-3 * mc.std_error
    assert abs(quad.value - mc.value) <= 3.0 * mc.std_error


@pytest.mark.parametrize("name", ["S3", "S4", "S2xS3", "S6"])
def test_weyl_weight_is_the_product_of_the_positive_roots(prepared, name):
    # J from the planes of X_F against J from the eigenvalues of the raw
    # F(omega): equal up to one constant factor, and zero at the origin.
    prep = prepared[name]
    basis = prep.hol.torus.array
    integrand = averaging._Integrand(prep, averaging._MARGIN, basis)
    x = np.random.default_rng(5).standard_normal((50, len(basis)))
    x[0] = 0.0
    beta = np.array(prep.spec.beta, dtype=float)
    chol = np.linalg.cholesky(basis @ beta @ basis.T)
    omegas = x @ (basis.T @ np.linalg.inv(chol).T).T
    F_mats = np.array(prep.hol.F_mats.to_fractions(), dtype=float)
    eig = np.abs(np.linalg.eigvals(np.einsum("si,ijk->sjk", omegas, F_mats)))
    want = np.prod(np.sort(eig, axis=1)[:, len(basis):], axis=1)
    got = integrand.weyl(integrand.planes(x), 1.0)
    assert got[0] == want[0] == 0.0
    np.testing.assert_allclose(got[1:] / want[1:], got[1] / want[1],
                               rtol=1e-10)


@st.composite
def moved_products(draw):
    """A product of two moved builtins, each with its own scales."""
    left, right = (
        hg.builtin(draw(st.sampled_from(["S2", "S3"]))) for _ in range(2)
    )
    scales = st.builds(F, st.integers(1, 2**40), st.integers(1, 2**40))
    parts = [
        oracles.moved(spec, rational.identity(spec.n),
                      rational.identity(spec.p), draw(scales), draw(scales))
        for spec in (left, right)
    ]
    return hg.catalog.product_spec("product", *parts)


@settings(max_examples=25, deadline=None)
@given(spec=st.one_of(oracles.moved_spaces(), moved_products()))
def test_structure_matrices_are_beta_antisymmetric(spec):
    prep = hg.prepare(spec)
    curvature.check_skew(prep)
    beta = spec.beta
    for f in prep.hol.F_mats.to_fractions():
        lowered = oracles.matmul(beta, f)
        assert oracles.add(lowered, oracles.transpose(lowered)) == (
            rational.zeros(spec.p, spec.p)
        )
    # The skew blocks carry the determinant of the raw factor matrices,
    # inside the ball, at a time t R = 0.3 that puts most samples there.
    t = float(F(3, 10) / prep.curv.R)
    integrand = averaging._Integrand(prep, 0.01)
    reference = ReferenceIntegrand(prep, 0.01)
    y = np.random.default_rng(0).standard_normal((20, spec.p))
    y *= math.sqrt(2.0 * t)
    omegas = y @ reference.transform.T
    for raw, factor in zip((reference.D, reference.F), integrand.factors):
        x = np.einsum("si,iab->sab", omegas, raw) / 2.0
        half, tops = half_and_top(factor, y)
        inside = tops < math.pi
        assert inside.sum() >= 10
        np.testing.assert_allclose(
            half[inside] ** 2, oracles.sinh_ratio_dets(x[inside]), rtol=1e-10
        )


def broken_structure_constants(prep):
    """prep with the D_0 coefficients of its structure constants doubled,
    put in by dataclasses.replace."""
    F_broken = rational.ScaledTensor.from_nested(tuple(
        tuple(tuple(2 * x if j == 0 else x for x in row) for row in plane)
        for j, plane in enumerate(prep.hol.F.to_fractions())
    ))
    hol = dataclasses.replace(prep.hol, F=F_broken)
    return dataclasses.replace(prep, hol=hol)


def test_broken_beta_invariance_is_an_internal_inconsistency(prepared):
    broken = broken_structure_constants(prepared["S3"])
    with pytest.raises(hg.InternalInconsistency, match="beta-antisymmetric"):
        hg.numeric_average(broken, 0.1, method="mc", samples=10)


def test_replaced_structure_constants_reach_every_reader(prepared):
    # F_mats, the structural checks and the float integrand all read the
    # one F the realization holds, so a replaced F cannot pass one reader
    # and be used unchecked by another.
    prep = prepared["S3"]
    broken = broken_structure_constants(prep)
    assert broken.hol.F_mats.equals(
        rational.exact_einsum("jik->ijk", broken.hol.F)
    )
    assert hg.validate_symmetric_space(prep.spec, broken.hol).failed_names()
    with pytest.raises(hg.InternalInconsistency, match="beta-antisymmetric"):
        hg.numeric_average(broken, 0.1, method="quadrature", nodes=8)


# ---------------------------------------------------------------------------
# Determinant factorization identity
# ---------------------------------------------------------------------------


def test_det_factorization_all_catalog(specs, hols):
    for name, spec in specs.items():
        samples = oracles.random_rational_omegas(spec.p, 25, seed=3)
        err = oracles.check_det_factorization(hols[name], samples)
        assert err <= 1e-10, (name, err)
