"""Exact linear algebra helpers."""

import contextlib
import io
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import heatgen as hg
import oracles
from heatgen import rational
from heatgen.cli import main
from heatgen.curvature import SpaceSpec
from heatgen.errors import InvalidSpaceSpec


def test_rat_accepts_int_str_fraction():
    assert oracles.rat(3) == F(3)
    assert oracles.rat("4/6") == F(2, 3)
    assert oracles.rat(F(1, 2)) == F(1, 2)


def test_rat_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        oracles.rat(0.5)
    with pytest.raises(TypeError):
        oracles.rat(True)


def test_matmul_and_trace():
    a = oracles.matrix([[1, 2], [3, 4]])
    b = oracles.matrix([[0, 1], [1, 0]])
    assert oracles.matmul(a, b) == oracles.matrix([[2, 1], [4, 3]])
    assert oracles.trace(a) == 5
    assert oracles.trace_product(a, b) == oracles.trace(oracles.matmul(a, b))


def test_commutator_antisymmetry():
    a = oracles.matrix([[0, 1], [-1, 0]])
    b = oracles.matrix([[1, 0], [0, -1]])
    ab = oracles.commutator(a, b)
    ba = oracles.commutator(b, a)
    assert ab == oracles.scale(ba, F(-1))


def test_determinant_matches_cofactor_expansion():
    m = oracles.matrix([[F(1, 2), 3, 0], [1, F(-2, 3), 4], [0, 5, 1]])
    # cofactor expansion along the first row
    det = F(1, 2) * (F(-2, 3) * 1 - 4 * 5) - 3 * (1 * 1 - 4 * 0)
    assert oracles.determinant(m) == det


def test_determinant_singular():
    m = oracles.matrix([[1, 2], [2, 4]])
    assert oracles.determinant(m) == 0


def _tensor(a) -> rational.ScaledTensor:
    """A square Fraction matrix as a tensor, () as the empty 0 x 0 one."""
    return rational.ScaledTensor.from_nested(a, (len(a), len(a)))


def _ldl_accepts(a) -> bool:
    """Whether rational.ldl factors a, the positive definiteness test of
    SpaceSpec."""
    try:
        rational.ldl(_tensor(a))
    except ValueError:
        return False
    return True


def test_positive_definite():
    assert _ldl_accepts(oracles.matrix([[2, 1], [1, 2]]))
    assert not _ldl_accepts(oracles.matrix([[1, 2], [2, 1]]))
    assert not _ldl_accepts(oracles.matrix([[0, 0], [0, 1]]))


def test_inverse_roundtrip():
    m = oracles.matrix([[F(1, 2), 3], [1, F(-2, 3)]])
    assert oracles.matmul(m, oracles.inverse(m)) == rational.identity(2)


def test_inverse_singular_raises():
    with pytest.raises(ZeroDivisionError):
        oracles.inverse(oracles.matrix([[1, 1], [1, 1]]))


def test_span_decompose_solves_and_detects_outside():
    b1 = oracles.matrix([[1, 0], [0, 0]])
    b2 = oracles.matrix([[0, 1], [1, 0]])
    inside = oracles.matrix([[F(2, 3), -1], [-1, 0]])
    outside = oracles.matrix([[0, 0], [0, 1]])
    rank, sols = oracles.span_decompose([b1, b2], [inside, outside])
    assert rank == 2
    assert sols[0] == (F(2, 3), F(-1))
    assert sols[1] is None


def test_span_decompose_reports_rank_deficiency():
    b1 = oracles.matrix([[1, 0], [0, 1]])
    b2 = oracles.matrix([[2, 0], [0, 2]])
    rank, _ = oracles.span_decompose([b1, b2], [])
    assert rank == 1


def test_scaled_tensor_roundtrip():
    data = [[F(1, 3), F(-2, 5)], [F(0), F(7)]]
    t = rational.ScaledTensor.from_nested(data)
    assert t.to_fractions() == ((F(1, 3), F(-2, 5)), (F(0), F(7)))


def test_exact_einsum_matches_fraction_matmul():
    a = oracles.matrix([[F(1, 2), 3], [0, F(5, 7)]])
    b = oracles.matrix([[2, F(1, 3)], [F(-4, 9), 1]])
    ta = rational.ScaledTensor.from_nested(a)
    tb = rational.ScaledTensor.from_nested(b)
    prod = rational.exact_einsum("ij,jk->ik", ta, tb)
    assert prod.to_fractions() == oracles.matmul(a, b)


def test_exact_einsum_object_fallback_is_exact():
    # Entries big enough that an int64 contraction would overflow.
    big = 2**70
    a = rational.ScaledTensor.from_nested([[big, 0], [0, big]])
    prod = rational.exact_einsum("ij,jk->ik", a, a)
    assert prod.array.dtype == object
    assert prod.to_fractions()[0][0] == F(big) ** 2


@pytest.mark.parametrize("subscripts", ["abc->cab", "abc->abc", "abc->bac"])
@pytest.mark.parametrize("dtype", [np.int64, object])
def test_exact_einsum_permutation_is_a_view(subscripts, dtype):
    array = np.arange(24, dtype=np.int64).reshape(2, 3, 4).astype(dtype)
    t = rational.ScaledTensor(array * 2**70 if dtype is object else array, 5)
    got = rational.exact_einsum(subscripts, t)
    assert np.shares_memory(got.array, t.array) and got.denom == 5
    assert np.array_equal(got.array, np.einsum(subscripts, t.array))


@pytest.mark.parametrize("subscripts,want", [
    ("ii->i", [1, 4]), ("ij->i", [3, 7]), ("ij->", 10),
])
def test_exact_einsum_diagonals_and_sums_are_not_permutations(
    subscripts, want
):
    t = rational.ScaledTensor(np.array([[1, 2], [3, 4]]), 1)
    assert rational.exact_einsum(subscripts, t).array.tolist() == want


@pytest.mark.parametrize(
    "limit,above,dtype",
    [
        (2**53, False, np.float64),
        (2**53, True, np.int64),
        (2**62, False, np.int64),
        (2**62, True, object),
    ],
)
def test_exact_matmul_on_each_side_of_each_limit(limit, above, dtype):
    # Row 0 of a and column 0 of b hold the largest entries, so product
    # entry (0, 0) is the bound itself: just below or at least the limit,
    # and odd, so float64 could not hold it past 2**53.
    inner = 3
    mb = math.isqrt(limit // inner) | 1
    ma = (limit - 1) // (inner * mb) + above
    if ma % 2 == 0:
        ma += 1 if above else -1
    rng = random.Random(f"{limit}-{above}")
    a = [[ma] * inner] + [
        [rng.randint(-ma, ma) for _ in range(inner)] for _ in range(3)
    ]
    b = [[mb] + [rng.randint(-mb, mb) for _ in range(4)] for _ in range(inner)]
    a_arr, b_arr = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    bound = ma * mb * inner
    assert (bound >= limit) == above
    want = [
        [sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a
    ]
    assert want[0][0] == bound
    got = rational.exact_matmul(a_arr, b_arr, bound)
    assert got.tolist() == want
    assert got.dtype == (object if dtype is object else np.int64)
    assert rational.product_dtype(bound, a_arr, b_arr) is dtype


def test_exact_matmul_keeps_object_operands_in_python_ints():
    a = np.array([[2**70, 1]], dtype=object)
    b = np.array([[1], [1]], dtype=object)
    assert rational.product_dtype(1, a, b) is object
    assert rational.exact_matmul(a, b, 2**70 + 1).tolist() == [[2**70 + 1]]


def test_scaled_tensor_equality_cross_denominator():
    a = rational.ScaledTensor.from_nested([F(1, 2), F(3, 2)])
    b = rational.ScaledTensor.from_nested([F(2, 4), F(6, 4)])
    assert a.equals(b)
    c = rational.ScaledTensor.from_nested([F(1, 2), F(5, 4)])
    assert not a.equals(c)


def test_scaled_tensor_is_zero_empty_and_filled():
    assert rational.ScaledTensor(np.zeros((2, 2), dtype=np.int64), 1).is_zero()
    assert not rational.ScaledTensor.from_nested([[0, 1]]).is_zero()
    assert rational.ScaledTensor(np.zeros((0, 3), dtype=np.int64), 1).is_zero()
    for values, zero in (([0, 2**70], False), ([[0, 0], [0, -(2**70)]], False),
                         ([0, 0, 0], True), ([], True)):
        t = rational.ScaledTensor(np.array(values, dtype=object), 1)
        assert t.is_zero() == zero


def test_scaled_tensor_add_sub_over_common_denominator():
    a = rational.ScaledTensor.from_nested([[F(1, 2), F(1, 3)]])
    b = rational.ScaledTensor.from_nested([[F(1, 4), F(-2, 3)]])
    assert (a + b).to_fractions() == ((F(3, 4), F(-1, 3)),)
    assert (a - b).to_fractions() == ((F(1, 4), F(1)),)
    assert (a + b).array.dtype == np.int64
    with pytest.raises(ValueError):
        a + rational.ScaledTensor.from_nested([F(1)])


def test_scaled_tensor_sums_promote_instead_of_wrapping():
    near = 2**62 - 1
    a = rational.ScaledTensor(np.array([near, -near], dtype=np.int64), 1)
    total = a + a
    assert total.array.dtype == object
    assert total.to_fractions() == (F(2 * near), F(-2 * near))
    # A huge denominator alone must promote, even against a zero array.
    zero = rational.ScaledTensor(np.zeros(1, dtype=np.int64), 1)
    tiny = rational.ScaledTensor(np.ones(1, dtype=np.int64), 3**40)
    assert (zero - tiny).to_fractions() == (F(-1, 3**40),)
    assert not zero.equals(tiny)
    assert tiny.equals(rational.ScaledTensor.from_nested([F(1, 3**40)]))


def _assert_factors(a, factor):
    """factor = (L^-1, d) with L^-1 unit lower-triangular and
    L^-1 a L^-T = diag(d), in Fraction arithmetic."""
    back, d = factor
    back = back.to_fractions()
    size = len(a)
    assert all(back[i][i] == 1 for i in range(size))
    assert all(
        back[i][j] == 0 for i in range(size) for j in range(i + 1, size)
    )
    assert all(x > 0 for x in d)
    diag = tuple(
        tuple(d[i] if i == j else F(0) for j in range(size))
        for i in range(size)
    )
    assert oracles.matmul(
        oracles.matmul(back, a), oracles.transpose(back)
    ) == diag


@pytest.mark.parametrize("seed", range(6))
def test_ldl_reconstructs_positive_definite_matrices(seed):
    size = 1 + seed % 4
    spd = oracles.random_spd(random.Random(seed), size)
    back, d = rational.ldl(_tensor(spd))
    _assert_factors(spd, (back, d))
    lower, want = oracles.ldl(spd)
    assert d == want
    assert back.to_fractions() == oracles.inverse(lower)


def _wide_spd(rng, size, top):
    """A diagonally dominant symmetric matrix with a_00 = 1, a first row
    of small entries and every other entry near top: for a top near 2^40,
    step 0 of the elimination stays in int64 and step 1 needs Python
    ints."""
    a = [[F(0)] * size for _ in range(size)]
    a[0][0] = F(1)
    for i in range(1, size):
        a[0][i] = a[i][0] = F(rng.randint(-1, 1))
        for j in range(1, i):
            a[i][j] = a[j][i] = F(rng.randint(-top, top), rng.randint(1, 3))
        a[i][i] = F(size * top + rng.randint(0, top))
    return oracles.matrix(a)


@pytest.mark.parametrize("top", [2**40, 2**70])
@pytest.mark.parametrize("seed", range(4))
def test_ldl_promotes_after_the_first_step(monkeypatch, top, seed):
    a = _wide_spd(random.Random(f"wide-{seed}"), 3 + seed % 3, top)
    tensor = _tensor(a)
    # Near 2^70 the numerators are Python ints from the start; near 2^40
    # they start in int64 and are promoted at a step k >= 1.
    promotes = tensor.array.dtype == np.int64
    assert promotes == (top == 2**40)
    steps = []
    exact_dtype = rational.exact_dtype

    def spy(bound, *arrays):
        steps.append(exact_dtype(bound, *arrays))
        return exact_dtype(bound, *arrays)

    monkeypatch.setattr(rational, "exact_dtype", spy)
    factor = rational.ldl(tensor)
    monkeypatch.undo()
    if promotes:
        assert steps[0] is np.int64 and object in steps
    _assert_factors(a, factor)
    assert rational.solve(factor).to_fractions() == oracles.inverse(a)


def test_ldl_rejects_a_non_positive_pivot():
    with pytest.raises(ValueError, match=r"^matrix is not positive definite "
                       r"\(pivot 1\)$"):
        rational.ldl(_tensor(oracles.matrix([[1, 2], [2, 4]])))
    with pytest.raises(ValueError, match=r"\(pivot 0\)$"):
        rational.ldl(_tensor(oracles.matrix([[-1]])))


def test_scaled_tensor_reduced_divides_out_the_content():
    array = np.array([4, -6, 0], dtype=np.int64)
    t = rational.ScaledTensor(array, 10).reduced()
    assert (t.array.tolist(), t.denom) == ([2, -3, 0], 5)
    big = rational.ScaledTensor(np.array([3**50, 0], dtype=object), 3**52)
    assert big.reduced().to_fractions() == (F(1, 9), F(0))
    assert big.reduced().denom == 9
    # An all-zero int64 array against a denominator beyond int64.
    zero = rational.ScaledTensor(np.zeros(2, dtype=np.int64), 3**50).reduced()
    assert (zero.array.tolist(), zero.denom) == ([0, 0], 1)


def test_reduced_demotes_object_arrays_that_fit_int64():
    # Reduced entries 2**62 - 1 and -1 fit: the result is int64.
    top = rational._INT64_SAFE - 1
    fits = rational.ScaledTensor(np.array([3 * top, -3], dtype=object), 6)
    t = fits.reduced()
    assert t.array.dtype == np.int64
    assert (t.array.tolist(), t.denom) == ([top, -1], 2)
    zero = rational.ScaledTensor(np.zeros(2, dtype=object), 7).reduced()
    assert zero.array.dtype == np.int64 and zero.denom == 1


def test_reduced_keeps_object_arrays_past_int64():
    # One past the guard stays a Python int, whatever the denominator.
    edge = rational._INT64_SAFE
    for array, denom in (([edge, 1], 1), ([3 * edge, 3], 9)):
        t = rational.ScaledTensor(np.array(array, dtype=object), denom)
        t = t.reduced()
        assert t.array.dtype == object
        assert t.array.tolist()[0] == edge


def _sylvester(a):
    """Positive definiteness by Sylvester's criterion, as an oracle."""
    return all(
        oracles.determinant(tuple(row[: k + 1] for row in a[: k + 1])) > 0
        for k in range(len(a))
    )


@pytest.mark.parametrize("seed", range(40))
def test_positive_definite_agrees_with_sylvester(seed):
    rng = random.Random(f"pd-{seed}")
    size = 1 + seed % 5
    a = [[F(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1):
            a[i][j] = a[j][i] = F(rng.randint(-4, 6), rng.randint(1, 3))
        # A dominant diagonal on every other seed: both verdicts occur.
        if seed % 2:
            a[i][i] += 8
    a = oracles.matrix(a)
    assert _ldl_accepts(a) == _sylvester(a)


def test_positive_definite_needs_symmetry():
    # ldl assumes a symmetric matrix, so SpaceSpec checks symmetry first:
    # this g has the identity's pivots but is not symmetric.
    lopsided = oracles.matrix([[1, 1], [0, 1]])
    assert _ldl_accepts(lopsided)
    with pytest.raises(InvalidSpaceSpec, match="^g is not symmetric$"):
        SpaceSpec("lopsided", 2, 0, lopsided, (), ())
    assert _ldl_accepts(())


def test_scale_promotes_at_the_int64_edge():
    edge = 2**61
    t = rational.ScaledTensor(np.array([edge - 1, -3], dtype=np.int64), 5)
    # 2 (2^61 - 1) stays below the 2^62 guard, 2 * 2^61 does not.
    assert t.scale(2).array.dtype == np.int64
    assert t.scale(F(-2, 7)).to_fractions() == (
        F(-2 * (edge - 1), 35), F(6, 35)
    )
    up = rational.ScaledTensor(np.array([edge, 1], dtype=np.int64), 1)
    assert up.scale(2).array.dtype == object
    assert up.scale(2).to_fractions() == (F(2**62), F(2))
    # A factor beyond int64 promotes even an all-zero array.
    zero = rational.ScaledTensor(np.zeros(2, dtype=np.int64), 1)
    assert zero.scale(3**50).to_fractions() == (F(0), F(0))
    assert zero.scale(F(1, 3**50)).denom == 3**50


def test_assemble_places_blocks_over_one_denominator():
    a = rational.ScaledTensor.from_nested([[F(1, 2), F(1)]])
    b = rational.ScaledTensor.from_nested([F(-1, 3)])
    out = rational.assemble((2, 3), [
        ((slice(0, 1), slice(1, 3)), a),
        ((1, np.array([0])), b),
    ])
    assert out.denom == 6
    assert out.to_fractions() == (
        (F(0), F(1, 2), F(1)), (F(-1, 3), F(0), F(0))
    )
    huge = rational.ScaledTensor(np.array([1], dtype=np.int64), 3**45)
    mixed = rational.assemble((2,), [((slice(0, 1),), huge),
                                     ((slice(1, 2),), b)])
    assert mixed.array.dtype == object
    assert mixed.to_fractions() == (F(1, 3**45), F(-1, 3))


@pytest.mark.parametrize("seed", range(30))
def test_solve_matches_the_fraction_inverse(seed):
    rng = random.Random(f"solve-{seed}")
    size, cols = 1 + seed % 6, seed % 4
    # Every third system has entries near 2^40, so the Bareiss minors
    # leave the int64 range.
    scale = 2**40 if seed % 3 == 0 else 1

    def entry():
        if rng.random() < 0.3:
            return F(0)
        return F(rng.randint(-5, 5) * scale + rng.randint(-1, 1),
                 rng.randint(1, 4))

    # scale A A^T + diag(positive) is symmetric positive definite.
    spd = oracles.scale(oracles.random_spd(rng, size), F(scale))
    a = oracles.add(spd, oracles.matrix([
        [F(rng.randint(1, 5), rng.randint(1, 4)) if i == j else 0
         for j in range(size)] for i in range(size)
    ]))
    b = tuple(tuple(entry() for _ in range(cols)) for _ in range(size))
    tb = rational.ScaledTensor.from_nested(b, (size, cols))
    want = oracles.matmul(oracles.inverse(a), b) if cols else tuple(
        () for _ in range(size)
    )
    assert rational.solve(rational.ldl(_tensor(a)), tb).to_fractions() == want
    assert rational.solve(rational.ldl(_tensor(a))).to_fractions() == (
        oracles.inverse(a)
    )


def test_ldl_refuses_a_singular_gram_matrix():
    # Three matrices, the third the sum of the first two: their Gram
    # matrix is positive semidefinite and singular at pivot 2.
    first = [[1, 2], [0, F(1, 3)]]
    second = [[0, -1], [5, 2]]
    third = [[x + y for x, y in zip(r, s)] for r, s in zip(first, second)]
    stack = rational.ScaledTensor.from_nested([first, second, third])
    gram = rational.exact_einsum("iab,jab->ij", stack, stack)
    with pytest.raises(ValueError, match=r"\(pivot 2\)$"):
        rational.ldl(gram)
    assert not rational.independent(stack)
    assert rational.independent(stack[:2])


def test_scaled_tensor_rows_and_shapes():
    t = rational.ScaledTensor.from_nested(
        [[[0, 0], [0, 0]], [[0, F(1, 2)], [0, 0]], [[3, 0], [0, 0]]]
    )
    assert t.nonzero_rows().tolist() == [False, True, True]
    assert t[np.array([2, 1])].to_fractions() == (
        ((F(3), F(0)), (F(0), F(0))), ((F(0), F(1, 2)), (F(0), F(0)))
    )
    empty = rational.ScaledTensor.from_nested((), (0, 3, 3))
    assert empty.array.shape == (0, 3, 3)
    assert empty.to_fractions() == ()
    assert rational.ScaledTensor.from_nested(
        ((), ()), (2, 0)
    ).to_fractions() == ((), ())


SMALL_RATIONALS = st.builds(F, st.integers(-4, 4), st.integers(1, 4))


@st.composite
def rational_matrices(draw):
    """(a, rows, cols) for a small rational matrix a of 0-6 rows and 0-6
    columns: zero, dense, or a product of rank at most 3 whose right
    factor is scaled by up to 2^70, so the elimination also runs past
    int64."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["zero", "dense", "low rank"]))
    if kind == "dense":
        a = tuple(tuple(draw(SMALL_RATIONALS) for _ in range(cols))
                  for _ in range(rows))
    elif kind == "low rank" and rows and cols:
        k = draw(st.integers(1, 3))
        scale = draw(st.sampled_from([1, 2**40, 2**70]))
        left = [[draw(SMALL_RATIONALS) for _ in range(k)]
                for _ in range(rows)]
        right = [[draw(SMALL_RATIONALS) * scale for _ in range(cols)]
                 for _ in range(k)]
        a = oracles.matmul(left, right)
    else:
        a = rational.zeros(rows, cols)
    return a, rows, cols


@settings(max_examples=300, deadline=None)
@given(case=rational_matrices())
@example(case=((), 0, 3))
def test_nullspace_is_an_exact_primitive_basis(case):
    a, rows, cols = case
    null = rational.nullspace(
        rational.ScaledTensor.from_nested(a, (rows, cols))
    )
    nullity = cols - oracles.rank(a)
    assert null.denom == 1
    assert null.array.shape == (cols, nullity)
    columns = [[int(x) for x in null.array[:, j]] for j in range(nullity)]
    for column in columns:
        assert math.gcd(*column) == 1
        for row in a:
            assert sum(x * y for x, y in zip(row, column)) == 0
    if nullity:
        assert oracles.rank(oracles.matrix(columns)) == nullity


# ---------------------------------------------------------------------------
# Kept bounds and the int64/object boundary of the Bareiss eliminations
# ---------------------------------------------------------------------------


def _fresh(t) -> bool:
    """Whether a tensor's kept bound, if it holds one, is the entry bound
    of its array now."""
    return t._bound is None or t._bound == rational.max_abs(t.array)


def test_kept_bounds_are_the_entry_bounds():
    t = rational.ScaledTensor.from_nested([[F(-3, 2), F(5)], [0, F(1, 4)]])
    # The constructor measured the numerators -6, 20, 0 and 1.
    assert t._bound == 20 and _fresh(t)
    made = [
        t.scale(F(-3, 7)),
        t.scale(0),
        t.scale(3**50),
        t.reduced(),
        t.scale(6).reduced(),
        rational.exact_einsum("ab->ba", t),
        rational.ScaledTensor(np.array([3**50, -(3**51)], dtype=object),
                              3**49).reduced(),
        rational.ScaledTensor(np.zeros((2, 0), dtype=np.int64), 1),
    ]
    assert [m._bound for m in made[:-1]] == [
        60, 0, 20 * 3**50, 20, 60, 20, 9,
    ]
    assert all(_fresh(m) for m in made)
    # A bound nobody has asked for is measured on first use, once.
    lazy = made[-1]
    assert lazy._bound is None and lazy.bound == 0 and lazy._bound == 0


def _ldl_step_bounds(a):
    """The bound of each step k < m - 1 of ldl's elimination of [A | I],
    for an integer matrix A, in Python ints: p_k max|rest| +
    max|rest[:, k]| max|row k|, the rest being the rows below k."""
    m = len(a)
    work = [list(row) + [int(i == j) for j in range(m)]
            for i, row in enumerate(a)]
    last, bounds = 1, []
    for k in range(m - 1):
        pivot, rest = work[k][k], work[k + 1:]
        bounds.append(
            pivot * max(abs(x) for row in rest for x in row)
            + max(abs(row[k]) for row in rest) * max(map(abs, work[k]))
        )
        work[k + 1:] = [
            [(pivot * x - row[k] * y) // last for x, y in zip(row, work[k])]
            for row in rest
        ]
        last = pivot
    return bounds


def _nullspace_step_bounds(a):
    """The bound 2 top^2 of each step of nullspace's elimination of an
    integer matrix, in Python ints: the pivot is the nonzero entry of
    least magnitude among the rows not yet pivoted, the first in row-major
    order, and rows that become zero are dropped."""
    work = [list(row) for row in a if any(row)]
    bounds, last, k = [], 1, 0
    while k < len(work):
        top = max(abs(x) for row in work for x in row)
        _, r, c = min((abs(x), i, j) for i, row in enumerate(work[k:], k)
                      for j, x in enumerate(row) if x)
        work[k], work[r] = work[r], work[k]
        pivot, keep = work[k][c], work[k]
        bounds.append(2 * top * top)
        work = [[(pivot * x - row[c] * y) // last for x, y in zip(row, keep)]
                for row in work]
        work[k] = keep
        last, k = pivot, k + 1
        work = work[:k] + [row for row in work[k:] if any(row)]
    return bounds


def _spy_dtypes(monkeypatch):
    """Record each (bound, dtype) exact_dtype chooses from here on."""
    chosen = []
    exact_dtype = rational.exact_dtype

    def spy(bound, *arrays):
        chosen.append((bound, exact_dtype(bound, *arrays)))
        return chosen[-1][1]

    monkeypatch.setattr(rational, "exact_dtype", spy)
    return chosen


def _per_step_rule(bounds):
    """(bound, dtype) of each step up to the first promotion: int64 while
    the bound stays below _INT64_SAFE, object from there on."""
    out = []
    for bound in bounds:
        out.append((bound, np.int64 if bound < rational._INT64_SAFE
                    else object))
        if out[-1][1] is object:
            break
    return out


@pytest.mark.parametrize("seed", range(6))
def test_ldl_crosses_int64_at_a_middle_pivot(monkeypatch, seed):
    rng = random.Random(f"cross-{seed}")
    size = 5 + seed % 2
    b = [[rng.randint(-64, 64) for _ in range(size)] for _ in range(size)]
    # B B^T + size I: symmetric positive definite integers near 2^14.
    a = [[sum(x * y for x, y in zip(r, s)) + size * (i == j)
          for j, s in enumerate(b)] for i, r in enumerate(b)]
    rule = _per_step_rule(_ldl_step_bounds(a))
    assert 0 < len(rule) - 1 < size - 2, "the promotion is at a middle pivot"
    tensor = _tensor(oracles.matrix(a))
    assert tensor.array.dtype == np.int64
    chosen = _spy_dtypes(monkeypatch)
    back, d = rational.ldl(tensor)
    monkeypatch.undo()
    # Once promoted, the elimination stays object and chooses nothing.
    assert chosen[: len(rule)] == rule
    lower, want = oracles.ldl(oracles.matrix(a))
    assert d == want
    assert back.to_fractions() == oracles.inverse(lower)
    # reduced() gives the factor its canonical dtype.
    fits = back.bound < rational._INT64_SAFE
    assert back.array.dtype == (np.int64 if fits else object)


@pytest.mark.parametrize("seed", range(6))
def test_nullspace_crosses_int64_at_a_middle_pivot(monkeypatch, seed):
    rng = random.Random(f"null-{seed}")
    rows, cols, rank = 6, 8, 5
    left = [[rng.randint(-64, 64) for _ in range(rank)] for _ in range(rows)]
    right = [[rng.randint(-64, 64) for _ in range(cols)] for _ in range(rank)]
    a = oracles.matmul(oracles.matrix(left), oracles.matrix(right))
    ints = [[int(x) for x in row] for row in a]
    bounds = _nullspace_step_bounds(ints)
    rule = _per_step_rule(bounds)
    assert 0 < len(rule) - 1 < len(bounds) - 1, "promoted at a middle pivot"
    tensor = rational.ScaledTensor.from_nested(a, (rows, cols))
    assert tensor.array.dtype == np.int64
    chosen = _spy_dtypes(monkeypatch)
    null = rational.nullspace(tensor)
    monkeypatch.undo()
    # Every step measures the same bound as the rule; from the promotion
    # on, the work is object whatever the bound.
    assert chosen[: len(rule)] == rule
    assert [b for b, _ in chosen[len(rule): len(bounds)]] == bounds[len(rule):]
    assert null.array.dtype == object
    nullity = cols - oracles.rank(a)
    assert nullity == cols - rank
    assert null.array.shape == (cols, nullity)
    columns = [[int(x) for x in null.array[:, j]] for j in range(nullity)]
    for column in columns:
        assert math.gcd(*column) == 1
        assert all(
            sum(x * y for x, y in zip(row, column)) == 0 for row in a
        )
    assert oracles.rank(oracles.matrix(columns)) == nullity


def test_kept_bounds_never_go_stale(monkeypatch, tmp_path):
    """Every ScaledTensor built by the golden requests, a space file whose
    metric is scaled by 3^40 and one whose beta is scaled by 10^1500
    keeps, after each request, the entry bound of its array now: no array
    is written after construction, and no caller hands its tensor a
    wrong bound."""
    from test_golden import CASES

    built = []
    init = rational.ScaledTensor.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(rational.ScaledTensor, "__init__", recording)
    s3, s2 = hg.builtin("S3"), hg.builtin("S2")
    files = {
        "metric": hg.SpaceSpec("S3metric", s3.n, s3.p,
                               oracles.scale(s3.g, F(3**40)), s3.beta, s3.E),
        "beta": hg.SpaceSpec("S2beta", s2.n, s2.p, s2.g,
                             oracles.scale(s2.beta, F(10**1500)), s2.E),
    }
    requests = list(CASES)
    for key, spec in files.items():
        path = tmp_path / f"{key}.json"
        hg.save(spec, path)
        requests += [("coeffs", str(path), "--order", "3", "--json"),
                     ("validate", str(path), "--json")]
    for argv in requests:
        start = len(built)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(list(argv)) == 0, argv
        assert any(t._bound is not None for t in built[start:]), argv
        # Tensors of earlier requests too: a later one must not write them.
        assert all(_fresh(t) for t in built), argv


# ---------------------------------------------------------------------------
# One overflow decision per elimination: the Hadamard rule against the
# per-pivot bounds, and the thin exact_einsum and from_nested
# ---------------------------------------------------------------------------


def _hadamard_fits(a, extra) -> bool:
    """2 H^2 < 2^62 for the Hadamard bound H of the integer matrix a, each
    squared row norm taken plus extra, in Python ints."""
    square = math.prod(max(1, sum(x * x for x in row) + extra) for row in a)
    return 2 * square < rational._INT64_SAFE


@st.composite
def integer_spd(draw):
    """B B^T + I for an integer B of size 1-6 with entries up to 1, 3, 20
    or 2^10: small ones pass the Hadamard rule, and 20 or 2^10 at larger
    sizes fail it, some with every per-pivot bound in int64, some not."""
    size = draw(st.integers(1, 6))
    top = draw(st.sampled_from([1, 3, 20, 2**10]))
    b = [[draw(st.integers(-top, top)) for _ in range(size)]
         for _ in range(size)]
    return [[sum(x * y for x, y in zip(r, s)) + (i == j)
             for j, s in enumerate(b)] for i, r in enumerate(b)]


# Passes the Hadamard rule; fails it with every per-pivot bound in int64;
# fails it and the per-pivot bounds too.
HADAMARD_CASES = {
    "fits": [[2, 1, 0], [1, 3, 1], [0, 1, 4]],
    "per pivot": [[1000 + (i == j) for j in range(6)] for i in range(6)],
    "object": [[2**40 * (1 + (i == j)) for j in range(4)] for i in range(4)],
}


# The largest x with 2 (x^2 + 1) < 2^62: a row [x] fits the rule with
# extra 1, and a row [x + 1] does not.
EDGE = math.isqrt(2**61 - 1)


@pytest.mark.parametrize("rows", [
    [[EDGE]], [[EDGE + 1]], [[EDGE, 1]], [[EDGE - 1, 0]],
    [[2**15, 2**15], [2**15, -(2**15)]], [[2**15, 2**15], [2**15, 2**15]],
    [[0, 0], [0, 0]], [[3, 1, 4], [1, 5, 9], [2, 6, 5]], [[2**40]],
    # 2^60 and 2^61 with extra 1: one fits 2 H^2 < 2^62, the other not.
    [[1]] * 60, [[1]] * 61,
])
@pytest.mark.parametrize("extra", [0, 1])
def test_fits_hadamard_is_the_python_int_rule(rows, extra):
    # On these rows the squared norms stay in int64, so the guard that
    # keeps them there decides nothing.
    t = rational.ScaledTensor(np.array(rows, dtype=np.int64), 1)
    assert rational._fits_hadamard(t, extra) == _hadamard_fits(rows, extra)


def test_the_hadamard_cases_are_on_their_sides():
    rules = {key: (_hadamard_fits(a, 1), _per_step_rule(_ldl_step_bounds(a)))
             for key, a in HADAMARD_CASES.items()}
    assert rules["fits"][0]
    assert not rules["per pivot"][0]
    assert all(d is np.int64 for _, d in rules["per pivot"][1])
    assert not rules["object"][0]
    assert any(d is object for _, d in rules["object"][1])


def _check_ldl_and_solve(a):
    """ldl and solve of the integer SPD a against the Fraction oracles,
    with the parent's dtype choices: the per-pivot rule wherever the
    Hadamard rule fails, and int64 throughout where it passes."""
    rule = _per_step_rule(_ldl_step_bounds(a))
    fits = _hadamard_fits(a, 1)
    if fits:  # the Hadamard bound covers every per-pivot bound
        assert all(d is np.int64 for _, d in rule)
    fractions = oracles.matrix(a)
    tensor = _tensor(fractions)
    with pytest.MonkeyPatch.context() as patch:
        chosen = _spy_dtypes(patch)
        back, d = rational.ldl(tensor)
    if not fits:
        assert chosen[: len(rule)] == rule
    lower, want = oracles.ldl(fractions)
    assert d == want
    assert back.to_fractions() == oracles.inverse(lower)
    inverse = rational.solve((back, d))
    assert inverse.to_fractions() == oracles.inverse(fractions)
    for t in (back, inverse):
        # The canonical form of reduced(), with a kept bound that holds:
        # lowest terms, int64 exactly when the entries fit.
        canonical = t.reduced()
        assert t.denom == canonical.denom and _fresh(t)
        assert np.array_equal(t.array, canonical.array)
        fits_int64 = rational.max_abs(t.array) < rational._INT64_SAFE
        assert t.array.dtype == (np.int64 if fits_int64 else object)


@settings(max_examples=150, deadline=None)
@given(a=integer_spd())
@example(a=HADAMARD_CASES["fits"])
@example(a=HADAMARD_CASES["per pivot"])
@example(a=HADAMARD_CASES["object"])
def test_ldl_and_solve_match_the_oracles_on_both_sides_of_the_rule(a):
    _check_ldl_and_solve(a)


@st.composite
def integer_low_rank(draw):
    """An integer matrix (rows, cols) of rank at most k, a product of
    factors with entries up to 3, 40 or 2^12."""
    rows, cols, k = (draw(st.integers(1, 6)), draw(st.integers(1, 7)),
                     draw(st.integers(1, 4)))
    top = draw(st.sampled_from([3, 40, 2**12]))
    left = [[draw(st.integers(-top, top)) for _ in range(k)]
            for _ in range(rows)]
    right = [[draw(st.integers(-top, top)) for _ in range(cols)]
             for _ in range(k)]
    return [[sum(x * y for x, y in zip(r, c)) for c in zip(*right)]
            for r in left]


@settings(max_examples=150, deadline=None)
@given(a=integer_low_rank())
# Rank 1 inside the Hadamard rule; rank 2 outside it, with every
# per-pivot bound in int64.
@example(a=[[1, 2, 3], [2, 4, 6]])
@example(a=[[40 * i + j + 1 for j in range(7)] for i in range(6)])
def test_nullspace_matches_the_oracle_on_both_sides_of_the_rule(a):
    rows, cols = len(a), len(a[0])
    bounds = _nullspace_step_bounds(a)
    promoted = any(b >= rational._INT64_SAFE for b in bounds)
    if _hadamard_fits(a, 0):
        assert not promoted
    tensor = rational.ScaledTensor.from_nested(a, (rows, cols))
    null = rational.nullspace(tensor)
    # int64 unless a per-pivot bound left int64, as before the rule.
    assert null.array.dtype == (object if promoted else np.int64)
    nullity = cols - oracles.rank(oracles.matrix(a))
    assert null.array.shape == (cols, nullity)
    columns = [[int(x) for x in null.array[:, j]] for j in range(nullity)]
    for column in columns:
        assert math.gcd(*column) == 1
        assert all(sum(x * y for x, y in zip(row, column)) == 0
                   for row in a)
    if nullity:
        assert oracles.rank(oracles.matrix(columns)) == nullity


def _fraction_einsum(subscripts, *operands):
    """einsum with explicit output over object arrays of Fractions, one
    index assignment at a time, as nested tuples (a Fraction for a scalar
    result)."""
    in_part, out = subscripts.split("->")
    specs = in_part.split(",")
    dims = {}
    for spec, op in zip(specs, operands):
        dims.update(zip(spec, op.shape))
    letters = sorted(dims)
    total = np.full(tuple(dims[c] for c in out), F(0), dtype=object)
    for values in np.ndindex(*(dims[c] for c in letters)):
        at = dict(zip(letters, values))
        term = F(1)
        for spec, op in zip(specs, operands):
            term *= op[tuple(at[c] for c in spec)]
        total[tuple(at[c] for c in out)] += term
    return rational._nest(total.ravel().tolist(), total.shape)


@st.composite
def einsum_cases(draw):
    """(subscripts, operands as object arrays of Fractions) over 1-3
    operands of up to 3 axes, dimensions 1-3: contractions to any subset
    of the letters in any order (a scalar among them), and pure
    permutations of one operand; entries are small rationals, scaled by
    up to 2^70 so that some contractions need Python ints."""
    count = draw(st.integers(1, 3))
    letters = "abcde"
    dims = {c: draw(st.integers(1, 3)) for c in letters}
    specs = [
        "".join(draw(st.permutations(letters))[: draw(st.integers(0, 3))])
        for _ in range(count)
    ]
    used = sorted(set("".join(specs)))
    if count == 1 and draw(st.booleans()):
        out = "".join(draw(st.permutations(specs[0])))
    else:
        keep = draw(st.lists(st.sampled_from(used), unique=True)) if used \
            else []
        out = "".join(keep)
    scale = draw(st.sampled_from([1, 1, 2**40, 2**70]))
    operands = []
    for spec in specs:
        shape = tuple(dims[c] for c in spec)
        size = math.prod(shape)
        values = [draw(SMALL_RATIONALS) * scale for _ in range(size)]
        operands.append(np.array(values + [None], dtype=object)[:-1]
                        .reshape(shape))
    return ",".join(specs) + "->" + out, operands


@settings(max_examples=300, deadline=None)
@given(case=einsum_cases())
@example(case=("ab->ba", [np.array([[F(1, 2), F(3)], [F(-1), F(0)]],
                                    dtype=object)]))
@example(case=("ab,ab->", [np.array([[F(1, 2), F(3)]], dtype=object)] * 2))
@example(case=("ij,jk->ik", [
    np.array([[F(2**30)] * 4], dtype=object),
    np.array([[F(2**30)]] * 4, dtype=object),
]))
def test_exact_einsum_matches_a_fraction_einsum(case):
    subscripts, operands = case
    tensors = [rational.ScaledTensor.from_nested(
        rational._nest(op.ravel().tolist(), op.shape), op.shape)
        for op in operands]
    got = rational.exact_einsum(subscripts, *tensors)
    assert got.to_fractions() == _fraction_einsum(subscripts, *operands)
    in_part, out = subscripts.split("->")
    if len(tensors) == 1 and sorted(in_part) == sorted(out):
        # A permutation is a view of the operand, in its dtype.
        assert np.shares_memory(got.array, tensors[0].array)
        assert got.array.dtype == tensors[0].array.dtype
        return
    if not out:
        # An object contraction to a scalar is a Python int, which
        # np.asarray stores as int64 when it fits.
        return
    # The dtype rule: entry bounds times the sizes of the summed letters.
    bound = math.prod(max(t.bound, 1) for t in tensors)
    summed = set(in_part) - set(out) - {","}
    dims = {c: n for spec, t in zip(in_part.split(","), tensors)
            for c, n in zip(spec, t.array.shape)}
    bound *= math.prod(dims[c] for c in summed)
    wide = (bound >= rational._INT64_SAFE
            or any(t.array.dtype == object for t in tensors))
    assert got.array.dtype == (object if wide else np.int64)


@pytest.mark.parametrize("bad,message", [
    ("1/2", "expected exact rational, got str"),
    (True, "bool is not a rational scalar"),
    (0.5, "expected exact rational, got float"),
    (None, "expected exact rational, got NoneType"),
])
def test_from_nested_refuses_what_is_not_exact(bad, message):
    for nested, shape in [
        (bad, None),
        ((F(1), bad), None),
        (((F(1), 2), (3, bad)), (2, 2)),
        ([[[0, 0], [0, 0]], [[0, 0], [bad, 0]]], None),
    ]:
        with pytest.raises(TypeError, match=f"^{message}$"):
            rational.ScaledTensor.from_nested(nested, shape)


@pytest.mark.parametrize("nested,shape", [
    ((), (0, 3, 3)), ((), (0, 0)), ((), None), (((), ()), None),
    ((((),),), None), (F(-7, 2), None), (5, ()),
])
def test_from_nested_keeps_every_shape(nested, shape):
    t = rational.ScaledTensor.from_nested(nested, shape)
    want = rational._shape(nested) if shape is None else shape
    assert t.array.shape == want
    assert t.array.dtype == np.int64
    if t.array.ndim == 0:
        assert t.to_fractions() == F(nested)
    else:
        assert t.array.size == 0


def test_from_nested_reads_ints_and_fractions_alike():
    t = rational.ScaledTensor.from_nested(
        [[1, F(1, 2)], [F(-2, 3), 2**70]]
    )
    assert (t.denom, t.array.dtype) == (6, object)
    assert t.to_fractions() == ((F(1), F(1, 2)), (F(-2, 3), F(2**70)))
    assert t.bound == 6 * 2**70
