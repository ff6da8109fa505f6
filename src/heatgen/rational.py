"""Exact rational linear algebra on small dense matrices and tensors.

A datum's matrices are immutable tuples of tuples of Fraction; identity
and zeros build the builtin data.  Every computation works on integer
tensors: each tensor is rescaled by the lcm of its entry denominators so
numpy can contract, scale and assemble int64 arrays, with an automatic
promotion to Python-int object arrays whenever a magnitude bound says
int64 could overflow.  No ScaledTensor array is written after
construction, so each tensor measures its entry bound, max_abs of its
array, at most once and keeps it (ScaledTensor.bound); scale, reduced
and the transposed views of exact_einsum hand their results the bound
they already know.  exact_matmul runs a product on float64 BLAS when
its bound stays below 2**53, where float64 holds every integer exactly.
Every matrix inverted is a metric or a Gram matrix, so the one
factorization is ldl, a fraction-free LDL^T without row exchanges that
is also the positive-definiteness test; solve() applies its factor for
every exact inverse.  The one elimination of a general matrix is
nullspace, a fraction-free Gauss-Jordan with full pivoting, which finds
the centralisers of the Cartan data (HolonomyRealization.torus) and on
which invariant_split builds: it splits a metric-skew generator stack exactly
into invariant blocks, dropping the common kernel and dividing the rest,
down to parts of 4 x 4, by the rational eigenspaces of the self-adjoint
commutant.  near_unit and float_stack give the float views it and the
numeric oracle share.  reduced() is the canonical form (lowest terms,
int64 whenever the entries fit).

Both eliminations make one overflow decision up front, by Hadamard's
inequality: every entry of a fraction-free elimination is a minor of
the matrix it starts from ([A | I] for ldl, A for nullspace), so it is
at most H = prod_i max(1, |row_i|), and every p a - b c a step forms is
at most 2 H^2.  When 2 H^2 < _INT64_SAFE the whole elimination runs in
int64 with no magnitude pass; otherwise each step measures its own
bound and promotes the work to Python ints when int64 could overflow,
as a step always did (_fits_hadamard).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, isfinite, lcm

import numpy as np

Matrix = tuple[tuple[Fraction, ...], ...]

# int64 contractions are kept well away from 2**63 by this guard.
_INT64_SAFE = 2**62
# float64 holds every integer of magnitude at most 2**53 exactly.
_FLOAT64_EXACT = 2**53


def _exact_scalar(x) -> Fraction:
    """An int or Fraction as a Fraction; TypeError for any other type,
    strings included, since a datum holds exact numbers, not text."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected exact rational, got {type(x).__name__}")


def identity(n: int) -> Matrix:
    one, zero = Fraction(1), Fraction(0)
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


def zeros(r: int, c: int) -> Matrix:
    zero = Fraction(0)
    return tuple(tuple(zero for _ in range(c)) for _ in range(r))


# str() of an int refuses more than sys.get_int_max_str_digits() digits
# (4300 by default, never below 640), but exact coefficients can be longer.
# Integers above _CHUNK_BITS (fewer than 640 digits) are split in two by a
# power of ten, recursively, so the limit is never met or changed.
_CHUNK_BITS = 2000


def _decimal(n: int) -> str:
    """str(n) for an int of any length."""
    if n < 0:
        return "-" + _decimal(-n)
    if n.bit_length() <= _CHUNK_BITS:
        return str(n)
    half = n.bit_length() * 3 // 20  # about half of its decimal digits
    high, low = divmod(n, 10**half)
    return _decimal(high) + _decimal(low).zfill(half)


def format_rational(c) -> str:
    """str(c) for an exact rational of any length."""
    if c.denominator == 1:
        return _decimal(c.numerator)
    return f"{_decimal(c.numerator)}/{_decimal(c.denominator)}"


# ---------------------------------------------------------------------------
# Integer-scaled tensors for fast exact contractions.
# ---------------------------------------------------------------------------


def max_abs(array: np.ndarray) -> int:
    """Largest entry magnitude of an int64 or object integer array."""
    return int(np.abs(array).max()) if array.size else 0


def exact_dtype(bound: int, *arrays: np.ndarray):
    """int64 when a magnitude bound on every entry and partial sum stays
    below _INT64_SAFE and no operand is already object, else object
    (Python ints), so integer arithmetic never wraps."""
    if bound < _INT64_SAFE and all(a.dtype != object for a in arrays):
        return np.int64
    return object


def product_dtype(bound: int, *arrays: np.ndarray):
    """float64 when a magnitude bound on every operand entry and every
    partial sum of a product stays below _FLOAT64_EXACT and no operand is
    object, else exact_dtype(bound, *arrays)."""
    if bound < _FLOAT64_EXACT and all(a.dtype != object for a in arrays):
        return np.float64
    return exact_dtype(bound, *arrays)


def exact_matmul(a: np.ndarray, b: np.ndarray, bound: int) -> np.ndarray:
    """a @ b of integer arrays (int64 or object), exactly, for a bound on
    the magnitude of every entry of a and b and every partial sum of the
    product.  Below _FLOAT64_EXACT the product runs as a float64 matmul
    (BLAS): every product of two entries, every partial sum and every
    fused multiply-add result is then an integer below 2**53, which
    float64 holds exactly, whatever the summation order, blocking or
    thread count, so the cast back to int64 is exact.  Otherwise it runs
    in the dtype exact_dtype picks.  The result is int64 or object."""
    dtype = product_dtype(bound, a, b)
    out = a.astype(dtype, copy=False) @ b.astype(dtype, copy=False)
    return out.astype(np.int64) if dtype is np.float64 else out


def upper_indices(rows: int, k: int = 0, cols: int | None = None):
    """np.triu_indices(rows, k, cols), the (i, j) with j >= i + k in
    row-major order, from one boolean mask; triu_indices builds a whole
    triangular matrix first and costs several times more."""
    cols = rows if cols is None else cols
    return np.nonzero(np.arange(cols) >= np.arange(rows)[:, None] + k)


def primitive_columns(array: np.ndarray) -> np.ndarray:
    """Each column of an integer matrix divided by the gcd of its entries
    (a zero column stays zero), so that no column has a common factor."""
    content = np.gcd.reduce(array, axis=0)
    return array // np.where(content == 0, 1, content)


def _shape(nested) -> tuple[int, ...]:
    if isinstance(nested, (list, tuple)):
        if len(nested) == 0:
            return (0,)
        return (len(nested),) + _shape(nested[0])
    return ()


def _nest(flat: list, shape: tuple[int, ...]):
    """Nested tuples of the given shape over a flat row-major list."""
    if not shape:
        return flat[0]
    if not flat:
        return tuple(_nest([], shape[1:]) for _ in range(shape[0]))
    for size in reversed(shape[1:]):
        flat = [tuple(flat[i : i + size]) for i in range(0, len(flat), size)]
    return tuple(flat)


class ScaledTensor:
    """An exact rational tensor stored as integer_array / denom.

    The array dtype is int64 while magnitudes allow it and object (Python
    int) otherwise, so arithmetic never overflows silently.  The array is
    never written after construction: bound, the largest entry magnitude,
    is measured on first use and kept, or given by a constructor's caller
    that already knows it exactly.
    """

    __slots__ = ("array", "denom", "_bound")

    def __init__(
        self, array: np.ndarray, denom: int, bound: int | None = None
    ):
        if denom <= 0:
            raise ValueError("denominator must be positive")
        self.array = array
        self.denom = denom
        self._bound = bound

    @property
    def bound(self) -> int:
        """max_abs(self.array), measured once."""
        if self._bound is None:
            self._bound = max_abs(self.array)
        return self._bound

    @classmethod
    def from_nested(cls, nested, shape: tuple[int, ...] | None = None
                    ) -> "ScaledTensor":
        """Convert nested sequences of ints and Fractions (anything else
        raises TypeError).  An explicit shape gives empty data its full
        shape, e.g. (0, n, n) for no generators.  The data are flattened
        one nesting level per axis; ints and Fractions alike carry
        numerator and denominator, so neither is converted."""
        if shape is None:
            shape = _shape(nested)
        flat = nested
        for _ in shape[1:]:
            flat = chain.from_iterable(flat)
        vals = list(flat) if shape else [nested]
        if not {type(v) for v in vals} <= {int, Fraction}:
            for v in vals:
                _exact_scalar(v)
        den = lcm(*{v.denominator for v in vals})
        ints = [v.numerator * (den // v.denominator) for v in vals]
        big = max(map(abs, ints), default=0)
        arr = np.array(ints, dtype=exact_dtype(big))
        return cls(arr.reshape(shape), den, big)

    def to_fractions(self):
        """The entries as nested tuples of Fraction (a Fraction for a
        0-d tensor).  Equal numerators share one Fraction."""
        values = self.array.ravel().tolist()
        memo = {v: Fraction(int(v), self.denom) for v in set(values)}
        return _nest([memo[v] for v in values], self.array.shape)

    def __getitem__(self, index) -> "ScaledTensor":
        """The sub-tensor at a numpy index, over the same denominator."""
        return ScaledTensor(self.array[index], self.denom)

    def reduced(self) -> "ScaledTensor":
        """The tensor in canonical form: gcd(denom, every entry) divided
        out, and int64 whenever the reduced entries fit below _INT64_SAFE.
        Every entry is a multiple of the divisor, so a kept bound divides
        exactly too."""
        array, denom, bound = self.array, 1, self._bound
        content = int(np.gcd.reduce(array, axis=None))
        if content:
            common = gcd(self.denom, content)
            array, denom = array // common, self.denom // common
            if bound is not None:
                bound //= common
        if array.dtype == object:
            if bound is None:
                bound = max_abs(array)
            if bound < _INT64_SAFE:
                array = array.astype(np.int64)
        return ScaledTensor(array, denom, bound)

    def scale(self, c) -> "ScaledTensor":
        """c times the tensor for a rational c, promoted to Python ints
        when the scaled numerators could leave the int64 range."""
        c = Fraction(c)
        # At least 1: numpy refuses to multiply int64 by a too large int
        # even when every entry is zero.
        bound = max(self.bound, 1) * abs(c.numerator)
        dtype = exact_dtype(bound, self.array)
        return ScaledTensor(
            self.array.astype(dtype, copy=False) * c.numerator,
            self.denom * c.denominator,
            self.bound * abs(c.numerator),
        )

    def nonzero_rows(self) -> np.ndarray:
        """Boolean per index of the first axis: whether that slice holds a
        nonzero entry."""
        rest = tuple(range(1, self.array.ndim))
        return (self.array != 0).any(axis=rest)

    def is_zero(self) -> bool:
        return not self.array.any()

    def _combine(self, other: "ScaledTensor", sign: int) -> "ScaledTensor":
        """self + sign * other over the lcm of the two denominators."""
        if self.array.shape != other.array.shape:
            raise ValueError("tensor shapes differ")
        den = lcm(self.denom, other.denom)
        fa, fb = den // self.denom, den // other.denom
        a, b = self.array, other.array
        bound = max(self.bound, 1) * fa + max(other.bound, 1) * fb
        if exact_dtype(bound, a, b) is object:
            a, b = a.astype(object), b.astype(object)
        return ScaledTensor(np.asarray(a * fa + sign * (b * fb)), den)

    def __add__(self, other: "ScaledTensor") -> "ScaledTensor":
        return self._combine(other, 1)

    def __sub__(self, other: "ScaledTensor") -> "ScaledTensor":
        return self._combine(other, -1)

    def equals(self, other: "ScaledTensor") -> bool:
        """Exact comparison: the difference over a common denominator."""
        return (
            self.array.shape == other.array.shape and (self - other).is_zero()
        )


def exact_einsum(subscripts: str, *operands: ScaledTensor) -> ScaledTensor:
    """np.einsum over ScaledTensors, promoting to object dtype when an
    int64 result could overflow.  A pure index permutation of one operand
    ("iab->iba") is the transposed view over the same denominator: no
    copy, and one bound pass serves the operand and its view, which is
    safe because no ScaledTensor array is written after construction.
    Every other contraction reads each operand's kept bound."""
    in_part, arrow, out_spec = subscripts.partition("->")
    if (
        len(operands) == 1 and arrow
        and len(set(in_part)) == len(in_part)
        and sorted(in_part) == sorted(out_spec)
    ):
        (op,) = operands
        axes = tuple(in_part.index(ch) for ch in out_spec)
        return ScaledTensor(op.array.transpose(axes), op.denom, op.bound)
    # Conservative magnitude bound: product of entry maxima times the
    # total number of summed terms, the dimension of each summed letter
    # (one not in the output) counted at its first occurrence.
    denom = bound = 1
    shape: tuple[int, ...] = ()
    wide = False
    for op in operands:
        denom *= op.denom
        bound *= op.bound or 1
        shape += op.array.shape
        wide = wide or op.array.dtype.hasobject
    seen = out_spec
    for ch, dim in zip(in_part.replace(",", ""), shape):
        if ch not in seen:
            seen += ch
            bound *= dim or 1
    arrays = [op.array for op in operands]
    if wide or bound >= _INT64_SAFE:
        arrays = [a.astype(object) for a in arrays]
    return ScaledTensor(np.asarray(np.einsum(subscripts, *arrays)), denom)


def assemble(shape: tuple[int, ...], blocks) -> ScaledTensor:
    """A tensor of the given shape that is zero except for its blocks:
    each (index, tensor) pair writes the tensor at array[index], for any
    numpy index (slices or index arrays).  Every block is brought to the
    lcm of the block denominators, in int64 only when that stays safe."""
    den = lcm(1, *(t.denom for _, t in blocks))
    bound = max(
        (max(t.bound, 1) * (den // t.denom) for _, t in blocks),
        default=0,
    )
    dtype = exact_dtype(bound, *(t.array for _, t in blocks))
    out = np.zeros(shape, dtype=dtype)
    for index, t in blocks:
        out[index] = t.array.astype(dtype, copy=False) * (den // t.denom)
    return ScaledTensor(out, den)




Factor = tuple[ScaledTensor, tuple[Fraction, ...]]


def _fits_hadamard(a: ScaledTensor, extra: int = 0) -> bool:
    """Whether 2 H^2 < _INT64_SAFE for the numerators A (r, c) of a and
    the Hadamard bound H = prod_i max(1, |row_i|) of A, each squared row
    norm taken plus extra (1 for the rows of [A | I]).  Every minor of
    the matrix is at most H in magnitude, so every entry of a
    fraction-free elimination of it is too, and every p a - b c formed
    from them at most 2 H^2: the whole elimination then stays in int64
    with no bound per pivot.  False for object numerators, and when the
    squared norms could leave int64, so the caller keeps its per-pivot
    bounds."""
    array = a.array
    if array.dtype == object or (
        (a.bound**2 + extra) * array.shape[1] >= _INT64_SAFE
    ):
        return False
    square = 1
    for norm in np.einsum("ij,ij->i", array, array).tolist():
        square *= max(1, norm + extra)
        if 2 * square >= _INT64_SAFE:
            return False
    return True


def ldl(a: ScaledTensor) -> Factor:
    """a = L diag(d) L^T, L unit lower-triangular, as (L^-1, d) for a
    symmetric positive definite a (m, m).

    Fraction-free forward elimination (Bareiss) of [A | I], A the
    numerators of a, without row exchanges: step k replaces each row
    i > k by (p_k row_i - A_ik row_k) / p_{k-1}, where the pivot p_k is
    the leading principal minor of order k + 1 (p_{-1} = 1).  Each
    division is exact, and row k ends as p_{k-1} [diag(d') L^T | L^-1]_k
    with d' = d a.denom.  When the Hadamard bound of [A | I] passes
    (_fits_hadamard), the elimination runs in int64 with no further
    check; otherwise a step runs in int64 only while its products stay
    below _INT64_SAFE, which one magnitude pass over its rows k.. bounds,
    and once promoted the work stays object and needs no bound.  Raises
    ValueError at the first pivot that is not positive, which on a
    semidefinite a means that a is singular."""
    m = a.array.shape[0]
    work = np.concatenate([a.array, np.eye(m, dtype=np.int64)], axis=1)
    checked = not _fits_hadamard(a, 1)
    minors = [1]
    for k in range(m):
        pivot = int(work[k, k])
        if pivot <= 0:
            raise ValueError(f"matrix is not positive definite (pivot {k})")
        if k + 1 < m:
            if checked and work.dtype != object:
                mags = np.abs(work[k:])
                top, col = int(mags[1:].max()), int(mags[1:, k].max())
                bound = pivot * top + col * int(mags[0].max())
                work = work.astype(exact_dtype(bound), copy=False)
            # Views are taken after the promotion, or the step would wrap.
            rest, row = work[k + 1 :], work[k]
            step = pivot * rest - rest[:, k, None] * row
            work[k + 1 :] = step // minors[-1]
        minors.append(pivot)
    # Row k of L^-1 is row k of the right block over p_{k-1}, which that
    # row holds on the diagonal, so the gcd g_k of the row divides it.
    # Over p_{k-1} / g_k the row is in lowest terms, and over the lcm of
    # these the rows are the canonical tensor of reduced(), whose exact
    # bound the row maxima give.
    gcds = np.gcd.reduce(work[:, m:], axis=1)[:, None]
    right = work[:, m:] // gcds
    dens = [q // g for q, g in zip(minors, gcds.ravel().tolist())]
    common = lcm(*dens)
    mults = [common // d for d in dens]
    tops = np.abs(right).max(axis=1, initial=0).tolist()
    bound = max((t * c for t, c in zip(tops, mults)), default=0)
    dtype = exact_dtype(bound)
    back = right.astype(dtype) * np.array(mults, dtype)[:, None]
    return ScaledTensor(back, common, bound), tuple(
        Fraction(p, q * a.denom) for q, p in zip(minors, minors[1:])
    )


def solve(factor: Factor, b: ScaledTensor | None = None) -> ScaledTensor:
    """x = a^-1 b = L^-T diag(d)^-1 L^-1 b, in lowest terms, for the factor
    (L^-1, d) = ldl(a) of a (m, m) and b (m, r); b defaults to the
    identity, so solve(ldl(a)) is the inverse of a.  diag(d)^-1 scales
    row k by den(d_k) lcm(num(d)) / num(d_k), over lcm(num(d))."""
    back, pivots = factor
    right = back if b is None else exact_einsum("ij,jr->ir", back, b)
    common = lcm(*(x.numerator for x in pivots))
    mults = [x.denominator * (common // x.numerator) for x in pivots]
    bound = max(right.bound, 1) * max(mults, default=1)
    dtype = exact_dtype(bound, right.array)
    rows = right.array.astype(dtype, copy=False) * np.array(mults, dtype)[:, None]
    scaled = ScaledTensor(rows, right.denom * common)
    return exact_einsum("ki,kr->ir", back, scaled).reduced()


def nullspace(a: ScaledTensor) -> ScaledTensor:
    """A basis of {x : a x = 0} for a (r, c), as the columns of an integer
    tensor (c, k) over denominator 1, each column primitive.

    Fraction-free Gauss-Jordan elimination (Bareiss) of the integer
    numerators A of a, with full pivoting: step k takes, among the rows
    and columns not yet pivoted, the nonzero entry of smallest magnitude
    as its pivot p_k, and replaces every other row i by
    (p_k row_i - A_ic row_k) / p_{k-1} (p_{-1} = 1).  Each division is
    exact, every entry being a minor of A, and afterwards every pivot row
    holds the last pivot p on its own pivot column and zero on the
    others.  A free column f then gives the null vector with p at f, zero
    at the other free columns and -A_rf at the pivot column of each pivot
    row r.  Rows that become zero are dropped as they appear.  When the
    Hadamard bound of A passes (_fits_hadamard) the elimination runs in
    int64 throughout; otherwise a step runs in int64 only while its
    products stay below _INT64_SAFE."""
    cols = a.array.shape[1]
    work = a.array[a.nonzero_rows()]
    checked = not _fits_hadamard(a)
    pivots: list[int] = []
    last = 1
    while len(pivots) < len(work):
        k = len(pivots)
        mags = np.abs(work)
        top = int(mags.max())
        rest = mags[k:]
        row, col = divmod(int(np.where(rest == 0, top + 1, rest).argmin()), cols)
        if row:
            work[[k, k + row]] = work[[k + row, k]]
        pivot = int(work[k, col])
        if checked:
            # |pivot|, |A_ic| and |A_kj| are at most top.
            work = work.astype(exact_dtype(2 * top * top, work), copy=False)
        keep = work[k].copy()
        work = (pivot * work - work[:, col, None] * keep) // last
        work[k] = keep
        pivots.append(int(col))
        last = pivot
        live = work[k + 1 :].any(axis=1)
        if not live.all():
            work = np.concatenate([work[: k + 1], work[k + 1 :][live]])
    free = [j for j in range(cols) if j not in set(pivots)]
    out = np.zeros((cols, len(free)), dtype=work.dtype)
    sign = 1 if last > 0 else -1
    out[free, range(len(free))] = sign * last
    out[pivots] = -sign * work[:, free]
    return ScaledTensor(primitive_columns(out), 1)


def independent(stack: ScaledTensor) -> bool:
    """Whether the matrices stack[0], stack[1], ... are linearly
    independent: exactly when ldl factors their Gram matrix of entrywise
    inner products, which is positive semidefinite."""
    try:
        ldl(exact_einsum("iab,jab->ij", stack, stack))
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# Float views and the exact invariant split of a metric-skew stack
# ---------------------------------------------------------------------------


def float_stack(tensor: ScaledTensor, factor: Fraction) -> np.ndarray:
    """factor times the tensor's entries as floats, each correctly rounded
    by Python-int true division, as float(Fraction) rounds them."""
    num, den = factor.numerator, tensor.denom * factor.denominator
    flat = [x * num / den for x in tensor.array.ravel().tolist()]
    return np.array(flat, dtype=float).reshape(tensor.array.shape)


def near_unit(mat: ScaledTensor) -> tuple[np.ndarray, Fraction]:
    """mat / 4^k as floats and the exact 2^-k, for a power of four 4^k
    within a factor of 4 of the largest entry of mat: the floats stay in
    range however large or small the entries are, and a power of two adds
    no rounding."""
    top = Fraction(mat.bound, mat.denom)
    k = (top.numerator.bit_length() - top.denominator.bit_length()) // 2
    shrink = Fraction(1, 2**k) if k >= 0 else Fraction(2**-k)
    return float_stack(mat, shrink * shrink), shrink


# Largest denominator tried for a rational eigenvalue read off its float
# guess.  A wrong guess finds no eigenspace, since every candidate is
# checked exactly, so this bounds the work, not the correctness.
_EIGEN_DENOM = 2**16


def _restrict(
    gens: ScaledTensor, metric: ScaledTensor, basis: np.ndarray
) -> tuple[ScaledTensor, ScaledTensor]:
    """The stack and its metric on the span of the integer columns T of
    basis (d, r), a subspace every generator leaves invariant:
    G_i T = T H_i with H_i = (T^T M T)^-1 T^T M G_i T, and T^T M T."""
    t = ScaledTensor(basis, 1)
    left = exact_einsum("ba,bc->ac", t, metric)
    sub = exact_einsum("ac,cd->ad", left, t).reduced()
    rhs = exact_einsum(
        "iad,de->aie", exact_einsum("ac,icd->iad", left, gens), t
    )
    k, r = len(gens.array), basis.shape[1]
    h = solve(ldl(sub), ScaledTensor(rhs.array.reshape(r, k * r), rhs.denom))
    h_stack = h.array.reshape(r, k, r).transpose(1, 0, 2)
    return ScaledTensor(h_stack, h.denom), sub


def _complement(space: np.ndarray, metric: np.ndarray) -> np.ndarray:
    """Integer columns spanning the metric-orthogonal complement of the
    span of the integer columns of space."""
    bound = max_abs(space) * max_abs(metric) * len(space)
    return nullspace(
        ScaledTensor(exact_matmul(space.T, metric, bound), 1)
    ).array


def _commutant(gens: np.ndarray) -> np.ndarray:
    """A basis (m, r, r) of the integer symmetric Y with Y G antisymmetric
    for every G of the integer stack gens (k, r, r).

    For a metric M with every M G antisymmetric these Y are the M X of
    the M-self-adjoint X that commute with every G.  The conditions
    sym(Y G) = 0 on the r(r+1)/2 upper entries of Y are eliminated one
    generator at a time, on the solutions left by the earlier ones, so
    every system stays small.  M is always a solution, so the search
    stops when one is left."""
    r = gens.shape[-1]
    upper = upper_indices(r)
    u = len(upper[0])
    unit = np.zeros((u, r, r), dtype=np.int64)
    unit[np.arange(u), upper[0], upper[1]] = 1
    unit[np.arange(u), upper[1], upper[0]] = 1
    basis = np.eye(u, dtype=np.int64)
    for g in gens:
        prod = exact_einsum(
            "tac,cb->tab", ScaledTensor(unit, 1), ScaledTensor(g, 1)
        ).array
        eqs = (prod + prod.transpose(0, 2, 1))[:, upper[0], upper[1]].T
        top = max_abs(basis)
        bound = max_abs(eqs) * top * u
        null = nullspace(ScaledTensor(exact_matmul(eqs, basis, bound), 1))
        bound = top * null.bound * basis.shape[1]
        basis = primitive_columns(exact_matmul(basis, null.array, bound))
        if basis.shape[1] <= 1:
            break
    out = np.zeros((basis.shape[1], r, r), dtype=basis.dtype)
    out[:, upper[0], upper[1]] = basis.T
    out[:, upper[1], upper[0]] = basis.T
    return out


def _eigenspace(y: np.ndarray, metric: np.ndarray) -> np.ndarray | None:
    """A proper eigenspace {v : y v = lam metric v}, 0 < dim < r, of the
    integer pencil (y, metric), as integer columns (r, dim), or None.

    The candidates lam are 0 and the float eigenvalues of the pencil,
    each turned into the nearest Fraction of denominator at most
    _EIGEN_DENOM; each is tried exactly, as the nullspace of
    den(lam) y - num(lam) metric, in ascending order.  The metric is
    divided by its content first: a common factor c of its entries
    would multiply the denominators of the eigenvalues by c, past
    _EIGEN_DENOM, and it does not change an eigenspace."""
    metric = metric // np.gcd.reduce(metric, axis=None)
    ys, ms = ScaledTensor(y, 1), ScaledTensor(metric, 1)
    (yf, y_shrink), (mf, m_shrink) = near_unit(ys), near_unit(ms)
    try:
        inv = np.linalg.inv(np.linalg.cholesky(mf))
        guesses = np.linalg.eigvalsh(inv @ yf @ inv.T)
    except (np.linalg.LinAlgError, FloatingPointError):
        guesses = []
    # yf = y / y_shrink^2 and mf = metric / m_shrink^2.
    ratio = (m_shrink / y_shrink) ** 2
    candidates = {Fraction(0)} | {
        (Fraction(float(x)) * ratio).limit_denominator(_EIGEN_DENOM)
        for x in guesses
        if isfinite(x)
    }
    for lam in sorted(candidates):
        pencil = ys.scale(lam.denominator) - ms.scale(lam.numerator)
        space = nullspace(pencil).array
        if 0 < space.shape[1] < len(y):
            return space
    return None


def _split(
    gens: ScaledTensor, metric: ScaledTensor
) -> list[tuple[ScaledTensor, ScaledTensor]]:
    """The stack, of trivial common kernel, as (generators, metric) pairs
    on invariant subspaces whose direct sum is the whole space.  A
    proper eigenspace of an element of the commutant and its metric
    complement are both invariant, and each is split again; a stack
    whose commutant offers none stays whole.  So does one of size 4 or
    less: any split of a part of size 3 or less has a part of size 1, an
    invariant line, on which every metric-skew generator vanishes, which
    the trivial kernel rules out; and a skew 4 x 4 block has closed-form
    planes (averaging._Factor), so its split would buy nothing."""
    if len(metric.array) <= 4:
        return [(gens, metric)]
    commutant = _commutant(gens.array)
    for y in commutant if len(commutant) > 1 else ():
        space = _eigenspace(y, metric.array)
        if space is None:
            continue
        rest = _complement(space, metric.array)
        return [
            block
            for part in (space, rest)
            for block in _split(*_restrict(gens, metric, part))
        ]
    return [(gens, metric)]


def invariant_split(
    gens: ScaledTensor, metric: ScaledTensor
) -> list[tuple[ScaledTensor, ScaledTensor]]:
    """A stack (k, d, d) whose every metric . G is antisymmetric, split
    exactly into invariant blocks, as (generators, metric) pairs.

    The common kernel of the generators is dropped first: every factor
    matrix vanishes there, which contributes det 1 and top 0.  Its
    metric complement is invariant (G^T M = -M G), and _split divides it
    further by the commutant, leaving a part of size 4 or less whole.
    The blocks come in ascending size."""
    d = gens.array.shape[-1]
    kernel = nullspace(ScaledTensor(gens.array.reshape(-1, d), 1)).array
    if kernel.shape[1] == d:
        return []
    if kernel.shape[1]:
        gens, metric = _restrict(
            gens, metric, _complement(kernel, metric.array)
        )
    return sorted(_split(gens, metric), key=lambda pair: len(pair[1].array))
