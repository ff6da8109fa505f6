"""Exact rational linear algebra on small dense matrices and tensors.

A datum's matrices are immutable tuples of tuples of Fraction; identity
and zeros build the builtin data.  Every computation works on integer
tensors: each tensor is rescaled by the lcm of its entry denominators so
numpy can contract, scale and assemble int64 arrays, with an automatic
promotion to Python-int object arrays whenever a magnitude bound says
int64 could overflow.  exact_matmul runs a product on float64 BLAS when
its bound stays below 2**53, where float64 holds every integer exactly.
Every matrix inverted is a metric or a Gram matrix, so the one
factorization is ldl, a fraction-free LDL^T without row exchanges that
is also the positive-definiteness test; solve() applies its factor for
every exact inverse.  The one elimination of a general matrix is
nullspace, a fraction-free Gauss-Jordan with full pivoting, which the
numeric oracle's invariant split uses.  reduced() is the canonical form
(lowest terms, int64 whenever the entries fit).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

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


def primitive_columns(array: np.ndarray) -> np.ndarray:
    """Each column of an integer matrix divided by the gcd of its entries
    (a zero column stays zero), so that no column has a common factor."""
    content = np.gcd.reduce(array, axis=0)
    return array // np.where(content == 0, 1, content)


def _flatten(nested):
    if isinstance(nested, (list, tuple)):
        for item in nested:
            yield from _flatten(item)
    else:
        yield nested


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
    int) otherwise, so arithmetic never overflows silently.
    """

    __slots__ = ("array", "denom")

    def __init__(self, array: np.ndarray, denom: int):
        if denom <= 0:
            raise ValueError("denominator must be positive")
        self.array = array
        self.denom = denom

    @classmethod
    def from_nested(cls, nested, shape: tuple[int, ...] | None = None
                    ) -> "ScaledTensor":
        """Convert nested sequences of ints and Fractions (anything else
        raises TypeError).  An explicit shape gives empty data its full
        shape, e.g. (0, n, n) for no generators."""
        if shape is None:
            shape = _shape(nested)
        vals = [_exact_scalar(x) for x in _flatten(nested)]
        den = 1
        for v in vals:
            den = lcm(den, v.denominator)
        ints = [v.numerator * (den // v.denominator) for v in vals]
        big = max((abs(i) for i in ints), default=0)
        arr = np.empty(len(ints), dtype=exact_dtype(big))
        arr[:] = ints
        return cls(arr.reshape(shape), den)

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
        out, and int64 whenever the reduced entries fit below _INT64_SAFE."""
        array, denom = self.array, 1
        content = int(np.gcd.reduce(array, axis=None))
        if content:
            common = gcd(self.denom, content)
            array, denom = array // common, self.denom // common
        if array.dtype == object and max_abs(array) < _INT64_SAFE:
            array = array.astype(np.int64)
        return ScaledTensor(array, denom)

    def scale(self, c) -> "ScaledTensor":
        """c times the tensor for a rational c, promoted to Python ints
        when the scaled numerators could leave the int64 range."""
        c = Fraction(c)
        # At least 1: numpy refuses to multiply int64 by a too large int
        # even when every entry is zero.
        bound = max(max_abs(self.array), 1) * abs(c.numerator)
        dtype = exact_dtype(bound, self.array)
        return ScaledTensor(
            self.array.astype(dtype, copy=False) * c.numerator,
            self.denom * c.denominator,
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
        bound = max(max_abs(a), 1) * fa + max(max_abs(b), 1) * fb
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
    bound pass and no copy, which is safe because no ScaledTensor array
    is written after construction."""
    in_part, arrow, out_spec = subscripts.partition("->")
    if (
        len(operands) == 1 and arrow
        and len(set(in_part)) == len(in_part)
        and sorted(in_part) == sorted(out_spec)
    ):
        (op,) = operands
        axes = tuple(in_part.index(ch) for ch in out_spec)
        return ScaledTensor(op.array.transpose(axes), op.denom)
    arrays = [op.array for op in operands]
    denom = 1
    for op in operands:
        denom *= op.denom
    # Conservative magnitude bound: product of entry maxima times the
    # total number of summed terms.
    bound = 1
    for op in operands:
        bound *= max(max_abs(op.array), 1)
    sizes: dict[str, int] = {}
    for spec, arr in zip(in_part.split(","), arrays):
        for ch, dim in zip(spec, arr.shape):
            sizes[ch] = dim
    for ch, dim in sizes.items():
        if ch not in out_spec:
            bound *= max(dim, 1)
    if exact_dtype(bound, *arrays) is object:
        arrays = [a.astype(object) for a in arrays]
    result = np.einsum(subscripts, *arrays)
    return ScaledTensor(np.asarray(result), denom)


def assemble(shape: tuple[int, ...], blocks) -> ScaledTensor:
    """A tensor of the given shape that is zero except for its blocks:
    each (index, tensor) pair writes the tensor at array[index], for any
    numpy index (slices or index arrays).  Every block is brought to the
    lcm of the block denominators, in int64 only when that stays safe."""
    den = lcm(1, *(t.denom for _, t in blocks))
    bound = max(
        (max(max_abs(t.array), 1) * (den // t.denom) for _, t in blocks),
        default=0,
    )
    dtype = exact_dtype(bound, *(t.array for _, t in blocks))
    out = np.zeros(shape, dtype=dtype)
    for index, t in blocks:
        out[index] = t.array.astype(dtype, copy=False) * (den // t.denom)
    return ScaledTensor(out, den)




Factor = tuple[ScaledTensor, tuple[Fraction, ...]]


def _scale_rows(t: ScaledTensor, factors: list[Fraction]) -> ScaledTensor:
    """diag(factors) t, reduced: row k of the matrix t times factors[k]."""
    common = lcm(1, *(f.denominator for f in factors))
    mults = [f.numerator * (common // f.denominator) for f in factors]
    bound = max(max_abs(t.array), 1) * max(map(abs, mults), default=1)
    dtype = exact_dtype(bound, t.array)
    rows = t.array.astype(dtype, copy=False) * np.array(mults, dtype)[:, None]
    return ScaledTensor(rows, t.denom * common).reduced()


def ldl(a: ScaledTensor) -> Factor:
    """a = L diag(d) L^T, L unit lower-triangular, as (L^-1, d) for a
    symmetric positive definite a (m, m).

    Fraction-free forward elimination (Bareiss) of [A | I], A the
    numerators of a, without row exchanges: step k replaces each row
    i > k by (p_k row_i - A_ik row_k) / p_{k-1}, where the pivot p_k is
    the leading principal minor of order k + 1 (p_{-1} = 1).  Each
    division is exact, and row k ends as p_{k-1} [diag(d') L^T | L^-1]_k
    with d' = d a.denom.  A step runs in int64 only while its products
    stay below _INT64_SAFE.  Raises ValueError at the first pivot that is
    not positive, which on a semidefinite a means that a is singular."""
    m = a.array.shape[0]
    work = np.concatenate([a.array, np.eye(m, dtype=np.int64)], axis=1)
    minors = [1]
    for k in range(m):
        pivot = int(work[k, k])
        if pivot <= 0:
            raise ValueError(f"matrix is not positive definite (pivot {k})")
        rest = work[k + 1 :]
        bound = pivot * max_abs(rest) + max_abs(rest[:, k]) * max_abs(work[k])
        work = work.astype(exact_dtype(bound, work), copy=False)
        # Views are taken after the promotion, or the step would wrap.
        rest, row = work[k + 1 :], work[k]
        work[k + 1 :] = (pivot * rest - rest[:, k, None] * row) // minors[-1]
        minors.append(pivot)
    back = _scale_rows(
        ScaledTensor(work[:, m:], 1), [Fraction(1, q) for q in minors[:-1]]
    )
    return back, tuple(
        Fraction(p, q * a.denom) for q, p in zip(minors, minors[1:])
    )


def solve(factor: Factor, b: ScaledTensor | None = None) -> ScaledTensor:
    """x = a^-1 b = L^-T diag(d)^-1 L^-1 b, in lowest terms, for the factor
    (L^-1, d) = ldl(a) of a (m, m) and b (m, r); b defaults to the
    identity, so solve(ldl(a)) is the inverse of a."""
    back, pivots = factor
    right = back if b is None else exact_einsum("ij,jr->ir", back, b)
    scaled = _scale_rows(right, [1 / x for x in pivots])
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
    row r.  Rows that become zero are dropped as they appear, and a step
    runs in int64 only while its products stay below _INT64_SAFE."""
    cols = a.array.shape[1]
    work = a.array[a.nonzero_rows()]
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
