"""Algebraic curvature data of symmetric spaces and its consistency checks.

A space enters as the tuple (g, beta, E): a flat metric g on the tangent
directions, an inner product beta on the holonomy directions, and a family
of antisymmetric generator matrices E^i that reconstruct the curvature as
R_abcd = beta_ik E^i_ab E^k_cd.  From this datum the module derives the
connection generators D_i, their structure constants F, and the combined
motion-algebra matrices C_A, then checks the identities that characterise
a locally symmetric space.  All of it is exact arithmetic on
integer-scaled tensors (rational.ScaledTensor): a datum is converted
once, at construction, and a realization holds nothing but tensors
(HolonomyRealization), so its fields are the one copy of derived data.
Construction checks shapes, MAX_CHECK_ENTRIES, exact entries and the
symmetries, and eliminates nothing: prepare() factors each metric by
rational.ldl, its definiteness test, and the Gram matrix of D, the one
test of independence.  The structural checks form each contraction
once: Jacobi and integrability one matrix product each through
rational.exact_matmul (float64 BLAS below 2**53, exact in any summation
order), the generator identity one per side.  Every other term is a
transposed view of one of these, never a copy, and _vanishes adds the
views in the dtype exact_dtype picks for the number of terms times the
entry bound.  prepare() runs derivation, checks and curvature scalars
once per datum, and alone turns failed checks into ValidationError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import rational
from .errors import (
    CommutatorOutsideSpan,
    DegenerateBasis,
    InternalInconsistency,
    InvalidSpaceSpec,
    ValidationError,
)
from .rational import (
    Factor,
    Matrix,
    ScaledTensor,
    assemble,
    exact_dtype,
    exact_einsum,
    exact_matmul,
    max_abs,
    upper_indices,
)

__all__ = [
    "SpaceSpec",
    "SpecTensors",
    "HolonomyRealization",
    "CheckResult",
    "ValidationReport",
    "CurvatureReport",
    "derive_holonomy",
    "validate_symmetric_space",
    "curvature_scalars",
    "Prepared",
    "prepare",
]

# Most entries of a check tensor: Jacobi's (N^2, N^2) product, N = n + p,
# or integrability's (n^3, n^3).  A check holds two arrays of that size
# at once, the float64 product and its int64 cast, then the product and
# the signed sum: 64 MB at the limit (32 MB each), which tracemalloc
# measures for validate_symmetric_space on n = 9, p = 36 (66.3 MB).  S6's
# Jacobi has 21^4 entries.
MAX_CHECK_ENTRIES = 2**22


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named consistency check."""

    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    """Pass/fail results for the structural identity checks of a datum."""

    space: str
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.passed)


@dataclass(frozen=True)
class SpecTensors:
    """A datum as exact integer-scaled tensors, converted once: the
    metric g and its inverse ginv (n, n), beta, its ldl factor and its
    inverse (p, p), the generators E (p, n, n) and the curvature riemann
    (n, n, n, n), R_abcd = beta_ik E^i_ab E^k_cd."""

    g: ScaledTensor
    ginv: ScaledTensor
    beta: ScaledTensor
    beta_ldl: Factor
    beta_inv: ScaledTensor
    E: ScaledTensor
    riemann: ScaledTensor


@dataclass(frozen=True)
class SpaceSpec:
    """Exact algebraic curvature datum of a candidate symmetric space.

    n is the tangent dimension, p the number of holonomy generators.  g is
    the n-by-n metric, beta the p-by-p generator inner product, and E the
    p generator matrices, each n-by-n antisymmetric.  Construction checks
    the shapes, MAX_CHECK_ENTRIES, exact entries and the symmetries;
    definiteness, independence and the Lie identities are prepare()'s.
    """

    name: str
    n: int
    p: int
    g: Matrix
    beta: Matrix
    E: tuple[Matrix, ...]

    def __post_init__(self):
        if self.n < 0 or self.p < 0:
            raise InvalidSpaceSpec("dimensions must be nonnegative")
        if len(self.g) != self.n or any(len(r) != self.n for r in self.g):
            raise InvalidSpaceSpec("g must be n-by-n")
        if len(self.beta) != self.p or any(
            len(r) != self.p for r in self.beta
        ):
            raise InvalidSpaceSpec("beta must be p-by-p")
        if len(self.E) != self.p:
            raise InvalidSpaceSpec("expected one generator matrix per p")
        for i, mat in enumerate(self.E):
            if len(mat) != self.n or any(len(r) != self.n for r in mat):
                raise InvalidSpaceSpec(f"generator {i} must be n-by-n")
        # Integrability builds n^6 entries when p > 0, and Jacobi (n+p)^4.
        n, p = self.n, self.p
        entries = max(n**6 if p else 0, (n + p) ** 4)
        if entries > MAX_CHECK_ENTRIES:
            raise InvalidSpaceSpec(
                f"{self.name}: n={n}, p={p} needs check tensors of "
                f"{entries} entries, past the limit of {MAX_CHECK_ENTRIES}"
            )
        g, beta, E = self._exact
        skew = (E + exact_einsum("iab->iba", E)).nonzero_rows()
        if skew.any():
            first = int(skew.argmax())
            raise InvalidSpaceSpec(f"generator {first} is not antisymmetric")
        for label, mat in (("g", g), ("beta", beta)):
            if not np.array_equal(mat.array, mat.array.T):
                raise InvalidSpaceSpec(f"{label} is not symmetric")

    @cached_property
    def _exact(self) -> tuple[ScaledTensor, ScaledTensor, ScaledTensor]:
        """g, beta and E as tensors, converted once, at construction,
        which names the field of any entry that is not exact."""
        n, p = self.n, self.p
        out = []
        for key, shape in (("g", (n, n)), ("beta", (p, p)), ("E", (p, n, n))):
            try:
                out.append(ScaledTensor.from_nested(getattr(self, key), shape))
            except TypeError as exc:
                raise InvalidSpaceSpec(f"{key}: {exc}") from None
        return tuple(out)

    @cached_property
    def tensors(self) -> SpecTensors:
        """The datum's tensors, built on first use and kept: derivation,
        checks and curvature scalars all read these.  InvalidSpaceSpec
        names a metric that is not positive definite."""
        g, beta, E = self._exact
        g_ldl, beta_ldl = _definite("g", g), _definite("beta", beta)
        return SpecTensors(
            g=g,
            ginv=rational.solve(g_ldl),
            beta=beta,
            beta_ldl=beta_ldl,
            beta_inv=rational.solve(beta_ldl),
            E=E,
            riemann=exact_einsum("ik,iab,kcd->abcd", beta, E, E),
        )


def _definite(label: str, metric: ScaledTensor) -> Factor:
    """ldl(metric), which exists exactly when it is positive definite."""
    try:
        return rational.ldl(metric)
    except ValueError:
        raise InvalidSpaceSpec(f"{label} is not positive definite") from None


@dataclass(frozen=True, eq=False)
class HolonomyRealization:
    """Connection generators derived from a SpaceSpec, as exact tensors.

    D (p, n, n) holds the p tangent-space generators, F (p, p, p) their
    structure constants with F[j, i, k] the coefficient of D_j in
    [D_i, D_k], and C (n+p, n+p, n+p) the combined generator matrices,
    translations first.  F_mats and the Cartan data torus are derived
    from F on first use and kept.
    """

    n: int
    p: int
    D: ScaledTensor
    F: ScaledTensor
    C: ScaledTensor

    @cached_property
    def F_mats(self) -> ScaledTensor:
        """Structure constants repackaged as matrices acting on holonomy
        indices: F_mats[i, j, k] = F[j, i, k] multiplies D_j in
        [D_i, D_k]."""
        return exact_einsum("jik->ijk", self.F)

    @cached_property
    def torus(self) -> ScaledTensor:
        """An integer basis (r, p), over denominator 1, of a maximal
        abelian subalgebra of h: its rows u_j commute, and every element
        that commutes with all of them lies in their span.

        The generators are first kept greedily: D_i joins when its
        structure constants F_mats[i][:, k] vanish against every
        generator k kept so far.  Then, while the centraliser of the
        span, the nullspace of the stacked ad(u_j) = sum_i u_ji F_mats[i],
        is larger than the span, one of its columns independent of the
        span joins.  A validated datum has a beta-invariant h, so h is
        compact and this is a Cartan subalgebra, of dimension rank h.
        For an abelian h the basis is the identity."""
        p, F = self.p, self.F_mats
        kept: list[int] = []
        for i in range(p):
            if not F.array[i][:, kept].any():
                kept.append(i)
        basis = np.eye(p, dtype=np.int64)[kept]
        while len(basis) < p:
            ads = exact_einsum("ji,iab->jab", ScaledTensor(basis, 1), F)
            stacked = ScaledTensor(ads.array.reshape(-1, p), 1)
            centraliser = rational.nullspace(stacked).array
            if centraliser.shape[1] == len(basis):
                break
            for column in centraliser.T:
                grown = np.vstack([basis, column[None]])
                if rational.independent(ScaledTensor(grown[:, :, None], 1)):
                    basis = grown
                    break
        return ScaledTensor(basis, 1)


def derive_holonomy(spec: SpaceSpec) -> HolonomyRealization:
    """Derive connection generators, structure constants, and the combined
    motion-algebra matrices from a curvature datum.

    D_i = -g^{-1} (sum_k beta_ik E^k).  The structure constants come from
    an exact solve of [D_i, D_k] against the D basis, not from any assumed
    form: the Gram system G F_ik = (tr(D_j^T [D_i, D_k]))_j with
    G_jk = tr(D_j^T D_k), which rational.ldl factors exactly when the D's
    are independent, followed by the reconstruction sum_j F^j_ik D_j =
    [D_i, D_k].  D is an invertible image of E, so this is the one test
    that the E's are independent: DegenerateBasis if not,
    CommutatorOutsideSpan, naming the first pair (i, k) in order, if the
    D's fail to close.  All of it is integer-scaled tensor arithmetic on
    spec.tensors.
    """
    n, p = spec.n, spec.p
    st = spec.tensors
    D = exact_einsum("ab,ik,kbc->iac", st.ginv, st.beta, st.E).scale(-1)
    D = D.reduced()  # small numerators keep the later products in int64

    first, second = upper_indices(p, 1)
    left, right = D[first], D[second]
    comms = exact_einsum("qab,qbc->qac", left, right) - exact_einsum(
        "qab,qbc->qac", right, left
    )
    try:
        gram = rational.ldl(exact_einsum("jab,kab->jk", D, D))
    except ValueError:
        raise DegenerateBasis(
            "redundant holonomy generators: the E matrices, and so the "
            "connection generators, are linearly dependent"
        ) from None
    coeffs = rational.solve(gram, exact_einsum("jab,qab->jq", D, comms))
    outside = (exact_einsum("jq,jab->qab", coeffs, D) - comms).nonzero_rows()
    if outside.any():
        q = int(np.flatnonzero(outside)[0])
        raise CommutatorOutsideSpan(
            f"[D_{first[q]}, D_{second[q]}] is not a combination of the D "
            f"generators"
        )
    F = assemble((p, p, p), [
        ((slice(None), first, second), coeffs),
        ((slice(None), second, first), coeffs.scale(-1)),
    ])

    N = n + p
    tangent, holonomy = slice(0, n), slice(n, N)
    C = assemble((N, N, N), [
        ((tangent, tangent, holonomy), exact_einsum("iba->abi", D).scale(-1)),
        ((tangent, holonomy, tangent), exact_einsum("iab->aib", st.E)),
        ((holonomy, tangent, tangent), D),
        ((holonomy, holonomy, holonomy), exact_einsum("jik->ijk", F)),
    ])
    return HolonomyRealization(n=n, p=p, D=D, F=F, C=C)


def _vanishes(array: np.ndarray, bound: int, *terms) -> bool:
    """Whether array + sum of sign * array.transpose(axes) over the terms
    (sign, axes) is zero, for a bound on the magnitude of every entry of
    the integer array.  The sum runs in the dtype exact_dtype picks for
    the number of terms times the bound, so int64 never wraps."""
    a = array.astype(exact_dtype((1 + len(terms)) * bound, array), copy=False)
    acc = a.copy()
    for sign, axes in terms:
        (np.add if sign > 0 else np.subtract)(acc, a.transpose(axes), out=acc)
    return not acc.any()


def _check_generator_identity(spec: SpaceSpec, hol: HolonomyRealization) -> CheckResult:
    """E^i_bc D^c_ka - E^i_ac D^c_kb = E^j_ab F^i_jk for all i, k, a, b."""
    name = "generator_connection_identity"
    if spec.p == 0:
        return CheckResult(name, True, "no holonomy generators; vacuous")
    E, D, F = spec.tensors.E, hol.D, hol.F
    # The second term is the first with a and b swapped.
    lhs = exact_einsum("ibc,kca->ikab", E, D)
    # F[j][i][k] is the D_j coefficient in [D_i, D_k]; the right side wants
    # the free holonomy index up, i.e. F^i_jk.
    rhs = exact_einsum("jab,ijk->ikab", E, F)
    ok = (lhs - exact_einsum("ikab->ikba", lhs)).equals(rhs)
    return CheckResult(
        name, ok, "holds" if ok else "generator/connection intertwining fails"
    )


def _check_integrability(spec: SpaceSpec) -> CheckResult:
    """The curvature operator annihilates the curvature tensor:
    R_fgea R^e_bcd - R_fgeb R^e_acd + R_fgec R^e_dab - R_fged R^e_cab = 0.

    All four terms are index permutations of one contraction
    U_fgxbcd = R_fgex R^e_bcd, one (n^3, n) @ (n, n^3) product."""
    name = "curvature_integrability"
    n = spec.n
    if spec.p == 0 or n == 0:
        return CheckResult(name, True, "flat datum; vacuous")
    riemann, ginv = spec.tensors.riemann, spec.tensors.ginv
    R, top = riemann.array, riemann.bound
    Rup = exact_matmul(ginv.array, R.reshape(n, n**3), ginv.bound * top * n)
    bound = top * max_abs(Rup) * n
    U = exact_matmul(R.transpose(0, 1, 3, 2).reshape(n**3, n), Rup, bound)
    ok = _vanishes(
        U.reshape((n,) * 6), bound,
        (-1, (0, 1, 3, 2, 4, 5)),
        (1, (0, 1, 4, 5, 2, 3)),
        (-1, (0, 1, 4, 5, 3, 2)),
    )
    return CheckResult(
        name, ok, "holds" if ok else "curvature is not parallel"
    )


def _check_structure_jacobi(hol: HolonomyRealization) -> CheckResult:
    """Jacobi identity for the combined structure constants read off the
    C matrices: sum over cyclic permutations of C^E_AD C^D_BC vanishes.

    The three cyclic terms are index permutations of one contraction
    j_abce = C_aed C_bdc, one (N^2, N) @ (N, N^2) product."""
    name = "structure_jacobi"
    N = hol.n + hol.p
    if N == 0:
        return CheckResult(name, True, "empty algebra; vacuous")
    C = hol.C.array
    bound = hol.C.bound**2 * N
    prod = exact_matmul(
        C.reshape(N * N, N), C.transpose(1, 0, 2).reshape(N, N * N), bound
    )
    # prod[(a, e), (b, c)] = j_abce
    j = prod.reshape((N,) * 4).transpose(0, 2, 3, 1)
    ok = _vanishes(j, bound, (1, (2, 0, 1, 3)), (1, (1, 2, 0, 3)))
    return CheckResult(
        name, ok, "holds" if ok else "combined structure constants fail Jacobi"
    )


def _check_riemann_symmetries(spec: SpaceSpec) -> CheckResult:
    """Antisymmetry in both pairs, pair exchange, and the first Bianchi
    identity for the reconstructed tensor."""
    name = "riemann_symmetries"
    if spec.p == 0 or spec.n == 0:
        return CheckResult(name, True, "flat datum; vacuous")
    R, top = spec.tensors.riemann.array, spec.tensors.riemann.bound
    identities = (
        ("antisymmetry in the first pair", ((1, (1, 0, 2, 3)),)),
        ("antisymmetry in the second pair", ((1, (0, 1, 3, 2)),)),
        ("pair exchange symmetry", ((-1, (2, 3, 0, 1)),)),
        ("first Bianchi identity", ((1, (0, 2, 3, 1)), (1, (0, 3, 1, 2)))),
    )
    failures = [
        label for label, terms in identities
        if not _vanishes(R, top, *terms)
    ]
    ok = not failures
    return CheckResult(name, ok, "holds" if ok else "; ".join(failures))


def validate_symmetric_space(
    spec: SpaceSpec, hol: HolonomyRealization
) -> ValidationReport:
    """Run the four structural identity checks and report each outcome.

    A failing check never raises here; callers that need a hard error can
    inspect the report.  The checks read D, F and C from the supplied
    realization's fields, the only copy it holds, so stale structure
    constants are detected however it was built: by derive_holonomy,
    its constructor or dataclasses.replace.
    """
    checks = (
        _check_generator_identity(spec, hol),
        _check_integrability(spec),
        _check_structure_jacobi(hol),
        _check_riemann_symmetries(spec),
    )
    return ValidationReport(space=spec.name, checks=checks)


@dataclass(frozen=True)
class CurvatureReport:
    """Exact Ricci tensor and scalar invariants of a validated datum; the
    Riemann tensor is spec.tensors.riemann."""

    space: str
    ricci: ScaledTensor
    R: Fraction
    R_H: Fraction
    R_G: Fraction


def curvature_scalars(spec: SpaceSpec, hol: HolonomyRealization) -> CurvatureReport:
    """Compute Ricci, the scalar curvature R, the holonomy scalar R_H, and
    the combined scalar R_G, cross-checking R_G two independent ways.

    R_H = -(1/4) beta^{ik} tr(F_i F_k) and the combined scalar identity
    R_G = (3/4) R + R_H must agree with the direct contraction of the C
    matrices against the block-diagonal metric g + beta on the combined
    index; disagreement raises InternalInconsistency.
    """
    n, p = spec.n, spec.p
    st = spec.tensors
    ricci = exact_einsum("cd,dacb->ab", st.ginv, st.riemann)
    R = exact_einsum("ab,ab->", st.ginv, ricci).to_fractions()
    # tr(F_i F_k) contracted against beta^{ik}, and tr(C_A C_B) against
    # the inverse of the combined metric.
    R_H = -exact_einsum(
        "ik,ijl,klj->", st.beta_inv, hol.F_mats, hol.F_mats
    ).to_fractions() / 4
    N = n + p
    combined_inv = assemble((N, N), [
        ((slice(0, n), slice(0, n)), st.ginv),
        ((slice(n, N), slice(n, N)), st.beta_inv),
    ])
    R_G_direct = -exact_einsum(
        "AB,Axy,Byx->", combined_inv, hol.C, hol.C
    ).to_fractions() / 4
    R_G = Fraction(3, 4) * R + R_H
    if R_G != R_G_direct:
        raise InternalInconsistency(
            f"combined scalar mismatch for {spec.name}: "
            f"(3/4)R + R_H = {R_G} but the direct contraction gives "
            f"{R_G_direct}"
        )
    return CurvatureReport(spec.name, ricci, R, R_H, R_G)


@dataclass(frozen=True)
class Prepared:
    """A validated curvature datum with everything derived from it once:
    the holonomy realization, the passed structural checks and the exact
    curvature scalars.  Every exact and numeric computation of a space
    starts from one of these; build it with prepare()."""

    spec: SpaceSpec
    hol: HolonomyRealization
    validation: ValidationReport
    curv: CurvatureReport


def prepare(spec: SpaceSpec | Prepared) -> Prepared:
    """Derive the holonomy, run the structural checks and compute the
    curvature scalars of a datum, once.

    Raises InvalidSpaceSpec for a metric that is not positive definite,
    DegenerateBasis for dependent generators, CommutatorOutsideSpan when
    they do not close, and ValidationError, carrying the report, when a
    check fails; the check tensors fit MAX_CHECK_ENTRIES, which SpaceSpec
    enforces.  A
    Prepared passes through unchanged, so a caller that already holds one
    does not repeat the work.
    """
    if isinstance(spec, Prepared):
        return spec
    hol = derive_holonomy(spec)
    validation = validate_symmetric_space(spec, hol)
    if not validation.all_passed:
        raise ValidationError(
            f"{spec.name}: structural checks failed: "
            + ", ".join(validation.failed_names()),
            report=validation,
        )
    return Prepared(spec, hol, validation, curvature_scalars(spec, hol))


def check_skew(prep: Prepared) -> None:
    """Every raw generator is skew for its metric, exactly: g D_i and
    beta F_i antisymmetric; InternalInconsistency otherwise, which no
    validated datum allows.  g D_i = -beta_ik E^k, and integrability
    makes each curvature operator, so each D_i (beta is nonsingular),
    annihilate R = sum_jl beta^{jl} (g D_j) (x) (g D_l) as a derivation:
    the D_m (x) D_l coefficients of D_i . R are (F_i beta^{-1} +
    beta^{-1} F_i^T)_ml.  Skewness for a fixed metric is linear, so every
    whitened or torus-restricted stack is skew too."""
    tensors, hol = prep.spec.tensors, prep.hol
    for name, gens, label, metric in (
        ("D", hol.D, "g", tensors.g), ("F", hol.F_mats, "beta", tensors.beta)
    ):
        bound = max(metric.bound, 1) * max(gens.bound, 1) * len(metric.array)
        lowered = exact_matmul(metric.array, gens.array, bound)
        if not _vanishes(lowered, bound, (1, (0, 2, 1))):
            raise InternalInconsistency(
                f"{prep.spec.name}: the generators {name}_i are not skew for "
                f"their metric (not {label}-antisymmetric)"
            )
