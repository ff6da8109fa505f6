"""Algebraic curvature data of symmetric spaces and its consistency checks.

A space enters as the tuple (g, beta, E): a flat metric g on the tangent
directions, an inner product beta on the holonomy directions, and a family
of antisymmetric generator matrices E^i that reconstruct the curvature as
R_abcd = beta_ik E^i_ab E^k_cd.  From this datum the module derives the
connection generators D_i, their structure constants F, and the combined
motion-algebra matrices C_A, then checks the identities that characterise
a locally symmetric space.  All of it is exact rational arithmetic.
prepare() runs derivation, checks and curvature scalars once per datum
and is the one place that turns a failed check into ValidationError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import rational
from .errors import (
    CommutatorOutsideSpan,
    DegenerateBasis,
    InternalInconsistency,
    InvalidSpaceSpec,
    ValidationError,
)
from .rational import Matrix, ScaledTensor, exact_einsum

__all__ = [
    "SpaceSpec",
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
class SpaceSpec:
    """Exact algebraic curvature datum of a candidate symmetric space.

    n is the tangent dimension, p the number of holonomy generators.  g is
    the n-by-n metric, beta the p-by-p generator inner product, and E the
    p generator matrices, each n-by-n antisymmetric.  Construction enforces
    the structural requirements; the deeper Lie-algebraic identities are
    the validator's job.
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
            if not rational.is_antisymmetric(mat):
                raise InvalidSpaceSpec(f"generator {i} is not antisymmetric")
        if not rational.is_symmetric(self.g):
            raise InvalidSpaceSpec("g is not symmetric")
        if not rational.is_symmetric(self.beta):
            raise InvalidSpaceSpec("beta is not symmetric")
        if self.n and not rational.is_positive_definite(self.g):
            raise InvalidSpaceSpec("g is not positive definite")
        if self.p and not rational.is_positive_definite(self.beta):
            raise InvalidSpaceSpec("beta is not positive definite")
        if self.p:
            rank, _ = rational.span_decompose(self.E, ())
            if rank < self.p:
                raise InvalidSpaceSpec(
                    "redundant holonomy generators: the E matrices are "
                    "linearly dependent"
                )


@dataclass(frozen=True)
class HolonomyRealization:
    """Connection generators derived from a SpaceSpec.

    D holds the p tangent-space generators, F their structure constants
    with F[j][i][k] the coefficient of D_j in [D_i, D_k].  gamma is the
    block inner product on the combined (tangent + holonomy) index, and C
    the combined generator matrices, translations first.
    """

    n: int
    p: int
    D: tuple[Matrix, ...]
    F: tuple[tuple[tuple[Fraction, ...], ...], ...]
    gamma: Matrix
    C: tuple[Matrix, ...]

    @property
    def F_mats(self) -> tuple[Matrix, ...]:
        """Structure constants repackaged as matrices acting on holonomy
        indices: (F_i)[j][k] multiplies D_j in [D_i, D_k]."""
        p = self.p
        return tuple(
            tuple(tuple(self.F[j][i][k] for k in range(p)) for j in range(p))
            for i in range(p)
        )


def derive_holonomy(spec: SpaceSpec) -> HolonomyRealization:
    """Derive connection generators, structure constants, and the combined
    motion-algebra matrices from a curvature datum.

    D_i = -g^{-1} (sum_k beta_ik E^k); the structure constants come from an
    exact linear solve of [D_i, D_k] against the D basis, not from any
    assumed form.  Raises CommutatorOutsideSpan if the D's fail to close,
    DegenerateBasis if they are linearly dependent.
    """
    n, p = spec.n, spec.p
    ginv = rational.inverse(spec.g) if n else ()
    D = []
    for i in range(p):
        acc = rational.zeros(n, n)
        for k in range(p):
            if spec.beta[i][k]:
                acc = rational.add(
                    acc, rational.scale(spec.E[k], spec.beta[i][k])
                )
        D.append(rational.scale(rational.matmul(ginv, acc), Fraction(-1)))
    D = tuple(D)

    pairs = [(i, k) for i in range(p) for k in range(i + 1, p)]
    comms = [rational.commutator(D[i], D[k]) for i, k in pairs]
    rank, coeffs = rational.span_decompose(D, comms)
    if p and rank < p:
        raise DegenerateBasis(
            "connection generators are linearly dependent; structure "
            "constants are not well defined"
        )
    zero = Fraction(0)
    F = [[[zero] * p for _ in range(p)] for _ in range(p)]
    for (i, k), sol in zip(pairs, coeffs):
        if sol is None:
            raise CommutatorOutsideSpan(
                f"[D_{i}, D_{k}] is not a combination of the D generators"
            )
        for j in range(p):
            F[j][i][k] = sol[j]
            F[j][k][i] = -sol[j]
    F = tuple(tuple(tuple(row) for row in mat) for mat in F)

    N = n + p
    gamma = [[zero] * N for _ in range(N)]
    for a in range(n):
        for b in range(n):
            gamma[a][b] = spec.g[a][b]
    for i in range(p):
        for k in range(p):
            gamma[n + i][n + k] = spec.beta[i][k]
    gamma = tuple(tuple(row) for row in gamma)

    C = []
    for a in range(n):
        mat = [[zero] * N for _ in range(N)]
        for b in range(n):
            for i in range(p):
                mat[b][n + i] = -D[i][b][a]
                mat[n + i][b] = spec.E[i][a][b]
        C.append(tuple(tuple(row) for row in mat))
    for i in range(p):
        mat = [[zero] * N for _ in range(N)]
        for a in range(n):
            for b in range(n):
                mat[a][b] = D[i][a][b]
        for j in range(p):
            for k in range(p):
                mat[n + j][n + k] = F[j][i][k]
        C.append(tuple(tuple(row) for row in mat))

    return HolonomyRealization(n=n, p=p, D=D, F=F, gamma=gamma, C=tuple(C))


def reconstructed_riemann(spec: SpaceSpec) -> ScaledTensor:
    """R_abcd = beta_ik E^i_ab E^k_cd as an exact scaled-integer tensor."""
    if spec.p == 0:
        n = spec.n
        return ScaledTensor(np.zeros((n, n, n, n), dtype=np.int64), 1)
    E = ScaledTensor.from_nested(spec.E)
    beta = ScaledTensor.from_nested(spec.beta)
    return exact_einsum("ik,iab,kcd->abcd", beta, E, E)


def _check_generator_identity(spec: SpaceSpec, hol: HolonomyRealization) -> CheckResult:
    """E^i_bc D^c_ka - E^i_ac D^c_kb = E^j_ab F^i_jk for all i, k, a, b."""
    name = "generator_connection_identity"
    if spec.p == 0:
        return CheckResult(name, True, "no holonomy generators; vacuous")
    E = ScaledTensor.from_nested(spec.E)
    D = ScaledTensor.from_nested(hol.D)
    F = ScaledTensor.from_nested(hol.F)
    lhs1 = exact_einsum("ibc,kca->ikab", E, D)
    lhs2 = exact_einsum("iac,kcb->ikab", E, D)
    # F[j][i][k] is the D_j coefficient in [D_i, D_k]; the right side wants
    # the free holonomy index up, i.e. F^i_jk.
    rhs = exact_einsum("jab,ijk->ikab", E, F)
    ok = (lhs1 - lhs2).equals(rhs)
    return CheckResult(
        name, ok, "holds" if ok else "generator/connection intertwining fails"
    )


def _check_integrability(spec: SpaceSpec) -> CheckResult:
    """The curvature operator annihilates the curvature tensor:
    R_fgea R^e_bcd - R_fgeb R^e_acd + R_fgec R^e_dab - R_fged R^e_cab = 0."""
    name = "curvature_integrability"
    if spec.p == 0 or spec.n == 0:
        return CheckResult(name, True, "flat datum; vacuous")
    R = reconstructed_riemann(spec)
    ginv = ScaledTensor.from_nested(rational.inverse(spec.g))
    Rup = exact_einsum("ef,fbcd->ebcd", ginv, R)
    t1 = exact_einsum("fgea,ebcd->fgabcd", R, Rup)
    t2 = exact_einsum("fgeb,eacd->fgabcd", R, Rup)
    t3 = exact_einsum("fgec,edab->fgabcd", R, Rup)
    t4 = exact_einsum("fged,ecab->fgabcd", R, Rup)
    ok = (t1 - t2 + t3 - t4).is_zero()
    return CheckResult(
        name, ok, "holds" if ok else "curvature is not parallel"
    )


def _check_structure_jacobi(hol: HolonomyRealization) -> CheckResult:
    """Jacobi identity for the combined structure constants read off the
    C matrices: sum over cyclic permutations of C^E_AD C^D_BC vanishes."""
    name = "structure_jacobi"
    if hol.n + hol.p == 0:
        return CheckResult(name, True, "empty algebra; vacuous")
    Carr = ScaledTensor.from_nested(hol.C)
    j1 = exact_einsum("aed,bdc->abce", Carr, Carr)
    j2 = exact_einsum("bed,cda->abce", Carr, Carr)
    j3 = exact_einsum("ced,adb->abce", Carr, Carr)
    ok = (j1 + j2 + j3).is_zero()
    return CheckResult(
        name, ok, "holds" if ok else "combined structure constants fail Jacobi"
    )


def _check_riemann_symmetries(spec: SpaceSpec) -> CheckResult:
    """Antisymmetry in both pairs, pair exchange, and the first Bianchi
    identity for the reconstructed tensor."""
    name = "riemann_symmetries"
    if spec.p == 0 or spec.n == 0:
        return CheckResult(name, True, "flat datum; vacuous")
    R = reconstructed_riemann(spec)
    failures = []
    if not (R + exact_einsum("abcd->bacd", R)).is_zero():
        failures.append("antisymmetry in the first pair")
    if not (R + exact_einsum("abcd->abdc", R)).is_zero():
        failures.append("antisymmetry in the second pair")
    if not (R - exact_einsum("abcd->cdab", R)).is_zero():
        failures.append("pair exchange symmetry")
    cyclic = exact_einsum("abcd->acdb", R) + exact_einsum("abcd->adbc", R)
    if not (R + cyclic).is_zero():
        failures.append("first Bianchi identity")
    ok = not failures
    return CheckResult(name, ok, "holds" if ok else "; ".join(failures))


def validate_symmetric_space(
    spec: SpaceSpec, hol: HolonomyRealization
) -> ValidationReport:
    """Run the four structural identity checks and report each outcome.

    A failing check never raises here; callers that need a hard error can
    inspect the report.  Note the checks take D and F from the supplied
    realization, so stale structure constants are detected.
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
    """Exact curvature tensors and scalar invariants of a validated datum."""

    space: str
    riemann: tuple  # nested tuples of Fraction, index order abcd
    ricci: Matrix
    R: Fraction
    R_H: Fraction
    R_G: Fraction


def curvature_scalars(spec: SpaceSpec, hol: HolonomyRealization) -> CurvatureReport:
    """Compute Ricci, the scalar curvature R, the holonomy scalar R_H, and
    the combined scalar R_G, cross-checking R_G two independent ways.

    R_H = -(1/4) beta^{ik} tr(F_i F_k) and the combined scalar identity
    R_G = (3/4) R + R_H must agree with the direct contraction of the C
    matrices against gamma; disagreement raises InternalInconsistency.
    """
    n, p = spec.n, spec.p
    zero = Fraction(0)
    if n == 0:
        return CurvatureReport(spec.name, (), (), zero, zero, zero)

    R4 = reconstructed_riemann(spec)
    ginv_m = rational.inverse(spec.g)
    ginv = ScaledTensor.from_nested(ginv_m)
    ricci_t = exact_einsum("cd,dacb->ab", ginv, R4)
    scalar_t = exact_einsum("ab,ab->", ginv, ricci_t)
    riemann = R4.to_fractions()
    ricci = ricci_t.to_fractions()
    R = scalar_t.to_fractions()

    if p:
        beta_inv = rational.inverse(spec.beta)
        F_mats = hol.F_mats
        R_H = -sum(
            (
                beta_inv[i][k] * rational.trace_product(F_mats[i], F_mats[k])
                for i in range(p)
                for k in range(p)
                if beta_inv[i][k]
            ),
            zero,
        ) / 4
    else:
        R_H = zero

    gamma_inv = rational.inverse(hol.gamma)
    N = n + p
    R_G_direct = -sum(
        (
            gamma_inv[A][B] * rational.trace_product(hol.C[A], hol.C[B])
            for A in range(N)
            for B in range(N)
            if gamma_inv[A][B]
        ),
        zero,
    ) / 4
    R_G = Fraction(3, 4) * R + R_H
    if R_G != R_G_direct:
        raise InternalInconsistency(
            f"combined scalar mismatch for {spec.name}: "
            f"(3/4)R + R_H = {R_G} but the direct contraction gives "
            f"{R_G_direct}"
        )
    return CurvatureReport(spec.name, riemann, ricci, R, R_H, R_G)


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

    Raises ValidationError, carrying the report, when a check fails.  A
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
