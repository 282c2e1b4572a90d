"""Constructive rounding of approximate projections.

round_contraction sends a positive contraction to its spectral projection for
[1/2, 1] and certifies the distance bound ||p - q||_2 <= 2*sqrt(2)*||p - p^2||_2.
orthogonalize_family runs the inductive construction for a whole family: each
element is compressed to the complement of the previously emitted projections
before rounding, so the outputs are mutually orthogonal by construction, and an
optional remainder absorption makes them sum to the identity.  The compression
is taken in an orthonormal basis of that complement, which shrinks as blocks
are emitted, so each element costs one eigensolve of the size still free.  Each
input's eigenvalue range is certified from its idempotency defect, which the
report keeps; only an input far from a projection needs an eigensolve of its
own.  All reported norms use the normalized trace.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryAmbiguityError, ValidationError, VerificationError
from .labels import Report
from .matops import (
    BOUNDARY_MARGIN,
    HERMITIAN_INPUT_TOL,
    as_matrix,
    dagger,
    hermitian_eig,
    hermitian_input,
    identity,
    norm2,
    projection_onto_columns,
    pvm_defects,
    residual,
    row_checks,
)

ROUNDING_BOUND_FACTOR = 2.0 * math.sqrt(2.0)
INPUT_EIGENVALUE_SLACK = 0.1  # how far input eigenvalues may stray outside [0, 1]
EXACT_TOL = 1e-12             # orthogonality/idempotency promised on outputs


def family_budget_constant(m: int) -> float:
    """The tracked error-accumulation constant 40 m + 3 for a family of size m."""
    return 40.0 * m + 3.0


@dataclass(frozen=True)
class ContractionRoundingReport(Report):
    defect: float       # ||p - p^2||_2
    distance: float     # ||p - q||_2
    bound: float        # 2 sqrt(2) * defect

    verdicts = ("bound_holds",)

    @property
    def bound_holds(self) -> bool:
        return self.distance <= self.bound + 1e-12


def _validated_contraction(p) -> tuple:
    mat = as_matrix(p)
    if mat.shape[0] < 1:
        raise ValidationError("matrix dim must be >= 1, got 0")
    eig = hermitian_eig(mat)
    lam = eig.eigenvalues
    if lam.size and (lam[0] < -INPUT_EIGENVALUE_SLACK or lam[-1] > 1.0 + INPUT_EIGENVALUE_SLACK):
        raise ValidationError(
            f"eigenvalues [{lam[0]:.6g}, {lam[-1]:.6g}] stray more than "
            f"{INPUT_EIGENVALUE_SLACK:g} outside [0, 1]"
        )
    return mat, eig


def _certified_defect(p: np.ndarray) -> float:
    """norm2(p - p @ p) of a family element after hermitian_input; certifies that the
    eigenvalues of h = (p + p*) / 2 lie within s = INPUT_EIGENVALUE_SLACK of [0, 1].

    lam - lam^2 >= -s (1 + s) iff lam is in [-s, 1 + s], so ||h - h^2||_F <= s (1 + s)
    suffices.  sqrt(d) * defect, the computed ||p - p^2||_F, is within the slack
    d tol (1 + ||p||_F)^2 (tol = HERMITIAN_INPUT_TOL) of ||h - h^2||_F: a = p - h has
    ||a||_F <= d tol / 2 and ||a - h a - a h - a^2||_F <= ||a||_F (1 + 3 ||p||_F), and
    the product and norm round by a small multiple of d 2^-53 (1 + ||p||_F)^2.  Other
    elements go to _validated_contraction, whose eigensolve decides and words refusals.
    """
    hermitian_input(p)
    root_d = math.sqrt(p.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        defect = residual(p - p @ p)
    scale = 1.0 + root_d * residual(p)  # 1 + ||p||_F
    slack = p.shape[0] * HERMITIAN_INPUT_TOL * scale * scale  # scale ** 2 may raise OverflowError
    if not root_d * defect + slack <= INPUT_EIGENVALUE_SLACK * (1.0 + INPUT_EIGENVALUE_SLACK):
        _validated_contraction(p)
    return defect


def _upper_half_columns(eig, boundary_margin: float) -> np.ndarray:
    """Eigenvectors for eigenvalues >= 1/2; raise BoundaryAmbiguityError if one lies
    within boundary_margin of 1/2 (boundary_margin = 0 disables the check)."""
    lam = eig.eigenvalues
    near = np.abs(lam - 0.5) < boundary_margin
    if np.any(near):
        raise BoundaryAmbiguityError(f"eigenvalue {lam[near][0]:.12g} within {boundary_margin:g} of 1/2")
    return eig.eigenvectors[:, lam >= 0.5]


def round_contraction(p, *, boundary_margin: float = BOUNDARY_MARGIN) -> tuple:
    """Round a positive contraction to the spectral projection for [1/2, 1].

    Returns (q, report).  Eigenvalues within boundary_margin of 1/2 raise
    BoundaryAmbiguityError (the distance bound would still hold, but the
    projection is numerically unstable there; pass boundary_margin=0 to
    override).  Eigenvalues slightly outside [0, 1] are tolerated up to
    INPUT_EIGENVALUE_SLACK and treated as clipped.
    """
    mat, eig = _validated_contraction(p)
    q = projection_onto_columns(_upper_half_columns(eig, boundary_margin))
    defect = norm2(mat - mat @ mat)
    distance = norm2(mat - q)
    report = ContractionRoundingReport(
        defect=defect, distance=distance, bound=ROUNDING_BOUND_FACTOR * defect
    )
    if not report.bound_holds:
        raise VerificationError(
            f"distance bound violated: {distance:.3e} > {report.bound:.3e}"
        )
    return q, report


@dataclass(frozen=True)
class FamilyRoundingReport(Report):
    """Input defect / output distance bookkeeping for a rounded family."""

    input_defects: tuple          # per element ||p - p^2||_2
    pairwise_overlaps: tuple      # ((i, j), ||p_i p_j||_2) for i < j
    distances: tuple              # per element ||p_i - q_i||_2
    sum_defect_before: float      # ||sum p_i - I||_2
    sum_defect_after: float       # ||sum q_i - I||_2
    max_output_adjoint: float
    max_output_idempotency: float
    max_output_overlap: float
    sum_one: bool

    verdicts = ("input_scale", "max_distance", "budget", "within_budget", "outputs_exact")

    @property
    def input_scale(self) -> float:
        """Largest input residual the construction had to absorb."""
        scale = max(self.input_defects, default=0.0)
        if self.pairwise_overlaps:
            scale = max(scale, max(v for _, v in self.pairwise_overlaps))
        if self.sum_one:
            scale = max(scale, self.sum_defect_before)
        return scale

    @property
    def max_distance(self) -> float:
        return max(self.distances, default=0.0)

    @property
    def budget(self) -> float:
        return family_budget_constant(len(self.input_defects)) * self.input_scale

    @property
    def within_budget(self) -> bool:
        return self.max_distance <= self.budget + 1e-12

    @property
    def outputs_exact(self) -> bool:
        worst = max(self.max_output_adjoint, self.max_output_idempotency, self.max_output_overlap)
        if self.sum_one:
            worst = max(worst, self.sum_defect_after)
        return worst <= EXACT_TOL


def _orthonormalize_against(cols: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Orthonormalize cols against an orthonormal basis and among themselves.

    Two block passes remove the basis component, then a QR factorization
    orthonormalizes the columns, clearing the 1e-9-scale numerical dirt left by
    the spectral rounding so downstream orthogonality is exact to machine
    precision.  |R_kk| is the norm Gram-Schmidt would divide by; below 1/2 the
    block has collapsed.
    """
    for _ in range(2):
        cols = cols - basis @ (dagger(basis) @ cols)
    q, r = np.linalg.qr(cols)
    if np.any(np.abs(np.diag(r)) < 0.5):
        raise VerificationError(
            "spectral block collapsed during re-orthonormalization; inputs are too defective"
        )
    return q


def orthogonalize_family(ps, sum_one: bool = False) -> tuple:
    """Round a family of near-projections to exactly orthogonal projections.

    Follows the inductive construction: element k is compressed by
    r = I - (q_1 + ... + q_{k-1}) and q_k is the [1/2, 1] spectral projection
    of r p_k r, re-orthonormalized against the emitted blocks.  The
    compression is diagonalized as rest* p_k rest, where the columns of rest
    are an orthonormal basis of the range of r: its eigenvalues are the nonzero
    ones of r p_k r, the eigenvectors for [1/2, 1] give q_k's columns and
    the others give the next rest; the first element, with nothing emitted, is
    diagonalized as it is.  Each input's eigenvalue range is certified from its
    input defect (_certified_defect), before the sweep.  With sum_one the
    remainder I - sum q_i is absorbed into q_1.  Returns (qs, report); the report
    tracks the input scale against the (40 m + 3) budget.
    """
    mats = [as_matrix(p) for p in ps]
    m = len(mats)
    if m == 0:
        if sum_one:
            raise ValidationError("sum_one needs at least one element (dimension unknown)")
        return [], FamilyRoundingReport((), (), (), 0.0, 0.0, 0.0, 0.0, 0.0, sum_one)
    d = mats[0].shape[0]
    for p in mats:
        if p.shape != (d, d):
            raise ValidationError("family elements have mixed dimensions")
    if d < 1:
        raise ValidationError("matrix dim must be >= 1, got 0")
    input_defects = tuple(_certified_defect(p) for p in mats)

    eye = identity(d)
    basis = np.zeros((d, 0), dtype=complex)  # the emitted columns
    rest = None  # orthonormal columns spanning their complement, once it is not all of C^d
    qs = []
    for p in mats:
        h = p if rest is None else dagger(rest) @ p @ rest
        eig = hermitian_eig((h + dagger(h)) / 2)  # compression can amplify p's non-Hermitian part
        # each block's columns in C^d, and in C order as the products after them expect
        lift = np.ascontiguousarray if rest is None else rest.__matmul__
        cols = _orthonormalize_against(lift(_upper_half_columns(eig, BOUNDARY_MARGIN)), basis)
        rest = lift(eig.eigenvectors[:, eig.eigenvalues < 0.5])
        qs.append(projection_onto_columns(cols))
        basis = np.concatenate([basis, cols], axis=1)

    sum_before = norm2(sum(mats) - eye)
    if sum_one:
        remainder = eye - basis @ dagger(basis)
        remainder = (remainder + dagger(remainder)) / 2
        # A self-check, which no input is known to fail: each block's columns come out of
        # a QR factorization with every |R_kk| >= 1/2, after two passes against the
        # earlier blocks, so B*B = I to within rounding for the emitted columns B, and
        # I - B B* is idempotent to within rounding too, far below 1e-9.
        if norm2(remainder - remainder @ remainder) > 1e-9:
            raise VerificationError(
                "remainder is not a projection; input defects are too large for sum_one"
            )
        qs[0] = qs[0] + remainder

    overlaps = tuple(
        ((i, j), norm2(mats[i] @ mats[j])) for i in range(m) for j in range(i + 1, m)
    )
    distances = tuple(norm2(p - q) for p, q in zip(mats, qs))
    out_adjoint, out_idem, sum_after = pvm_defects(qs, row_checks(qs, d), range(m), [0] * m, 1, d)
    out_overlap = max(
        (norm2(qs[i] @ qs[j]) for i in range(m) for j in range(i + 1, m)), default=0.0
    )
    report = FamilyRoundingReport(
        input_defects=input_defects,
        pairwise_overlaps=overlaps,
        distances=distances,
        sum_defect_before=sum_before,
        sum_defect_after=sum_after,
        max_output_adjoint=out_adjoint,
        max_output_idempotency=out_idem,
        max_output_overlap=out_overlap,
        sum_one=sum_one,
    )
    return qs, report
