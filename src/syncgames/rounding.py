"""Constructive rounding of approximate projections.

round_contraction sends a positive contraction to its spectral projection for
[1/2, 1] and certifies the distance bound ||p - q||_2 <= 2*sqrt(2)*||p - p^2||_2.
orthogonalize_family runs the inductive construction for a whole family: each
element is compressed by the complement of the previously emitted projections
before rounding, so the outputs are mutually orthogonal by construction, and an
optional remainder absorption makes them sum to the identity.  All reported
norms use the normalized trace.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryAmbiguityError, ValidationError, VerificationError
from .matops import (
    BOUNDARY_MARGIN,
    HERMITIAN_INPUT_TOL,
    as_matrix,
    dagger,
    hermitian_defect,
    hermitian_eig,
    identity,
    norm2,
    projection_onto_columns,
)

ROUNDING_BOUND_FACTOR = 2.0 * math.sqrt(2.0)
INPUT_EIGENVALUE_SLACK = 0.1  # how far input eigenvalues may stray outside [0, 1]
EXACT_TOL = 1e-12             # orthogonality/idempotency promised on outputs


def family_budget_constant(m: int) -> float:
    """The tracked error-accumulation constant 40 m + 3 for a family of size m."""
    return 40.0 * m + 3.0


@dataclass(frozen=True)
class ContractionRoundingReport:
    defect: float       # ||p - p^2||_2
    distance: float     # ||p - q||_2
    bound: float        # 2 sqrt(2) * defect

    @property
    def bound_holds(self) -> bool:
        return self.distance <= self.bound + 1e-12

    def as_dict(self) -> dict:
        return {
            "defect": self.defect,
            "distance": self.distance,
            "bound": self.bound,
            "bound_holds": self.bound_holds,
        }


def _validated_contraction(p, input_slack: float) -> tuple:
    mat = as_matrix(p)
    if hermitian_defect(mat) > HERMITIAN_INPUT_TOL:
        raise ValidationError("input is not Hermitian within 1e-10")
    eig = hermitian_eig((mat + dagger(mat)) / 2)
    lam = eig.eigenvalues
    if lam.size and (lam[0] < -input_slack or lam[-1] > 1.0 + input_slack):
        raise ValidationError(
            f"eigenvalues [{lam[0]:.6g}, {lam[-1]:.6g}] stray more than {input_slack:g} outside [0, 1]"
        )
    return mat, eig


def _upper_half_columns(eig, boundary_margin: float) -> np.ndarray:
    """Eigenvectors for eigenvalues >= 1/2; raise BoundaryAmbiguityError if one lies
    within boundary_margin of 1/2 (boundary_margin = 0 disables the check)."""
    lam = eig.eigenvalues
    near = np.abs(lam - 0.5) < boundary_margin
    if np.any(near):
        raise BoundaryAmbiguityError(f"eigenvalue {lam[near][0]:.12g} within {boundary_margin:g} of 1/2")
    return eig.eigenvectors[:, lam >= 0.5]


def round_contraction(
    p,
    *,
    boundary_margin: float = BOUNDARY_MARGIN,
    input_slack: float = INPUT_EIGENVALUE_SLACK,
) -> tuple:
    """Round a positive contraction to the spectral projection for [1/2, 1].

    Returns (q, report).  Eigenvalues within boundary_margin of 1/2 raise
    BoundaryAmbiguityError (the distance bound would still hold, but the
    projection is numerically unstable there; pass boundary_margin=0 to
    override).  Eigenvalues slightly outside [0, 1] are tolerated up to
    input_slack and treated as clipped.
    """
    mat, eig = _validated_contraction(p, input_slack)
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
class FamilyRoundingReport:
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

    def as_dict(self) -> dict:
        return {
            "input_defects": list(self.input_defects),
            "pairwise_overlaps": [[list(ij), v] for ij, v in self.pairwise_overlaps],
            "distances": list(self.distances),
            "sum_defect_before": self.sum_defect_before,
            "sum_defect_after": self.sum_defect_after,
            "max_output_adjoint": self.max_output_adjoint,
            "max_output_idempotency": self.max_output_idempotency,
            "max_output_overlap": self.max_output_overlap,
            "sum_one": self.sum_one,
            "input_scale": self.input_scale,
            "max_distance": self.max_distance,
            "budget": self.budget,
            "within_budget": self.within_budget,
            "outputs_exact": self.outputs_exact,
        }


def _orthonormalize_against(cols: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt of cols against an orthonormal basis and themselves.

    Two passes remove the 1e-9-scale numerical dirt left by the spectral
    rounding so downstream orthogonality is exact to machine precision.
    """
    out = []
    for k in range(cols.shape[1]):
        v = cols[:, k].copy()
        for _ in range(2):
            if basis.shape[1]:
                v = v - basis @ (dagger(basis) @ v)
            for u in out:
                v = v - u * np.vdot(u, v)
        nrm = float(np.linalg.norm(v))
        if nrm < 0.5:
            raise VerificationError(
                "spectral block collapsed during re-orthonormalization; inputs are too defective"
            )
        out.append(v / nrm)
    if not out:
        return np.zeros((cols.shape[0], 0), dtype=complex)
    return np.column_stack(out)


def orthogonalize_family(
    ps,
    sum_one: bool = False,
    *,
    boundary_margin: float = BOUNDARY_MARGIN,
    input_slack: float = INPUT_EIGENVALUE_SLACK,
) -> tuple:
    """Round a family of near-projections to exactly orthogonal projections.

    Follows the inductive construction: element k is compressed by
    r = I - (q_1 + ... + q_{k-1}) and q_k is the [1/2, 1] spectral projection
    of r p_k r, re-orthonormalized against the emitted blocks.  With sum_one
    the remainder I - sum q_i is absorbed into q_1.  Returns (qs, report);
    the report tracks the input scale against the (40 m + 3) budget.
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
    validated = [_validated_contraction(p, input_slack)[0] for p in mats]

    eye = identity(d)
    basis = np.zeros((d, 0), dtype=complex)
    qs = []
    for p in validated:
        r = eye - basis @ dagger(basis)
        h = r @ p @ r
        h = (h + dagger(h)) / 2
        eig = hermitian_eig(h)
        cols = _orthonormalize_against(_upper_half_columns(eig, boundary_margin), basis)
        qs.append(projection_onto_columns(cols))
        basis = np.concatenate([basis, cols], axis=1)

    sum_before = norm2(sum(validated) - eye)
    if sum_one:
        remainder = eye - basis @ dagger(basis)
        remainder = (remainder + dagger(remainder)) / 2
        if norm2(remainder - remainder @ remainder) > 1e-9:
            raise VerificationError(
                "remainder is not a projection; input defects are too large for sum_one"
            )
        qs[0] = qs[0] + remainder

    input_defects = tuple(norm2(p - p @ p) for p in validated)
    overlaps = tuple(
        ((i, j), norm2(validated[i] @ validated[j])) for i in range(m) for j in range(i + 1, m)
    )
    distances = tuple(norm2(p - q) for p, q in zip(validated, qs))
    out_adjoint = max(norm2(q - dagger(q)) for q in qs)
    out_idem = max(norm2(q - q @ q) for q in qs)
    out_overlap = max(
        (norm2(qs[i] @ qs[j]) for i in range(m) for j in range(i + 1, m)), default=0.0
    )
    report = FamilyRoundingReport(
        input_defects=input_defects,
        pairwise_overlaps=overlaps,
        distances=distances,
        sum_defect_before=sum_before,
        sum_defect_after=norm2(sum(qs) - eye),
        max_output_adjoint=out_adjoint,
        max_output_idempotency=out_idem,
        max_output_overlap=out_overlap,
        sum_one=sum_one,
    )
    return qs, report
