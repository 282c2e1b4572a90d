"""Dense complex Hermitian matrix kernel: eigendecomposition, projections onto
columns, normalized-trace 2-norms and Kronecker products.

All 2-norms in this package are taken with respect to the NORMALIZED trace,
norm2(a) = sqrt(tr(a* a) / d), so norm2(I) = 1 in every dimension.  Every distance-bound
constant downstream is certified under this convention.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, VerificationError
from .labels import int_from_json

DEFAULT_TOL = 1e-9
HERMITIAN_INPUT_TOL = 1e-10
BOUNDARY_MARGIN = 1e-6
MAX_EIG_DIM = 512


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex matrix with finite entries."""
    mat = np.asarray(a, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValidationError("matrix has non-finite entries")
    return mat


def dagger(a: np.ndarray) -> np.ndarray:
    return np.conj(a.T)


def identity(d: int) -> np.ndarray:
    return np.eye(d, dtype=complex)


def norm2(a) -> float:
    """Tracial 2-norm sqrt(tr(a* a)/d) under the normalized trace."""
    mat = as_matrix(a)
    d = mat.shape[0]
    return float(np.sqrt(np.sum(np.abs(mat) ** 2).real / d))


def max_pairwise_distance(mats) -> tuple:
    """(largest norm2(m_a - m_b) over pairs a < b, (a, b)); (0.0, None) for fewer than two."""
    worst, witness = 0.0, None
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            diff = norm2(mats[a] - mats[b])
            if diff > worst:
                worst, witness = diff, (a, b)
    return worst, witness


def ntrace(a) -> complex:
    """Normalized trace tr(a)/d."""
    mat = as_matrix(a)
    return complex(np.trace(mat)) / mat.shape[0]


def kron(a, b) -> np.ndarray:
    """Kronecker product in row-major block order."""
    return np.kron(as_matrix(a), as_matrix(b))


def hermitian_defect(a) -> float:
    """Max-entry deviation of a from its adjoint."""
    mat = as_matrix(a)
    return float(np.max(np.abs(mat - dagger(mat)))) if mat.size else 0.0


@dataclass(frozen=True)
class EigResult:
    """Eigenvalues ascending plus a unitary whose columns are matching eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(h, *, max_dim: int = MAX_EIG_DIM) -> EigResult:
    """Eigendecomposition of a Hermitian matrix, certified by reconstruction residual.

    The input must be Hermitian within 1e-10 entrywise and no larger than
    max_dim; the reconstruction U diag(w) U* must match within
    1e-9 * d * max(1, ||H||_F) in Frobenius norm, so the bound scales with the
    input, or a VerificationError is raised.
    """
    mat = as_matrix(h)
    d = mat.shape[0]
    if d > max_dim:
        raise ValidationError(f"dimension {d} exceeds cap {max_dim}")
    if hermitian_defect(mat) > HERMITIAN_INPUT_TOL:
        raise ValidationError(
            f"matrix is not Hermitian within {HERMITIAN_INPUT_TOL:g} (defect {hermitian_defect(mat):.3e})"
        )
    sym = (mat + dagger(mat)) / 2
    w, u = np.linalg.eigh(sym)
    residual = float(np.linalg.norm(u @ np.diag(w) @ dagger(u) - mat))
    bound = 1e-9 * d * max(1.0, float(np.linalg.norm(mat)))
    if residual > bound:
        raise VerificationError(f"eigendecomposition residual {residual:.3e} > {bound:.3e}")
    return EigResult(eigenvalues=w, eigenvectors=u)


def projection_onto_columns(cols: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the span of the given (orthonormal) columns."""
    q = cols @ dagger(cols)
    return (q + dagger(q)) / 2


def matrix_to_json(a) -> dict:
    mat = as_matrix(a)
    return {
        "dim": mat.shape[0],
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in mat],
    }


def matrix_from_json(data: dict) -> np.ndarray:
    try:
        d = int_from_json(data["dim"], "matrix dim")
        mat = np.array(
            [[complex(real, imag) for real, imag in row] for row in data["entries"]], dtype=complex
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed matrix JSON: {exc}") from exc
    if mat.shape != (d, d):
        raise ValidationError(f"matrix JSON says dim {d} but entries have shape {mat.shape}")
    return mat
