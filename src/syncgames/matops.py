"""Dense complex Hermitian matrix kernel: eigendecomposition, projections onto
columns, normalized-trace 2-norms (one at a time, or batched in chunks over
operator products, the relations of a PVM family and any stack of residual
matrices) and batched Kronecker products of paired stacks.

All 2-norms in this package are taken with respect to the NORMALIZED trace,
norm2(a) = sqrt(tr(a* a) / d), so norm2(I) = 1 in every dimension.  Every distance-bound
constant downstream is certified under this convention.
"""
from __future__ import annotations

import base64
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ValidationError, VerificationError
from .labels import complex_from_json, int_from_json

DEFAULT_TOL = 1e-9
HERMITIAN_INPUT_TOL = 1e-10
BOUNDARY_MARGIN = 1e-6
MAX_EIG_DIM = 512
# Complex entries per array in one chunk of operator products (128 KB).  A chunk holds
# four such arrays (both factors, the product, its magnitudes), about 0.5 MB in all;
# 2^16 entries per array raised the demo pipeline's peak RSS by about 6 MB.
PRODUCT_CHUNK_ENTRIES = 1 << 13


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex matrix with finite entries."""
    mat = np.asarray(a, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValidationError("matrix has non-finite entries")
    return mat


def dagger(a: np.ndarray) -> np.ndarray:
    """The adjoint of a matrix, or of each matrix of a (n, d, d) stack."""
    return np.conj(np.swapaxes(a, -1, -2))


def identity(d: int) -> np.ndarray:
    return np.eye(d, dtype=complex)


def norm2(a) -> float:
    """Tracial 2-norm sqrt(tr(a* a)/d) under the normalized trace."""
    return residual(as_matrix(a))


def residual(a) -> float:
    """norm2(a) for a check that must fail, not reject its input, on overflow: inf when
    an entry of a, or its square, is not finite.  Compute a under
    np.errstate(over="ignore", invalid="ignore") so its overflow stays silent too."""
    return float(_residuals(np.asarray(a, dtype=complex)[None])[0])


def _residuals(mats: np.ndarray) -> np.ndarray:
    """residual of each matrix of a (n, d, d) stack; the one place the norm is summed."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(np.sum(np.abs(mats) ** 2, axis=(1, 2)) / mats.shape[-1])
    norms[~np.isfinite(norms)] = math.inf
    return norms


def _chunk_slices(count: int, d: int) -> list:
    """Consecutive slices covering range(count), each of at most PRODUCT_CHUNK_ENTRIES
    complex entries of d x d matrices (at least one matrix): the chunks of every batch."""
    per = max(1, PRODUCT_CHUNK_ENTRIES // (d * d))
    return [slice(start, min(start + per, count)) for start in range(0, count, per)]


def _chunked_residuals(count: int, d: int, build) -> np.ndarray:
    """_residuals of build(sl) over the _chunk_slices of range(count): residual i of a
    batch whose d x d matrices build forms chunk by chunk, so at most two chunks of
    them (the last one and the one being built) are held at once."""
    out = np.empty(count)
    for sl in _chunk_slices(count, d):
        # mats lives until the next chunk is built: freeing each chunk at once let the
        # allocator hand its pages back and fault them in again, which doubled the
        # time of d = 256 products
        mats = build(sl)
        out[sl] = _residuals(mats)
    return out


def _adjoint_differences(mats: np.ndarray) -> np.ndarray:
    """mats - dagger(mats) for a (c, d, d) stack, as a new C-ordered array: subtracting
    dagger's transposed layout directly took several times as long.  A matrix of finite
    entries is exactly Hermitian, equal to its adjoint entry for entry, when its
    difference has no nonzero entry, since x - y is 0 only when x == y."""
    out = np.empty(mats.shape, dtype=complex)
    np.conjugate(np.swapaxes(mats, -1, -2), out=out)
    return np.subtract(mats, out, out=out)


def _adjoint_check(mats: np.ndarray) -> tuple:
    """(residual(a - a*) of each matrix a of a (c, d, d) stack of finite entries, which
    of them are exactly Hermitian), from one _adjoint_differences array that is freed
    on return.  Compute under np.errstate(over="ignore", invalid="ignore"): a
    difference that overflows is inf, still nonzero."""
    diff = _adjoint_differences(mats)
    return _residuals(diff), ~np.any(diff, axis=(1, 2))


def _hermitian_rows(stack: np.ndarray) -> np.ndarray:
    """Which rows of a (n, d, d) stack of finite entries are exactly Hermitian, taken in
    _chunk_slices, never through an adjoint of the whole stack."""
    out = np.empty(len(stack), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for sl in _chunk_slices(len(stack), stack.shape[-1]):
            out[sl] = _adjoint_check(stack[sl])[1]
    return out


def product_norms(stack: np.ndarray, left, right, hermitian=None) -> np.ndarray:
    """norm2(stack[i] @ stack[j]) for each pair (i, j) of the row-id arrays left and right.

    hermitian, a bool per row of stack, flags the rows that equal their adjoint
    entry for entry (None flags none).  For two such rows F E is (E F)*, whose
    norm is the same in exact arithmetic, so a pair (j, i) with j > i of two
    flagged rows is folded onto (i, j) first: each unordered pair of flagged rows
    is multiplied once and both orders get that product's norm, which may differ
    in its last bit from the norm of the mirror product.  A pair with an
    unflagged row keeps its own order.

    Each distinct pair of ids is then multiplied once, in ascending (i, j) order,
    and its norm scattered back to the caller's order, so a stack of distinct
    operators (an OperatorStrategy's store) forms one product per distinct pair
    of operator contents, and one per unordered pair when both are exactly
    Hermitian.  Equal factors give bit-identical products, so the norms are
    those of the (folded) pairs taken one by one.  The distinct pairs are read
    off a D x D presence table over the stack's D rows, with no sort: for an
    OperatorStrategy's stack, each of whose rows is some stored key's, no more
    cells than the K x K losing mask of a relation check over its K keys.

    Each norm is taken of a product actually formed, never through a Gram-matrix
    trace identity: a residual near 1e-16 would come out of the square root of a
    trace near 1e-32 that rounding has already swamped.  Products are formed in
    chunks of at most PRODUCT_CHUNK_ENTRIES complex entries per array; a product
    that overflows has norm inf.
    """
    n = len(stack)
    left, right = np.asarray(left, dtype=np.intp), np.asarray(right, dtype=np.intp)
    if hermitian is not None:
        mirror = (left > right) & hermitian[left] & hermitian[right]
        left, right = np.where(mirror, right, left), np.where(mirror, left, right)
    codes = left * n + right
    present = np.zeros(n * n, dtype=bool)
    present[codes] = True
    pairs = np.flatnonzero(present)  # ascending codes: (i, j) in row-major order
    inverse = (np.cumsum(present) - 1)[codes]  # each code's position among the pairs
    left, right = pairs // n, pairs % n
    with np.errstate(over="ignore", invalid="ignore"):
        out = _chunked_residuals(len(pairs), stack.shape[-1],
                                lambda sl: np.matmul(stack[left[sl]], stack[right[sl]]))
    return out[inverse]


def pvm_defects(mats, ids, rows, n_rows: int, d: int) -> tuple:
    """(largest adjoint, idempotency, completeness residual, exactly Hermitian flags)
    of a family of d x d operators held once each in mats, a (D, d, d) array or a
    sequence of D arrays: member k of the family is mats[ids[k]], in row rows[k] of
    n_rows rows.  residual(a - a*) and residual(a - a a) are taken once per entry of
    mats, so every entry must belong to the family, and in the same pass the flags
    (a bool array of length D) record which entries are exactly Hermitian, as
    _hermitian_rows would; residual(s - I) is taken of
    each row sum s, its members added in family order.  An empty row sums to 0,
    so its residual is norm2(-I) = 1.0, taken without forming a d x d matrix.
    Entries and row sums are taken in chunks of at most PRODUCT_CHUNK_ENTRIES
    complex entries per array, never all at once; a residual that overflows is
    inf.  Each largest residual is 0.0 when there is nothing to check.
    """
    rows = np.asarray(rows, dtype=np.intp)
    order = np.argsort(rows, kind="stable")  # by row, in family order within a row
    bounds = np.searchsorted(rows[order], np.arange(n_rows + 1))
    filled = np.flatnonzero(np.diff(bounds))  # the rows with a member
    max_adj = max_proj = 0.0
    max_sum = 1.0 if len(filled) < n_rows else 0.0
    hermitian = np.empty(len(mats), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for sl in _chunk_slices(len(mats), d):
            chunk = np.asarray(mats[sl], dtype=complex)  # a view if mats is an array
            adjoint, hermitian[sl] = _adjoint_check(chunk)
            max_adj = max(max_adj, adjoint.max())
            max_proj = max(max_proj, _residuals(chunk - np.matmul(chunk, chunk)).max())
        for sl in _chunk_slices(len(filled), d):
            totals = np.zeros((sl.stop - sl.start, d, d), dtype=complex)
            for r, total in zip(filled[sl], totals):
                for k in order[bounds[r]:bounds[r + 1]]:
                    total += mats[ids[k]]  # in place, in family order: the bits of a plain sum
            totals -= identity(d)
            max_sum = max(max_sum, _residuals(totals).max())
    return float(max_adj), float(max_proj), float(max_sum), hermitian


def _kron_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a[t], b[t]) for each t of two stacks, (c, p, p) and (c, q, q): each entry
    the product of the same two factors, multiplied in the same broadcast as np.kron."""
    c, p, q = len(a), a.shape[-1], b.shape[-1]
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(c, p * q, p * q)


def hermitian_defect(a) -> float:
    """Max-entry deviation of a from its adjoint."""
    mat = as_matrix(a)
    return float(np.max(np.abs(mat - dagger(mat)))) if mat.size else 0.0


@dataclass(frozen=True)
class EigResult:
    """Eigenvalues ascending plus a unitary whose columns are matching eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_input(h) -> np.ndarray:
    """h as a square complex matrix with finite entries and Hermitian within
    HERMITIAN_INPUT_TOL entrywise; a BudgetError when it is larger than MAX_EIG_DIM.
    These are the input checks of hermitian_eig, for callers that need no eigenvectors."""
    mat = as_matrix(h)
    d = mat.shape[0]
    if d > MAX_EIG_DIM:
        raise BudgetError(f"dimension {d} exceeds cap {MAX_EIG_DIM}")
    # Huge finite entries may overflow to inf here; that is reported through the
    # defect, never as a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        defect = hermitian_defect(mat)
    if defect > HERMITIAN_INPUT_TOL:
        raise ValidationError(
            f"matrix is not Hermitian within {HERMITIAN_INPUT_TOL:g} (defect {defect:.3e})"
        )
    return mat


def hermitian_eig(h) -> EigResult:
    """Eigendecomposition of a Hermitian matrix, certified by reconstruction residual.

    The input must pass hermitian_input (Hermitian within 1e-10 entrywise and no
    larger than MAX_EIG_DIM); the reconstruction U diag(w) U* must match within
    1e-9 * d * max(1, ||H||_F) in Frobenius norm, so the bound scales with the
    input, or a VerificationError is raised.
    """
    mat = hermitian_input(h)
    d = mat.shape[0]
    # Huge finite entries may overflow to inf below; that is reported through the
    # eigenvalues or the residual, never as a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        w, u = np.linalg.eigh(mat / 2 + dagger(mat) / 2)  # halves first: the sum cannot overflow
        recon = float(np.linalg.norm((u * w) @ dagger(u) - mat))  # u * w is u @ diag(w)
        bound = 1e-9 * d * max(1.0, float(np.linalg.norm(mat)))
    if recon > bound:
        raise VerificationError(f"eigendecomposition residual {recon:.3e} > {bound:.3e}")
    return EigResult(eigenvalues=w, eigenvectors=u)


def projection_onto_columns(cols: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the span of the given (orthonormal) columns."""
    q = cols @ dagger(cols)
    return (q + dagger(q)) / 2


def matrix_to_json(a) -> dict:
    """{"dim": d, "c16": base64 of the matrix's little-endian complex128 bytes, row-major}:
    bit-exact (-0.0, subnormals and the largest finite values survive) and deterministic."""
    mat = as_matrix(a)
    raw = mat.astype("<c16", copy=False).tobytes(order="C")
    return {"dim": mat.shape[0], "c16": base64.b64encode(raw).decode("ascii")}


def matrix_from_json(data) -> np.ndarray:
    """Inverse of matrix_to_json; also reads the hand-written form {"dim": d, "entries":
    [[[re, im], ... d], ... d]}.  A payload must hold exactly one of "c16" and "entries",
    dim must be an integer >= 1, "c16" canonical base64 of exactly 16 d^2 bytes, and every
    entry finite.  The result is a new, writable complex array."""
    if not isinstance(data, dict):
        raise ValidationError(f"matrix must be a JSON object, got {data!r}")
    d = int_from_json(data.get("dim"), "matrix dim")
    if d < 1:
        raise ValidationError(f"matrix dim must be >= 1, got {d}")
    if ("c16" in data) == ("entries" in data):
        raise ValidationError('matrix JSON must hold exactly one of "c16" and "entries"')
    if "c16" in data:
        payload = data["c16"]
        if not isinstance(payload, str):
            raise ValidationError(f"matrix c16 must be a base64 string, got {payload!r}")
        try:
            raw = base64.b64decode(payload, validate=True)
        except ValueError as exc:  # binascii.Error, or a non-ASCII string
            raise ValidationError(f"matrix c16 is not valid base64: {exc}") from exc
        if len(raw) != 16 * d * d:
            raise ValidationError(
                f"matrix c16 holds {len(raw)} bytes, expected {16 * d * d} (16 d^2)"
            )
        if base64.b64encode(raw) != payload.encode("ascii"):  # the decoder ignores unused bits
            raise ValidationError("matrix c16 is not canonical base64: unused bits are set")
        mat = np.frombuffer(raw, dtype="<c16").astype(complex).reshape(d, d)
    else:
        try:
            mat = np.array(
                [[complex_from_json(z, "matrix entry") for z in row] for row in data["entries"]],
                dtype=complex,
            )
        except (TypeError, ValueError, OverflowError) as exc:  # Overflow: an int beyond float
            raise ValidationError(f"malformed matrix JSON: {exc}") from exc
        if mat.shape != (d, d):
            raise ValidationError(f"matrix JSON says dim {d} but entries have shape {mat.shape}")
    return as_matrix(mat)
