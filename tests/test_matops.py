"""Matrix kernel: eigendecomposition, tracial norms, product norms, matrix JSON."""
from __future__ import annotations

import base64
import json

import numpy as np
import pytest

from conftest import random_hermitian, random_unitary

from syncgames import matops
from syncgames.errors import BudgetError, ValidationError
from syncgames.matops import (
    MAX_EIG_DIM,
    _hermitian_rows,
    _kron_pairs,
    dagger,
    hermitian_eig,
    matrix_from_json,
    matrix_to_json,
    norm2,
    product_norms,
)

PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def test_eig_identity():
    res = hermitian_eig(np.eye(2))
    assert np.allclose(res.eigenvalues, [1.0, 1.0])
    assert np.allclose(res.eigenvectors @ res.eigenvectors.conj().T, np.eye(2))


def test_eig_pauli_z_sorted_ascending():
    res = hermitian_eig(PAULI_Z)
    assert np.allclose(res.eigenvalues, [-1.0, 1.0])
    reconstructed = res.eigenvectors @ np.diag(res.eigenvalues) @ res.eigenvectors.conj().T
    assert np.allclose(reconstructed, PAULI_Z)


def test_eig_reconstruction_residual_property():
    rng = np.random.default_rng(2)
    for d in range(2, 17):
        h = random_hermitian(d, rng, scale=3.0)
        res = hermitian_eig(h)
        residual = np.linalg.norm(
            res.eigenvectors @ np.diag(res.eigenvalues) @ res.eigenvectors.conj().T - h
        )
        assert residual <= 1e-9 * d
        assert np.all(np.diff(res.eigenvalues) >= 0)


def test_eig_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_eig_rejects_dimension_above_cap():
    with pytest.raises(BudgetError, match=f"dimension {MAX_EIG_DIM + 1} exceeds cap {MAX_EIG_DIM}"):
        hermitian_eig(np.eye(MAX_EIG_DIM + 1))
    with pytest.raises(TypeError):  # the cap is not a parameter
        hermitian_eig(np.eye(2), max_dim=4)


def test_norm2_identity_is_one():
    for d in (1, 2, 5, 17):
        assert norm2(np.eye(d)) == pytest.approx(1.0)


def test_norm2_projection_example():
    assert norm2(np.diag([1.0, 0.0])) == pytest.approx(1 / np.sqrt(2))


def test_pythagorean_identity_for_trace_orthogonal_pair():
    rng = np.random.default_rng(4)
    for _ in range(20):
        d = 6
        a = np.zeros((d, d), dtype=complex)
        b = np.zeros((d, d), dtype=complex)
        a[:3, :] = rng.normal(size=(3, d)) + 1j * rng.normal(size=(3, d))
        b[3:, :] = rng.normal(size=(3, d)) + 1j * rng.normal(size=(3, d))
        assert abs(np.trace(a.conj().T @ b) / d) < 1e-14
        assert norm2(a + b) ** 2 == pytest.approx(norm2(a) ** 2 + norm2(b) ** 2, abs=1e-12)


def test_kron_identity_with_pauli_z():
    pairs = _kron_pairs(np.eye(2, dtype=complex)[None], PAULI_Z[None])
    assert np.array_equal(pairs[0], np.kron(np.eye(2), PAULI_Z))
    assert np.array_equal(pairs[0], np.diag([1.0, -1.0, 1.0, -1.0]))


def test_kron_mixed_product_property():
    """The batched Kronecker products of paired stacks (p != q) are np.kron's, bit for
    bit, and obey the mixed-product rule."""
    rng = np.random.default_rng(8)
    a, c = (rng.normal(size=(10, 2, 2)) + 1j * rng.normal(size=(10, 2, 2)) for _ in range(2))
    b, d = (rng.normal(size=(10, 3, 3)) + 1j * rng.normal(size=(10, 3, 3)) for _ in range(2))
    pairs = _kron_pairs(a, b)
    assert all(pairs[t].tobytes() == np.kron(a[t], b[t]).tobytes() for t in range(10))
    lhs = pairs @ _kron_pairs(c, d)
    rhs = _kron_pairs(a @ c, b @ d)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs) + 1)


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.allclose(matrix_from_json(matrix_to_json(m)), m)


def test_matrix_json_is_bit_exact():
    """-0.0, the smallest subnormal and +-1.7e308 survive the JSON text bit for bit, and so
    do random bit patterns of every exponent; the loaded array is writable, as a built one is."""
    edge = np.array([[-0.0 + 5e-324j, 1.7e308 - 1.7e308j], [-5e-324 - 0.0j, -1.7e308 + 0.0j]])
    rng = np.random.default_rng(5)
    bits = np.frombuffer(rng.bytes(16 * 25), dtype="<c16").reshape(5, 5).copy()
    bits.real[~np.isfinite(bits.real)] = 0.0
    bits.imag[~np.isfinite(bits.imag)] = 0.0
    for mat in (edge, bits, edge.T):  # a transposed view is written row-major all the same
        data = json.loads(json.dumps(matrix_to_json(mat)))
        assert set(data) == {"dim", "c16"} and data["dim"] == mat.shape[0]
        back = matrix_from_json(data)
        assert back.tobytes() == np.ascontiguousarray(mat).tobytes() and back.flags.writeable


# The hand-written {"dim", "entries"} matrices of the test suite (the d = 513 zero matrix
# of test_cli stands here as d = 3): each loads as the old entry-by-entry reader gave it.
ENTRIES_FORM = [
    {"dim": 1, "entries": [[[1.0, 0.0]]]},
    {"dim": 1, "entries": [[[-1.0, 0.0]]]},
    {"dim": 1, "entries": [[[1e200, 0.0]]]},
    {"dim": 1, "entries": [[[1e308, 0.0]]]},
    {"dim": 1, "entries": [[[1.7e308, 0.0]]]},
    *({"dim": 2, "entries": [[[v, 0], [0, 0]], [[0, 0], [1 - v, 0]]]} for v in (1, 0)),
    {"dim": 2, "entries": [[[0.5, 0.0], [1e200, 0.0]], [[1e200, 0.0], [0.5, 0.0]]]},
    {"dim": 3, "entries": [[[0.0, 0.0]] * 3] * 3},
]


@pytest.mark.parametrize("data", ENTRIES_FORM)
def test_entries_form_loads_as_before(data):
    expected = np.array([[complex(re, im) for re, im in row] for row in data["entries"]])
    assert matrix_from_json(json.loads(json.dumps(data))).tobytes() == expected.tobytes()


def test_matrix_json_rejects_shape_mismatch():
    with pytest.raises(ValidationError):
        matrix_from_json({"dim": 2, "entries": [[[1.0, 0.0]]]})


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_matrix_json_refuses_non_finite_entries(value):
    mat = np.zeros((2, 2), dtype=complex)
    mat[1, 1] = value
    compact = {"dim": 2, "c16": base64.b64encode(mat.tobytes()).decode("ascii")}
    entries = {"dim": 2, "entries": [[[z.real, z.imag] for z in row] for row in mat.tolist()]}
    for data in (compact, entries):
        with pytest.raises(ValidationError, match="non-finite"):
            matrix_from_json(data)


@pytest.mark.parametrize("d", [16, 64, 256])
def test_eig_bound_scales_with_the_norm(d):
    """A valid Hermitian matrix of spectral norm 1e8 passes (the bound was 1e-9 * d alone)."""
    h = random_hermitian(d, np.random.default_rng(d), scale=1e8)
    res = hermitian_eig(h)
    u = res.eigenvectors
    residual = np.linalg.norm(u @ np.diag(res.eigenvalues) @ u.conj().T - h)
    assert residual <= 1e-9 * d * np.linalg.norm(h)


def test_product_norms_match_the_per_pair_products(monkeypatch):
    """Repeated pairs of row ids share one product; each norm is still the one of its own
    pair, bit for bit."""
    rng = np.random.default_rng(71)
    residuals, formed = matops._residuals, []

    def counting(mats):
        formed.append(len(mats))
        return residuals(mats)

    monkeypatch.setattr(matops, "_residuals", counting)
    for d in (1, 4, 16):
        u = random_unitary(d, rng)
        stack = np.array([u @ random_hermitian(d, rng) @ u.conj().T for _ in range(4)])
        left, right = rng.integers(0, 4, size=(2, 200))
        expected = [norm2(stack[i] @ stack[j]) for i, j in zip(left, right)]
        formed.clear()
        assert product_norms(stack, left, right).tolist() == expected
        assert sum(formed) == len(set(zip(left.tolist(), right.tolist())))
    monkeypatch.undo()
    assert product_norms(np.zeros((0, 3, 3), dtype=complex), [], []).shape == (0,)
    assert product_norms(np.eye(3, dtype=complex)[None], [], []).shape == (0,)


def unique_product_norms(stack, left, right) -> np.ndarray:
    """The np.unique dedup product_norms used before its presence table: the same
    products, formed in ascending (i, j) order, scattered back through unique's inverse."""
    n = max(len(stack), 1)
    pairs, inverse = np.unique(np.asarray(left, dtype=np.intp) * n
                               + np.asarray(right, dtype=np.intp), return_inverse=True)
    left, right = pairs // n, pairs % n
    out = matops._chunked_residuals(len(pairs), stack.shape[-1],
                                    lambda sl: np.matmul(stack[left[sl]], stack[right[sl]]))
    return out[inverse]


@pytest.mark.parametrize("rows, count", [(1, 0), (1, 1), (1, 300), (3, 0), (5, 1), (5, 400),
                                         (24, 11520)])
def test_product_norms_presence_table_matches_the_unique_dedup(monkeypatch, rows, count):
    """Random codes over a stack of D rows (D = 1 included, and empty left and right):
    the same products in the same order, and the same norms, bit for bit."""
    rng = np.random.default_rng(rows * 1000 + count)
    u = random_unitary(4, rng)
    stack = np.array([u @ random_hermitian(4, rng) @ u.conj().T for _ in range(rows)])
    left, right = rng.integers(0, rows, size=(2, count))
    residuals, formed = matops._residuals, []

    def recording(mats):
        formed.append(mats.tobytes())
        return residuals(mats)

    monkeypatch.setattr(matops, "_residuals", recording)
    got = product_norms(stack, left, right)
    products, formed[:] = list(formed), []
    expected = unique_product_norms(stack, left, right)
    assert products == formed
    assert (got.dtype, got.shape, got.tobytes()) == (expected.dtype, expected.shape,
                                                     expected.tobytes())


def counted_products(monkeypatch) -> list:
    """The number of matrices of each batch product_norms takes residuals of."""
    residuals, formed = matops._residuals, []

    def counting(mats):
        formed.append(len(mats))
        return residuals(mats)

    monkeypatch.setattr(matops, "_residuals", counting)
    return formed


def two_order_norms(stack, left, right) -> np.ndarray:
    """The norm of each pair's own product, in its own order: product_norms before it
    folded mirror pairs of Hermitian rows."""
    return np.array([norm2(stack[i] @ stack[j]) for i, j in zip(left, right)])


@pytest.mark.parametrize("d", [1, 2, 3, 4, 16])
def test_product_norms_fold_the_mirror_pairs_of_exactly_hermitian_rows(monkeypatch, d):
    """Haar-rotated Hermitian rows symmetrised as (E + E*)/2 are exactly Hermitian, and
    each unordered pair of them is multiplied once, for i <= j, both orders taking that
    product's norm: within rounding of the two-order loop, and bit for bit where the
    pair is in its own order.  The same rows unsymmetrised keep both orders, bit for bit."""
    rng = np.random.default_rng(300 + d)
    u = random_unitary(d, rng)
    rotated = np.array([u @ random_hermitian(d, rng) @ u.conj().T for _ in range(5)])
    left, right = rng.integers(0, 5, size=(2, 400))
    formed = counted_products(monkeypatch)
    for stack in ((rotated + dagger(rotated)) / 2, rotated):
        flags = _hermitian_rows(stack)
        assert flags.tolist() == [np.array_equal(m, m.conj().T) for m in stack]
        both = flags[left] & flags[right]
        folded_left = np.where(both, np.minimum(left, right), left)
        folded_right = np.where(both, np.maximum(left, right), right)
        formed.clear()
        got = product_norms(stack, left, right, flags)
        assert sum(formed) == len(set(zip(folded_left.tolist(), folded_right.tolist())))
        assert got.tolist() == two_order_norms(stack, folded_left, folded_right).tolist()
        want = two_order_norms(stack, left, right)
        own = ~both | (left <= right)
        assert got[own].tolist() == want[own].tolist()
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
    assert _hermitian_rows((rotated + dagger(rotated)) / 2).all()
    assert d == 1 or not _hermitian_rows(rotated).any()
    # with no flags, nothing is folded
    formed.clear()
    got = product_norms(rotated, left, right)
    assert sum(formed) == len(set(zip(left.tolist(), right.tolist())))
    assert got.tolist() == two_order_norms(rotated, left, right).tolist()


def test_a_row_one_ulp_off_its_adjoint_keeps_both_orders(monkeypatch):
    """Row 2 differs from its adjoint in one entry by one ulp: the three unordered pairs of
    the other rows are formed once each, and the six ordered pairs with row 2 both ways."""
    rng = np.random.default_rng(17)
    u = random_unitary(4, rng)
    stack = np.array([u @ random_hermitian(4, rng) @ u.conj().T for _ in range(4)])
    stack = (stack + dagger(stack)) / 2
    stack[2, 0, 1] = complex(np.nextafter(stack[2, 0, 1].real, np.inf), stack[2, 0, 1].imag)
    flags = _hermitian_rows(stack)
    assert flags.tolist() == [True, True, False, True]
    *_, in_pass = matops.pvm_defects(stack, range(4), [0] * 4, 1, 4)
    assert in_pass.tolist() == flags.tolist()
    left, right = np.array([(i, j) for i in range(4) for j in range(4) if i != j]).T
    formed = counted_products(monkeypatch)
    got = product_norms(stack, left, right, flags)
    assert sum(formed) == 3 + 6
    with_row_2 = (left == 2) | (right == 2)
    assert got[with_row_2].tolist() == two_order_norms(stack, left, right)[with_row_2].tolist()
    formed.clear()
    product_norms(stack, left, right, np.ones(4, dtype=bool))  # had row 2 been flagged
    assert sum(formed) == 6


def test_hermitian_rows_are_taken_in_chunks(monkeypatch):
    """The flags of a stack of 2^13 / 16 + 3 rows at d = 4, taken chunk by chunk and with
    one matrix per chunk, are those of each row alone; the empty stack has none."""
    rng = np.random.default_rng(23)
    stack = rng.normal(size=(515, 4, 4)) + 1j * rng.normal(size=(515, 4, 4))
    stack[::3] = (stack[::3] + dagger(stack[::3])) / 2
    want = [np.array_equal(m, m.conj().T) for m in stack]
    assert _hermitian_rows(stack).tolist() == want and sum(want) == 172
    monkeypatch.setattr(matops, "PRODUCT_CHUNK_ENTRIES", 1)
    assert _hermitian_rows(stack).tolist() == want
    assert _hermitian_rows(np.empty((0, 4, 4), dtype=complex)).shape == (0,)


def test_an_empty_pvm_row_has_completeness_residual_one_without_a_zero_sum():
    for d in (1, 2, 3, 5, 64):
        assert norm2(np.zeros((d, d)) - np.eye(d)) == 1.0  # what summing the empty row gave
        # row 0 is empty, row 1 holds the identity
        *defects, hermitian = matops.pvm_defects(np.eye(d, dtype=complex)[None], [0], [1], 2, d)
        assert defects == [0.0, 0.0, 1.0] and hermitian.tolist() == [True]
    # a zero sum of this size would take 1.6e17 bytes
    d = 10**8
    for n_rows, completeness in ((1, 1.0), (0, 0.0)):
        *defects, hermitian = matops.pvm_defects(np.empty((0, d, d), dtype=complex), [], [],
                                                 n_rows, d)
        assert defects == [0.0, 0.0, completeness] and hermitian.shape == (0,)
