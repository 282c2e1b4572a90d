"""Matrix kernel: eigendecomposition, spectral projections, tracial norms, kron."""
from __future__ import annotations

import numpy as np
import pytest

from conftest import random_hermitian

from syncgames.errors import BoundaryAmbiguityError, ValidationError
from syncgames.matops import (
    hermitian_eig,
    kron,
    matrix_from_json,
    matrix_to_json,
    norm2,
    ntrace,
    spectral_projection,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
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
    with pytest.raises(ValidationError):
        hermitian_eig(np.eye(8), max_dim=4)


def test_spectral_projection_window_trivial():
    q = spectral_projection(np.diag([1.0, 0.0]), window=(0.5, 1.0))
    assert np.allclose(q, np.diag([1.0, 0.0]))


def test_spectral_projection_value_set_pauli_x():
    q = spectral_projection(PAULI_X, values=[-1.0])
    assert np.allclose(q, 0.5 * np.array([[1, -1], [-1, 1]]))


def test_spectral_projection_three_level_contraction():
    # the [1/2, 1] window keeps exactly the top eigenvalue of diag(0.9, 0.4, 0.1)
    q = spectral_projection(np.diag([0.9, 0.4, 0.1]), window=(0.5, 1.0))
    assert np.allclose(q, np.diag([1.0, 0.0, 0.0]))


def test_spectral_projection_boundary_ambiguity():
    with pytest.raises(BoundaryAmbiguityError):
        spectral_projection(np.diag([0.5 + 1e-9, 0.1]), window=(0.5, 1.0))
    q = spectral_projection(np.diag([0.5 + 1e-9, 0.1]), window=(0.5, 1.0), boundary_margin=0.0)
    assert np.allclose(q, np.diag([1.0, 0.0]))


def test_spectral_projection_value_set_ambiguity():
    # 5e-6 is farther than value_tol from 0 but not 10x beyond it: ambiguous
    with pytest.raises(BoundaryAmbiguityError):
        spectral_projection(np.diag([1.0, 5e-6]), values=[1.0, 0.0], value_tol=1e-6)


def test_spectral_projection_commutes_with_input():
    rng = np.random.default_rng(9)
    for _ in range(20):
        d = int(rng.integers(2, 8))
        h = random_hermitian(d, rng)
        mid = float(np.median(np.linalg.eigvalsh(h)))
        try:
            q = spectral_projection(h, window=(mid + 0.05, 2.0))
        except BoundaryAmbiguityError:
            continue
        assert norm2(q @ h - h @ q) <= 1e-9
        assert norm2(q - q @ q) <= 1e-12


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
        assert abs(ntrace(a.conj().T @ b)) < 1e-14
        assert norm2(a + b) ** 2 == pytest.approx(norm2(a) ** 2 + norm2(b) ** 2, abs=1e-12)


def test_kron_identity_with_pauli_z():
    assert np.allclose(kron(np.eye(2), PAULI_Z), np.diag([1.0, -1.0, 1.0, -1.0]))


def test_kron_mixed_product_property():
    rng = np.random.default_rng(8)
    for _ in range(10):
        a, b, c, d = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(4))
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs) + 1)


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.allclose(matrix_from_json(matrix_to_json(m)), m)


def test_matrix_json_rejects_shape_mismatch():
    with pytest.raises(ValidationError):
        matrix_from_json({"dim": 2, "entries": [[[1.0, 0.0]]]})


@pytest.mark.parametrize("d", [16, 64, 256])
def test_eig_bound_scales_with_the_norm(d):
    """A valid Hermitian matrix of spectral norm 1e8 passes (the bound was 1e-9 * d alone)."""
    h = random_hermitian(d, np.random.default_rng(d), scale=1e8)
    res = hermitian_eig(h)
    u = res.eigenvectors
    residual = np.linalg.norm(u @ np.diag(res.eigenvalues) @ u.conj().T - h)
    assert residual <= 1e-9 * d * np.linalg.norm(h)
