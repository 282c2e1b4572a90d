"""Correlations, PVM/unitary conversion, and the Schmidt-block decomposition."""
from __future__ import annotations

import numpy as np
import pytest

from conftest import random_exact_pvm, random_unitary

from syncgames import build_hom_game, complete
from syncgames.errors import ClusterAmbiguityError, ValidationError, VerificationError
from syncgames.matops import norm2
from syncgames.strategies import (
    BipartiteStrategy,
    Correlation,
    OperatorStrategy,
    correlation_from_bipartite,
    correlation_from_tracial,
    decompose_qs,
    deterministic_to_operator,
    is_perfect,
    is_synchronous,
    pvm_to_unitary,
    sync_vector_defect,
    unitary_to_pvm,
)

X_PLUS = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
X_MINUS = 0.5 * np.array([[1, -1], [-1, 1]], dtype=complex)


def transpose_trick_strategy(pvms: dict, dim: int, inputs, outputs) -> BipartiteStrategy:
    """Alice's PVMs with transposed Bob PVMs and the maximally entangled state."""
    psi = np.eye(dim, dtype=complex).reshape(-1) / np.sqrt(dim)
    bob = {key: mat.T for key, mat in pvms.items()}
    return BipartiteStrategy(
        dim_a=dim, dim_b=dim, inputs=inputs, outputs=outputs, alice=pvms, bob=bob, state=psi
    )


def test_tracial_one_dimensional():
    s = OperatorStrategy(dim=1, inputs=(1,), outputs=(1, 2), pvms={(1, 1): np.eye(1)})
    corr = correlation_from_tracial(s)
    assert corr.value(1, 1, 1, 1) == pytest.approx(1.0)
    assert corr.value(1, 1, 1, 2) == 0.0
    assert corr.value(1, 1, 2, 2) == 0.0


def test_tracial_mutually_unbiased_bases():
    pvms = {
        (1, 1): np.diag([1.0, 0.0]).astype(complex),
        (1, 2): np.diag([0.0, 1.0]).astype(complex),
        (2, 1): X_PLUS,
        (2, 2): X_MINUS,
    }
    s = OperatorStrategy(dim=2, inputs=(1, 2), outputs=(1, 2), pvms=pvms)
    corr = correlation_from_tracial(s)
    for a in (1, 2):
        for b in (1, 2):
            assert corr.value(1, 2, a, b) == pytest.approx(0.25)


def test_tracial_rejects_invalid_pvm():
    s = OperatorStrategy(dim=2, inputs=(1,), outputs=(1,), pvms={(1, 1): 0.5 * np.eye(2)})
    with pytest.raises(VerificationError):
        correlation_from_tracial(s)


def test_tracial_synchronous_for_orthogonal_rows():
    rng = np.random.default_rng(12)
    for _ in range(10):
        d, n_in, m_out = 4, 3, 3
        pvms = {}
        for x in range(n_in):
            row = random_exact_pvm(d, m_out, rng)
            for a, e in enumerate(row):
                pvms[(x, a)] = e
        s = OperatorStrategy(dim=d, inputs=tuple(range(n_in)), outputs=tuple(range(m_out)), pvms=pvms)
        corr = correlation_from_tracial(s)
        assert is_synchronous(corr, 1e-12)


def test_bipartite_product_state_is_deterministic():
    e0 = np.diag([1.0, 0.0]).astype(complex)
    e1 = np.diag([0.0, 1.0]).astype(complex)
    psi = np.kron(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    s = BipartiteStrategy(
        dim_a=2,
        dim_b=2,
        inputs=(0,),
        outputs=(0, 1),
        alice={(0, 0): e0, (0, 1): e1},
        bob={(0, 0): e0, (0, 1): e1},
        state=psi,
    )
    corr = correlation_from_bipartite(s)
    assert corr.value(0, 0, 0, 1) == pytest.approx(1.0)
    assert corr.value(0, 0, 0, 0) == pytest.approx(0.0)


def test_bipartite_transpose_trick_matches_tracial():
    rng = np.random.default_rng(21)
    d, n_in, m_out = 3, 2, 3
    pvms = {}
    for x in range(n_in):
        for a, e in enumerate(random_exact_pvm(d, m_out, rng)):
            pvms[(x, a)] = e
    alice = OperatorStrategy(dim=d, inputs=tuple(range(n_in)), outputs=tuple(range(m_out)), pvms=pvms)
    bip = transpose_trick_strategy(pvms, d, alice.inputs, alice.outputs)
    c_bip = correlation_from_bipartite(bip)
    c_tr = correlation_from_tracial(alice)
    for key in set(c_bip.p) | set(c_tr.p):
        assert c_bip.value(*key) == pytest.approx(c_tr.value(*key), abs=1e-12)


def test_bipartite_state_perturbation_moves_entries_linearly():
    rng = np.random.default_rng(33)
    d = 3
    pvms = {}
    for x in range(2):
        for a, e in enumerate(random_exact_pvm(d, 2, rng)):
            pvms[(x, a)] = e
    base = transpose_trick_strategy(pvms, d, (0, 1), (0, 1))
    c0 = correlation_from_bipartite(base)
    for eps in (1e-3, 1e-5):
        eta = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
        eta /= np.linalg.norm(eta)
        psi = base.state + eps * eta
        psi /= np.linalg.norm(psi)
        moved = BipartiteStrategy(
            dim_a=d, dim_b=d, inputs=base.inputs, outputs=base.outputs,
            alice=dict(base.alice), bob=dict(base.bob), state=psi,
        )
        c1 = correlation_from_bipartite(moved)
        worst = max(abs(c0.value(*k) - c1.value(*k)) for k in set(c0.p) | set(c1.p))
        assert worst <= 10 * eps


def test_perfectness_of_deterministic_identity_on_k2():
    game = build_hom_game(complete(2), complete(2))
    s = deterministic_to_operator(game.inputs, game.outputs, {0: 0, 1: 1})
    corr = correlation_from_tracial(s)
    assert is_synchronous(corr, 0.0)
    assert is_perfect(corr, game, 0.0)


def test_uniform_correlation_is_not_perfect():
    game = build_hom_game(complete(2), complete(2))
    m = len(game.outputs)
    p = {
        (x, y, a, b): 1.0 / m**2
        for x in game.inputs
        for y in game.inputs
        for a in game.outputs
        for b in game.outputs
    }
    corr = Correlation(inputs=game.inputs, outputs=game.outputs, p=p)
    assert not is_perfect(corr, game, eps=1.0 / m**2 - 1e-9)


def test_pvm_to_unitary_two_outputs():
    u = pvm_to_unitary([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert np.allclose(u, np.diag([-1.0, 1.0]))


def test_pvm_to_unitary_three_coordinate_projections():
    omega = np.exp(2j * np.pi / 3)
    u = pvm_to_unitary([np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])])
    assert np.allclose(u, np.diag([omega, omega**2, 1.0]))


def test_pvm_unitary_roundtrip_random():
    rng = np.random.default_rng(44)
    for _ in range(25):
        d = int(rng.integers(2, 8))
        m = int(rng.integers(2, 5))
        row = random_exact_pvm(d, m, rng)
        u = pvm_to_unitary(row)
        back = unitary_to_pvm(u, m)
        assert max(norm2(e - f) for e, f in zip(row, back)) <= 1e-10
        assert norm2(pvm_to_unitary(back) - u) <= 1e-10


def test_unitary_to_pvm_rejects_wrong_order():
    u = np.diag([np.exp(2j * np.pi / 3), 1.0])
    with pytest.raises(VerificationError):
        unitary_to_pvm(u, 2)


def test_unitary_to_pvm_rejects_non_unitary():
    with pytest.raises(VerificationError):
        unitary_to_pvm(np.diag([0.5, 1.0]), 2)


def test_strategy_row_feeds_the_unitary_roundtrip():
    rng = np.random.default_rng(67)
    pvms = {}
    for x in range(2):
        for a, e in enumerate(random_exact_pvm(4, 3, rng)):
            pvms[(x, a)] = e
    s = OperatorStrategy(dim=4, inputs=(0, 1), outputs=(0, 1, 2), pvms=pvms)
    for x in s.inputs:
        row = s.row(x)
        back = unitary_to_pvm(pvm_to_unitary(row), len(s.outputs))
        assert max(norm2(e - f) for e, f in zip(row, back)) <= 1e-10


def test_sync_vector_defect_transpose_trick_is_zero():
    rng = np.random.default_rng(55)
    d = 4
    pvms = {}
    for x in range(2):
        for a, e in enumerate(random_exact_pvm(d, 3, rng)):
            pvms[(x, a)] = e
    s = transpose_trick_strategy(pvms, d, (0, 1), (0, 1, 2))
    assert sync_vector_defect(s) <= 1e-12
    # zero defect forces a synchronous correlation
    corr = correlation_from_bipartite(s)
    assert is_synchronous(corr, 1e-12)


def test_sync_vector_defect_positive_for_mismatched_product_state():
    e0 = np.diag([1.0, 0.0]).astype(complex)
    e1 = np.diag([0.0, 1.0]).astype(complex)
    psi = np.kron(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    s = BipartiteStrategy(
        dim_a=2, dim_b=2, inputs=(0,), outputs=(0, 1),
        alice={(0, 0): e0, (0, 1): e1}, bob={(0, 0): e0, (0, 1): e1}, state=psi,
    )
    assert sync_vector_defect(s) > 0.5


def _block_diagonal_strategy(rng, dims, weights, n_in=2, m_out=3):
    """Synchronous bipartite strategy assembled from tracial blocks with given weights."""
    total = sum(dims)
    inputs, outputs = tuple(range(n_in)), tuple(range(m_out))
    blocks = []
    for d in dims:
        blocks.append({x: random_exact_pvm(d, m_out, rng) for x in inputs})
    alice = {}
    for x in inputs:
        for a in outputs:
            mat = np.zeros((total, total), dtype=complex)
            offset = 0
            for d, blk in zip(dims, blocks):
                mat[offset : offset + d, offset : offset + d] = blk[x][a]
                offset += d
            alice[(x, a)] = mat
    bob = {key: mat.T for key, mat in alice.items()}
    psi = np.zeros((total, total), dtype=complex)
    offset = 0
    for d, t in zip(dims, weights):
        for k in range(offset, offset + d):
            psi[k, k] = np.sqrt(t / d)
        offset += d
    s = BipartiteStrategy(
        dim_a=total, dim_b=total, inputs=inputs, outputs=outputs,
        alice=alice, bob=bob, state=psi.reshape(-1),
    )
    return s, blocks


def test_decompose_single_maximally_entangled_block():
    rng = np.random.default_rng(66)
    d = 4
    pvms = {}
    for x in range(2):
        for a, e in enumerate(random_exact_pvm(d, 2, rng)):
            pvms[(x, a)] = e
    s = transpose_trick_strategy(pvms, d, (0, 1), (0, 1))
    blocks = decompose_qs(s, tol=1e-9)
    assert len(blocks) == 1
    weight, block = blocks[0]
    assert weight == pytest.approx(1.0)
    assert block.dim == d
    c_block = correlation_from_tracial(block)
    c_alice = correlation_from_tracial(s.alice_strategy())
    for key in set(c_block.p) | set(c_alice.p):
        assert c_block.value(*key) == pytest.approx(c_alice.value(*key), abs=1e-10)


def test_decompose_two_blocks_recovers_weights_and_correlations():
    rng = np.random.default_rng(77)
    s, source = _block_diagonal_strategy(rng, dims=(3, 2), weights=(0.7, 0.3))
    blocks = decompose_qs(s, tol=1e-9)
    assert [round(w, 9) for w, _ in blocks] == [0.7, 0.3]
    assert [b.dim for _, b in blocks] == [3, 2]
    for (w, block), d, blk in zip(blocks, (3, 2), source):
        ref = OperatorStrategy(
            dim=d, inputs=s.inputs, outputs=s.outputs,
            pvms={(x, a): blk[x][a] for x in s.inputs for a in s.outputs},
        )
        c_block = correlation_from_tracial(block)
        c_ref = correlation_from_tracial(ref)
        worst = max(abs(c_block.value(*k) - c_ref.value(*k)) for k in set(c_block.p) | set(c_ref.p))
        assert worst <= 1e-9


def test_decompose_recombination_certificate():
    rng = np.random.default_rng(88)
    s, _ = _block_diagonal_strategy(rng, dims=(2, 2, 1), weights=(0.5, 0.3, 0.2))
    blocks = decompose_qs(s, tol=1e-9)
    target = correlation_from_bipartite(s)
    recombined = {}
    for w, block in blocks:
        part = correlation_from_tracial(block)
        for key, val in part.p.items():
            recombined[key] = recombined.get(key, 0.0) + w * val
        assert is_synchronous(part, 1e-8)
    worst = max(
        abs(recombined.get(k, 0.0) - target.p.get(k, 0.0)) for k in set(recombined) | set(target.p)
    )
    assert worst <= 1e-8


def test_decompose_product_state_gives_classical_block():
    e = np.array([0.0, 1.0])
    f = np.array([1.0, 0.0])
    alice = {(0, 0): np.diag([1.0, 0.0]).astype(complex), (0, 1): np.diag([0.0, 1.0]).astype(complex)}
    bob = {(0, 0): np.diag([0.0, 1.0]).astype(complex), (0, 1): np.diag([1.0, 0.0]).astype(complex)}
    s = BipartiteStrategy(
        dim_a=2, dim_b=2, inputs=(0,), outputs=(0, 1), alice=alice, bob=bob, state=np.kron(e, f)
    )
    blocks = decompose_qs(s, tol=1e-9)
    assert len(blocks) == 1
    weight, block = blocks[0]
    assert weight == pytest.approx(1.0)
    assert block.dim == 1
    corr = correlation_from_tracial(block)
    assert corr.value(0, 0, 1, 1) == pytest.approx(1.0)


def test_decompose_pads_unequal_dimensions():
    psi = np.zeros((2, 3), dtype=complex)
    psi[0, 0] = psi[1, 1] = 1 / np.sqrt(2)
    alice = {(0, 0): np.diag([1.0, 0.0]).astype(complex), (0, 1): np.diag([0.0, 1.0]).astype(complex)}
    bob = {(0, 0): np.diag([1.0, 0.0, 0.0]).astype(complex), (0, 1): np.diag([0.0, 1.0, 1.0]).astype(complex)}
    s = BipartiteStrategy(
        dim_a=2, dim_b=3, inputs=(0,), outputs=(0, 1), alice=alice, bob=bob, state=psi.reshape(-1)
    )
    blocks = decompose_qs(s, tol=1e-9)
    assert len(blocks) == 1
    assert blocks[0][0] == pytest.approx(1.0)
    assert blocks[0][1].dim == 2


def _rectangular_strategy(rng, extra_a, extra_b):
    """A two-block synchronous strategy whose state lives on a common core of the two
    local spaces; each side gets extra dimensions carrying their own PVMs, and each side
    is rotated by its own Haar unitary."""
    core, _ = _block_diagonal_strategy(rng, dims=(2, 1), weights=(0.6, 0.4))
    k = core.dim_a

    def widen(pvms, extra):
        rows = {x: random_exact_pvm(extra, len(core.outputs), rng) for x in core.inputs}
        u = random_unitary(k + extra, rng)
        out = {}
        for (x, a), mat in pvms.items():
            big = np.zeros((k + extra, k + extra), dtype=complex)
            big[:k, :k] = mat
            big[k:, k:] = rows[x][a]
            out[(x, a)] = u @ big @ u.conj().T
        return out, u

    alice, u = widen(core.alice, extra_a)
    bob, v = widen(core.bob, extra_b)
    psi = np.zeros((k + extra_a, k + extra_b), dtype=complex)
    psi[:k, :k] = core.state_matrix()
    return BipartiteStrategy(
        dim_a=k + extra_a, dim_b=k + extra_b, inputs=core.inputs, outputs=core.outputs,
        alice=alice, bob=bob, state=(u @ psi @ v.T).reshape(-1),
    )


def _zero_padded_square(s: BipartiteStrategy) -> BipartiteStrategy:
    """Embed the smaller side into the larger dimension: zero rows and columns, plus an
    identity summand on each input's first output so every row still sums to I."""
    d = max(s.dim_a, s.dim_b)

    def pad(pvms, dim):
        out = {}
        for x in s.inputs:
            for a in s.outputs:
                big = np.zeros((d, d), dtype=complex)
                big[:dim, :dim] = pvms.get((x, a), 0.0)
                if a == s.outputs[0]:
                    big[dim:, dim:] = np.eye(d - dim)
                out[(x, a)] = big
        return out

    m = np.zeros((d, d), dtype=complex)
    m[: s.dim_a, : s.dim_b] = s.state_matrix()
    return BipartiteStrategy(
        dim_a=d, dim_b=d, inputs=s.inputs, outputs=s.outputs,
        alice=pad(s.alice, s.dim_a), bob=pad(s.bob, s.dim_b), state=m.reshape(-1),
    )


@pytest.mark.parametrize("extra_a, extra_b", [(0, 2), (2, 0), (1, 3), (3, 1)])
def test_decompose_rectangular_matches_zero_padded_square(extra_a, extra_b):
    rng = np.random.default_rng(500 + 10 * extra_a + extra_b)
    for _ in range(5):
        s = _rectangular_strategy(rng, extra_a, extra_b)
        blocks = decompose_qs(s, tol=1e-9)
        padded = decompose_qs(_zero_padded_square(s), tol=1e-9)
        assert [b.dim for _, b in blocks] == [b.dim for _, b in padded]
        assert sorted(b.dim for _, b in blocks) == [1, 2]
        for (weight, block), (weight_sq, block_sq) in zip(blocks, padded):
            assert abs(weight - weight_sq) <= 1e-12
            c_block = correlation_from_tracial(block).to_dense()
            c_square = correlation_from_tracial(block_sq).to_dense()
            assert np.max(np.abs(c_block - c_square)) <= 1e-12


def test_decompose_rejects_nonsynchronous_state():
    e0 = np.diag([1.0, 0.0]).astype(complex)
    e1 = np.diag([0.0, 1.0]).astype(complex)
    psi = np.eye(2, dtype=complex).reshape(-1) / np.sqrt(2)
    s = BipartiteStrategy(
        dim_a=2, dim_b=2, inputs=(0,), outputs=(0, 1),
        alice={(0, 0): e0, (0, 1): e1},
        bob={(0, 0): X_PLUS, (0, 1): X_MINUS},  # wrong basis: not the transposed family
        state=psi,
    )
    with pytest.raises(VerificationError):
        decompose_qs(s, tol=1e-9)


def test_decompose_cluster_ambiguity():
    # Schmidt coefficients just above the clustering tolerance apart, so they
    # land in separate clusters, with both PVM families coherently rotated
    # across the two Schmidt lines: the tiny coefficient gap suppresses the
    # sync defect (~ theta * gap) while neither single line reduces the
    # rotated unitary (residual ~ theta), so the split must be flagged.
    r1 = 1 / np.sqrt(2) + 1.5e-7
    r2 = np.sqrt(1 - r1**2)
    assert 1e-7 < r1 - r2 < 1e-6
    theta = 1e-2
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    e0 = rot @ np.diag([1.0, 0.0]) @ rot.T
    e1 = rot @ np.diag([0.0, 1.0]) @ rot.T
    alice = {(0, 0): e0.astype(complex), (0, 1): e1.astype(complex)}
    bob = {key: mat.T for key, mat in alice.items()}
    psi = np.diag([r1, r2]).astype(complex).reshape(-1)
    s = BipartiteStrategy(
        dim_a=2, dim_b=2, inputs=(0,), outputs=(0, 1), alice=alice, bob=bob, state=psi
    )
    assert sync_vector_defect(s) < 1e-6  # passes the defect gate: clustering is what trips
    with pytest.raises(ClusterAmbiguityError):
        decompose_qs(s, tol=1e-6)


def test_strategy_json_roundtrip():
    rng = np.random.default_rng(13)
    pvms = {}
    for x in ("a", "b"):
        for i, e in enumerate(random_exact_pvm(3, 2, rng)):
            pvms[(x, (i, 1))] = e
    s = OperatorStrategy(dim=3, inputs=("a", "b"), outputs=((0, 1), (1, 1)), pvms=pvms)
    back = OperatorStrategy.from_json_dict(s.to_json_dict())
    assert back.inputs == s.inputs
    assert back.outputs == s.outputs
    assert set(back.pvms) == set(s.pvms)
    for key in s.pvms:
        assert np.allclose(back.pvms[key], s.pvms[key])


def test_bipartite_json_roundtrip():
    rng = np.random.default_rng(14)
    pvms = {}
    for x in range(2):
        for a, e in enumerate(random_exact_pvm(2, 2, rng)):
            pvms[(x, a)] = e
    s = transpose_trick_strategy(pvms, 2, (0, 1), (0, 1))
    back = BipartiteStrategy.from_json_dict(s.to_json_dict())
    assert np.allclose(back.state, s.state)
    assert set(back.alice) == set(s.alice)


def test_correlation_json_roundtrip_dense_and_sparse():
    p = {(0, 0, 0, 0): 0.5, (0, 0, 1, 1): 0.5}
    corr = Correlation(inputs=(0,), outputs=(0, 1), p=p)
    dense = Correlation.from_json_dict(corr.to_json_dict())
    assert dense.p == corr.p
    sparse = Correlation.from_json_dict(corr.to_json_dict(max_dense_cells=0))
    assert sparse.p == corr.p


@pytest.mark.parametrize(
    "data",
    [
        {"n": 5, "m": 9, "inputs": [0], "outputs": [0], "entries": [[7, 7, 3, 4, 0.5]]},
        {"n": 1, "m": 1, "inputs": [0], "outputs": [0], "entries": [[7, 7, 3, 4, 0.5]]},
        {"n": 1, "m": 1, "inputs": [0], "outputs": [0], "entries": [[0, 0, 0, 4, 0.5]]},
        {"n": 2, "m": 1, "inputs": [0], "outputs": [0], "entries": [[0, 0, 0, 0, 1.0]]},
        {"n": 1, "m": 3, "inputs": [0], "outputs": [0], "p": [[[[1.0]]]]},
        {"inputs": [0], "outputs": [0], "p": [[[[1.0]]]]},
    ],
    ids=["counts-and-labels", "input-label", "output-label", "n-count", "m-count", "no-counts"],
)
def test_correlation_loader_refuses_counts_and_labels_off_the_lists(data):
    with pytest.raises(ValidationError):
        Correlation.from_json_dict(data)


def test_correlation_validation():
    corr = Correlation(inputs=(0,), outputs=(0,), p={(0, 0, 0, 0): 0.4})
    with pytest.raises(VerificationError):
        corr.validate(1e-9)


def test_bipartite_rejects_unnormalized_state():
    with pytest.raises(ValidationError):
        BipartiteStrategy(
            dim_a=1, dim_b=1, inputs=(0,), outputs=(0,),
            alice={(0, 0): np.eye(1)}, bob={(0, 0): np.eye(1)},
            state=np.array([2.0]),
        )
