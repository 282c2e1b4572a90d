"""Correlations and the Schmidt-block decomposition."""
from __future__ import annotations

import copy
import json
import pickle
import re

import numpy as np
import pytest

from conftest import (
    explicit_copy,
    kcopy_magic_square,
    predicate_of,
    random_exact_pvm,
    random_hermitian,
    random_unitary,
    rotated,
)

from syncgames import (
    build_hom_game,
    build_iso_game,
    build_synbcs,
    check_game_algebra_relations,
    complement_colouring_ga0,
    complete,
    game_from_json_dict,
    graph_from_system,
    independence_certificate_from_set,
    iso_strategy_from_bcs,
    strategy_from_rep,
    swap_iso_strategy,
)
from syncgames import strategies
from syncgames.games import game_from_losing
from syncgames.errors import ClusterAmbiguityError, ValidationError, VerificationError
from syncgames.labels import SignVectors
from syncgames.matops import dagger, hermitian_eig, matrix_to_json, norm2, residual
from syncgames.strategies import (
    BipartiteStrategy,
    PVMDefects,
    Correlation,
    OperatorStrategy,
    correlation_from_bipartite,
    correlation_from_tracial,
    decompose_qs,
    deterministic_to_operator,
    is_perfect,
    is_synchronous,
    sync_vector_defect,
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


def tracial_oracle(s: OperatorStrategy) -> dict:
    """The per-pair trace loop that the Gram product replaced."""
    p = {}
    for x, a in s.stored_keys():
        for y, b in s.stored_keys():
            val = complex(np.trace(s.pvms[(x, a)] @ s.pvms[(y, b)])) / s.dim
            if abs(val.imag) > 1e-9:
                raise VerificationError(f"non-real trace {val!r} at {(x, y, a, b)!r}")
            p[(x, y, a, b)] = val.real
    return p


def test_tracial_gram_product_matches_the_per_pair_traces():
    rng = np.random.default_rng(19)
    pvms = {(x, a): e for x in range(3) for a, e in enumerate(random_exact_pvm(8, 3, rng))}
    s = OperatorStrategy(dim=8, inputs=(0, 1, 2), outputs=(0, 1, 2), pvms=pvms)
    corr, expected = correlation_from_tracial(s), tracial_oracle(s)
    assert list(corr.p) == list(expected)
    assert max(abs(corr.p[key] - val) for key, val in expected.items()) <= 1e-15


def test_tracial_reports_the_first_non_real_trace():
    """Operators within a loose tol of a PVM but with a complex diagonal give non-real traces."""
    e = np.diag([1 + 0.1j, 0]).astype(complex)
    s = OperatorStrategy(dim=2, inputs=(0,), outputs=(0, 1), pvms={(0, 0): e, (0, 1): np.eye(2) - e})
    with pytest.raises(VerificationError) as expected:
        tracial_oracle(s)
    with pytest.raises(VerificationError, match="non-real trace") as got:
        correlation_from_tracial(s, tol=1.0)
    assert str(got.value) == str(expected.value)


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


def bipartite_oracle(s: BipartiteStrategy) -> dict:
    """The per-pair loop the Gram product replaced: one product and vdot per pair of
    Alice's and Bob's operators, in their dict order."""
    m = s.state_matrix()
    p = {}
    for (x, a), e in s.alice.items():
        em = e @ m
        for (y, b), f in s.bob.items():
            val = complex(np.vdot(m, em @ f.T))
            if abs(val.imag) > 1e-9:
                raise VerificationError(f"non-real probability {val!r} at {(x, y, a, b)!r}")
            p[(x, y, a, b)] = val.real
    return p


def random_bipartite(rng, dim_a: int, dim_b: int, n_in: int = 2, m_out: int = 3):
    """Haar-random PVMs on each side, stored in stored-key order, and a random state."""
    inputs, outputs = tuple(range(n_in)), tuple(range(m_out))
    alice, bob = (
        {(x, a): e for x in inputs for a, e in enumerate(random_exact_pvm(d, m_out, rng))}
        for d in (dim_a, dim_b)
    )
    psi = rng.normal(size=dim_a * dim_b) + 1j * rng.normal(size=dim_a * dim_b)
    return BipartiteStrategy(dim_a, dim_b, inputs, outputs, alice, bob, psi / np.linalg.norm(psi))


def test_bipartite_gram_product_matches_the_per_pair_loop():
    rng = np.random.default_rng(700)
    cases = [random_bipartite(rng, *dims) for dims in [(2, 5), (5, 2), (3, 4), (1, 6), (7, 3)]]
    cases += [_rectangular_strategy(rng, *extra) for extra in [(0, 2), (3, 1)]]
    for s in cases:
        assert s.dim_a != s.dim_b
        corr, expected = correlation_from_bipartite(s), bipartite_oracle(s)
        assert list(corr.p) == list(expected)
        assert max(abs(corr.p[key] - val) for key, val in expected.items()) <= 1e-12


def test_bipartite_sides_are_validated_once():
    rng = np.random.default_rng(701)
    s = random_bipartite(rng, 2, 3)
    assert s.alice_strategy() is s.alice_strategy() and s.bob_strategy() is s.bob_strategy()
    assert s.alice is s.alice_strategy().pvms and s.bob is s.bob_strategy().pvms
    assert (s.alice_strategy().dim, s.bob_strategy().dim) == (2, 3)


@pytest.mark.parametrize("state", [[np.nan], [-np.inf], [complex(1.0, np.nan)]],
                         ids=["nan", "-inf", "imag-nan"])
def test_bipartite_rejects_a_non_finite_state(state):
    with pytest.raises(ValidationError):
        BipartiteStrategy(
            dim_a=1, dim_b=1, inputs=(0,), outputs=(0,),
            alice={(0, 0): np.eye(1)}, bob={(0, 0): np.eye(1)}, state=np.array(state),
        )


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


def _rotated_lines_strategy(theta: float) -> BipartiteStrategy:
    """Schmidt coefficients just above the clustering tolerance apart, so they land in
    separate clusters, with both PVM families coherently rotated by theta across the two
    Schmidt lines: the tiny coefficient gap suppresses the sync defect (~ theta * gap)
    while neither single line reduces the rotated operators (residual ~ theta)."""
    r1 = 1 / np.sqrt(2) + 1.5e-7
    r2 = np.sqrt(1 - r1**2)
    assert 1e-7 < r1 - r2 < 1e-6
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    e0 = rot @ np.diag([1.0, 0.0]) @ rot.T
    e1 = rot @ np.diag([0.0, 1.0]) @ rot.T
    alice = {(0, 0): e0.astype(complex), (0, 1): e1.astype(complex)}
    bob = {key: mat.T for key, mat in alice.items()}
    psi = np.diag([r1, r2]).astype(complex).reshape(-1)
    return BipartiteStrategy(
        dim_a=2, dim_b=2, inputs=(0,), outputs=(0, 1), alice=alice, bob=bob, state=psi
    )


def test_decompose_cluster_ambiguity():
    s = _rotated_lines_strategy(1e-2)
    assert sync_vector_defect(s) < 1e-6  # passes the defect gate: clustering is what trips
    with pytest.raises(ClusterAmbiguityError):
        decompose_qs(s, tol=1e-6)


def _first_level_columns(s: BipartiteStrategy) -> tuple:
    """Alice's and Bob's orthonormal columns of the largest Schmidt level of size one,
    computed as decompose_qs computes them."""
    m = s.state_matrix()
    eig = hermitian_eig(m @ dagger(m))
    k = int(np.argmax(eig.eigenvalues))
    a_cols = eig.eigenvectors[:, [k]]
    return a_cols, np.conj(dagger(m) @ a_cols) / np.sqrt(eig.eigenvalues[k])


def test_cluster_ambiguity_reports_the_largest_per_operator_residual():
    """The refusal's residual is the largest norm2((I - P) E P) over both sides' operators,
    as a per-operator loop takes it."""
    s = _rotated_lines_strategy(1e-2)
    expected = 0.0
    for cols, side in zip(_first_level_columns(s), (s.alice, s.bob)):
        p = cols @ dagger(cols)
        for e in side.values():
            expected = max(expected, norm2((np.eye(2) - p) @ e @ p))
    with pytest.raises(ClusterAmbiguityError,
                       match=re.escape(f"at input 0 (residual {expected:.3e} > 1e-06)")):
        decompose_qs(s, tol=1e-6)


@pytest.mark.parametrize("theta", [1e-2, 1e-4, 0.3])
def test_per_operator_residual_is_half_the_row_unitary_residual_at_two_outputs(theta):
    """At m = 2 the row unitary is w E_0 + w^2 E_1 = E_1 - E_0 = 2 E_1 - I (w = -1), so
    the residual of the unitary, which the reduction check used to take, is twice the
    largest per-operator residual it takes now."""
    s = _rotated_lines_strategy(theta)
    omega = np.exp(2j * np.pi / 2)
    old = new = 0.0
    for cols, side in zip(_first_level_columns(s), (s.alice_strategy(), s.bob_strategy())):
        p = cols @ dagger(cols)
        u = sum(omega ** (i + 1) * side.pvms[(0, a)] for i, a in enumerate(s.outputs))
        old = max(old, norm2((np.eye(2) - p) @ u @ p))
        new = max(new, float(strategies._compress(side.stack, cols)[1].max()))
    assert new == pytest.approx(old / 2, rel=1e-12)
    with pytest.raises(ClusterAmbiguityError, match=re.escape(f"(residual {new:.3e} > ")):
        decompose_qs(s, tol=1e-6)


def _bob_rotated_strategy(delta: float) -> BipartiteStrategy:
    """Alice's operators block-diagonal over three Schmidt levels: a heavy line pair and
    two light lines of coefficients 1e-3 and 2e-3.  Bob's are her transposes rotated by
    exp(delta A), A coupling the two light lines: still projections, and synchronous up
    to a defect of about 2e-3 * delta, but Bob's light lines no longer reduce input 0's
    operators (residual about delta / 2)."""
    h = np.full((2, 2), 0.5)
    e00, e10 = np.diag([1.0, 0.0, 1.0, 0.0]), np.zeros((4, 4))
    e10[:2, :2], e10[2:, 2:] = h, np.eye(2)
    alice = {(0, 0): e00, (0, 1): np.eye(4) - e00, (1, 0): e10, (1, 1): np.eye(4) - e10}
    rot = np.eye(4)
    rot[2:, 2:] = [[np.cos(delta), -np.sin(delta)], [np.sin(delta), np.cos(delta)]]
    bob = {key: rot @ mat.T @ rot.T for key, mat in alice.items()}
    light = np.array([1e-3, 2e-3])
    heavy = np.sqrt((1 - np.sum(light**2)) / 2)
    psi = np.diag([heavy, heavy, *light]).astype(complex).reshape(-1)
    return BipartiteStrategy(4, 4, (0, 1), (0, 1), alice, bob, psi)


def test_only_bobs_reduction_check_refuses_a_bob_side_rotation():
    """The synchronous-state gate and Alice's reductions pass, so the refusal comes from
    Bob's residual alone: at the 2e-3 line, input 0's rotated operators, residual about
    delta / 2 = 5e-8 > tol."""
    delta, tol = 1e-7, 1e-9
    s = _bob_rotated_strategy(delta)
    assert s.bob_strategy().defects().max <= 1e-15
    assert sync_vector_defect(s) < tol
    m = s.state_matrix()
    alice_residual = bob_residual = 0.0
    for k in (3, 2):  # the light lines, larger first; both sides' columns are e_k
        cols = np.eye(4)[:, [k]]
        alice_residual = max(alice_residual, strategies._compress(s.alice_strategy().stack, cols)[1].max())
        bob_residual = max(bob_residual, strategies._compress(s.bob_strategy().stack, cols)[1].max())
    assert m[3, 3] > m[2, 2] and alice_residual == 0.0
    assert bob_residual == pytest.approx(delta / 2, rel=1e-6)
    with pytest.raises(ClusterAmbiguityError,
                       match=re.escape(f"size 1 fails the reduction check at input 0 (residual "
                                       f"{bob_residual:.3e} > 1e-09)")):
        decompose_qs(s, tol=tol)


def decompose_oracle(s: BipartiteStrategy) -> list:
    """The per-key compression loop decompose_qs replaced: (weight, {key: the symmetrised
    a* E a}) per Schmidt level, in stored-key order, leaving out a zero compression."""
    m = s.state_matrix()
    eig = hermitian_eig(m @ dagger(m))
    order = np.argsort(eig.eigenvalues)[::-1]
    lam = np.clip(eig.eigenvalues[order], 0.0, None)
    vecs = eig.eigenvectors[:, order]
    levels = []
    for level in strategies._schmidt_levels(np.sqrt(lam), strategies.DEFAULT_CLUSTER_TOL):
        a_cols = vecs[:, level]
        compressed = {}
        for key, e in s.alice.items():
            small = dagger(a_cols) @ e @ a_cols
            small = (small + dagger(small)) / 2
            if norm2(small) > 0.0:
                compressed[key] = small
        levels.append((float(np.sum(lam[level])), compressed))
    return levels


def _shared_rows_strategy(rng) -> BipartiteStrategy:
    """A planted three-block strategy whose input 1 repeats input 0's operators, so the
    keys (0, a) and (1, a) share a row on each side."""
    s, _ = _block_diagonal_strategy(rng, dims=(3, 2, 1), weights=(0.5, 0.3, 0.2))
    alice = {(x, a): s.alice[(0, a)] for x, a in s.alice}
    bob = {(x, a): s.bob[(0, a)] for x, a in s.bob}
    return BipartiteStrategy(s.dim_a, s.dim_b, s.inputs, s.outputs, alice, bob, s.state)


def test_decompose_blocks_match_the_per_key_compression_loop():
    """Blocks and weights are bit-identical to the per-key loop, and keys that share an
    operator share its compression."""
    rng = np.random.default_rng(720)
    planted = [((3, 2), (0.7, 0.3)), ((2, 2, 1), (0.5, 0.3, 0.2)), ((4, 1, 3), (0.2, 0.45, 0.35))]
    cases = [_block_diagonal_strategy(rng, dims, weights, m_out=4)[0] for dims, weights in planted]
    cases += [_rectangular_strategy(rng, 1, 3), _shared_rows_strategy(rng)]
    for s in cases:
        blocks, expected = decompose_qs(s, tol=1e-9), decompose_oracle(s)
        assert [w for w, _ in blocks] == [w for w, _ in expected]
        for (_, block), (_, compressed) in zip(blocks, expected):
            assert list(block.pvms) == list(compressed)
            assert all(block.pvms[key].tobytes() == mat.tobytes() for key, mat in compressed.items())
    shared_ids = cases[-1].alice_strategy().ids.tolist()
    assert shared_ids[:3] == shared_ids[3:]  # inputs 0 and 1, in stored-key order
    for _, block in decompose_qs(cases[-1], tol=1e-9):
        for a in block.outputs:
            if (0, a) in block.pvms:
                assert block.pvms[(0, a)] is block.pvms[(1, a)]


def test_decompose_refuses_a_slightly_rotated_bob_by_its_sync_defect():
    """Bob's PVM rotated by 1e-6 against the maximally entangled state: the
    synchronous-state defect is the rotation angle, and decompose_qs stops there."""
    theta = 1e-6
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    e0, e1 = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
    s = BipartiteStrategy(
        dim_a=2, dim_b=2, inputs=(0,), outputs=(0, 1),
        alice={(0, 0): e0, (0, 1): e1}, bob={(0, 0): rot @ e0 @ rot.T, (0, 1): rot @ e1 @ rot.T},
        state=np.eye(2, dtype=complex).reshape(-1) / np.sqrt(2),
    )
    with pytest.raises(VerificationError, match=re.escape("synchronous-state defect 1.000e-06 > 1e-09")):
        decompose_qs(s, tol=1e-9)


def two_line_strategy() -> BipartiteStrategy:
    """A 2 x 2 strategy with Schmidt coefficients 0.8 and 0.6, each side diagonal."""
    e0, e1 = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
    pvms = {(0, 0): e0, (0, 1): e1}
    return BipartiteStrategy(
        dim_a=2, dim_b=2, inputs=(0,), outputs=(0, 1), alice=pvms, bob=pvms,
        state=np.diag([0.8, 0.6]).astype(complex).reshape(-1),
    )


def test_decompose_refuses_merged_schmidt_lines_by_the_recombination():
    """A cluster tolerance wider than the gap between Schmidt coefficients 0.8 and 0.6
    merges the two lines into one uniform block: every check before the recombination
    passes, and the recombination misses p(0, 0 | 0, 0) = 0.64 by 0.14."""
    with pytest.raises(VerificationError,
                       match=re.escape("block recombination misses the input correlation by 1.400e-01")):
        decompose_qs(two_line_strategy(), tol=1e-9, cluster_tol=0.3)


def test_decompose_refuses_a_state_with_every_schmidt_coefficient_within_the_tolerance():
    """A cluster tolerance of 1 treats both Schmidt coefficients, 0.8 and 0.6, as zero:
    no level set is left to decompose into."""
    with pytest.raises(VerificationError, match="^state has no Schmidt coefficient above "
                                                "the clustering tolerance$"):
        decompose_qs(two_line_strategy(), tol=1e-9, cluster_tol=1.0)


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
    # 2^11 outputs give 2^22 cells, more than MAX_DENSE_CORRELATION_CELLS
    outputs = SignVectors(11)
    p = {(0, 0, outputs[0], outputs[0]): 0.25, (0, 0, outputs[-1], outputs[-1]): 0.75}
    wide = Correlation(inputs=(0,), outputs=outputs, p=p)
    data = wide.to_json_dict()
    assert "p" not in data and len(data["entries"]) == 2
    assert Correlation.from_json_dict(data).p == p


def test_loaders_refuse_repeated_labels_and_keys_naming_the_repeat():
    """A repeated label would fold cells or keys into one, and a repeated key or entry
    would keep only its last value: each is refused, naming what repeats."""
    one = matrix_to_json(np.eye(1))
    strategy = {"dim": 1, "inputs": ["x"], "outputs": [0],
                "pvms": [{"input": "x", "output": 0, "matrix": one}]}
    bipartite = {"dim_a": 1, "dim_b": 1, "inputs": ["x"], "outputs": [0],
                 "alice": strategy["pvms"], "bob": strategy["pvms"], "state": [[1.0, 0.0]]}
    correlation = {"n": 1, "m": 1, "inputs": ["x"], "outputs": [0],
                   "entries": [["x", "x", 0, 0, 1.0]]}
    assert OperatorStrategy.from_json_dict(strategy).pvms.keys() == {("x", 0)}
    assert BipartiteStrategy.from_json_dict(bipartite).alice.keys() == {("x", 0)}
    assert Correlation.from_json_dict(correlation).p == {("x", "x", 0, 0): 1.0}
    cases = [
        (OperatorStrategy, {**strategy, "inputs": ["x", "x"]}, "strategy inputs repeat 'x'"),
        (OperatorStrategy, {**strategy, "outputs": [0, 0]}, "strategy outputs repeat 0"),
        (OperatorStrategy, {**strategy, "pvms": strategy["pvms"] * 2},
         r"strategy pvms repeat \('x', 0\)"),
        (BipartiteStrategy, {**bipartite, "inputs": ["x", "x"]},
         "bipartite strategy inputs repeat 'x'"),
        (BipartiteStrategy, {**bipartite, "bob": strategy["pvms"] * 2},
         r"bipartite strategy bob repeat \('x', 0\)"),
        (Correlation, {**correlation, "n": 2, "inputs": ["x", "x"]},
         "correlation inputs repeat 'x'"),
        (Correlation, {**correlation, "m": 2, "outputs": [0, 0], "p": [[[[1.0, 0.0], [0.0, 0.0]]]]},
         "correlation outputs repeat 0"),
        (Correlation, {**correlation, "entries": correlation["entries"] * 2},
         r"correlation entries repeat \('x', 'x', 0, 0\)"),
    ]
    for cls, data, message in cases:
        with pytest.raises(ValidationError, match=message):
            cls.from_json_dict(data)


def dense_entries_oracle(dense: np.ndarray, inputs, outputs) -> dict:
    """The loop the dense correlation loader ran over every cell."""
    p = {}
    for ix, x in enumerate(inputs):
        for iy, y in enumerate(inputs):
            for ia, a in enumerate(outputs):
                for ib, b in enumerate(outputs):
                    val = float(dense[ix, iy, ia, ib])
                    if val != 0.0:
                        p[(x, y, a, b)] = val
    return p


def test_dense_correlation_entries_match_the_cell_loop():
    inputs, outputs = ("x", 1, (2, "y")), ((-1, 1), "b")
    dense = np.random.default_rng(15).uniform(size=(3, 3, 2, 2))
    dense[dense < 0.4] = 0.0
    dense[0, 1, 0, 1], dense[2, 2, 1, 0], dense[1, 0, 1, 1] = -0.0, np.nan, -0.25
    data = json.loads(json.dumps({"n": 3, "m": 2, "inputs": [0, 1, 2], "outputs": [0, 1],
                                  "p": dense.tolist()}))  # json writes and reads NaN
    cells = np.asarray(data["p"], dtype=float)

    def bits(p: dict) -> list:
        return [(key, np.float64(val).tobytes()) for key, val in p.items()]

    expected = dense_entries_oracle(cells, inputs, outputs)
    assert 0 < len(expected) < cells.size and (0, 1, 0, 1) not in expected
    assert bits(strategies._dense_entries(cells, inputs, outputs)) == bits(expected)
    with pytest.raises(ValidationError, match="NaN or infinite"):
        Correlation.from_json_dict(data)
    cells[2, 2, 1, 0] = 0.5
    data["p"] = cells.tolist()
    loaded = Correlation.from_json_dict(data)
    assert bits(loaded.p) == bits(dense_entries_oracle(cells, (0, 1, 2), (0, 1)))


def pickled(obj):
    return pickle.loads(pickle.dumps(obj))


def assert_same_strategy(s: OperatorStrategy, back: OperatorStrategy) -> None:
    """back holds s's keys and operators bit for bit, in a read-only stack, and two keys
    share a row in back exactly when they share one in s (the row numbers may differ)."""
    assert (back.dim, back.inputs, back.outputs) == (s.dim, s.inputs, s.outputs)
    assert back.stored_keys() == s.stored_keys()
    assert all(back.pvms[key].tobytes() == s.pvms[key].tobytes() for key in s.pvms)
    assert not back.stack.flags.writeable and not back.ids.flags.writeable
    assert not any(mat.flags.writeable for mat in back.pvms.values())
    assert np.array_equal(np.equal.outer(back.ids, back.ids), np.equal.outer(s.ids, s.ids))
    assert len(back.stack) == len(s.stack)


@pytest.mark.parametrize("clone", [pickled, copy.deepcopy, copy.copy],
                         ids=["pickle", "deepcopy", "copy"])
def test_strategies_reps_and_certificates_copy_through_their_constructors(
        clone, magic_square, pauli_rep):
    bcs = strategy_from_rep(pauli_rep, magic_square)
    iso = iso_strategy_from_bcs(bcs, magic_square)
    swapped = swap_iso_strategy(iso)
    assert not np.array_equal(swapped.ids, np.sort(swapped.ids))  # its rows keep iso's numbers
    for s in (bcs, iso, swapped):
        assert_same_strategy(s, clone(s))

    bipartite = random_bipartite(np.random.default_rng(16), 2, 3)
    back = clone(bipartite)
    assert back.state.tobytes() == bipartite.state.tobytes()
    assert_same_strategy(bipartite.alice_strategy(), back.alice_strategy())
    assert_same_strategy(bipartite.bob_strategy(), back.bob_strategy())
    assert back.alice is back.alice_strategy().pvms

    rep = clone(pauli_rep)
    assert rep.stack.tobytes() == pauli_rep.stack.tobytes() and not rep.stack.flags.writeable
    assert all(np.shares_memory(w, rep.stack) for w in rep.images + (rep.j_image,))

    g_0 = graph_from_system(magic_square, use_b=False)
    cert = independence_certificate_from_set(g_0, complement_colouring_ga0(magic_square).independent_set)
    assert cert.verify().passes  # builds the kept game
    back = clone(cert)
    assert (back.graph, back.value) == (cert.graph, cert.value) and "_game" not in vars(back)
    assert_same_strategy(cert.strategy, back.strategy)
    assert back.verify().as_dict() == cert.verify().as_dict()


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


def test_correlation_validation_fails_on_a_nan_entry():
    corr = Correlation(inputs=(0,), outputs=(0, 1), p={(0, 0, 0, 0): 1.0, (0, 0, 0, 1): np.nan})
    assert np.isnan(corr.max_range_violation())
    with pytest.raises(VerificationError, match="violation nan"):
        corr.validate(1e-9)


def test_empty_correlation_is_vacuously_valid():
    corr = Correlation(inputs=(), outputs=(), p={})
    assert corr.max_normalization_defect() == 0.0 and corr.max_range_violation() == 0.0
    corr.validate(1e-9)
    empty = OperatorStrategy(dim=2, inputs=(), outputs=(0,), pvms={})
    assert correlation_from_tracial(empty).p == {}


@pytest.mark.parametrize("inputs, outputs", [((), (0,)), ((1,), ()), ((), ())])
def test_dense_correlation_without_cells_loads_back(inputs, outputs):
    corr = Correlation(inputs=inputs, outputs=outputs, p={})
    data = json.loads(json.dumps(corr.to_json_dict()))
    assert np.asarray(data["p"]).size == 0
    back = Correlation.from_json_dict(data)
    assert (back.inputs, list(back.outputs), back.p) == (corr.inputs, list(corr.outputs), {})


def test_bipartite_rejects_unnormalized_state():
    with pytest.raises(ValidationError):
        BipartiteStrategy(
            dim_a=1, dim_b=1, inputs=(0,), outputs=(0,),
            alice={(0, 0): np.eye(1)}, bob={(0, 0): np.eye(1)},
            state=np.array([2.0]),
        )


# ------------------------------------------------------ batched max_losing --

def max_losing_oracle(corr: Correlation, game) -> tuple:
    """The per-entry loop Correlation.max_losing replaced: one call of the game's oracle
    predicate per stored entry, keeping the first strict maximum above 0."""
    worst, witness, wins = 0.0, None, predicate_of(game)
    for (x, y, a, b), val in corr.p.items():
        if not wins(x, y, a, b) and val > worst:
            worst, witness = val, (x, y, a, b)
    return worst, witness


def rotated_correlation(strategy, seed: int) -> Correlation:
    u = random_unitary(strategy.dim, np.random.default_rng(seed))
    return correlation_from_tracial(rotated(strategy, u))


def noisy(corr: Correlation, seed: int, scale: float = 1e-3) -> Correlation:
    rng = np.random.default_rng(seed)
    p = {key: val + scale * rng.normal() for key, val in corr.p.items()}
    return Correlation(corr.inputs, corr.outputs, p)


def max_losing_cases() -> list:
    """(correlation, game) params: Haar-rotated perfect strategies, whose losing entries
    are rounding noise of either sign, the same with noise on every entry, and a
    correlation per game kind."""
    cases = []
    for copies in (1, 2):
        sys_, rep = kcopy_magic_square(copies)
        strategy, game = strategy_from_rep(rep, sys_), build_synbcs(sys_)
        corr = rotated_correlation(strategy, 71 + copies)
        cases.append(pytest.param(corr, game, id=f"rotated-{copies}-copy"))
        cases.append(pytest.param(noisy(corr, 73 + copies), game, id=f"noisy-{copies}-copy"))
        if copies == 1:
            iso = iso_strategy_from_bcs(strategy, sys_)
            iso_game = build_iso_game(graph_from_system(sys_, use_b=True),
                                      graph_from_system(sys_, use_b=False))
            cases.append(pytest.param(noisy(rotated_correlation(iso, 79), 83), iso_game, id="iso"))
    hom = build_hom_game(complete(3), complete(3))
    uniform = {(x, y, a, b): 1.0 / 9 for x in hom.inputs for y in hom.inputs
               for a in hom.outputs for b in hom.outputs}
    cases.append(pytest.param(noisy(Correlation(hom.inputs, hom.outputs, uniform), 89), hom,
                              id="hom"))
    explicit = game_from_json_dict(explicit_copy(build_hom_game(complete(2), complete(3)))
                                   .to_json_dict())
    cases.append(pytest.param(noisy(Correlation((0, 1), (0, 1, 2), {
        key: 1.0 / 9 for key in uniform if max(key) < 3 and max(key[:2]) < 2}), 97), explicit,
        id="explicit"))
    return cases


@pytest.mark.parametrize("corr, game", max_losing_cases())
def test_max_losing_matches_the_per_entry_loop(corr, game):
    assert corr.max_losing(game) == max_losing_oracle(corr, game)


def test_max_losing_keeps_the_first_of_tied_maxima_and_skips_nan():
    game = build_hom_game(complete(2), complete(2))
    p = {(0, 1, 0, 0): 0.25, (0, 0, 0, 1): float("nan"), (1, 0, 1, 1): 0.25,
         (0, 0, 0, 0): 0.5, (1, 1, 1, 0): 0.1}
    corr = Correlation(game.inputs, game.outputs, p)
    assert corr.max_losing(game) == max_losing_oracle(corr, game) == (0.25, (0, 1, 0, 0))
    p[(1, 1, 0, 1)] = float("inf")
    corr = Correlation(game.inputs, game.outputs, p)
    assert corr.max_losing(game) == max_losing_oracle(corr, game) == (float("inf"), (1, 1, 0, 1))
    winning = Correlation(game.inputs, game.outputs, {(0, 0, 0, 0): 0.5, (0, 1, 0, 1): 0.5})
    assert winning.max_losing(game) == (0.0, None)
    assert Correlation(game.inputs, game.outputs, {}).max_losing(game) == (0.0, None)


def test_max_losing_reads_the_mask_in_entry_order_on_an_asymmetric_game():
    """(0, 1, 0, 0) loses but (1, 0, 0, 0) wins, so a transposed mask lookup is caught."""
    diagonal = [(x, x, a, b) for x in (0, 1) for a in (0, 1) for b in (0, 1) if a != b]
    game = game_from_losing(inputs=[0, 1], outputs=[0, 1], losing=diagonal + [(0, 1, 0, 0)])
    corr = Correlation(game.inputs, game.outputs, {(1, 0, 0, 0): 0.5, (0, 1, 0, 0): 0.3})
    assert corr.max_losing(game) == max_losing_oracle(corr, game) == (0.3, (0, 1, 0, 0))


def test_max_losing_refuses_labels_the_game_does_not_have():
    game = build_hom_game(complete(2), complete(2))
    for key in ((0, 2, 0, 0), (0, 0, 0, 5)):
        with pytest.raises(ValidationError):
            Correlation((0, 1, 2), (0, 1, 5), {key: 0.5}).max_losing(game)


def defects_oracle(s: OperatorStrategy) -> PVMDefects:
    """The per-operator loop OperatorStrategy.defects replaced: one residual call per
    adjoint and idempotency check, one row sum per input in output order."""
    eye = np.eye(s.dim, dtype=complex)
    max_adj = max_proj = max_complete = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for mat in s.pvms.values():
            max_adj = max(max_adj, residual(mat - dagger(mat)))
            max_proj = max(max_proj, residual(mat - mat @ mat))
        for x in s.inputs:
            total = sum((mat for (x2, _), mat in s.pvms.items() if x2 == x), 0.0 * eye)
            max_complete = max(max_complete, residual(total - eye))
    return PVMDefects(max_adj, max_proj, max_complete)


def perturbed(s: OperatorStrategy, seed: int, scale: float) -> OperatorStrategy:
    """s with non-Hermitian noise of the given scale on every stored operator."""
    rng = np.random.default_rng(seed)
    noise = {
        key: random_hermitian(s.dim, rng, scale) + 1j * scale * rng.normal(size=(s.dim, s.dim))
        for key in s.pvms
    }
    return OperatorStrategy(s.dim, s.inputs, s.outputs, {k: m + noise[k] for k, m in s.pvms.items()})


def defects_cases() -> list:
    """Haar-rotated 1- and 2-copy strategies (one chunk of 4 x 4 operators, and
    48 operators of 16 x 16, 32 to a chunk), noisy copies of them, a Haar-rotated
    iso strategy (192 stored operators), 128 x 128 operators (one to a chunk), an
    input with no stored operator, and huge entries whose products overflow."""
    cases = []
    for copies in (1, 2):
        sys_, rep = kcopy_magic_square(copies)
        strategy = strategy_from_rep(rep, sys_)
        spun = rotated(strategy, random_unitary(strategy.dim, np.random.default_rng(80 + copies)))
        cases.append(pytest.param(spun, id=f"rotated-{copies}-copy"))
        cases.append(pytest.param(perturbed(spun, 90 + copies, 1e-6), id=f"noisy-{copies}-copy"))
    magic, pauli = kcopy_magic_square(1)
    iso = iso_strategy_from_bcs(strategy_from_rep(pauli, magic), magic)
    cases.append(pytest.param(rotated(iso, random_unitary(4, np.random.default_rng(94))), id="iso"))
    rng = np.random.default_rng(95)
    big = {(x, a): e for x in range(2) for a, e in enumerate(random_exact_pvm(128, 3, rng))}
    cases.append(pytest.param(perturbed(OperatorStrategy(128, (0, 1), (0, 1, 2), big), 96, 1e-3),
                              id="d128"))
    sparse = {(0, 1): np.eye(2, dtype=complex), (2, 0): np.diag([1.0, 0.0]).astype(complex)}
    cases.append(pytest.param(OperatorStrategy(2, (0, 1, 2), (0, 1), sparse), id="empty-row"))
    huge = {(0, 0): np.array([[1e200, 1e200], [-1e200, 3.0]]), (0, 1): np.eye(2) * 1e-300,
            (1, 1): np.array([[1.7e308, 0.0], [0.0, -1.7e308]])}
    cases.append(pytest.param(OperatorStrategy(2, (0, 1), (0, 1), huge), id="overflow"))
    return cases


@pytest.mark.parametrize("strategy", defects_cases())
def test_defects_match_the_per_operator_loop_bit_for_bit(strategy):
    assert strategy.defects() == defects_oracle(strategy)


def test_defects_read_zero_on_an_empty_strategy():
    s = OperatorStrategy(dim=3, inputs=(), outputs=(0,), pvms={})
    assert s.defects() == PVMDefects(0.0, 0.0, 0.0) == defects_oracle(s)


def sync_vector_defect_oracle(s: BipartiteStrategy) -> float:
    """The per-key loop sync_vector_defect replaced: one product pair and norm per key."""
    m = s.state_matrix()
    alice, bob = s.alice_strategy(), s.bob_strategy()
    worst = 0.0
    for x, a in set(s.alice) | set(s.bob):
        worst = max(worst, float(np.linalg.norm(alice.matrix(x, a) @ m - m @ bob.matrix(x, a).T)))
    return worst


def test_sync_vector_defect_matches_the_per_key_loop():
    """Haar-rotated two-block strategies (defect near 0), the same with a perturbed
    state, random strategies (defect of order 1) and keys stored on one side only."""
    rng = np.random.default_rng(710)
    cases = [_rectangular_strategy(rng, *extra) for extra in [(0, 2), (2, 0), (1, 3), (3, 1)]]
    for s in list(cases):
        psi = s.state + 1e-3 * (rng.normal(size=s.state.size) + 1j * rng.normal(size=s.state.size))
        cases.append(BipartiteStrategy(s.dim_a, s.dim_b, s.inputs, s.outputs, s.alice, s.bob,
                                       psi / np.linalg.norm(psi)))
    cases += [random_bipartite(rng, *dims) for dims in [(2, 5), (4, 4), (6, 3)]]
    s = random_bipartite(rng, 3, 3)
    cases.append(BipartiteStrategy(3, 3, s.inputs, s.outputs, dict(list(s.alice.items())[:4]),
                                   dict(list(s.bob.items())[2:]), s.state))
    defects = []
    for s in cases:
        defects.append(sync_vector_defect(s))
        assert abs(defects[-1] - sync_vector_defect_oracle(s)) <= 1e-12
    assert max(defects[:4]) <= 1e-12 and min(defects[4:]) > 1e-4


class _CollidingDigest:
    """A stand-in for hashlib whose blake2b gives every matrix the same digest."""

    @staticmethod
    def blake2b(data, digest_size):
        return _CollidingDigest

    @staticmethod
    def digest():
        return bytes(32)


@pytest.mark.parametrize("digests", ["blake2b", "colliding"])
def test_store_shares_rows_by_content(monkeypatch, digests):
    """Equal operators passed as separate arrays share one row and operators that
    differ only in the sign of a zero do not, also when every digest collides and only
    the byte comparison tells the operators apart.  Each key reads back its own bytes."""
    if digests == "colliding":
        monkeypatch.setattr(strategies, "hashlib", _CollidingDigest)
    rng = np.random.default_rng(711)
    base = [random_hermitian(4, rng) for _ in range(3)]
    signed = base[0].copy()
    signed.imag[np.diag_indices(4)] = -0.0  # a Hermitian diagonal is real: its 0.0 parts flip
    choice = rng.integers(0, 3, size=12).tolist()
    pvms = {(x, a): base[choice[3 * x + a]].copy() for x in range(4) for a in range(3)}
    pvms[(4, 0)] = signed
    s = OperatorStrategy(4, range(5), range(3), pvms)
    assert (len(s.stored_keys()), len(s.stack)) == (13, len(set(choice)) + 1)
    keys, stack = s.stacked()
    for k, key in enumerate(keys):
        assert s.pvms[key].tobytes() == stack[k].tobytes() == pvms[key].tobytes()
        assert s.pvms[key].tobytes() == s.stack[s.ids[k]].tobytes()
    distinct = OperatorStrategy(4, range(3), range(1), {(x, 0): base[x] for x in range(3)})
    assert distinct.stacked()[1] is distinct.stack  # no key repeats a row: nothing is copied


@pytest.mark.parametrize("copies, stored, rows", [(1, 192, 24), (2, 384, 48), (3, 576, 72)])
def test_iso_strategy_stores_each_bcs_projection_once(copies, stored, rows):
    """The k-copy iso strategy, its swap, its reload from JSON and a key-by-key Haar
    rotation, and their swaps, each keep one row per distinct BCS projection."""
    sys_, rep = kcopy_magic_square(copies)
    iso = iso_strategy_from_bcs(strategy_from_rep(rep, sys_), sys_)
    reloaded = OperatorStrategy.from_json_dict(iso.to_json_dict())
    spun = rotated(iso, random_unitary(iso.dim, np.random.default_rng(712 + copies)))
    for s in (iso, reloaded, spun):
        for t in (s, swap_iso_strategy(s)):
            assert (len(t.stored_keys()), len(t.stack)) == (stored, rows)


def test_stored_operators_are_read_only(magic_square, pauli_rep):
    s = strategy_from_rep(pauli_rep, magic_square)
    key = s.stored_keys()[0]
    with pytest.raises(TypeError):
        s.pvms[key] = np.eye(4)
    for write in (lambda: s.pvms[key].__setitem__((0, 0), 2.0),
                  lambda: s.stack.__setitem__((0, 0, 0), 2.0),
                  lambda: s.ids.__setitem__(0, 1)):
        with pytest.raises(ValueError, match="read-only"):
            write()


def test_mutating_the_caller_arrays_after_construction_changes_nothing(magic_square, pauli_rep):
    rng = np.random.default_rng(713)
    spun = rotated(strategy_from_rep(pauli_rep, magic_square), random_unitary(4, rng))
    given = {key: np.array(mat) for key, mat in spun.pvms.items()}
    s = OperatorStrategy(4, spun.inputs, spun.outputs, given)
    for mat in given.values():
        mat += random_hermitian(4, rng)
    game = build_synbcs(magic_square)
    assert s.defects() == spun.defects() and s.defects() is s.defects()
    report = check_game_algebra_relations(game, s, tol=1e-9).as_dict()
    assert report == check_game_algebra_relations(game, spun, tol=1e-9).as_dict()
    assert report["passes"]
