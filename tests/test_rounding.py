"""Projection rounding: the single-contraction bound and the family construction."""
from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from conftest import random_exact_pvm, random_hermitian, random_unitary

from syncgames import (
    build_synbcs,
    check_game_algebra_relations,
    correlation_from_tracial,
    is_perfect,
    is_synchronous,
    mermin_peres_system,
    pauli_magic_square_rep,
    strategy_from_rep,
)
from syncgames import rounding
from syncgames.cli import main
from syncgames.errors import BoundaryAmbiguityError, ValidationError, VerificationError
from syncgames.matops import (
    BOUNDARY_MARGIN,
    HERMITIAN_INPUT_TOL,
    hermitian_eig,
    norm2,
    projection_onto_columns,
)
from syncgames.rounding import (
    INPUT_EIGENVALUE_SLACK,
    _certified_defect,
    _orthonormalize_against,
    _upper_half_columns,
    _validated_contraction,
    family_budget_constant,
    orthogonalize_family,
    round_contraction,
)
from syncgames.strategies import OperatorStrategy

BOUND_FACTOR = 2 * np.sqrt(2)


def perturbed_pvm(d, m, rng, eps):
    """An exact PVM nudged by Hermitian noise of operator norm eps per element."""
    return [p + random_hermitian(d, rng, scale=eps) for p in random_exact_pvm(d, m, rng)]


def gram_schmidt_against(cols, basis):
    """Reference oracle: per-column modified Gram-Schmidt against the basis and the
    columns already emitted, two passes per column, raising on a norm below 1/2."""
    out = []
    for k in range(cols.shape[1]):
        v = cols[:, k].copy()
        for _ in range(2):
            if basis.shape[1]:
                v = v - basis @ (basis.conj().T @ v)
            for u in out:
                v = v - u * np.vdot(u, v)
        nrm = float(np.linalg.norm(v))
        if nrm < 0.5:
            raise VerificationError("spectral block collapsed")
        out.append(v / nrm)
    if not out:
        return np.zeros((cols.shape[0], 0), dtype=complex)
    return np.column_stack(out)


def full_space_family(ps, sum_one: bool) -> list:
    """Reference oracle: the family construction in the full space.  Each input's
    range is checked by a full eigensolve, and element k is rounded from the d x d
    compression r p_k r, r = I - (q_1 + ... + q_{k-1}); with sum_one the
    remainder is absorbed into q_1.  Returns the rounded projections."""
    validated = [_validated_contraction(p)[0] for p in ps]
    d = validated[0].shape[0]
    eye = np.eye(d, dtype=complex)
    basis = np.zeros((d, 0), dtype=complex)
    qs = []
    for p in validated:
        r = eye - basis @ basis.conj().T
        h = r @ p @ r
        eig = hermitian_eig((h + h.conj().T) / 2)
        cols = _orthonormalize_against(_upper_half_columns(eig, BOUNDARY_MARGIN), basis)
        qs.append(projection_onto_columns(cols))
        basis = np.concatenate([basis, cols], axis=1)
    if sum_one:
        remainder = eye - basis @ basis.conj().T
        remainder = (remainder + remainder.conj().T) / 2
        if norm2(remainder - remainder @ remainder) > 1e-9:
            raise VerificationError("remainder is not a projection")
        qs[0] = qs[0] + remainder
    return qs


def outcome(fn, *args):
    """("ok", result) or (exception type, message) of fn(*args)."""
    try:
        return "ok", fn(*args)
    except (ValidationError, VerificationError) as exc:
        return type(exc), str(exc)


def test_exact_projection_is_fixed():
    p = np.diag([1.0, 1.0, 0.0]).astype(complex)
    q, report = round_contraction(p)
    assert np.allclose(q, p)
    assert report.defect == 0.0
    assert report.distance <= 1e-15


def test_two_level_contraction_matches_hand_computation():
    q, report = round_contraction(np.diag([0.9, 0.1]))
    assert np.allclose(q, np.diag([1.0, 0.0]))
    assert report.distance == pytest.approx(0.1, abs=1e-12)
    assert report.defect == pytest.approx(0.09, abs=1e-12)
    assert report.bound == pytest.approx(2 * np.sqrt(2) * 0.09, abs=1e-12)
    assert report.bound_holds
    assert json.loads(json.dumps(report.as_dict()))["bound_holds"] is True


def test_distance_bound_never_violated_on_random_contractions():
    rng = np.random.default_rng(101)
    for _ in range(300):
        d = int(rng.integers(2, 17))
        r = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        p = r @ r.conj().T
        p /= np.linalg.norm(p, 2)
        try:
            q, report = round_contraction(p)
        except BoundaryAmbiguityError:
            q, report = round_contraction(p, boundary_margin=0.0)
        assert report.distance <= BOUND_FACTOR * report.defect + 1e-12


def test_boundary_ambiguity_and_override():
    p = np.diag([0.5, 0.1])
    with pytest.raises(BoundaryAmbiguityError):
        round_contraction(p)
    q, _ = round_contraction(p, boundary_margin=0.0)
    assert np.allclose(q, np.diag([1.0, 0.0]))


def test_input_eigenvalue_slack():
    with pytest.raises(ValidationError):
        round_contraction(np.diag([1.2, 0.0]))
    q, _ = round_contraction(np.diag([1.05, 0.0]))  # within the default slack: clipped
    assert np.allclose(q, np.diag([1.0, 0.0]))


def test_round_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        round_contraction(np.array([[0.5, 0.5], [0.0, 0.5]]))


def test_round_refuses_a_zero_dimensional_contraction():
    """A 0 x 0 input has no defect, distance or bound to report: it is refused."""
    with pytest.raises(ValidationError, match="matrix dim must be >= 1, got 0"):
        round_contraction(np.zeros((0, 0)))


def test_family_exact_pvm_is_fixed():
    rng = np.random.default_rng(7)
    pvm = random_exact_pvm(6, 3, rng)
    qs, report = orthogonalize_family(pvm, sum_one=True)
    assert max(report.distances) <= 1e-12
    assert report.outputs_exact


def test_family_two_level_sum_one_example():
    qs, report = orthogonalize_family(
        [np.diag([0.95, 0.05]), np.diag([0.05, 0.95])], sum_one=True
    )
    assert np.allclose(qs[0], np.diag([1.0, 0.0]))
    assert np.allclose(qs[1], np.diag([0.0, 1.0]))
    assert report.outputs_exact


def test_family_perturbation_recovery():
    rng = np.random.default_rng(42)
    eps = 1e-3
    for trial in range(10):
        d, m = 8, 3
        ps = perturbed_pvm(d, m, rng, eps)
        qs, report = orthogonalize_family(ps, sum_one=True)
        assert report.outputs_exact
        assert report.max_distance <= 1e-2
        assert report.within_budget


def test_family_rate_tracks_perturbation():
    rng = np.random.default_rng(43)
    m = 4
    for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        ps = perturbed_pvm(10, m, rng, eps)
        qs, report = orthogonalize_family(ps, sum_one=True)
        assert report.input_scale > 0
        observed = report.max_distance / report.input_scale
        assert observed <= family_budget_constant(m)
        assert report.outputs_exact


def test_family_outputs_mutually_orthogonal_projections():
    rng = np.random.default_rng(44)
    ps = perturbed_pvm(12, 5, rng, 1e-4)
    qs, report = orthogonalize_family(ps, sum_one=False)
    for i, q in enumerate(qs):
        assert norm2(q - q @ q) <= 1e-12
        assert norm2(q - q.conj().T) <= 1e-12
        for j in range(i + 1, len(qs)):
            assert norm2(q @ qs[j]) <= 1e-12
    assert report.sum_defect_after >= 0.0


def test_family_degenerate_sizes():
    qs, report = orthogonalize_family([])
    assert qs == []
    with pytest.raises(ValidationError):
        orthogonalize_family([], sum_one=True)
    qs, report = orthogonalize_family([np.diag([0.9, 0.8])], sum_one=True)
    assert np.allclose(qs[0], np.eye(2))


def test_family_mixed_dimensions_rejected():
    with pytest.raises(ValidationError):
        orthogonalize_family([np.eye(2), np.eye(3)])


@pytest.mark.parametrize("sum_one", [False, True])
@pytest.mark.parametrize("count", [1, 3])
def test_family_of_zero_dimensional_elements_is_refused(count, sum_one):
    with pytest.raises(ValidationError, match="matrix dim must be >= 1, got 0"):
        orthogonalize_family([np.zeros((0, 0))] * count, sum_one=sum_one)


def test_family_accepts_an_asymmetry_that_compression_amplifies():
    """Each input is Hermitian within 1e-10, but r p_2 r (r = I - q_1) is not: the
    compression is symmetrized before its eigensolve, so the family still rounds."""
    d = 64
    v = np.eye(d)[0] - np.ones(d) / np.sqrt(d)
    v /= np.linalg.norm(v)
    w = np.random.default_rng(48).normal(size=d)
    w -= v * (v @ w)
    w /= np.linalg.norm(w)
    p2 = np.outer(w, w) + 0.45j * 1e-10 * np.ones((d, d))
    r = np.eye(d) - np.outer(v, v)
    assert np.max(np.abs(p2 - p2.conj().T)) < 1e-10 < np.max(np.abs(r @ (p2 - p2.conj().T) @ r))
    qs, report = orthogonalize_family([np.outer(v, v), p2])
    assert report.outputs_exact and report.within_budget


def test_family_boundary_ambiguity():
    with pytest.raises(BoundaryAmbiguityError):
        orthogonalize_family([np.diag([0.5, 0.2])])


def test_rounded_perturbed_strategy_is_perfect_again():
    # per-input rounding of a slightly perturbed perfect strategy restores a
    # perfect correlation: losing entries are second order in the distance
    rng = np.random.default_rng(45)
    sys_ = mermin_peres_system()
    game = build_synbcs(sys_)
    strategy = strategy_from_rep(pauli_magic_square_rep(), sys_)
    eps = 1e-6
    rounded = {}
    for i in game.inputs:
        outputs = [a for x, a in strategy.pvms if x == i]
        noisy = [
            strategy.pvms[(i, a)] + random_hermitian(4, rng, scale=eps) for a in outputs
        ]
        qs, _ = orthogonalize_family(noisy, sum_one=True)
        for a, q in zip(outputs, qs):
            rounded[(i, a)] = q
    restored = OperatorStrategy(dim=4, inputs=strategy.inputs, outputs=strategy.outputs, pvms=rounded)
    report = check_game_algebra_relations(game, restored, tol=1e-4)
    assert report.passes
    corr = correlation_from_tracial(restored, tol=1e-4)
    assert is_synchronous(corr, 1e-9)
    assert is_perfect(corr, game, 1e-9)


def test_block_orthonormalization_matches_gram_schmidt():
    """Random blocks: orthonormal columns off the basis, mixed within the block, plus
    a large basis component and 1e-6 noise; both methods span the same subspace."""
    rng = np.random.default_rng(46)
    for _ in range(40):
        d = int(rng.integers(2, 33))
        n_basis = int(rng.integers(0, d))
        k = int(rng.integers(0, d - n_basis + 1))
        u = random_unitary(d, rng)
        basis = u[:, :n_basis]
        cols = (
            u[:, n_basis:n_basis + k] @ random_unitary(k, rng)
            + 0.5 * basis @ rng.normal(size=(n_basis, k))
            + 1e-6 * (rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k)))
        )
        q = _orthonormalize_against(cols, basis)
        assert q.shape == (d, k)
        assert np.max(np.abs(q.conj().T @ q - np.eye(k)), initial=0.0) <= 1e-12
        assert np.max(np.abs(basis.conj().T @ q), initial=0.0) <= 1e-12
        expected = projection_onto_columns(gram_schmidt_against(cols, basis))
        assert np.max(np.abs(projection_onto_columns(q) - expected), initial=0.0) <= 1e-12


@pytest.mark.parametrize("method", [_orthonormalize_against, gram_schmidt_against])
def test_block_orthonormalization_collapses_on_a_column_in_the_basis_span(method):
    u = random_unitary(6, np.random.default_rng(47))
    basis = u[:, :2]
    cols = np.column_stack([u[:, 2], basis @ np.array([0.6, 0.8])])
    with pytest.raises(VerificationError):
        method(cols, basis)


def family_cases(seed: int, count: int) -> list:
    """(ps, sum_one) over Haar-rotated PVMs with d <= 64, nudged by Hermitian noise of
    a log-uniform size from 1e-7 to 1e-2, plus families built to fail (an input
    out of range, an eigenvalue on 1/2 after compression) and a one-element
    family that sum_one must fill up."""
    rng = np.random.default_rng(seed)
    cases = []
    for k in range(count):
        d = int(rng.integers(1, 65))
        m = int(rng.integers(1, min(d, 6) + 1))
        eps = float(10.0 ** rng.uniform(-7.0, -2.0))
        cases.append((perturbed_pvm(d, m, rng, eps), k % 2 == 0))
    u = random_unitary(8, rng)

    def spin(lam):
        return (u * np.array(lam)) @ u.conj().T

    fail = [
        [spin([1.2] + [0.0] * 7)],
        [spin([1.0, 0.0] + [0.0] * 6), spin([0.9, 0.5] + [0.0] * 6)],
    ]
    cases += [(ps, False) for ps in fail] + [(ps, True) for ps in fail]
    cases.append(([spin([0.96] * 2 + [0.04] * 2 + [0.0] * 4)], True))
    return cases


def test_family_matches_the_full_space_construction():
    """The complement-basis construction rounds every family as the full-space
    loop does, within 1e-12, and refuses the same families with the same types."""
    raised = set()
    for ps, sum_one in family_cases(seed=120, count=60):
        new = outcome(orthogonalize_family, ps, sum_one)
        old = outcome(full_space_family, ps, sum_one)
        assert new[0] == old[0], (new, old)
        if new[0] == "ok":
            qs, report = new[1]
            assert len(qs) == len(old[1])
            assert max(np.max(np.abs(q - r)) for q, r in zip(qs, old[1])) <= 1e-12
            assert report.outputs_exact
        else:
            raised.add(new[0])
    assert raised == {ValidationError, BoundaryAmbiguityError}


def test_family_output_report_matches_the_per_element_loops():
    """The input defects computed before the sweep, and the output adjoint, idempotency
    and sum residuals of one pvm_defects call, are bit for bit those of the
    per-element loops they replaced."""
    for ps, sum_one in family_cases(seed=121, count=30):
        result = outcome(orthogonalize_family, ps, sum_one)
        if result[0] != "ok":
            continue
        qs, report = result[1]
        eye = np.eye(qs[0].shape[0], dtype=complex)
        assert report.input_defects == tuple(norm2(p - p @ p) for p in ps)
        assert report.max_output_adjoint == max(norm2(q - q.conj().T) for q in qs)
        assert report.max_output_idempotency == max(norm2(q - q @ q) for q in qs)
        assert report.sum_defect_after == norm2(sum(qs) - eye)


def recorded_eigensolves(monkeypatch) -> list:
    """Patch rounding.hermitian_eig to record the matrix of each call; returns the record."""
    calls = []

    def recorded(h, **kwargs):
        calls.append(h)
        return hermitian_eig(h, **kwargs)

    monkeypatch.setattr(rounding, "hermitian_eig", recorded)
    return calls


def test_family_makes_one_eigensolve_per_element(monkeypatch):
    """Near-PVM families round with no Cholesky factorization.  The first eigensolve
    is of the symmetrized input itself, and each later one is over the complement
    of the blocks emitted before it."""
    def no_cholesky(*args, **kwargs):
        raise AssertionError("np.linalg.cholesky called")

    calls = recorded_eigensolves(monkeypatch)
    monkeypatch.setattr(np.linalg, "cholesky", no_cholesky)
    rng = np.random.default_rng(121)
    for d, m in ((16, 4), (32, 3), (7, 7), (64, 5)):
        calls.clear()
        ps = perturbed_pvm(d, m, rng, 1e-4)
        qs, report = orthogonalize_family(ps)
        assert report.outputs_exact and report.within_budget
        assert np.array_equal(calls[0], (ps[0] + ps[0].conj().T) / 2)
        ranks = [round(np.trace(q).real) for q in qs]
        # each eigensolve is over the complement of the blocks emitted before it
        assert [h.shape[0] for h in calls] == [d - sum(ranks[:k]) for k in range(m)]
        if d == 16:
            assert min(ranks) >= 1


@pytest.mark.parametrize("lam, accepted", [
    ([1.1, 0.0], True),
    ([-0.1, 0.7], True),
    ([1.1000001, 0.0], False),
    ([-0.1000001, 0.7], False),
])
def test_family_input_range_edges(lam, accepted):
    """Inputs on the edge of the slack are left to the eigensolve, which accepts them;
    just past it they are refused with the eigensolve's message."""
    if accepted:
        qs, report = orthogonalize_family([np.diag(lam)])
        assert np.allclose(qs[0], np.diag(np.array(lam) >= 0.5).astype(float))
        assert report.outputs_exact
    else:
        expected = f"eigenvalues [{min(lam):.6g}, {max(lam):.6g}] stray more than 0.1 outside [0, 1]"
        with pytest.raises(ValidationError) as info:
            orthogonalize_family([np.diag(lam)])
        assert str(info.value) == expected


def eigensolve_defect(p):
    """What _certified_defect returns, with the eigenvalue range checked by the
    eigensolve alone."""
    mat = _validated_contraction(p)[0]
    return norm2(mat - mat @ mat)


def test_input_range_certificate_decides_as_the_eigensolve_does(monkeypatch):
    """Rotated inputs whose extreme eigenvalues straddle the edges of the slack by
    1e-17 to 1e-3: the certificate accepts and refuses exactly what the eigensolve
    accepts and refuses, with the same message and defect.  Near-PVM inputs, some
    with the largest asymmetry hermitian_input admits, pass the defect bound alone,
    with no eigensolve."""
    calls = recorded_eigensolves(monkeypatch)
    rng = np.random.default_rng(122)
    for k in range(600):
        if k < 400:
            d = int(rng.integers(1, 17))
            lam = rng.uniform(0.0, 1.0, size=d)
            edge = float(rng.choice([-0.1, 1.1]))
            lam[0] = edge + float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-17.0, -3.0)
            u = random_unitary(d, rng)
            p = (u * lam) @ u.conj().T
        else:
            d = int(rng.integers(1, 33))
            eps = float(10.0 ** rng.uniform(-9.0, -2.5))
            p = random_exact_pvm(d, int(rng.integers(1, d + 1)), rng)[0]
            p = p + random_hermitian(d, rng, scale=eps)
            if k % 2:
                p = p + 0.45j * HERMITIAN_INPUT_TOL * rng.uniform(-1.0, 1.0, size=(d, d))
        calls.clear()
        new = outcome(_certified_defect, p)
        assert k < 400 or calls == []
        assert new == outcome(eigensolve_defect, p)


@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_defect_bound_edge_on_a_diagonal_input(side, monkeypatch):
    """diag(-s + delta, 1 + s - delta), s = INPUT_EIGENVALUE_SLACK, has Frobenius defect
    sqrt(2) (s - delta) (1 + s - delta); delta puts it about 1e-12 inside (side -1) or
    outside (side +1) s (1 + s) - slack.  Inside, the bound accepts the input with no
    eigensolve; outside, the eigensolve decides.  Either way the verdict and the
    defect are the eigensolve's."""
    s = INPUT_EIGENVALUE_SLACK
    delta = 0.0
    for _ in range(3):  # the slack hardly moves with delta
        frobenius = np.hypot(-s + delta, 1.0 + s - delta)
        target = s * (1.0 + s) - 2 * HERMITIAN_INPUT_TOL * (1.0 + frobenius) ** 2
        # (s - delta) (1 + s - delta) = target / sqrt(2), the smaller root
        c = s * (1.0 + s) - target / np.sqrt(2.0)
        delta = (1.0 + 2 * s - np.sqrt((1.0 + 2 * s) ** 2 - 4.0 * c)) / 2.0
    p = np.diag([-s + delta - side * 1e-12, 1.0 + s - delta + side * 1e-12]).astype(complex)
    calls = recorded_eigensolves(monkeypatch)
    new = outcome(_certified_defect, p)
    assert len(calls) == (side > 0)
    assert new == outcome(eigensolve_defect, p)
    assert new[0] == "ok"


def test_family_huge_entry_exits_2_without_a_warning(tmp_path):
    entry = {"dim": 2, "entries": [[[0.5, 0.0], [1e200, 0.0]], [[1e200, 0.0], [0.5, 0.0]]]}
    infile = tmp_path / "family.json"
    infile.write_text(json.dumps({"pvms": [entry]}))
    report = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["round", "--in", str(infile), "--out", str(tmp_path / "o.json"),
                     "--report", str(report)])
    assert code == 2
    assert "stray more than 0.1 outside [0, 1]" in json.loads(report.read_text())["error"]
