"""Solution-group presentations, representation verification, and the two
strategy/representation conversions."""
from __future__ import annotations

import warnings

import numpy as np
import pytest

from conftest import (
    classical_strategy,
    kcopy_magic_square,
    random_hermitian,
    random_unitary,
    rotated,
)
from test_graphs import transported_certificate

from syncgames import (
    BinaryLinearSystem,
    build_synbcs,
    check_game_algebra_relations,
    correlation_from_tracial,
    is_perfect,
    is_synchronous,
    mermin_peres_system,
    pauli_magic_square_rep,
    rep_from_independence,
    solve_gf2,
)
from syncgames.errors import ToolkitError, ValidationError, VerificationError
from syncgames.graphs import IndependenceCertificate
from syncgames.solution_group import (
    GroupRep,
    normalize_j,
    presentation,
    rep_from_strategy,
    strategy_from_rep,
    verify_rep,
)
from syncgames.gf2 import enumerate_si
from syncgames.matops import dagger, norm2
from syncgames.strategies import OperatorStrategy


def variable_image_candidates(s: OperatorStrategy, sys: BinaryLinearSystem) -> tuple:
    """The gluing that rep_from_strategy replaced, kept as its oracle: per variable, one
    candidate unitary from each equation containing it, S_i enumerated once per
    (variable, equation) pair.  Returns (candidates, (spread, witness)): candidates[k]
    lists (equation, matrix) pairs, and spread is the largest pairwise 2-norm difference
    between candidates of one variable, witness its (variable, equation, equation)."""
    candidates = {}
    worst, witness = 0.0, None
    for k in range(1, sys.n + 1):
        mats = []
        for i in [i for i in range(1, sys.m + 1) if k in sys.rows[i - 1]]:
            v = np.zeros((s.dim, s.dim), dtype=complex)
            for x in enumerate_si(sys, i):
                v = v + x[k - 1] * s.matrix(i, x)
            mats.append((i, (v + dagger(v)) / 2))
        candidates[k] = mats
        for a in range(len(mats)):
            for b in range(a + 1, len(mats)):
                diff = norm2(mats[a][1] - mats[b][1])
                if diff > worst:
                    worst, witness = diff, (k, mats[a][0], mats[b][0])
    return candidates, (worst, witness)


def single_equation_system():
    return BinaryLinearSystem(m=1, n=1, rows=(frozenset({1}),), b=(1,))


def test_presentation_single_equation():
    pres = presentation(single_equation_system())
    assert pres.relators == (
        ("u1", "u1"),
        ("J", "J"),
        ("u1", "J", "u1", "J"),
        ("u1", "J"),
    )


def test_presentation_magic_square_counts(magic_square):
    pres = presentation(magic_square)
    involutions = [w for w in pres.relators if len(w) == 2 and w[0] == w[1]]
    commutators = [w for w in pres.relators if len(w) == 4 and "J" not in w]
    j_commutators = [w for w in pres.relators if len(w) == 4 and w[1] == "J"]
    products = [w for w in pres.relators if len(w) in (3, 4) and w not in commutators + j_commutators]
    assert len(involutions) == 10  # 9 generators + J
    assert len(commutators) == 18  # 6 equations x C(3, 2)
    assert len(j_commutators) == 9
    assert len(products) == 6
    assert len(pres.relators) == 43


def test_presentation_homogeneous_products_have_no_j():
    sys_ = BinaryLinearSystem(m=2, n=3, rows=(frozenset({1, 2}), frozenset({2, 3})), b=(0, 0))
    pres = presentation(sys_)
    products = [w for w in pres.relators if len(w) == 2 and w[0] != w[1]]
    assert products == [("u1", "u2"), ("u2", "u3")]


def test_presentation_export_text(magic_square):
    text = presentation(magic_square).export_text()
    lines = text.strip().split("\n")
    assert lines[0] == "generators u1 u2 u3 u4 u5 u6 u7 u8 u9 J"
    assert lines[1] == "u1 u1"
    assert len(lines) == 44


def test_verify_trivial_rep_passes_without_j_witness():
    sys_ = BinaryLinearSystem(m=1, n=2, rows=(frozenset({1, 2}),), b=(0,))
    rep = GroupRep(images=(np.eye(1), np.eye(1)), j_image=np.eye(1))
    report = verify_rep(rep, sys_, 1e-12)
    assert report.passes
    assert not report.j_nontrivial


def test_verify_pauli_rep_exact(magic_square, pauli_rep):
    report = verify_rep(pauli_rep, magic_square, 1e-12)
    assert report.passes
    assert report.max_residual <= 1e-13
    assert report.j_nontrivial


def test_verify_sign_flip_breaks_exactly_the_touching_products(magic_square, pauli_rep):
    flipped = GroupRep(
        images=(-pauli_rep.images[0],) + pauli_rep.images[1:], j_image=pauli_rep.j_image
    )
    report = verify_rep(flipped, magic_square, 1e-9)
    assert not report.passes
    failing = {i for i, r in report.products if r > 1e-9}
    assert failing == {1, 4}  # the row and the column containing variable 1
    for i, r in report.products:
        if i in failing:
            assert r == pytest.approx(2.0, abs=1e-12)
    assert max(v for _, v in report.mate_commutators) <= 1e-12
    assert max(report.involutions) <= 1e-12


def test_verify_rejects_generator_count_mismatch(magic_square):
    rep = GroupRep(images=(np.eye(2),), j_image=np.eye(2))
    with pytest.raises(ValidationError):
        verify_rep(rep, magic_square)


@pytest.mark.parametrize("images", [(), (np.zeros((0, 0)),) * 9], ids=["no-generators", "nine"])
def test_zero_dimensional_representation_is_refused_as_invalid(images):
    """A 0 x 0 image of J is refused when the representation is built, before a check
    would divide by its dimension."""
    with pytest.raises(ValidationError, match="representation dimension must be >= 1"):
        GroupRep(images=images, j_image=np.zeros((0, 0)))


@pytest.mark.parametrize("images, j_image, message", [
    ((np.eye(2), np.eye(3)), np.eye(2), r"generator image 2 has shape \(3, 3\), expected \(2, 2\)"),
    ((np.eye(3), np.eye(3)), np.eye(2), r"generator image 1 has shape \(3, 3\), expected \(2, 2\)"),
], ids=["images-of-two-sizes", "images-unlike-j"])
def test_representation_refuses_an_image_whose_shape_is_not_js(images, j_image, message):
    """An image of another size than J is refused by name when the representation is
    built, not left to numpy's stacking."""
    with pytest.raises(ValidationError, match=f"^{message}$"):
        GroupRep(images=images, j_image=j_image)


def test_group_rep_json_dim_must_be_the_dimension_of_its_matrices(pauli_rep):
    """A file's dim is read as an integer and must be J's dimension; to_json_dict's
    output loads as it is."""
    data = pauli_rep.to_json_dict()
    assert GroupRep.from_json_dict(data).dim == 4
    with pytest.raises(ValidationError, match="^representation dim 7 does not match its "
                                              "matrices' dim 4$"):
        GroupRep.from_json_dict({**data, "dim": 7})
    for bad in ("4", True, 4.0):
        with pytest.raises(ValidationError, match="^representation dim must be an integer"):
            GroupRep.from_json_dict({**data, "dim": bad})
    with pytest.raises(ValidationError, match="^malformed representation JSON: 'dim'$"):
        GroupRep.from_json_dict({k: v for k, v in data.items() if k != "dim"})


def test_normalize_j_identity_on_already_normalized(pauli_rep):
    assert normalize_j(pauli_rep) is pauli_rep


def test_normalize_j_compresses_direct_sum(magic_square, pauli_rep):
    d = 4
    images = []
    for w in pauli_rep.images:
        big = np.zeros((d + 2, d + 2), dtype=complex)
        big[:2, :2] = np.eye(2)  # trivial block with J = I
        big[2:, 2:] = w
        images.append(big)
    j = np.zeros((d + 2, d + 2), dtype=complex)
    j[:2, :2] = np.eye(2)
    j[2:, 2:] = -np.eye(4)
    rep = GroupRep(images=tuple(images), j_image=j)
    compressed = normalize_j(rep)
    assert compressed.dim == 4
    assert np.allclose(compressed.j_image, -np.eye(4))
    report = verify_rep(compressed, magic_square, 1e-9)
    assert report.passes
    assert report.j_nontrivial


def test_normalize_j_rejects_trivial_j():
    rep = GroupRep(images=(np.eye(3),), j_image=np.eye(3))
    with pytest.raises(ValidationError):
        normalize_j(rep)


def test_normalize_j_names_a_j_with_no_minus_one_eigenspace():
    """J = I is an involution with no -1 eigenspace: refused by that check, not later by
    the 0-dimensional representation the compression would build."""
    rep = GroupRep(images=(np.eye(3), np.diag([1.0, -1.0, 1.0])), j_image=np.eye(3))
    with pytest.raises(ValidationError, match="^image of J has no -1 eigenspace; nothing to "
                                              "compress to$"):
        normalize_j(rep)


def test_normalize_j_names_a_j_that_is_no_involution():
    """J = 2I is no involution; past that check it would be refused as having no -1
    eigenspace, so only this message pins the involution check."""
    rep = GroupRep(images=(np.eye(3),), j_image=2 * np.eye(3))
    with pytest.raises(ValidationError, match="^image of J is not an involution; cannot "
                                              "compress$"):
        normalize_j(rep)


def test_rep_from_strategy_refuses_a_variable_in_no_equation():
    """Variable 3 appears in no equation: refused before gluing, which would map it to the
    identity and certify the result."""
    sys_ = BinaryLinearSystem(m=1, n=3, rows=(frozenset({1, 2}),), b=(1,))
    strategy = classical_strategy(sys_, (1, -1, 1))
    with pytest.raises(ValidationError, match=r"^variables \[3\] appear in no equation$"):
        rep_from_strategy(strategy, sys_)


def test_strategy_from_rep_single_equation_scalar():
    sys_ = single_equation_system()
    rep = GroupRep(images=(-np.eye(1),), j_image=-np.eye(1))
    strategy = strategy_from_rep(rep, sys_)
    assert set(strategy.pvms) == {(1, (-1,))}
    assert np.allclose(strategy.pvms[(1, (-1,))], np.eye(1))


def test_strategy_from_rep_magic_square_rank_one(magic_square, pauli_rep):
    strategy = strategy_from_rep(pauli_rep, magic_square)
    assert len(strategy.pvms) == 24
    for mat in strategy.pvms.values():
        eigenvalues = np.linalg.eigvalsh(mat)
        assert np.sum(eigenvalues > 0.5) == 1  # rank one
    game = build_synbcs(magic_square)
    corr = correlation_from_tracial(strategy)
    assert is_synchronous(corr, 1e-9) and is_perfect(corr, game, 1e-9)


def test_strategy_from_rep_requires_j_minus_identity(magic_square, pauli_rep):
    rep = GroupRep(images=pauli_rep.images, j_image=np.eye(4, dtype=complex))
    with pytest.raises(ValidationError):
        strategy_from_rep(rep, magic_square)


def test_strategy_from_rep_requires_all_columns_touched():
    sys_ = BinaryLinearSystem(m=1, n=2, rows=(frozenset({1}),), b=(1,))
    rep = GroupRep(images=(-np.eye(1), np.eye(1)), j_image=-np.eye(1))
    with pytest.raises(ValidationError):
        strategy_from_rep(rep, sys_)


def test_scalar_rep_for_solvable_inhomogeneous_system():
    sys_ = BinaryLinearSystem(m=2, n=3, rows=(frozenset({1, 2}), frozenset({2, 3})), b=(1, 0))
    x = solve_gf2(sys_)
    assert x is not None
    rep = GroupRep(
        images=tuple(np.array([[float(v)]], dtype=complex) for v in x),
        j_image=-np.eye(1),
    )
    report = verify_rep(rep, sys_, 1e-12)
    assert report.passes and report.j_nontrivial
    strategy = strategy_from_rep(rep, sys_)
    deterministic = classical_strategy(sys_, x)
    assert set(strategy.pvms) == set(deterministic.pvms)
    recovered = rep_from_strategy(deterministic, sys_)
    for w, v in zip(recovered.images, x):
        assert np.allclose(w, [[v]])


def test_rep_from_strategy_roundtrip(magic_square, pauli_rep):
    strategy = strategy_from_rep(pauli_rep, magic_square)
    recovered = rep_from_strategy(strategy, magic_square, tol=1e-9)
    report = verify_rep(recovered, magic_square, 1e-8)
    assert report.passes
    assert report.j_nontrivial
    # and the recovered rep generates a strategy passing the full checks again
    strategy2 = strategy_from_rep(recovered, magic_square, tol=1e-8)
    game = build_synbcs(magic_square)
    assert check_game_algebra_relations(game, strategy2, 1e-8).passes


def test_rep_from_strategy_rejects_defective_input(magic_square):
    game = build_synbcs(magic_square)
    bad = OperatorStrategy(
        dim=2,
        inputs=game.inputs,
        outputs=game.outputs,
        pvms={(i, game.outputs[0]): np.eye(2, dtype=complex) for i in game.inputs},
    )
    with pytest.raises(VerificationError):
        rep_from_strategy(bad, magic_square)


def test_choice_independence_spread_scales_with_perturbation(magic_square, pauli_rep):
    rng = np.random.default_rng(3)
    strategy = strategy_from_rep(pauli_rep, magic_square)
    base_spread = variable_image_candidates(strategy, magic_square)[1][0]
    assert base_spread <= 1e-13
    spreads = {}
    for eps in (1e-3, 1e-2):
        rotations = {
            i: _expm_skew(random_hermitian(4, rng), eps) for i in strategy.inputs
        }
        conjugated = {
            (i, x): rotations[i] @ mat @ rotations[i].conj().T
            for (i, x), mat in strategy.pvms.items()
        }
        perturbed = OperatorStrategy(dim=4, inputs=strategy.inputs, outputs=strategy.outputs, pvms=conjugated)
        spreads[eps] = variable_image_candidates(perturbed, magic_square)[1][0]
        assert eps / 100 <= spreads[eps] <= 100 * eps
    assert spreads[1e-2] > spreads[1e-3]


@pytest.mark.parametrize("seed", [None, 31], ids=["pauli", "rotated"])
@pytest.mark.parametrize("copies", [1, 2, 3])
def test_rep_from_strategy_matches_the_candidate_oracle_bit_for_bit(copies, seed):
    sys_, rep = kcopy_magic_square(copies)
    strategy = strategy_from_rep(rep, sys_)
    if seed is not None:
        strategy = rotated(strategy, random_unitary(strategy.dim, np.random.default_rng(seed)))
    candidates, (spread, _) = variable_image_candidates(strategy, sys_)
    assert spread <= 1e-12
    recovered = rep_from_strategy(strategy, sys_)
    assert len(recovered.images) == sys_.n
    for k, w in enumerate(recovered.images, start=1):
        assert w.tobytes() == candidates[k][0][1].tobytes()


def _expm_skew(h, eps):
    """exp(1j * eps * h) for Hermitian h via its eigendecomposition."""
    w, u = np.linalg.eigh(h)
    return u @ np.diag(np.exp(1j * eps * w)) @ u.conj().T


def test_group_rep_json_roundtrip(pauli_rep):
    back = GroupRep.from_json_dict(pauli_rep.to_json_dict())
    assert back.dim == 4
    for w1, w2 in zip(back.images, pauli_rep.images):
        assert np.allclose(w1, w2)
    assert np.allclose(back.j_image, pauli_rep.j_image)


@pytest.mark.parametrize("flip", [False, True])
def test_tensoring_with_an_identity_keeps_every_verdict(magic_square, pauli_rep, flip):
    """W_j -> W_j (x) I_2 keeps the relator residuals (normalized trace), and the
    strategy built from it passes the game-algebra check with the same residuals;
    with one generator's sign flipped, both representations fail alike."""
    images = list(pauli_rep.images)
    if flip:
        images[0] = -images[0]
    rep = GroupRep(images=tuple(images), j_image=pauli_rep.j_image)
    eye = np.eye(2, dtype=complex)
    wide = GroupRep(
        images=tuple(np.kron(w, eye) for w in rep.images), j_image=np.kron(rep.j_image, eye)
    )
    before, after = verify_rep(rep, magic_square, 1e-9), verify_rep(wide, magic_square, 1e-9)
    assert before.passes == after.passes == (not flip)
    assert before.j_nontrivial and after.j_nontrivial
    assert abs(before.max_residual - after.max_residual) <= 1e-12
    assert abs(before.j_distance - after.j_distance) <= 1e-12
    if flip:
        for r in (rep, wide):
            with pytest.raises(VerificationError):
                strategy_from_rep(r, magic_square)
        return
    game = build_synbcs(magic_square)
    small = check_game_algebra_relations(game, strategy_from_rep(rep, magic_square), 1e-9)
    large = check_game_algebra_relations(game, strategy_from_rep(wide, magic_square), 1e-9)
    assert small.passes and large.passes
    for field in ("max_adjoint_defect", "max_projection_defect", "max_completeness_defect",
                  "max_losing_overlap", "max_residual"):
        assert abs(getattr(small, field) - getattr(large, field)) <= 1e-12
    assert (small.n_stored, small.n_losing_checked) == (large.n_stored, large.n_losing_checked)


@pytest.mark.parametrize("count", [8, 10], ids=["one-short", "one-over"])
def test_strategy_from_rep_refuses_a_wrong_generator_count(magic_square, pauli_rep, count):
    """One generator short, the construction would read J as generator 9."""
    images = (pauli_rep.images + (np.eye(4, dtype=complex),))[:count]
    rep = GroupRep(images=images, j_image=pauli_rep.j_image)
    with pytest.raises(ValidationError, match=f"^representation has {count} generators, system has 9$"):
        strategy_from_rep(rep, magic_square)
    # the untouched-variable and J = -I refusals come first, as before
    with pytest.raises(ValidationError, match="must have j_image = -I"):
        strategy_from_rep(GroupRep(images=images, j_image=np.eye(4, dtype=complex)), magic_square)


def test_rep_from_strategy_refuses_a_mislabelled_strategy(magic_square, pauli_rep):
    strategy = strategy_from_rep(pauli_rep, magic_square)
    pvms = {(i, x): mat for (i, x), mat in strategy.pvms.items() if i < 6}
    fewer = OperatorStrategy(strategy.dim, tuple(range(1, 6)), strategy.outputs, pvms)
    with pytest.raises(ValidationError, match="^strategy inputs do not match game inputs$"):
        rep_from_strategy(fewer, magic_square)
    ints = OperatorStrategy(1, strategy.inputs, (0, 1), {(i, 0): np.eye(1) for i in strategy.inputs})
    with pytest.raises(ValidationError, match="^strategy outputs are not a subset of game outputs$"):
        rep_from_strategy(ints, magic_square)


def broken_reps() -> dict:
    """The Pauli representation of the magic square, broken in one way each."""
    pauli = pauli_magic_square_rep()
    images, j = list(pauli.images), pauli.j_image
    rng = np.random.default_rng(41)
    cases = {"sign-flip": GroupRep(tuple([-images[0]] + images[1:]), j)}
    for eps in (1e-3, 1e-6, 1e-8):
        u = _expm_skew(random_hermitian(4, rng), eps)
        cases[f"conjugated-{eps:g}"] = GroupRep(tuple([u @ images[0] @ u.conj().T] + images[1:]), j)
    cases["j-plus-identity"] = GroupRep(pauli.images, np.eye(4, dtype=complex))
    cases["non-unitary"] = GroupRep(tuple([2 * images[0]] + images[1:]), j)
    cases["scaled-1e200"] = GroupRep(tuple(1e200 * w for w in images), j)
    return cases


BROKEN = broken_reps()


@pytest.mark.parametrize("tol", [1e-9, 1e-3])
@pytest.mark.parametrize("name", sorted(BROKEN))
def test_broken_representations_are_refused_or_give_a_certified_strategy(name, tol):
    """strategy_from_rep does not check its representation's relators, so a broken one
    must be refused with a toolkit error (never a numpy warning) or give a strategy
    that passes the relation check at tol with every losing overlap squared <= eps."""
    sys_, game = mermin_peres_system(), build_synbcs(mermin_peres_system())
    refusal = {"sign-flip": "PVM invariants fail: ", "non-unitary": "PVM invariants fail: ",
               "j-plus-identity": "representation must have j_image = -I",
               "scaled-1e200": "matrix has non-finite entries"}.get(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            strategy = strategy_from_rep(BROKEN[name], sys_, tol=tol)
        except ToolkitError as exc:
            assert str(exc).startswith(refusal or "")
            return
    report = check_game_algebra_relations(game, strategy, tol)
    assert report.passes and report.max_losing_overlap ** 2 <= tol
    assert name.startswith("conjugated")  # a small rotation may stay within tol


def per_input_rotations(strategy: OperatorStrategy, delta: float, seed: int) -> OperatorStrategy:
    """Each input's projections conjugated by its own exp(i delta H): still exact PVMs,
    with losing overlaps between inputs of order delta."""
    rng = np.random.default_rng(seed)
    u = {x: _expm_skew(random_hermitian(strategy.dim, rng), delta) for x in strategy.inputs}
    return OperatorStrategy(strategy.dim, strategy.inputs, strategy.outputs,
                            {(x, a): u[x] @ mat @ u[x].conj().T for (x, a), mat in strategy.pvms.items()})


@pytest.mark.parametrize("copies", [1, 2])
def test_squared_losing_overlap_is_the_tracial_losing_probability(copies):
    """strategy_from_rep refuses when a losing overlap squared exceeds eps, where it
    refused a tracial losing probability above eps: for projections
    ||E F||_2^2 = tr(E F) / d.  On Haar-rotated strategies, each input then rotated by
    delta, the two verdicts agree for every eps outside a band of 1e-12 relative plus
    1e-15 absolute around the tracial value (the trace sums round near 1e-17)."""
    sys_, rep = kcopy_magic_square(copies)
    game = build_synbcs(sys_)
    u = random_unitary(rep.dim, np.random.default_rng(copies))
    spun = GroupRep(tuple(u @ w @ u.conj().T for w in rep.images), u @ rep.j_image @ u.conj().T)
    base = strategy_from_rep(spun, sys_)
    for delta in (0.0, 1e-8, 1e-6, 1e-4, 1e-3):
        s = per_input_rotations(base, delta, seed=copies) if delta else base
        squared = check_game_algebra_relations(game, s, 1e-9).max_losing_overlap ** 2
        tracial = correlation_from_tracial(s, 1e-9).max_losing(game)[0]
        band = 1e-12 * tracial + 1e-15
        for eps in (0.0, 1e-12, 1e-9, 1e-3, 0.5 * tracial, 0.99 * tracial, 1.01 * tracial, 2 * tracial):
            if abs(eps - tracial) > band:
                assert (squared > eps) == (tracial > eps), (delta, eps, squared, tracial)
        if not delta:  # the library's own verdict on its own strategy
            for eps in (1e-12, 1e-9):
                assert strategy_from_rep(spun, sys_, eps=eps).pvms.keys() == base.pvms.keys()


def test_strategy_from_rep_names_the_losing_probability(magic_square, pauli_rep):
    """A rotated generator at a loose tol passes the PVM check; an eps below its losing
    overlap squared refuses it with that probability and the worst losing tuple."""
    rep = BROKEN["conjugated-0.001"]
    game = build_synbcs(magic_square)
    report = check_game_algebra_relations(game, strategy_from_rep(rep, magic_square, tol=1e-3), 1e-3)
    probability = report.max_losing_overlap ** 2
    assert 0.0 < probability <= 1e-3
    with pytest.raises(VerificationError) as info:
        strategy_from_rep(rep, magic_square, tol=1e-3, eps=probability / 2)
    assert str(info.value) == (f"constructed correlation loses with probability {probability:.3e} "
                               f"at {report.worst_losing!r}")


def test_gluing_refuses_overflowing_sums_without_a_warning(magic_square, pauli_rep):
    """Rows scaled by 1.7e308 overflow when glue_rep sums them, through either caller;
    the non-finite candidate is refused as the spread check refuses one."""
    strategy = strategy_from_rep(pauli_rep, magic_square)
    huge = OperatorStrategy(strategy.dim, strategy.inputs, strategy.outputs,
                            {key: 1.7e308 * mat for key, mat in strategy.pvms.items()})
    _, cert = transported_certificate(1, None)
    huge_cert = IndependenceCertificate(cert.graph, cert.value, OperatorStrategy(
        cert.strategy.dim, cert.strategy.inputs, cert.strategy.outputs,
        {key: 1.7e308 * mat for key, mat in cert.strategy.pvms.items()}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="^matrix has non-finite entries$"):
            rep_from_strategy(huge, magic_square)
        with pytest.raises(ValidationError, match="^matrix has non-finite entries$"):
            rep_from_independence(huge_cert, magic_square)
