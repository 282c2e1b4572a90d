"""The batched relator checks, strategy construction, gluing and transport against the
one-matrix-at-a-time loops they replaced, kept here as oracles: every report, operator,
key order and refusal message must be bit-identical, whatever the chunk size."""
from __future__ import annotations

import numpy as np
import pytest

from conftest import exhaustive_solutions, kcopy_magic_square, random_unitary
from test_graphs import transport_cases, transport_oracle

from syncgames import BinaryLinearSystem, build_synbcs, mermin_peres_system, pauli_magic_square_rep
from syncgames import check_game_algebra_relations
from syncgames import matops
from syncgames.errors import ValidationError, VerificationError
from syncgames.gf2 import enumerate_si
from syncgames.graphs import transport_independence
from syncgames.matops import dagger, hermitian_eig, identity, norm2, residual
from syncgames.solution_group import (
    GroupRep,
    RepVerificationReport,
    glue_rep,
    normalize_j,
    strategy_from_rep,
    verify_rep,
)
from syncgames.strategies import OperatorStrategy


# ------------------------------------------------------------------ oracles --

def verify_rep_loop(rep: GroupRep, sys: BinaryLinearSystem, tol: float) -> RepVerificationReport:
    """verify_rep as one residual() call per relator."""
    if rep.n_variables != sys.n:
        raise ValidationError(f"representation has {rep.n_variables} generators, system has {sys.n}")
    eye = identity(rep.dim)
    mats = list(rep.images) + [rep.j_image]
    with np.errstate(over="ignore", invalid="ignore"):
        unitarity = tuple(residual(dagger(w) @ w - eye) for w in mats)
        involutions = tuple(residual(w @ w - eye) for w in mats)
        mate = []
        for i in range(1, sys.m + 1):
            support = sorted(sys.rows[i - 1])
            for pos, j in enumerate(support):
                wj = rep.images[j - 1]
                for k in support[pos + 1:]:
                    wk = rep.images[k - 1]
                    mate.append(((i, j, k), residual(wj @ wk - wk @ wj)))
        j_comm = tuple(
            (j, residual(rep.images[j - 1] @ rep.j_image - rep.j_image @ rep.images[j - 1]))
            for j in range(1, sys.n + 1)
        )
        products = []
        for i in range(1, sys.m + 1):
            prod = eye
            for j in sorted(sys.rows[i - 1]):
                prod = prod @ rep.images[j - 1]
            target = rep.j_image if sys.b[i - 1] else eye
            products.append((i, residual(prod - target)))
        j_distance = residual(rep.j_image - eye)
    return RepVerificationReport(tol=tol, unitarity=unitarity, involutions=involutions,
                                 mate_commutators=tuple(mate), j_commutators=j_comm,
                                 products=tuple(products), j_distance=j_distance)


def strategy_from_rep_loop(rep: GroupRep, sys: BinaryLinearSystem, tol: float) -> OperatorStrategy:
    """strategy_from_rep's operators, one product of (I + x_j w_j) / 2 factors per (i, x),
    with the same argument refusals and the same certificate of the result."""
    if not sys.covers_all_columns:
        raise ValidationError(
            f"variables {sorted(sys.untouched_variables)} appear in no equation; "
            "the surjection hypothesis fails"
        )
    eye = identity(rep.dim)
    if residual(rep.j_image + eye) > tol:
        raise ValidationError("representation must have j_image = -I; apply normalize_j first")
    if rep.n_variables != sys.n:
        raise ValidationError(f"representation has {rep.n_variables} generators, system has {sys.n}")
    game = build_synbcs(sys)
    pvms = {}
    for i in range(1, sys.m + 1):
        support = sorted(sys.rows[i - 1])
        for x in enumerate_si(sys, i):
            e = eye
            with np.errstate(over="ignore", invalid="ignore"):
                for j in support:
                    e = e @ ((eye + x[j - 1] * rep.images[j - 1]) / 2)
                e = (e + dagger(e)) / 2
            if norm2(e) > 1e-14:
                pvms[(i, x)] = e
    strategy = OperatorStrategy(dim=rep.dim, inputs=game.inputs, outputs=game.outputs, pvms=pvms)
    strategy.validate(tol)
    report = check_game_algebra_relations(game, strategy, tol)
    lost = report.max_losing_overlap ** 2
    if lost > tol:
        raise VerificationError(
            f"constructed correlation loses with probability {lost:.3e} at {report.worst_losing!r}"
        )
    report.require("constructed strategy")
    return strategy


def glue_rep_loop(sys, rows, d, choice_tol, tol, tail) -> GroupRep:
    """glue_rep with one candidate sum per (variable, equation) and one norm2 per pair;
    norm2 refuses a non-finite candidate or difference."""
    images = []
    worst, witness = 0.0, None
    for k in range(1, sys.n + 1):
        mats = []
        for i in range(1, sys.m + 1):
            if k in sys.rows[i - 1]:
                v = np.zeros((d, d), dtype=complex)
                with np.errstate(over="ignore", invalid="ignore"):
                    for x, e in rows[i - 1]:
                        v = v + x[k - 1] * e
                    mats.append((i, (v + dagger(v)) / 2))
        for a, (i, va) in enumerate(mats):
            for i2, vb in mats[a + 1:]:
                with np.errstate(over="ignore", invalid="ignore"):
                    delta = va - vb
                diff = norm2(delta)
                if diff > worst:
                    worst, witness = diff, (k, i, i2)
        images.append(mats[0][1] if mats else identity(d))
    if worst > choice_tol:
        k, i, i2 = witness
        raise VerificationError(
            f"variable {k}: equations {i} and {i2} disagree by {worst:.3e} > {choice_tol:.3e}; "
            + tail
        )
    rep = GroupRep(images=tuple(images), j_image=-identity(d))
    verify_rep_loop(rep, sys, 10 * tol).require("recovered representation")
    return rep


def normalize_j_loop(rep: GroupRep, tol: float) -> GroupRep:
    """normalize_j with one commutator residual per generator, stopping at the first failure."""
    eye = identity(rep.dim)
    j = rep.j_image
    with np.errstate(over="ignore", invalid="ignore"):
        if residual(j + eye) <= tol:
            return rep
        if residual(j @ j - eye) > tol:
            raise ValidationError("image of J is not an involution; cannot compress")
        eig = hermitian_eig((j + dagger(j)) / 2)
        selected = np.abs(eig.eigenvalues + 1.0) <= 0.5
        if not np.any(selected):
            raise ValidationError("image of J has no -1 eigenspace; nothing to compress to")
        cols = eig.eigenvectors[:, selected]
        proj = cols @ dagger(cols)
        for k, w in enumerate(rep.images, start=1):
            resid = residual(proj @ w - w @ proj)
            if resid > tol:
                raise ValidationError(
                    f"-1 eigenprojection fails to commute with generator {k} (residual {resid:.3e})"
                )
        compressed = tuple(dagger(cols) @ w @ cols for w in rep.images)
    return GroupRep(images=compressed, j_image=-identity(cols.shape[1]))


# ------------------------------------------------------------------- inputs --

def outcome(fn, *args):
    """("ok", result) or (exception type, message): what a caller of fn sees."""
    try:
        return "ok", fn(*args)
    except (ValidationError, VerificationError) as exc:
        return type(exc), str(exc)


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_rep(got, want):
    if got[0] != "ok" or want[0] != "ok":
        assert got == want
        return
    assert len(got[1].images) == len(want[1].images)
    assert all(same_bits(w, v) for w, v in zip(got[1].images, want[1].images))
    assert same_bits(got[1].j_image, want[1].j_image)


def assert_same_strategy(got, want):
    if got[0] != "ok" or want[0] != "ok":
        assert got == want
        return
    assert list(got[1].pvms) == list(want[1].pvms)
    assert all(same_bits(got[1].pvms[key], mat) for key, mat in want[1].pvms.items())


def rotate(rep: GroupRep, seed: int) -> GroupRep:
    u = random_unitary(rep.dim, np.random.default_rng(seed))
    return GroupRep(images=tuple(u @ w @ u.conj().T for w in rep.images),
                    j_image=u @ rep.j_image @ u.conj().T)


def mixed_system(untouched: bool = False) -> BinaryLinearSystem:
    """Supports of 1 to 4 variables and both right-hand bits; with untouched, a sixth
    variable in no equation."""
    rows = ({2}, {1, 2}, {2, 4, 5}, {1, 3, 4, 5}, {1, 3}, {2, 3, 4, 5})
    return BinaryLinearSystem(m=6, n=6 if untouched else 5, rows=tuple(map(frozenset, rows)),
                              b=(0, 1, 1, 1, 0, 0))


def solution_rep(sys: BinaryLinearSystem, seed: int) -> GroupRep:
    """A Haar-rotated direct sum of three classical solutions (two of them distinct):
    d = 3, commuting images with non-dyadic entries, J = -I."""
    sols = exhaustive_solutions(sys)
    assert len(sols) >= 2
    diag = np.array([sols[0], sols[1], sols[0]], dtype=complex).T  # (n, 3)
    u = random_unitary(3, np.random.default_rng(seed))
    return GroupRep(images=tuple(u @ np.diag(col) @ u.conj().T for col in diag),
                    j_image=-np.eye(3, dtype=complex))


def random_rep(n: int, d: int, seed: int, scale: float = 1.0) -> GroupRep:
    rng = np.random.default_rng(seed)

    def mat():
        return scale * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))

    return GroupRep(images=tuple(mat() for _ in range(n)), j_image=mat())


def rep_cases() -> list:
    """(id, system, representation) for the relator and strategy comparisons."""
    square, pauli = mermin_peres_system(), pauli_magic_square_rep()
    two, two_rep = kcopy_magic_square(2)
    mixed = mixed_system()
    return [
        ("magic-square", square, pauli),
        ("magic-square-rotated", square, rotate(pauli, 11)),
        ("2-copy-rotated", two, rotate(two_rep, 12)),
        ("mixed-solutions", mixed, solution_rep(mixed, 13)),
        ("mixed-random", mixed, random_rep(5, 3, 14)),
        ("magic-square-random", square, random_rep(9, 4, 15)),
        ("untouched-variable", mixed_system(untouched=True), random_rep(6, 2, 16)),
        ("huge-entries", square, random_rep(9, 2, 17, scale=1e200)),
        ("huge-entries-mixed", mixed, GroupRep(
            images=tuple(1e200 * w for w in solution_rep(mixed, 18).images),
            j_image=-np.eye(3, dtype=complex))),
    ]


CASES = rep_cases()


@pytest.fixture(params=["default-chunks", "one-matrix-chunks"])
def chunking(request, monkeypatch):
    """Runs a test at the default chunk size and with one matrix per chunk."""
    if request.param == "one-matrix-chunks":
        monkeypatch.setattr(matops, "PRODUCT_CHUNK_ENTRIES", 1)


# -------------------------------------------------------------------- tests --

@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_verify_rep_report_is_bit_identical_to_the_loop(case, chunking):
    _, sys_, rep = case
    for tol in (1e-12, 1e-9):
        got, want = verify_rep(rep, sys_, tol), verify_rep_loop(rep, sys_, tol)
        assert repr(got.as_dict()) == repr(want.as_dict())
    if case[0].startswith("huge"):
        assert verify_rep(rep, sys_).max_residual == np.inf


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_strategy_from_rep_is_bit_identical_to_the_loop(case, chunking):
    _, sys_, rep = case
    got = outcome(strategy_from_rep, rep, sys_, 1e-9)
    want = outcome(strategy_from_rep_loop, rep, sys_, 1e-9)
    assert_same_strategy(got, want)
    if case[0] in ("magic-square-rotated", "2-copy-rotated", "mixed-solutions"):
        assert got[0] == "ok"


def strategy_rows(sys_: BinaryLinearSystem, strategy: OperatorStrategy) -> list:
    return [[(x, strategy.matrix(i, x)) for x in enumerate_si(sys_, i)]
            for i in range(1, sys_.m + 1)]


def glue_cases() -> list:
    """(id, system, rows, d, choice_tol): glue_rep inputs that glue, that fail to glue,
    with a variable in no equation, with an empty row and with huge entries."""
    cases = []
    for name, sys_, rep in CASES:
        if name in ("magic-square-rotated", "2-copy-rotated", "mixed-solutions"):
            s = strategy_from_rep(rep, sys_)
            cases.append((name, sys_, strategy_rows(sys_, s), s.dim, 1e-6))
    mixed = mixed_system()
    s = strategy_from_rep(solution_rep(mixed, 21), mixed)
    rows = strategy_rows(mixed, s)
    wide = mixed_system(untouched=True)
    cases.append(("untouched-variable", wide,
                  [[(x + (1,), e) for x, e in row] for row in rows], 3, 1e-6))
    cases.append(("empty-row", mixed, rows[:2] + [[]] + rows[3:], 3, 1e-6))
    rng = np.random.default_rng(22)
    noisy = [[(x, e + 1e-3 * (rng.normal(size=e.shape) + 1j * rng.normal(size=e.shape)))
              for x, e in row] for row in rows]
    cases.append(("perturbed-refused", mixed, noisy, 3, 1e-6))
    cases.append(("perturbed-glued", mixed, noisy, 3, 1.0))  # glued, then fails the relators
    cases.append(("huge-entries", mixed, [[(x, 1e200 * e) for x, e in row] for row in noisy], 3, 1e-6))
    cases.append(("huge-exact-entries", mixed, [[(x, 1e200 * e) for x, e in row] for row in rows],
                  3, 1e-6))
    return cases


GLUE = glue_cases()


@pytest.mark.parametrize("case", GLUE, ids=[c[0] for c in GLUE])
def test_glue_rep_images_and_refusal_are_bit_identical_to_the_loop(case, chunking):
    name, sys_, rows, d, choice_tol = case
    args = (sys_, rows, d, choice_tol, 1e-9, "tail of the message")
    got, want = outcome(glue_rep, *args), outcome(glue_rep_loop, *args)
    assert_same_rep(got, want)
    refused = {"perturbed-refused", "perturbed-glued", "empty-row", "huge-entries",
               "huge-exact-entries"}
    assert got[0] == (VerificationError if name in refused else "ok")
    if name == "untouched-variable":
        assert same_bits(got[1].images[5], np.eye(3, dtype=complex))
    if name == "huge-entries":
        assert "disagree by inf" in got[1]


def normalize_cases() -> list:
    """(id, rep): J with a -1 eigenspace that commutes with every generator, with
    generators 2 and 3 only (so generator 1 is named), with generator 1 huge, and J = -I."""
    rng = np.random.default_rng(31)
    u = random_unitary(4, rng)
    j = u @ np.diag([-1, -1, 1, 1]).astype(complex) @ u.conj().T

    def block(a, b):
        return u @ np.block([[a, np.zeros((2, 2))], [np.zeros((2, 2)), b]]) @ u.conj().T

    def unitary2(seed):
        return random_unitary(2, np.random.default_rng(seed))

    commuting = tuple(block(unitary2(s), unitary2(s + 1)) for s in (1, 3, 5))
    mixing = (commuting[0],) + tuple(random_unitary(4, np.random.default_rng(s)) for s in (7, 8))
    return [
        ("commuting", GroupRep(images=commuting, j_image=j)),
        ("first-failure-named", GroupRep(images=mixing[::-1], j_image=j)),
        ("second-fails", GroupRep(images=mixing, j_image=j)),
        ("huge-entries", GroupRep(images=(1e200 * mixing[1],) + commuting[1:], j_image=j)),
        ("already-normalized", pauli_magic_square_rep()),
    ]


NORMALIZE = normalize_cases()


@pytest.mark.parametrize("case", NORMALIZE, ids=[c[0] for c in NORMALIZE])
def test_normalize_j_names_the_same_generator_as_the_loop(case, chunking):
    name, rep = case
    got, want = outcome(normalize_j, rep, 1e-9), outcome(normalize_j_loop, rep, 1e-9)
    assert_same_rep(got, want)
    named = {"first-failure-named": "generator 1 ", "second-fails": "generator 2 ",
             "huge-entries": "generator 1 (residual inf)"}.get(name)
    if named is None:
        assert got[0] == "ok"
    else:
        assert named in got[1]


def test_transport_is_bit_identical_to_the_triple_loop_in_one_matrix_chunks(monkeypatch):
    monkeypatch.setattr(matops, "PRODUCT_CHUNK_ENTRIES", 1)
    for cert, iso, target in transport_cases():
        expected = transport_oracle(cert, iso, target)
        pvms = transport_independence(cert, iso, target, tol=1e-9).strategy.pvms
        assert list(pvms) == list(expected)
        assert all(same_bits(pvms[key], mat) for key, mat in expected.items())


def test_glue_rep_refuses_an_overflowing_difference_as_the_loop_does(chunking):
    """Candidates of +-1.5e308 differ by an infinite matrix, which norm2 refuses as
    malformed; the batch refuses it with the same message, and neither warns."""
    sys_ = BinaryLinearSystem(m=2, n=1, rows=(frozenset({1}), frozenset({1})), b=(1, 1))
    big = 1.5e308 * np.eye(2, dtype=complex)
    rows = [[((-1,), big)], [((-1,), -big)]]
    args = (sys_, rows, 2, 1e-6, 1e-9, "tail")
    got, want = outcome(glue_rep, *args), outcome(glue_rep_loop, *args)
    assert got == want == (ValidationError, "matrix has non-finite entries")
