"""Game constructors, classical search and the algebra-relation checker."""
from __future__ import annotations

from itertools import product as iter_product

import numpy as np
import pytest

from conftest import exhaustive_solutions, random_hermitian, random_system, random_unitary

from syncgames import (
    BinaryLinearSystem,
    build_hom_game,
    build_iso_game,
    build_synbcs,
    check_game_algebra_relations,
    complete,
    empty_graph,
    find_deterministic_perfect,
    game_from_json_dict,
    pauli_magic_square_rep,
    solve_gf2,
    strategy_from_rep,
)
from syncgames.errors import BudgetError, ValidationError
from syncgames.games import SyncGame, game_from_losing
from syncgames.graphs import Graph
from syncgames.strategies import OperatorStrategy


def brute_force_has_perfect_assignment(game: SyncGame) -> bool:
    """Independent oracle: scan every assignment, no pruning."""
    for choice in iter_product(game.outputs, repeat=len(game.inputs)):
        f = dict(zip(game.inputs, choice))
        if all(game.wins(x, y, f[x], f[y]) for x in game.inputs for y in game.inputs):
            return True
    return False


def test_synbcs_single_equation_predicate():
    sys_ = BinaryLinearSystem(m=1, n=1, rows=(frozenset({1}),), b=(1,))
    game = build_synbcs(sys_)
    assert game.wins(1, 1, (-1,), (-1,))
    assert not game.wins(1, 1, (1,), (1,))  # (+1,) is not a local solution


def test_synbcs_same_equation_distinct_solutions_lose():
    sys_ = BinaryLinearSystem(m=2, n=3, rows=(frozenset({1, 2}), frozenset({2, 3})), b=(0, 1))
    game = build_synbcs(sys_)
    assert game.synchronicity_holds()
    for x in game.outputs:
        for y in game.outputs:
            if x != y and game.predicate(1, 1, x, y):
                pytest.fail(f"distinct same-equation outputs {x}, {y} should lose")


def test_synbcs_magic_square_shape(magic_square):
    game = build_synbcs(magic_square)
    assert len(game.inputs) == 6
    assert len(game.outputs) == 2**9
    for i in game.inputs:
        winners = [x for x in game.outputs if game.predicate(i, i, x, x)]
        assert len(winners) == 4


def test_synbcs_refuses_too_many_variables():
    n = 21
    rows = tuple(frozenset({j}) for j in range(1, n + 1))
    sys_ = BinaryLinearSystem(m=n, n=n, rows=rows, b=(0,) * n)
    with pytest.raises(BudgetError):
        build_synbcs(sys_)


def test_hom_game_identity_wins_k2():
    game = build_hom_game(complete(2), complete(2))
    strategy = find_deterministic_perfect(game)
    assert strategy is not None
    assert strategy.perfect_for(game)


def test_hom_game_k3_to_k2_has_no_perfect_assignment():
    game = build_hom_game(complete(3), complete(2))
    assert not brute_force_has_perfect_assignment(game)
    assert find_deterministic_perfect(game) is None


def test_hom_game_synchronicity():
    game = build_hom_game(complete(3), complete(3))
    assert game.synchronicity_holds()


def test_iso_game_single_vertex():
    game = build_iso_game(complete(1), complete(1))
    strategy = find_deterministic_perfect(game)
    assert strategy is not None
    assert strategy.assignment == {("g", 0): ("h", 0), ("h", 0): ("g", 0)}


def test_iso_game_edge_count_mismatch_unwinnable():
    game = build_iso_game(complete(2), empty_graph(2))
    assert not brute_force_has_perfect_assignment(game)
    assert find_deterministic_perfect(game) is None


def test_iso_game_identity_is_perfect_for_equal_graphs():
    path = Graph(n=3, edges=frozenset({(0, 1), (1, 2)}))
    game = build_iso_game(path, path)
    identity = {("g", v): ("h", v) for v in range(3)}
    identity.update({("h", v): ("g", v) for v in range(3)})
    assert all(
        game.wins(p, q, identity[p], identity[q]) for p in game.inputs for q in game.inputs
    )
    assert game.synchronicity_holds()


def test_deterministic_search_agrees_with_gf2_and_brute_force():
    rng = np.random.default_rng(31)
    for _ in range(30):
        sys_ = random_system(rng, max_m=4, max_n=6)
        game = build_synbcs(sys_)
        found = find_deterministic_perfect(game)
        solvable = solve_gf2(sys_) is not None
        assert (found is not None) == solvable
        assert solvable == bool(exhaustive_solutions(sys_))
        if found is not None:
            assert found.perfect_for(game)
            # the local answers glue to a global solution
            glued = [1] * sys_.n
            for i in range(1, sys_.m + 1):
                for j in sys_.rows[i - 1]:
                    glued[j - 1] = found.assignment[i][j - 1]
            assert all(sys_.equation_holds(i, tuple(glued)) for i in range(1, sys_.m + 1))


def test_deterministic_search_magic_square_absent(magic_square):
    assert find_deterministic_perfect(build_synbcs(magic_square)) is None


def test_deterministic_search_budget():
    game = build_hom_game(complete(70), complete(2))
    with pytest.raises(BudgetError):
        find_deterministic_perfect(game)


def test_relation_check_trivial_identity_strategy():
    game = game_from_losing(inputs=[0], outputs=[0], losing=[])
    strategy = OperatorStrategy(dim=2, inputs=(0,), outputs=(0,), pvms={(0, 0): np.eye(2)})
    report = check_game_algebra_relations(game, strategy, tol=1e-12)
    assert report.passes
    assert report.max_residual == 0.0


def test_relation_check_magic_square_pipeline(magic_square):
    strategy = strategy_from_rep(pauli_magic_square_rep(), magic_square)
    report = check_game_algebra_relations(build_synbcs(magic_square), strategy, tol=1e-9)
    assert report.passes
    assert report.n_stored == 24


def test_relation_check_perturbation_scale(magic_square):
    rng = np.random.default_rng(17)
    strategy = strategy_from_rep(pauli_magic_square_rep(), magic_square)
    eps = 1e-3
    noisy = {
        key: mat + random_hermitian(4, rng, scale=eps) for key, mat in strategy.pvms.items()
    }
    perturbed = OperatorStrategy(
        dim=4, inputs=strategy.inputs, outputs=strategy.outputs, pvms=noisy
    )
    report = check_game_algebra_relations(build_synbcs(magic_square), perturbed, tol=1e-9)
    assert not report.passes
    assert eps / 10 <= report.max_residual <= 10 * eps


def test_relation_check_rejects_input_mismatch():
    game = game_from_losing(inputs=[0, 1], outputs=[0], losing=[])
    strategy = OperatorStrategy(dim=1, inputs=(0,), outputs=(0,), pvms={(0, 0): np.eye(1)})
    with pytest.raises(ValidationError):
        check_game_algebra_relations(game, strategy, tol=1e-9)


def test_explicit_game_requires_synchronicity():
    with pytest.raises(ValidationError):
        game_from_losing(inputs=[0], outputs=[0, 1], losing=[])


def test_game_json_roundtrip_synbcs(magic_square):
    game = build_synbcs(magic_square)
    back = game_from_json_dict(game.to_json_dict())
    assert back.inputs == game.inputs
    assert back.outputs == game.outputs
    rng = np.random.default_rng(3)
    for _ in range(200):
        i, j = rng.integers(1, 7, size=2)
        x = game.outputs[rng.integers(0, len(game.outputs))]
        y = game.outputs[rng.integers(0, len(game.outputs))]
        assert game.wins(int(i), int(j), x, y) == back.wins(int(i), int(j), x, y)


def test_game_json_roundtrip_explicit():
    game = build_hom_game(complete(2), complete(2))
    explicit = SyncGame(
        inputs=game.inputs, outputs=game.outputs, predicate=game.predicate, kind="hom"
    )
    data = explicit.to_json_dict()
    assert data["kind"] == "explicit"
    back = game_from_json_dict(data)
    for t in iter_product(game.inputs, game.inputs, game.outputs, game.outputs):
        assert game.wins(*t) == back.wins(*t)


def test_wins_rejects_unknown_labels():
    game = build_hom_game(complete(2), complete(2))
    with pytest.raises(ValidationError):
        game.wins(0, 5, 0, 0)


@pytest.mark.parametrize("eps", [0.0, 1e-3])
def test_relation_check_invariant_under_unitary_conjugation(magic_square, eps):
    """Conjugating every operator by one Haar unitary keeps the verdict and the residuals."""
    rng = np.random.default_rng(31)
    strategy = strategy_from_rep(pauli_magic_square_rep(), magic_square)
    pvms = {key: mat + random_hermitian(4, rng, scale=eps) for key, mat in strategy.pvms.items()}
    u = random_unitary(4, rng)
    base = OperatorStrategy(dim=4, inputs=strategy.inputs, outputs=strategy.outputs, pvms=pvms)
    rotated = OperatorStrategy(
        dim=4, inputs=strategy.inputs, outputs=strategy.outputs,
        pvms={key: u @ mat @ u.conj().T for key, mat in pvms.items()},
    )
    game = build_synbcs(magic_square)
    before = check_game_algebra_relations(game, base, tol=1e-9)
    after = check_game_algebra_relations(game, rotated, tol=1e-9)
    assert before.passes == after.passes == (eps == 0.0)
    for field in ("max_adjoint_defect", "max_projection_defect", "max_completeness_defect",
                  "max_losing_overlap", "max_residual"):
        assert abs(getattr(before, field) - getattr(after, field)) <= 1e-12
    assert (before.n_stored, before.n_losing_checked) == (after.n_stored, after.n_losing_checked)
