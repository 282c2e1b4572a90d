"""Game constructors, classical search and the algebra-relation checker."""
from __future__ import annotations

import functools
import json
import re
import tracemalloc
from itertools import product as iter_product

import numpy as np
import pytest

from conftest import (
    brute_chi,
    brute_isomorphic,
    exhaustive_solutions,
    explicit_copy,
    is_synchronous,
    kcopy_magic_square,
    kcopy_system,
    local_solutions,
    predicate_of,
    random_graph,
    random_hermitian,
    random_system,
    random_unitary,
    rotated,
    synbcs_losing_oracle,
)

from syncgames import (
    BinaryLinearSystem,
    build_hom_game,
    build_iso_game,
    build_synbcs,
    check_game_algebra_relations,
    complete,
    empty_graph,
    enumerate_si,
    find_deterministic_perfect,
    game_from_json_dict,
    graph_from_system,
    iso_strategy_from_bcs,
    mermin_peres_system,
    pauli_magic_square_rep,
    solve_gf2,
    strategy_from_rep,
    verify_rep,
)
from syncgames import games, matops
from syncgames.errors import BudgetError, ValidationError
from syncgames.games import MAX_GAME_VARIABLES, DeterministicStrategy, SyncGame, game_from_losing
from syncgames.graphs import Graph
from syncgames.labels import SignVectors
from syncgames.matops import norm2
from syncgames.solution_group import GroupRep
from syncgames.strategies import OperatorStrategy


def brute_force_has_perfect_assignment(game: SyncGame) -> bool:
    """Independent oracle: scan every assignment, no pruning."""
    wins = predicate_of(game)
    for choice in iter_product(game.outputs, repeat=len(game.inputs)):
        f = dict(zip(game.inputs, choice))
        if all(wins(x, y, f[x], f[y]) for x in game.inputs for y in game.inputs):
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
    assert is_synchronous(game)
    wins = predicate_of(game)
    for x in game.outputs:
        for y in game.outputs:
            if x != y and wins(1, 1, x, y):
                pytest.fail(f"distinct same-equation outputs {x}, {y} should lose")


def test_synbcs_magic_square_shape(magic_square):
    game = build_synbcs(magic_square)
    assert len(game.inputs) == 6
    assert len(game.outputs) == 2**9
    wins = predicate_of(game)
    for i in game.inputs:
        winners = tuple(x for x in game.outputs if wins(i, i, x, x))
        assert len(winners) == 4 and game.candidates[i] == winners


def test_synbcs_refuses_too_many_variables():
    """The cap is the largest n whose 2^n outputs len() can count."""
    n = MAX_GAME_VARIABLES + 1
    assert n == 63
    rows = tuple(frozenset({j}) for j in range(1, n + 1))
    sys_ = BinaryLinearSystem(m=n, n=n, rows=rows, b=(0,) * n)
    with pytest.raises(BudgetError):
        build_synbcs(sys_)
    game = build_synbcs(BinaryLinearSystem(m=n - 1, n=n - 1, rows=rows[:-1], b=(0,) * (n - 1)))
    assert len(game.outputs) == 2**62


def test_classical_search_reads_the_listed_candidates_over_a_huge_alphabet():
    """A synBCS game lists its candidates (the local solutions S_i), so one equation
    over 40 variables is solved without touching its 2^40 outputs."""
    sys_ = BinaryLinearSystem(m=1, n=40, rows=(frozenset({1}),), b=(0,))
    game = build_synbcs(sys_)
    found = find_deterministic_perfect(game)
    assert found is not None and found.perfect_for(game)
    assert found.assignment == {1: (1,) * 40}


def test_explicit_game_search_budget_counts_its_candidates():
    """An explicit game's search reads its candidates off its table: 70 inputs over 2
    outputs, one of them losing on the diagonal, list one candidate each and are
    answered; with both outputs winning on the diagonal (2^70 assignments) they are
    answered too, at the first leaf."""
    ins = tuple(range(70))
    diagonal = [(x, x, a, b) for x in ins for a in (0, 1) for b in (0, 1) if a != b]
    game = game_from_losing(ins, (0, 1), diagonal + [(x, x, 1, 1) for x in ins])
    assert game.candidates == dict.fromkeys(ins, (0,))
    assert find_deterministic_perfect(game).assignment == dict.fromkeys(ins, 0)
    both = game_from_losing(ins, (0, 1), diagonal)
    assert find_deterministic_perfect(both).assignment == dict.fromkeys(ins, 0)


def test_synbcs_candidate_lists_are_the_local_solutions_in_output_order():
    """The listed candidates are the oracle's diagonal winners, in output order."""
    rng = np.random.default_rng(33)
    for _ in range(30):
        sys_ = random_system(rng, max_m=4, max_n=6)
        game = build_synbcs(sys_)
        wins = predicate_of(game)
        scanned = {i: tuple(a for a in game.outputs if wins(i, i, a, a)) for i in game.inputs}
        assert game.candidates == scanned
        assert all(tuple(enumerate_si(sys_, i)) == scanned[i] for i in game.inputs)


def test_synbcs_search_budget_counts_the_candidate_lists():
    """Equations on one 4-variable support list 8 candidates each, not 2^4: 21 of
    them and 22 of them (8^22 assignments) are answered alike."""
    def system(m):
        return BinaryLinearSystem(m=m, n=4, rows=(frozenset({1, 2, 3, 4}),) * m, b=(0,) * m)

    for m in (21, 22):
        game = build_synbcs(system(m))
        assert all(len(c) == 8 for c in game.candidates.values())
        assert find_deterministic_perfect(game).perfect_for(game)


def test_relation_check_compares_output_alphabets_without_enumerating_them():
    game = build_synbcs(BinaryLinearSystem(m=1, n=3, rows=(frozenset({1, 2, 3}),), b=(0,)))
    one = np.eye(1)
    for outputs in (SignVectors(62), SignVectors(2), (0, 1)):
        strategy = OperatorStrategy(dim=1, inputs=(1,), outputs=outputs, pvms={})
        with pytest.raises(ValidationError, match="not a subset"):
            check_game_algebra_relations(game, strategy, 1e-9)
    listed = OperatorStrategy(dim=1, inputs=(1,), outputs=((1, 1, 1), (-1, -1, 1)),
                              pvms={(1, (1, 1, 1)): one})
    assert check_game_algebra_relations(game, listed, 1e-9).passes
    explicit = game_from_losing(inputs=[0], outputs=[0, 1], losing=[(0, 0, 0, 1), (0, 0, 1, 0)])
    strategy = OperatorStrategy(dim=1, inputs=(0,), outputs=SignVectors(62), pvms={})
    with pytest.raises(ValidationError, match="not a subset"):
        check_game_algebra_relations(explicit, strategy, 1e-9)


@pytest.mark.parametrize("outputs", [{"sign_vectors": 1}, "ab", 2])
def test_explicit_game_outputs_must_be_a_list(outputs):
    with pytest.raises(ValidationError, match="explicit game outputs must be a JSON list"):
        game_from_json_dict({"kind": "explicit", "inputs": [0], "outputs": outputs, "losing": []})


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
    assert is_synchronous(game)


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
    assert is_synchronous(game)


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


def cycle(n: int) -> Graph:
    return Graph(n=n, edges=frozenset(tuple(sorted((v, (v + 1) % n))) for v in range(n)))


def test_search_decides_games_of_more_than_64_bits():
    """The search refuses only by its node budget and its pair table: games whose
    assignment space is far over 2^64 are decided when the pruning is quick."""
    copies = BinaryLinearSystem(m=60, n=4, rows=(frozenset({1, 2, 3, 4}),) * 60, b=(0,) * 60)
    decided = [
        (build_hom_game(complete(70), complete(2)), False),  # 70 bits
        (build_hom_game(empty_graph(70), complete(2)), True),
        (build_hom_game(cycle(71), complete(2)), False),  # an odd cycle, 71 bits
        (build_synbcs(kcopy_system(6)), False),  # 36 inputs x 4 candidates: 72 bits
        (build_synbcs(copies), True),  # 60 x 8 candidates: 180 bits
    ]
    for game, exists in decided:
        found = find_deterministic_perfect(game)
        assert (found is not None) == exists
        assert found is None or found.perfect_for(game)


def test_deterministic_search_budget():
    """A hopeless game, a dense 40-vertex graph into K_5, stops at the node budget."""
    game = build_hom_game(random_graph(np.random.default_rng(0), 40), complete(5))
    with pytest.raises(BudgetError, match=f"search exceeded {games.DEFAULT_SEARCH_NODES} nodes"):
        find_deterministic_perfect(game)


@functools.cache
def scanned_oracle(game: SyncGame) -> tuple:
    """The game's oracle predicate and each input's candidates scanned from the alphabet
    with it, once per game."""
    wins = predicate_of(game)
    return wins, {x: tuple(a for a in game.outputs if wins(x, x, a, a)) for x in game.inputs}


def search_oracle(game: SyncGame):
    """The per-node predicate search the pair table replaced: the same node budget,
    order and node count, with the candidates scanned from the alphabet and every
    partial assignment checked by calls of the game's oracle predicate."""
    wins, candidates = scanned_oracle(game)
    if any(not c for c in candidates.values()):
        return None
    order = sorted(game.inputs, key=lambda x: (len(candidates[x]), game.inputs.index(x)))
    assignment: dict = {}
    nodes = 0

    def extend(depth: int) -> bool:
        nonlocal nodes
        if depth == len(order):
            return True
        x = order[depth]
        for a in candidates[x]:
            nodes += 1
            if nodes > games.DEFAULT_SEARCH_NODES:
                raise BudgetError(f"search exceeded {games.DEFAULT_SEARCH_NODES} nodes; undecided")
            if all(
                wins(x, y, a, b) and wins(y, x, b, a)
                for y, b in assignment.items()
            ):
                assignment[x] = a
                if extend(depth + 1):
                    return True
                del assignment[x]
        return False

    return DeterministicStrategy(assignment=dict(assignment)) if extend(0) else None


def search_outcome(search, game):
    """A search's answer as comparable data: its assignment in insertion order, None,
    or the budget message."""
    try:
        found = search(game)
    except BudgetError as exc:
        return f"budget: {exc}"
    return None if found is None else list(found.assignment.items())


def random_search_games(seed: int) -> list:
    """Seeded synBCS, hom, iso and explicit games, about a third without a perfect
    deterministic strategy."""
    rng = np.random.default_rng(seed)
    out = [build_synbcs(random_system(rng, max_m=7, max_n=9)) for _ in range(40)]
    for _ in range(25):
        g = random_graph(rng, int(rng.integers(1, 9)), float(rng.uniform(0.2, 0.8)))
        h = random_graph(rng, int(rng.integers(1, 6)), float(rng.uniform(0.2, 0.9)))
        out.append(build_hom_game(g, h))
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(2, 10)))
        out.append(build_hom_game(g, complete(int(rng.integers(1, 5)))))
    for _ in range(15):
        n = int(rng.integers(1, 6))
        g = random_graph(rng, n, float(rng.uniform(0.2, 0.8)))
        if rng.random() < 0.5:  # an isomorphic copy, so the game has a perfect strategy
            perm = rng.permutation(n)
            h = Graph(n=n, edges=frozenset((int(perm[u]), int(perm[v])) for u, v in g.edges))
        else:
            h = random_graph(rng, int(rng.integers(1, 6)), float(rng.uniform(0.2, 0.8)))
        out.append(build_iso_game(g, h))
    for _ in range(20):
        ins = [f"x{i}" for i in range(int(rng.integers(1, 5)))]
        outs = list(range(int(rng.integers(1, 4))))
        losing = [(x, y, a, b) for x in ins for y in ins for a in outs for b in outs
                  if (x == y and a != b) or rng.random() < 0.15]
        out.append(game_from_losing(ins, outs, losing))
    return out


def test_search_agrees_with_the_predicate_oracle():
    """Same assignment (in the same order) or None on every game, under a seed not
    used elsewhere; a few games of each kind are solved and a few refuted."""
    outcomes = []
    for game in random_search_games(1201):
        expected = search_outcome(search_oracle, game)
        assert search_outcome(find_deterministic_perfect, game) == expected
        outcomes.append(expected is None)
    assert 10 <= sum(outcomes) <= len(outcomes) - 10


def test_search_trips_the_node_budget_at_the_oracle_node(monkeypatch):
    """For every node budget up to 30, both searches raise, or both answer alike: so the
    first node over the budget is the same node."""
    refused = answered = 0
    # two games over 64 bits: K_70 -> K_2 is refuted at node 10, the edgeless one needs 70
    cases = random_search_games(1202)[::3] + [
        build_hom_game(complete(70), complete(2)), build_hom_game(empty_graph(70), complete(2))]
    for limit in range(1, 31):
        monkeypatch.setattr(games, "DEFAULT_SEARCH_NODES", limit)
        for game in cases:
            expected = search_outcome(search_oracle, game)
            assert search_outcome(find_deterministic_perfect, game) == expected
            refused += isinstance(expected, str)
            answered += not isinstance(expected, str)
    assert refused > 100 and answered > 100


def test_search_over_1200_inputs_keeps_its_own_stack():
    """One depth per input, 1,200 deep: the hom game from an edgeless graph into K_1
    is answered, not refused by the interpreter's recursion limit."""
    game = build_hom_game(empty_graph(1200), complete(1))
    assert find_deterministic_perfect(game).assignment == {v: 0 for v in range(1200)}


def nothing_loses(keys) -> np.ndarray:
    return np.zeros((len(keys), len(keys)), dtype=bool)


def one_input_game(n_outputs: int, mask_of=nothing_loses) -> SyncGame:
    """One input with n_outputs candidates and a cheap losing mask."""
    outputs = tuple(range(n_outputs))
    return SyncGame(inputs=(0,), outputs=outputs, losing=mask_of, candidates={0: outputs},
                    source=dict)


def test_pair_table_budget_boundary(monkeypatch):
    """K candidate keys need K^2 cells: 2000 keys (4,000,000 cells) are searched, 2001
    are refused before the losing mask is taken."""
    assert games.MAX_PAIR_TABLE_CELLS == 2000**2
    assert find_deterministic_perfect(one_input_game(2000)).assignment == {0: 0}
    over = one_input_game(2001, mask_of=lambda keys: pytest.fail("losing mask taken"))
    with pytest.raises(BudgetError, match="2001 candidate keys needs 4004001 cells > 4000000"):
        find_deterministic_perfect(over)
    # a hom game lists every output of H as a candidate: 6 x 333 keys fit, 6 x 334 do not
    monkeypatch.setattr(games, "MAX_PAIR_TABLE_CELLS", 6 * 6)
    assert find_deterministic_perfect(build_hom_game(complete(2), complete(3))) is not None
    with pytest.raises(BudgetError, match="7 candidate keys"):
        find_deterministic_perfect(build_hom_game(empty_graph(1), empty_graph(7)))


def test_hom_and_iso_searches_match_the_colouring_and_isomorphism_oracles():
    """Hom games list every output as a candidate (graphs are loopless) and iso games
    every label of the opposite side: the lists equal the oracle's diagonal scan, and
    the search's verdicts match the brute-force colouring and isomorphism oracles."""
    rng = np.random.default_rng(1203)
    cases = []
    for _ in range(12):
        g = random_graph(rng, int(rng.integers(1, 7)), float(rng.uniform(0.2, 0.8)))
        k = int(rng.integers(1, 5))
        cases.append((build_hom_game(g, complete(k)), brute_chi(g) <= k))
        n = int(rng.integers(1, 6))
        g = random_graph(rng, n, float(rng.uniform(0.2, 0.8)))
        if rng.random() < 0.5:
            perm = rng.permutation(n)
            h = Graph(n=n, edges=frozenset(tuple(sorted((int(perm[u]), int(perm[v]))))
                                           for u, v in g.edges))
        else:
            h = random_graph(rng, int(rng.integers(1, 6)), float(rng.uniform(0.2, 0.8)))
        cases.append((build_iso_game(g, h), brute_isomorphic(g, h)))
    verdicts = []
    for game, expected in cases:
        wins = predicate_of(game)
        scanned = {x: tuple(a for a in game.outputs if wins(x, x, a, a)) for x in game.inputs}
        assert game.candidates == scanned
        found = find_deterministic_perfect(game)
        assert (found is not None) == expected
        assert found is None or found.perfect_for(game)
        verdicts.append(expected)
    assert 5 <= sum(verdicts) <= len(verdicts) - 5


def test_hom_mask_into_an_edgeless_2000_vertex_graph_stays_small():
    """One vertex into 2000 isolated ones: 2000 candidate keys, whose 4 MB pair table
    the search builds; the adjacency lookup scatters the named edges into one bool
    table instead of forming n'^2 int64 arrays (over 100 MB of peak here)."""
    game = build_hom_game(empty_graph(1), empty_graph(2000))
    keys = [(0, a) for a in range(2000)]
    tracemalloc.start()
    try:
        mask = game.losing(keys)
        found = find_deterministic_perfect(game)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20
    assert np.array_equal(mask, ~np.eye(2000, dtype=bool))  # unequal answers to one question
    assert found.assignment == {0: 0}


def test_perfect_for_checks_labels_and_reads_one_mask():
    game = build_hom_game(complete(3), complete(3))
    assert DeterministicStrategy({0: 0, 1: 1, 2: 2}).perfect_for(game)
    assert not DeterministicStrategy({0: 0, 1: 0, 2: 2}).perfect_for(game)
    with pytest.raises(ValidationError, match="unknown output label 5 for input 2"):
        DeterministicStrategy({0: 0, 1: 0, 2: 5}).perfect_for(game)  # losing before label 5
    with pytest.raises(ValidationError, match="lacks input 2"):
        DeterministicStrategy({0: 0, 1: 1}).perfect_for(game)
    rng = np.random.default_rng(1203)
    verdicts = []
    for game in random_search_games(1204):
        drawn = DeterministicStrategy(
            {x: game.outputs[int(rng.integers(len(game.outputs)))] for x in game.inputs}
        )
        found, wins = find_deterministic_perfect(game), predicate_of(game)
        for strategy in [drawn] + ([found] if found is not None else []):
            f = strategy.assignment
            verdicts.append(strategy.perfect_for(game))
            assert verdicts[-1] == all(
                wins(x, y, f[x], f[y]) for x in game.inputs for y in game.inputs
            )
    assert 10 <= sum(verdicts) <= len(verdicts) - 10


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
    with pytest.raises(ValidationError, match=r"not synchronous: \(0, 0, 0, 1\) must lose"):
        game_from_losing(inputs=[0], outputs=[0, 1], losing=[])


def test_explicit_game_refuses_unknown_labels():
    diagonal = [(0, 0, 0, 1), (0, 0, 1, 0)]
    for stray in [(0, 1, 0, 0), (0, 0, 0, 2)]:
        with pytest.raises(ValidationError, match=rf"losing tuple {re.escape(repr(stray))} uses unknown"):
            game_from_losing(inputs=[0], outputs=[0, 1], losing=diagonal + [stray])


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
    data = explicit_copy(game).to_json_dict()
    assert data["kind"] == "explicit"
    back = game_from_json_dict(data)
    for t in iter_product(game.inputs, game.inputs, game.outputs, game.outputs):
        assert game.wins(*t) == back.wins(*t)


def test_explicit_game_json_lists_its_table_in_scan_order():
    """However its table is ordered, an explicit game writes its losing tuples in the
    order of a scan over (input, input, output, output) positions, with string, int
    and tuple labels, and its candidates are its diagonal winners in output order."""
    rng = np.random.default_rng(1205)
    for _ in range(20):
        ins = [("x", i) for i in range(int(rng.integers(1, 5)))][::-1]
        outs = ["b", 0, ("a", 1)][:int(rng.integers(1, 4))]
        scan = [(x, y, a, b) for x in ins for y in ins for a in outs for b in outs
                if (x == y and a != b) or rng.random() < 0.3]
        shuffled = [scan[k] for k in rng.permutation(len(scan))]
        game = game_from_losing(ins, outs, shuffled + shuffled[:3])
        expected = [[list(x), list(y), list(a) if isinstance(a, tuple) else a,
                     list(b) if isinstance(b, tuple) else b] for x, y, a, b in scan]
        assert game.to_json_dict()["losing"] == expected
        assert game.candidates == {x: tuple(a for a in outs if (x, x, a, a) not in scan)
                                   for x in ins}


@pytest.mark.parametrize("inputs, outputs, repeated",
                         [([0, 0], [0], "explicit game inputs repeat 0"),
                          ([0], ["a", "b", "a"], "explicit game outputs repeat 'a'")])
def test_explicit_game_refuses_repeated_labels(inputs, outputs, repeated):
    with pytest.raises(ValidationError, match=repeated):
        game_from_losing(inputs, outputs, [])


def test_wins_rejects_unknown_labels():
    game = build_hom_game(complete(2), complete(2))
    with pytest.raises(ValidationError):
        game.wins(0, 5, 0, 0)


RELATION_FIELDS = ("max_adjoint_defect", "max_projection_defect", "max_completeness_defect",
                   "max_losing_overlap", "max_residual")


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
    for field in RELATION_FIELDS:
        assert abs(getattr(before, field) - getattr(after, field)) <= 1e-12
    assert (before.n_stored, before.n_losing_checked) == (after.n_stored, after.n_losing_checked)


@pytest.mark.parametrize("eps", [0.0, 1e-3])
@pytest.mark.parametrize("permuted", ["equations", "variables"])
def test_relation_check_invariant_under_relabelling(magic_square, permuted, eps):
    """Permuting the system's equations or its variables, with the strategy and the
    representation relabelled to match, keeps every verdict and residual."""
    rng = np.random.default_rng(33)
    new_eq = list(range(1, magic_square.m + 1))    # old equation i becomes new_eq[i - 1]
    new_var = list(range(1, magic_square.n + 1))   # old variable j becomes new_var[j - 1]
    if permuted == "equations":
        new_eq = [int(v) + 1 for v in rng.permutation(magic_square.m)]
    else:
        new_var = [int(v) + 1 for v in rng.permutation(magic_square.n)]
    rows, b = [None] * magic_square.m, [None] * magic_square.m
    for i, row in enumerate(magic_square.rows, start=1):
        rows[new_eq[i - 1] - 1] = frozenset(new_var[j - 1] for j in row)
        b[new_eq[i - 1] - 1] = magic_square.b[i - 1]
    moved = BinaryLinearSystem(m=magic_square.m, n=magic_square.n, rows=tuple(rows), b=tuple(b))

    def relabel(i, x):
        y = [0] * len(x)
        for j, v in enumerate(x, start=1):
            y[new_var[j - 1] - 1] = v
        return new_eq[i - 1], tuple(y)

    rep = pauli_magic_square_rep()
    images = [None] * magic_square.n
    for j, w in enumerate(rep.images, start=1):
        images[new_var[j - 1] - 1] = w
    moved_rep = GroupRep(images=tuple(images), j_image=rep.j_image)
    rep_before, rep_after = verify_rep(rep, magic_square, 1e-9), verify_rep(moved_rep, moved, 1e-9)
    assert rep_before.passes and rep_after.passes
    assert abs(rep_before.max_residual - rep_after.max_residual) <= 1e-12

    exact = strategy_from_rep(rep, magic_square)
    moved_exact = strategy_from_rep(moved_rep, moved)
    assert set(moved_exact.pvms) == {relabel(*key) for key in exact.pvms}
    for key, mat in exact.pvms.items():
        assert np.max(np.abs(moved_exact.pvms[relabel(*key)] - mat)) <= 1e-12

    pvms = {key: mat + random_hermitian(4, rng, scale=eps) for key, mat in exact.pvms.items()}
    game, moved_game = build_synbcs(magic_square), build_synbcs(moved)
    base = OperatorStrategy(dim=4, inputs=game.inputs, outputs=game.outputs, pvms=pvms)
    relabelled = OperatorStrategy(
        dim=4, inputs=moved_game.inputs, outputs=moved_game.outputs,
        pvms={relabel(*key): mat for key, mat in pvms.items()},
    )
    before = check_game_algebra_relations(game, base, tol=1e-9)
    after = check_game_algebra_relations(moved_game, relabelled, tol=1e-9)
    assert before.passes == after.passes == (eps == 0.0)
    for field in RELATION_FIELDS:
        assert abs(getattr(before, field) - getattr(after, field)) <= 1e-12
    assert (before.n_stored, before.n_losing_checked) == (after.n_stored, after.n_losing_checked)


# ------------------------------------------------- batched relation kernel --

def relation_oracle(game, strategy) -> tuple:
    """The per-pair loop the batched kernel replaced: (max overlap, witness, pairs checked)
    over the stored keys in row-major order, taking the first strict maximum."""
    keys, wins = strategy.stored_keys(), predicate_of(game)
    max_losing, worst, n_checked = 0.0, None, 0
    for x, a in keys:
        e = strategy.pvms[(x, a)]
        for y, b in keys:
            if wins(x, y, a, b):
                continue
            n_checked += 1
            overlap = norm2(e @ strategy.pvms[(y, b)])
            if overlap > max_losing:
                max_losing, worst = overlap, (x, y, a, b)
    return max_losing, worst, n_checked


def assert_kernel_matches_oracle(game, strategy) -> None:
    report = check_game_algebra_relations(game, strategy, tol=1e-9)
    max_losing, worst, n_checked = relation_oracle(game, strategy)
    assert abs(report.max_losing_overlap - max_losing) <= 1e-12
    assert report.worst_losing == worst
    assert (report.n_stored, report.n_losing_checked) == (len(strategy.pvms), n_checked)


def every_key(game) -> list:
    return [(x, a) for x in game.inputs for a in game.outputs]


def mask_cases() -> list:
    """One (game, keys) param per case, over every game kind; keys mix winning and losing labels."""
    rng = np.random.default_rng(41)
    cases = []
    for t in range(8):
        sys_ = random_system(rng)
        game = build_synbcs(sys_)
        local = [(i, x) for i in game.inputs for x in enumerate_si(sys_, i)]
        stray = [(int(rng.choice(game.inputs)), game.outputs[int(rng.integers(len(game.outputs)))])
                 for _ in range(10)]
        cases.append(pytest.param(game, local + stray, id=f"synbcs-{t}"))
        g, h = random_graph(rng, int(rng.integers(1, 6))), random_graph(rng, int(rng.integers(1, 6)))
        for kind, build in (("hom", build_hom_game), ("iso", build_iso_game)):
            cases.append(pytest.param(build(g, h), every_key(build(g, h)), id=f"{kind}-{t}"))
        # keys naming only some vertices of larger graphs: edges leaving them are not looked up
        g, h = random_graph(rng, 12), random_graph(rng, 10)
        for kind, build in (("hom", build_hom_game), ("iso", build_iso_game)):
            game = build(g, h)
            keys = every_key(game)
            picked = rng.choice(len(keys), size=40, replace=False)
            cases.append(pytest.param(game, [keys[k] for k in picked], id=f"{kind}-partial-{t}"))
    magic = mermin_peres_system()
    iso = build_iso_game(graph_from_system(magic, use_b=True), graph_from_system(magic, use_b=False))
    cases.append(pytest.param(iso, [(x, a) for x in iso.inputs[::5] for a in iso.outputs],
                              id="iso-magic-square"))
    cases.append(pytest.param(build_synbcs(magic),
                              [(i, x) for i in range(1, 7) for x in enumerate_si(magic, i)],
                              id="synbcs-magic-square"))
    explicit = game_from_json_dict(explicit_copy(build_hom_game(complete(2), complete(3)))
                                   .to_json_dict())
    cases.append(pytest.param(explicit, every_key(explicit), id="explicit"))
    return cases


@pytest.mark.parametrize("game, keys", mask_cases())
def test_losing_mask_is_the_negated_predicate(game, keys):
    wins = predicate_of(game)
    expected = [[not wins(x, y, a, b) for y, b in keys] for x, a in keys]
    assert np.array_equal(game.losing(keys), np.array(expected, dtype=bool).reshape(len(keys), -1))


@pytest.mark.parametrize(
    "build, keys",
    [
        (build_hom_game, [(0, 3999), (3999, 0), (1, 2), (1, 0)]),
        (build_iso_game, [(("g", 0), ("h", 3999)), (("g", 3999), ("h", 0)), (("g", 1), ("h", 2)),
                          (("h", 5), ("h", 6))]),
    ],
    ids=["hom", "iso"],
)
def test_losing_mask_memory_does_not_grow_with_the_vertex_count(build, keys):
    """A 4000-vertex graph with one edge and a few stored keys: the mask looks up only
    the vertices the keys name (an n x n bool matrix alone would take 16 MB)."""
    g = Graph(n=4000, edges=frozenset({(0, 3999)}))
    game = build(g, g)
    tracemalloc.start()
    try:
        mask = game.losing(keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    wins = predicate_of(game)
    expected = [[not wins(x, y, a, b) for y, b in keys] for x, a in keys]
    assert np.array_equal(mask, np.array(expected, dtype=bool))


def ix_pair_adjacency(graph, verts: np.ndarray) -> np.ndarray:
    """The np.ix_ expansion the hom and iso masks used before their 1-D gathers."""
    named, inverse = np.unique(verts, return_inverse=True)
    adjacent = np.zeros((len(named), len(named)), dtype=bool)
    if len(named):
        edges = graph._edge_array
        pos = np.searchsorted(named, edges).clip(max=len(named) - 1)
        u, v = pos[(named[pos] == edges).all(axis=1)].T
        adjacent[u, v] = adjacent[v, u] = True
    return adjacent[np.ix_(inverse, inverse)]


def ix_relation_types(graph, verts: np.ndarray) -> np.ndarray:
    rel = 2 - ix_pair_adjacency(graph, verts).astype(np.int8)
    rel[verts[:, None] == verts[None, :]] = 0
    return rel


def ix_losing_mask(kind: str, g, h, keys) -> np.ndarray:
    """The hom or iso losing mask as built with np.ix_ gathers and an np.ix_ scatter."""
    if kind == "hom":
        v = np.array([k[0] for k in keys], dtype=np.intp)
        x = np.array([k[1] for k in keys], dtype=np.intp)
        repeated = (v[:, None] == v[None, :]) & (x[:, None] != x[None, :])
        return repeated | (ix_pair_adjacency(g, v) & ~ix_pair_adjacency(h, x))
    pairs = [None if p[0] == r[0] else (p[1], r[1]) if p[0] == "g" else (r[1], p[1])
             for p, r in keys]
    valid = np.flatnonzero([pair is not None for pair in pairs])
    gv = np.array([pairs[k][0] for k in valid], dtype=np.intp)
    hv = np.array([pairs[k][1] for k in valid], dtype=np.intp)
    mask = np.ones((len(keys), len(keys)), dtype=bool)
    mask[np.ix_(valid, valid)] = ix_relation_types(g, gv) != ix_relation_types(h, hv)
    return mask


PATH4 = Graph(n=4, edges=frozenset({(0, 1), (1, 2), (2, 3)}))
STAR5 = Graph(n=5, edges=frozenset({(0, 1), (0, 2), (0, 3)}))  # vertex 4 is isolated
BIG = Graph(n=4000, edges=frozenset({(0, 3999)}))


def ix_oracle_cases() -> list:
    """(kind, g, h, keys): repeated vertices, keys naming no edge, zero and one key,
    same-side iso keys, the 4000-vertex one-edge graph, and random keys with repeats."""
    def iso(*pairs):
        return [((p, u), (r, v)) for p, u, r, v in pairs]

    cases = [
        ("hom", PATH4, STAR5, [(0, 1), (2, 1), (0, 1), (0, 3), (3, 0), (2, 2), (1, 0)], "repeated"),
        ("iso", PATH4, STAR5, iso(("g", 0, "h", 1), ("g", 0, "h", 1), ("h", 1, "g", 2),
                                  ("g", 2, "h", 0), ("h", 4, "g", 1)), "repeated"),
        ("hom", PATH4, STAR5, [(0, 4), (2, 4), (3, 3), (0, 2)], "no-edge"),
        ("iso", PATH4, STAR5, iso(("g", 0, "h", 4), ("g", 2, "h", 3), ("h", 1, "g", 3)),
         "no-edge"),
        ("hom", PATH4, STAR5, [], "empty"),
        ("iso", PATH4, STAR5, [], "empty"),
        ("hom", PATH4, STAR5, [(1, 0)], "one"),
        ("iso", PATH4, STAR5, iso(("h", 2, "g", 3)), "one"),
        ("iso", PATH4, STAR5, iso(("g", 0, "h", 1), ("g", 0, "g", 1), ("h", 0, "g", 1),
                                  ("h", 2, "h", 2), ("g", 1, "h", 0)), "same-side"),
        ("iso", PATH4, STAR5, iso(("g", 3, "g", 3)), "only-same-side"),
        ("hom", BIG, BIG, [(0, 3999), (3999, 0), (1, 2), (1, 0)], "4000-vertices"),
        ("iso", BIG, BIG, iso(("g", 0, "h", 3999), ("g", 3999, "h", 0), ("g", 1, "h", 2),
                              ("h", 5, "h", 6)), "4000-vertices"),
    ]
    rng = np.random.default_rng(67)
    for t in range(6):
        g, h = random_graph(rng, int(rng.integers(1, 7))), random_graph(rng, int(rng.integers(1, 7)))
        for kind, build in (("hom", build_hom_game), ("iso", build_iso_game)):
            keys = every_key(build(g, h))
            picked = rng.integers(0, len(keys), size=25)  # with repeats
            cases.append((kind, g, h, [keys[k] for k in picked], f"random-{t}"))
    return [pytest.param(kind, g, h, keys, id=f"{kind}-{name}") for kind, g, h, keys, name in cases]


@pytest.mark.parametrize("kind, g, h, keys", ix_oracle_cases())
def test_masks_from_small_tables_match_the_ix_oracle(kind, g, h, keys):
    """The n' x n' tables expanded by two 1-D gathers, and the iso block placed by row
    and column assignment, give the np.ix_ masks bit for bit."""
    game = (build_hom_game if kind == "hom" else build_iso_game)(g, h)
    mask, expected = game.losing(keys), ix_losing_mask(kind, g, h, keys)
    assert (mask.dtype, mask.shape, mask.tobytes()) == (expected.dtype, expected.shape,
                                                         expected.tobytes())
    wins = predicate_of(game)
    assert mask.tolist() == [[not wins(x, y, a, b) for y, b in keys] for x, a in keys]
    if kind == "hom":  # the expanded tables themselves, on each graph's named vertices
        for graph, side in ((g, 0), (h, 1)):
            verts = np.array([k[side] for k in keys], dtype=np.intp)
            for table, oracle in ((games._adjacency, ix_pair_adjacency),
                                  (games._relation_types, ix_relation_types)):
                got, want = games._pair_table(table, graph, verts), oracle(graph, verts)
                assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())


# ------------------------------------------------------- synBCS sign table --

def stray_key(sys_, rng) -> tuple:
    """A key (i, x) that is no local solution of equation i: a local solution with one
    support sign flipped (wrong parity) or, when a variable is off the support, -1 there."""
    i = int(rng.integers(1, sys_.m + 1))
    listed = local_solutions(sys_, i)
    x = list(listed[int(rng.integers(len(listed)))])
    off = sorted(set(range(1, sys_.n + 1)) - sys_.rows[i - 1])
    if off and rng.random() < 0.5:
        x[int(rng.choice(off)) - 1] = -1
    else:
        j = int(rng.choice(sorted(sys_.rows[i - 1])))
        x[j - 1] = -x[j - 1]
    return i, tuple(x)


def sign_table_cases() -> list:
    """(system, key lists) on seeded random systems and the 1-, 2- and 3-copy magic
    squares: local solutions mixed with stray keys, shuffled, repeated, none, one local
    solution, one stray key and stray keys only."""
    rng = np.random.default_rng(2417)
    systems = [random_system(rng) for _ in range(20)] + [kcopy_magic_square(k)[0] for k in (1, 2, 3)]
    cases = []
    for t, sys_ in enumerate(systems):
        local = [(i, x) for i in range(1, sys_.m + 1) for x in local_solutions(sys_, i)]
        stray = [stray_key(sys_, rng) for _ in range(6)]
        assert not set(stray) & set(local)
        mixed = local + stray
        shuffled = [mixed[k] for k in rng.permutation(len(mixed))]
        repeated = [mixed[k] for k in rng.integers(0, len(mixed), size=2 * len(mixed))]
        key_lists = [shuffled, repeated, [], local[:1], stray[:1], stray]
        cases.append(pytest.param(sys_, key_lists, id=f"system-{t}"))
    return cases


@pytest.mark.parametrize("sys_, key_lists", sign_table_cases())
def test_synbcs_masks_from_the_sign_table_match_the_per_key_oracle(sys_, key_lists):
    """Index lookups and row gathers from the system's sign table give the masks the
    per-key support loop and the frozenset membership gave, bit for bit."""
    game = build_synbcs(sys_)
    for keys in key_lists:
        mask, expected = game.losing(keys), synbcs_losing_oracle(sys_, keys)
        assert (mask.dtype, mask.shape, mask.tobytes()) == (expected.dtype, expected.shape,
                                                             expected.tobytes())


def test_a_system_of_many_equations_builds_its_synbcs_game_in_memory_linear_in_m():
    """3,000 one-variable equations: the sign table holds the m x n supports, not
    m x m shared-variable counts (72 MB of float64 here), and a mask over a few keys
    gathers only their rows."""
    m = 3000
    sys_ = BinaryLinearSystem(m=m, n=1, rows=(frozenset({1}),) * m,
                              b=tuple(i % 2 for i in range(m)))
    keys = [(1, (1,)), (2, (-1,)), (2, (1,)), (m, (-1,))]
    tracemalloc.start()
    try:
        game = build_synbcs(sys_)
        mask = game.losing(keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    expected = synbcs_losing_oracle(sys_, keys)
    assert (mask.dtype, mask.tobytes()) == (expected.dtype, expected.tobytes())


@pytest.mark.parametrize("copies", [1, 2])
def test_relation_kernel_matches_the_loop_on_rotated_strategies(copies):
    sys_, rep = kcopy_magic_square(copies)
    strategy = strategy_from_rep(rep, sys_)
    u = random_unitary(strategy.dim, np.random.default_rng(43 + copies))
    assert_kernel_matches_oracle(build_synbcs(sys_), rotated(strategy, u))
    iso = iso_strategy_from_bcs(strategy, sys_)
    g_b, g_0 = graph_from_system(sys_, use_b=True), graph_from_system(sys_, use_b=False)
    assert_kernel_matches_oracle(build_iso_game(g_b, g_0), rotated(iso, u))


@pytest.mark.parametrize("noise", ["hermitian", "general"])
def test_relation_kernel_matches_the_loop_on_a_perturbed_strategy(magic_square, noise):
    """Hermitian noise gives ||E F|| = ||F E||, so the largest overlap is tied and the
    witness is the first of the tie; general noise breaks the tie."""
    rng = np.random.default_rng(47)
    strategy = strategy_from_rep(pauli_magic_square_rep(), magic_square)
    pvms = {}
    for key, mat in strategy.pvms.items():
        delta = random_hermitian(4, rng, scale=1e-3)
        if noise == "general":
            delta = delta + 1e-3 * rng.normal(size=(4, 4))
        pvms[key] = mat + delta
    perturbed = OperatorStrategy(4, strategy.inputs, strategy.outputs, pvms)
    game = build_synbcs(magic_square)
    keys, wins = perturbed.stored_keys(), predicate_of(game)
    overlaps = sorted(norm2(perturbed.pvms[(x, a)] @ perturbed.pvms[(y, b)])
                      for x, a in keys for y, b in keys if not wins(x, y, a, b))
    assert (overlaps[-1] > overlaps[-2]) == (noise == "general")
    assert_kernel_matches_oracle(game, perturbed)


def test_relation_kernel_is_independent_of_the_chunk_size(magic_square, monkeypatch):
    strategy = strategy_from_rep(pauli_magic_square_rep(), magic_square)
    g_b, g_0 = graph_from_system(magic_square, use_b=True), graph_from_system(magic_square, use_b=False)
    iso = rotated(iso_strategy_from_bcs(strategy, magic_square), random_unitary(4, np.random.default_rng(53)))
    game = build_iso_game(g_b, g_0)
    whole = check_game_algebra_relations(game, iso, tol=1e-9).as_dict()
    monkeypatch.setattr(matops, "PRODUCT_CHUNK_ENTRIES", 3 * 4 * 4)  # three pairs per chunk
    assert check_game_algebra_relations(game, iso, tol=1e-9).as_dict() == whole


def magic_square_iso(copies: int) -> tuple:
    """The iso game of the k-copy magic square's two incompatibility graphs and its Pauli
    iso strategy, which stores each BCS projection at x*y for every pair (i, x), (i, y)."""
    sys_, rep = kcopy_magic_square(copies)
    g_b, g_0 = graph_from_system(sys_, use_b=True), graph_from_system(sys_, use_b=False)
    return build_iso_game(g_b, g_0), iso_strategy_from_bcs(strategy_from_rep(rep, sys_), sys_)


def test_relation_report_survives_a_json_roundtrip_of_the_iso_strategy():
    """Reloaded, the equal operators arrive as separate arrays: the store shares them by
    content, so the reloaded strategy has the 24 rows of the one it was written from."""
    game, iso = magic_square_iso(1)
    u = random_unitary(4, np.random.default_rng(59))
    for strategy in (iso, rotated(iso, u)):
        reloaded = OperatorStrategy.from_json_dict(json.loads(json.dumps(strategy.to_json_dict())))
        assert (len(reloaded.stored_keys()), len(reloaded.stack)) == (192, 24)
        report = check_game_algebra_relations(game, reloaded, tol=1e-9).as_dict()
        assert report == check_game_algebra_relations(game, strategy, tol=1e-9).as_dict()
        assert_kernel_matches_oracle(game, reloaded)


def negative_zeros(mat: np.ndarray) -> np.ndarray:
    """mat with every zero real or imaginary part written as -0.0."""
    out = np.empty_like(mat)
    out.real = np.where(mat.real == 0.0, -0.0, mat.real)
    out.imag = np.where(mat.imag == 0.0, -0.0, mat.imag)
    return out


def test_operators_differing_in_the_sign_of_zero_give_the_same_report():
    game, iso = magic_square_iso(1)
    keys = iso.stored_keys()
    pvms = {key: negative_zeros(mat) if k % 2 else mat for k, (key, mat) in enumerate(iso.pvms.items())}
    signed = OperatorStrategy(iso.dim, iso.inputs, iso.outputs, pvms)
    assert any(signed.pvms[key].tobytes() != iso.pvms[key].tobytes() for key in keys)
    assert all(np.array_equal(signed.pvms[key], iso.pvms[key]) for key in keys)
    report = check_game_algebra_relations(game, signed, tol=1e-9)
    assert report.as_dict() == check_game_algebra_relations(game, iso, tol=1e-9).as_dict()
    assert_kernel_matches_oracle(game, signed)


@pytest.mark.parametrize("rotate", [False, True], ids=["pauli", "rotated"])
def test_relation_kernel_forms_each_distinct_product_once(monkeypatch, rotate):
    """The 2-copy iso strategy stores 384 operators in 48 rows: its 23,040 losing pairs,
    taken through the store, need 432 products."""
    game, iso = magic_square_iso(2)
    if rotate:
        iso = rotated(iso, random_unitary(iso.dim, np.random.default_rng(61)))
    keys = iso.stored_keys()
    left, right = np.nonzero(game.losing(keys))
    rows = []
    residuals = matops._residuals

    def counting(mats):
        rows.append(len(mats))
        return residuals(mats)

    monkeypatch.setattr(matops, "_residuals", counting)
    overlaps = matops.product_norms(iso.stack, iso.ids[left], iso.ids[right])
    assert (len(keys), len(left), sum(rows)) == (384, 23040, 432)
    monkeypatch.undo()
    pvms = iso.pvms
    assert all(overlaps[k] == norm2(pvms[keys[left[k]]] @ pvms[keys[right[k]]])
               for k in range(0, len(left), 97))
