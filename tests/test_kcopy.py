"""The k-copy magic-square pipeline over the implicit synBCS output alphabet: the
3-copy system (n = 27, d = 64) end to end, the compact 2-copy strategy JSON, and
old list-form files loading as before."""
from __future__ import annotations

import json
from collections import Counter
from itertools import product as iter_product

import numpy as np
import pytest

from conftest import classical_strategy, kcopy_magic_square, random_unitary

from syncgames import (
    BinaryLinearSystem,
    alpha,
    build_synbcs,
    check_game_algebra_relations,
    complement_colouring_ga0,
    correlation_from_tracial,
    decompose_qs,
    graph_from_system,
    independence_certificate_from_set,
    is_perfect,
    is_synchronous,
    iso_strategy_from_bcs,
    rep_from_independence,
    rep_from_strategy,
    solve_gf2,
    strategy_from_rep,
    swap_iso_strategy,
    transport_independence,
    verify_rep,
)
from syncgames import cli, games, gf2, graphs, matops, solution_group, strategies
from syncgames.cli import main
from syncgames.games import MAX_GAME_VARIABLES
from syncgames.graphs import is_independent_set, max_independent_set
from syncgames.labels import SignVectors
from syncgames.solution_group import GroupRep
from syncgames.strategies import BipartiteStrategy, Correlation, OperatorStrategy

TOL = 1e-9
ROTATED_RELATION_TOL = 1e-12


def rotated_kcopy(k: int, seed: int) -> tuple:
    """The k-copy system and its Kronecker Pauli representation conjugated by a Haar unitary,
    which makes every matrix entry non-dyadic."""
    sys_, rep = kcopy_magic_square(k)
    u = random_unitary(4**k, np.random.default_rng(seed))
    images = tuple(u @ w @ u.conj().T for w in rep.images)
    return sys_, GroupRep(images=images, j_image=rep.j_image)


def bitwise_equal(a: OperatorStrategy, b: OperatorStrategy) -> bool:
    return (
        (a.dim, a.inputs, a.outputs) == (b.dim, b.inputs, b.outputs)
        and set(a.pvms) == set(b.pvms)
        and all(np.array_equal(a.pvms[key], b.pvms[key]) for key in a.pvms)
    )


def listed(n: int) -> list:
    """The old JSON form of SignVectors(n): every vector, in order."""
    return [list(x) for x in iter_product((-1, 1), repeat=n)]


def test_three_copy_pipeline_runs_end_to_end():
    sys_, rep = rotated_kcopy(3, seed=61)
    assert (sys_.n, rep.dim) == (27, 64)
    rep_report = verify_rep(rep, sys_, ROTATED_RELATION_TOL)
    assert rep_report.passes and rep_report.j_nontrivial
    strategy = strategy_from_rep(rep, sys_, tol=TOL, eps=TOL)
    assert strategy.outputs == SignVectors(27) and len(strategy.pvms) == 72
    game = build_synbcs(sys_)
    relations = check_game_algebra_relations(game, strategy, TOL)
    assert relations.passes and relations.max_residual <= ROTATED_RELATION_TOL
    corr = correlation_from_tracial(strategy, TOL)
    assert is_synchronous(corr, TOL) and is_perfect(corr, game, TOL)
    assert verify_rep(rep_from_strategy(strategy, sys_, tol=TOL), sys_, 1e-8).passes
    data = json.loads(json.dumps(strategy.to_json_dict()))
    assert data["outputs"] == {"sign_vectors": 27}
    assert bitwise_equal(strategy, OperatorStrategy.from_json_dict(data))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_alpha_of_the_kcopy_graph_is_certified_one_component_at_a_time(monkeypatch, k):
    """G_b of k disjoint magic squares has one 24-vertex component per copy and
    alpha = 5k.  Its components are searched one at a time, so 300 nodes per copy
    suffice: a vertex cap of 40 refused every k >= 2."""
    g_b = graph_from_system(kcopy_magic_square(k)[0], use_b=True)
    assert g_b.n == 24 * k
    monkeypatch.setattr(games, "DEFAULT_SEARCH_NODES", 300 * k)
    assert alpha(g_b) == 5 * k
    assert is_independent_set(g_b, max_independent_set(g_b))


@pytest.fixture(scope="module")
def two_copy():
    sys_, rep = rotated_kcopy(2, seed=67)
    return sys_, strategy_from_rep(rep, sys_, tol=TOL, eps=TOL)


def test_two_copy_strategy_json_is_compact(two_copy):
    _, strategy = two_copy
    text = json.dumps(strategy.to_json_dict())
    # 17.6 MB while every output was listed, 0.55 MB with every entry an [re, im] pair
    assert len(text.encode()) < 300_000
    assert json.loads(text)["outputs"] == {"sign_vectors": 18}


def reload(obj):
    return type(obj).from_json_dict(json.loads(json.dumps(obj.to_json_dict())))


def test_json_round_trips_are_bit_exact(two_copy):
    """A Haar-rotated strategy, its representation and both sides of a bipartite strategy
    reload bit for bit through the JSON text."""
    _, strategy = two_copy
    assert bitwise_equal(strategy, reload(strategy))
    _, rep = rotated_kcopy(2, seed=67)
    back = reload(rep)
    assert [w.tobytes() for w in back.images + (back.j_image,)] == [
        w.tobytes() for w in rep.images + (rep.j_image,)
    ]
    bipartite = BipartiteStrategy(
        dim_a=16, dim_b=16, inputs=strategy.inputs, outputs=strategy.outputs,
        alice=dict(strategy.pvms), bob={key: mat.T for key, mat in strategy.pvms.items()},
        state=np.eye(16, dtype=complex).reshape(-1) / 4,
    )
    back = reload(bipartite)
    assert bitwise_equal(back.alice_strategy(), bipartite.alice_strategy())
    assert bitwise_equal(back.bob_strategy(), bipartite.bob_strategy())
    assert np.array_equal(back.state, bipartite.state)


def test_old_list_form_strategy_loads_equal_to_the_compact_one(two_copy):
    sys_, strategy = two_copy
    compact = json.loads(json.dumps(strategy.to_json_dict()))
    old = json.loads(json.dumps({**compact, "outputs": listed(18)}))
    from_compact = OperatorStrategy.from_json_dict(compact)
    from_old = OperatorStrategy.from_json_dict(old)
    assert from_old.outputs == SignVectors(18)
    assert bitwise_equal(from_old, from_compact) and bitwise_equal(from_old, strategy)
    game = build_synbcs(sys_)
    reference = check_game_algebra_relations(game, from_compact, TOL)
    assert check_game_algebra_relations(game, from_old, TOL) == reference
    assert reference.passes


def test_old_list_form_bipartite_and_correlation_load_as_before(tmp_path, magic_square, pauli_rep):
    strategy = strategy_from_rep(pauli_rep, magic_square)
    bob = {key: mat.T for key, mat in strategy.pvms.items()}
    bipartite = BipartiteStrategy(
        dim_a=4, dim_b=4, inputs=strategy.inputs, outputs=strategy.outputs,
        alice=dict(strategy.pvms), bob=bob, state=np.eye(4, dtype=complex).reshape(-1) / 2,
    )
    data = json.loads(json.dumps(bipartite.to_json_dict()))
    assert data["outputs"] == {"sign_vectors": 9}
    old = BipartiteStrategy.from_json_dict({**data, "outputs": listed(9)})
    assert old.outputs == bipartite.outputs
    assert [w for w, _ in decompose_qs(old)] == [w for w, _ in decompose_qs(bipartite)]

    corr = correlation_from_tracial(strategy)
    data = json.loads(json.dumps(corr.to_json_dict()))
    assert data["outputs"] == {"sign_vectors": 9} and data["m"] == 512
    assert Correlation.from_json_dict({**data, "outputs": listed(9)}) == corr
    game = tmp_path / "game.json"
    game.write_text(json.dumps(build_synbcs(magic_square).to_json_dict()))
    payloads = []
    for name, outputs in (("compact", data["outputs"]), ("old", listed(9))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**data, "outputs": outputs}))
        report = tmp_path / f"{name}-report.json"
        argv = ["strategy", "check", "--correlation", str(path), "--game", str(game)]
        assert main(argv + ["--report", str(report)]) == 0
        payloads.append(json.loads(report.read_text())["payload"])
    assert payloads[0] == payloads[1]


def test_a_62_variable_system_never_enumerates_its_outputs():
    """Every step from a classical solution of a 62-variable system to its certified
    strategy, correlation, representation, JSON and block decomposition: 2^62 outputs,
    so any enumeration of the alphabet would not finish."""
    n = MAX_GAME_VARIABLES
    rows = tuple(frozenset({j, j + 1}) for j in range(1, n)) + (frozenset({n}),)
    sys_ = BinaryLinearSystem(m=n, n=n, rows=rows, b=tuple(j % 2 for j in range(n)))
    x = solve_gf2(sys_)
    strategy = classical_strategy(sys_, x)
    assert strategy.outputs == SignVectors(62)
    game = build_synbcs(sys_)
    assert check_game_algebra_relations(game, strategy, TOL).max_residual == 0.0
    corr = correlation_from_tracial(strategy)
    assert is_perfect(corr, game, 0.0) and corr.max_losing(game) == (0.0, None)
    assert verify_rep(rep_from_strategy(strategy, sys_), sys_, 0.0).passes
    data = json.loads(json.dumps(strategy.to_json_dict()))
    assert bitwise_equal(strategy, OperatorStrategy.from_json_dict(data))
    assert Correlation.from_json_dict(json.loads(json.dumps(corr.to_json_dict()))) == corr
    bipartite = BipartiteStrategy(dim_a=1, dim_b=1, inputs=strategy.inputs, outputs=strategy.outputs,
                                  alice=strategy.pvms, bob=strategy.pvms, state=np.ones(1))
    [(weight, block)] = decompose_qs(bipartite)
    assert weight == 1.0 and bitwise_equal(block, strategy)


def demo_pipeline() -> None:
    assert main(["demo", "magic-square"]) == 0


def two_copy_pipeline() -> None:
    """The steps of perfbench's KCopy2.run, up to its JSON round trip, on a rotated
    2-copy representation; its own checks go through the counted module attributes."""
    sys_, rep = rotated_kcopy(2, seed=71)
    rep_report = solution_group.verify_rep(rep, sys_, ROTATED_RELATION_TOL)
    assert rep_report.passes and rep_report.j_nontrivial
    strategy = strategy_from_rep(rep, sys_, tol=TOL, eps=TOL)
    game = build_synbcs(sys_)
    relations = games.check_game_algebra_relations(game, strategy, TOL)
    assert relations.passes and relations.max_residual <= ROTATED_RELATION_TOL
    corr = correlation_from_tracial(strategy, TOL)
    assert is_synchronous(corr, TOL) and is_perfect(corr, game, TOL)
    back = rep_from_strategy(strategy, sys_, tol=TOL)
    assert solution_group.verify_rep(back, sys_, 1e-8).passes
    g_b = graph_from_system(sys_, use_b=True)
    g_0 = graph_from_system(sys_, use_b=False)
    iso = iso_strategy_from_bcs(strategy, sys_, tol=TOL)
    cert0 = independence_certificate_from_set(g_0, complement_colouring_ga0(sys_).independent_set)
    cert_b = transport_independence(cert0, swap_iso_strategy(iso), g_b, tol=TOL)
    assert cert_b.value == sys_.m and cert_b.verify(TOL).passes
    recovered = rep_from_independence(cert_b, sys_, tol=TOL)
    assert solution_group.verify_rep(recovered, sys_, 1e-8).passes


@pytest.mark.parametrize("pipeline, relation_checks, rep_checks", [
    (demo_pipeline, 3, 3),
    (two_copy_pipeline, 5, 5),
], ids=["demo", "kcopy2"])
def test_each_certificate_is_checked_once(monkeypatch, pipeline, relation_checks, rep_checks):
    """Relation checks and relator verifications computed by each pipeline, counted
    through every module that imports the two checkers.  A conversion certifies what
    it returns and does not re-check its arguments, so the demo computes 3 relation
    checks and 3 relator verifications (6 and 6 when every conversion re-checked its
    arguments and the demo re-verified the glued representations) and the 2-copy
    pipeline 5 and 5 (8 and 6); 2 of those 5 are its own re-verifications of the glued
    representations, as in perfbench's KCopy2.run."""
    originals = {"check_game_algebra_relations": games.check_game_algebra_relations,
                 "verify_rep": solution_group.verify_rep}
    counts = dict.fromkeys(originals, 0)

    def counted(name):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return originals[name](*args, **kwargs)
        return wrapper

    for module in (games, graphs, solution_group, cli):
        for name in originals:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name))
    pipeline()
    assert counts == {"check_game_algebra_relations": relation_checks, "verify_rep": rep_checks}


def test_the_two_copy_pipeline_row_checks_each_stack_once(monkeypatch):
    """The BCS strategy, its iso strategy and the swapped iso strategy all read the BCS
    strategy's 48-row stack, which is row-checked once; the transported certificate's
    strategy has a stack of its own.  So the pipeline makes 2 row-check passes, where a
    pass per strategy made 3, 2 of them over the BCS stack."""
    checked = []
    row_checks = strategies.row_checks

    def counting(mats, d):
        checked.append(mats)
        return row_checks(mats, d)

    monkeypatch.setattr(strategies, "row_checks", counting)
    over_rows = OperatorStrategy._over_rows.__func__
    sources = []

    def recording(cls, source, *args):
        sources.append(source.stack)
        return over_rows(cls, source, *args)

    monkeypatch.setattr(OperatorStrategy, "_over_rows", classmethod(recording))
    two_copy_pipeline()
    bcs_stack = sources[0]
    assert [len(m) for m in checked] == [48, 48] and checked[0] is bcs_stack
    assert checked[1] is not bcs_stack
    assert len(sources) == 2 and sources[1] is bcs_stack  # the swap reads the iso's stack


@pytest.mark.parametrize("pipeline, formed", [
    (demo_pipeline, [108, 0, 108]),
    (two_copy_pipeline, [216, 0, 0, 216, 0]),
], ids=["demo", "kcopy2"])
def test_each_pipeline_forms_each_distinct_product_once(monkeypatch, pipeline, formed):
    """The products each relation check forms, in call order, counted as the matrices
    matops._chunked_residuals is asked for while a check runs (product_norms is its one
    caller there).  A check multiplies only the row pairs no earlier check over the same
    stack formed: the iso and swapped-iso checks read the BCS strategy's store, and a
    second check of the BCS strategy or of the transported certificate reads its own.
    When each check formed its own products, the demo formed 108 in each of its 3 checks
    and the 2-copy pipeline 216 in each of its 5."""
    counts, running = [], []
    chunked, check = matops._chunked_residuals, games.check_game_algebra_relations

    def counting(count, d, build):
        if running:
            counts[-1] += count
        return chunked(count, d, build)

    def counted(*args, **kwargs):
        counts.append(0)
        running.append(True)
        try:
            return check(*args, **kwargs)
        finally:
            running.pop()

    monkeypatch.setattr(matops, "_chunked_residuals", counting)
    for module in (games, graphs, solution_group, cli):
        if hasattr(module, "check_game_algebra_relations"):
            monkeypatch.setattr(module, "check_game_algebra_relations", counted)
    pipeline()
    assert counts == formed


@pytest.mark.parametrize("pipeline", [demo_pipeline, two_copy_pipeline], ids=["demo", "kcopy2"])
def test_each_system_builds_its_derived_objects_once(monkeypatch, pipeline):
    """Each pipeline starts from a fresh system and builds, through the private builders
    counted here, its one synBCS game, its one G_b, the one G_0 of its homogeneous
    variant, one sign table for each of the two systems (the game and G_b share the
    system's) and each of the two systems' local solutions once per equation: 12 and 24
    enumerations (60 and 132 when every conversion rebuilt them).  3 Graphs are built
    in all: G_b, G_0 and the complement of G_0 that the equation colouring is checked
    on; the independence certificates' games build none."""
    built = {"_enumerate_si": [], "_build_sign_table": [], "_build_graph_from_system": [],
             "_build_synbcs": []}

    def count(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            built[name].append(args)
            return original(*args)
        monkeypatch.setattr(module, name, wrapper)

    count(gf2, "_enumerate_si")
    count(gf2, "_build_sign_table")
    count(graphs, "_build_graph_from_system")
    count(games, "_build_synbcs")
    graphs_built = []
    post_init = graphs.Graph.__post_init__

    def counted_post_init(self):
        graphs_built.append(self)
        post_init(self)
    monkeypatch.setattr(graphs.Graph, "__post_init__", counted_post_init)
    pipeline()
    [(system,)] = built["_build_synbcs"]
    homogeneous = system._homogeneous()
    assert any(system.b) and not any(homogeneous.b)
    assert [id(s) for s, in built["_build_graph_from_system"]] == [id(system), id(homogeneous)]
    assert sorted(id(s) for s, in built["_build_sign_table"]) == sorted([id(system), id(homogeneous)])
    enumerated = Counter((id(s), i) for s, i in built["_enumerate_si"])
    assert enumerated == Counter((id(s), i) for s in (system, homogeneous)
                                 for i in range(1, system.m + 1))
    g_b, g_0 = (graphs.graph_from_system(s) for s in (system, homogeneous))
    assert graphs_built == [g_b, g_0, g_0.complement()]
