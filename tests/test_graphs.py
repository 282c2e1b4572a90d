"""Exact graph parameters against brute-force oracles, the incompatibility graph,
and the certificate transports of the BCS / isomorphism / independence triangle."""
from __future__ import annotations

import copy
import pickle
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import (
    brute_alpha,
    brute_chi,
    brute_omega,
    kcopy_magic_square,
    random_graph,
    random_hermitian,
    random_system,
    random_unitary,
    rotated,
)

from syncgames import (
    BinaryLinearSystem,
    alpha,
    build_hom_game,
    build_iso_game,
    build_synbcs,
    check_game_algebra_relations,
    chi,
    complement_colouring_ga0,
    complete,
    correlation_from_tracial,
    empty_graph,
    graph_from_system,
    independence_certificate_from_set,
    iso_strategy_from_bcs,
    max_clique,
    max_independent_set,
    omega,
    pauli_magic_square_rep,
    rep_from_independence,
    solve_gf2,
    strategy_from_rep,
    strategy_from_solution,
    swap_iso_strategy,
    transport_independence,
    verify_rep,
)
from syncgames import games
from syncgames.errors import BudgetError, ValidationError, VerificationError
from syncgames.gf2 import enumerate_si
from syncgames.graphs import (
    Graph,
    IndependenceCertificate,
    is_independent_set,
    is_proper_colouring,
)
from syncgames.matops import dagger, norm2
from syncgames.strategies import OperatorStrategy


def five_cycle() -> Graph:
    return Graph(n=5, edges=frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}))


def test_complete_graph_parameters():
    for n in range(1, 8):
        k = complete(n)
        assert alpha(k) == 1
        assert omega(k) == n
        assert chi(k) == n


def test_empty_graph_parameters():
    for n in range(1, 6):
        e = empty_graph(n)
        assert alpha(e) == n
        assert chi(e) == 1


def test_five_cycle_parameters():
    c5 = five_cycle()
    assert alpha(c5) == 2 == brute_alpha(c5)
    assert omega(c5) == 2 == brute_omega(c5)
    assert chi(c5) == 3 == brute_chi(c5)


def test_parameters_match_brute_force_on_random_graphs():
    rng = np.random.default_rng(19)
    for _ in range(25):
        g = random_graph(rng, int(rng.integers(1, 9)), p=float(rng.uniform(0.2, 0.8)))
        assert alpha(g) == brute_alpha(g)
        assert omega(g) == brute_omega(g)
        assert chi(g) == brute_chi(g)
    for _ in range(40):  # brute-force chi is too slow for 12 vertices
        g = random_graph(rng, int(rng.integers(9, 13)), p=float(rng.uniform(0.1, 0.9)))
        assert alpha(g) == brute_alpha(g)
        assert omega(g) == brute_omega(g)


def disjoint_union(*parts: Graph) -> Graph:
    edges, offset = set(), 0
    for part in parts:
        edges |= {(u + offset, v + offset) for u, v in part.edges}
        offset += part.n
    return Graph(n=offset, edges=frozenset(edges))


def test_parameters_of_disjoint_unions_match_brute_force_on_the_parts():
    """alpha adds over components, omega and chi take the largest: each part is
    checked by its brute-force oracle, the union by the searches alone."""
    rng = np.random.default_rng(23)
    for _ in range(60):
        parts = [random_graph(rng, int(rng.integers(0, 8)), p=float(rng.uniform(0.1, 0.9)))
                 for _ in range(int(rng.integers(2, 4)))]
        g = disjoint_union(*parts)
        assert alpha(g) == sum(brute_alpha(part) for part in parts)
        assert omega(g) == max(brute_omega(part) for part in parts)
        assert chi(g) == max(brute_chi(part) for part in parts)


def test_alpha_le_chi_of_complement_on_random_graphs():
    rng = np.random.default_rng(29)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(2, 13)), p=0.5)
        assert alpha(g) <= chi(g.complement())


def test_max_clique_returns_a_clique():
    rng = np.random.default_rng(39)
    for _ in range(30):
        parts = [random_graph(rng, int(rng.integers(0, 13)), p=float(rng.uniform(0.1, 0.9)))
                 for _ in range(int(rng.integers(1, 4)))]
        g = disjoint_union(*parts)
        clique = max_clique(g)
        assert all(g.is_edge(u, v) for i, u in enumerate(clique) for v in clique[i + 1 :])
        assert len(clique) == max(brute_omega(part) for part in parts)
        indep = max_independent_set(g)
        assert is_independent_set(g, indep)
        assert len(indep) == sum(brute_alpha(part) for part in parts)


def test_exact_solvers_refuse_oversized_graphs(monkeypatch):
    """A graph is oversized when its search needs more nodes than
    games.DEFAULT_SEARCH_NODES, not by its vertex count.  A search is charged one node
    per 64-bit word of an n x n bit table first (1 for n = 10, 0 for n = 5), then one
    per branch, colour tried and vertex a colour bound places or DSATUR scans, with one
    budget for all components: K_5's clique search places 5 + 4 + 3 + 2 + 1 vertices
    and takes 5 branches, chi's greedy upper bound places 5 more, and each isolated
    vertex takes one placement and one branch."""
    assert alpha(empty_graph(41)) == 41
    assert chi(empty_graph(21)) == 1
    for solver, g, need, value in ((omega, complete(5), 20, 5), (chi, complete(5), 25, 5),
                                   (alpha, empty_graph(10), 21, 10)):
        monkeypatch.setattr(games, "DEFAULT_SEARCH_NODES", need)
        assert solver(g) == value
        monkeypatch.setattr(games, "DEFAULT_SEARCH_NODES", need - 1)
        with pytest.raises(BudgetError, match=f"^search exceeded {need - 1} nodes; undecided$"):
            solver(g)
    monkeypatch.undo()
    monkeypatch.setattr(Graph, "rows", property(lambda self: pytest.fail("bitsets built")))
    for solver in (alpha, omega, chi):  # 12000^2 / 64 > 2,000,000
        with pytest.raises(BudgetError, match="^search exceeded 2000000 nodes; undecided$"):
            solver(empty_graph(12_000))


def test_alpha_refuses_before_building_the_complement(monkeypatch):
    """alpha reads complement rows; it never builds the complement graph, neither when
    it answers nor when the node budget refuses it."""
    def complement(self):
        raise AssertionError("complement graph built")

    monkeypatch.setattr(Graph, "complement", complement)
    assert alpha(empty_graph(2000)) == 2000
    monkeypatch.setattr(games, "DEFAULT_SEARCH_NODES", 1000)
    with pytest.raises(BudgetError):
        alpha(empty_graph(2000))


def test_searches_do_not_recurse_on_long_paths():
    """The clique search keeps its own stack: alpha of a 2000-vertex path needs a
    1000-vertex clique of the complement, deeper than Python's recursion limit."""
    path = Graph(n=2000, edges=frozenset((v, v + 1) for v in range(1999)))
    assert (alpha(path), omega(path), chi(path)) == (1000, 2, 2)


def test_graph_validation():
    """Each bad edge is refused with its own message."""
    for edge, message in [
        ((0, 0), "loop at vertex 0 not allowed"),
        ((0, 5), "edge (0, 5) out of range for 2 vertices"),
        ((-1, 1), "edge (-1, 1) out of range for 2 vertices"),
        ((True, 1), "edge (True, 1) has non-integer endpoints"),
        ((0, False), "edge (0, False) has non-integer endpoints"),
        ((0, 1.0), "edge (0, 1.0) has non-integer endpoints"),
        (("0", 1), "edge ('0', 1) has non-integer endpoints"),
    ]:
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            Graph(n=2, edges=frozenset({edge}))


def test_complement_is_built_once_per_graph(monkeypatch):
    g = Graph(n=4, edges=frozenset({(2, 0), (1, 3)}), labels=tuple("abcd"))
    comp = g.complement()
    assert comp is g.complement()
    assert comp == Graph(n=4, edges=frozenset({(0, 1), (0, 3), (1, 2), (2, 3)}), labels=g.labels)
    assert comp.complement() == g
    cert = independence_certificate_from_set(g, [0, 1])
    assert cert.game().to_json_dict()["H"] == comp.to_json_dict()
    monkeypatch.setattr(Graph, "to_json_dict", lambda self: pytest.fail("graph JSON built"))
    assert cert.verify().passes  # builds its game, never the game's JSON


GRAPH_CACHES = {"rows", "_edge_array", "_complement"}


@pytest.mark.parametrize("clone", [lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy,
                                   copy.copy], ids=["pickle", "deepcopy", "copy"])
def test_graph_copies_drop_the_kept_caches(clone):
    g = Graph(n=4, edges=frozenset({(2, 0), (1, 3)}), labels=tuple("abcd"))
    assert g.complement() and g.rows and g._edge_array.size
    back = clone(g)
    assert back == g and back.labels == g.labels
    assert not GRAPH_CACHES & set(vars(back))
    assert back.complement() == g.complement() and back.rows == g.rows


def test_pickles_leave_the_complement_behind():
    """A graph's complement grows as n^2; neither the graph's pickle nor that of a
    certificate whose game was built carries it."""
    g = empty_graph(500)
    g.complement()
    assert len(pickle.dumps(g)) < 100_000
    cert = independence_certificate_from_set(g, [0, 5, 9])
    cert.game()
    data = pickle.dumps(cert)
    assert len(data) < 100_000
    back = pickle.loads(data)
    assert back.graph == g and not GRAPH_CACHES & set(vars(back.graph))
    assert back.verify().passes


def test_certificate_mask_matches_the_hom_game_into_the_complement():
    """The certificate game reads the graph's own adjacency: bit for bit the mask of
    the hom game from K_value into the complement, on keys that repeat, share a slot
    or share a vertex, and the same candidates and JSON."""
    rng = np.random.default_rng(1207)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        g = random_graph(rng, n, float(rng.uniform(0.0, 1.0)))
        value = int(rng.integers(1, 5))
        cert = IndependenceCertificate(graph=g, value=value, strategy=None)
        game, hom = cert.game(), build_hom_game(complete(value), g.complement())
        assert (game.inputs, game.outputs, game.candidates) == (hom.inputs, hom.outputs,
                                                                hom.candidates)
        assert game.to_json_dict() == hom.to_json_dict()
        for size in (0, 1, 2, 7, 20):
            keys = [(int(rng.integers(value)), int(rng.integers(n))) for _ in range(size)]
            assert np.array_equal(game.losing(keys), hom.losing(keys))


def test_large_certificate_verifies_without_the_complement():
    """A value-2 certificate on 3,000 isolated vertices verifies without building the
    complement's 4.5 million edges."""
    cert = independence_certificate_from_set(empty_graph(3000), [0, 1])
    tracemalloc.start()
    try:
        report = cert.verify()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passes and report.n_stored == 2
    assert peak < 20 << 20
    assert "_complement" not in vars(cert.graph)


def test_graph_json_roundtrip():
    g = Graph(n=3, edges=frozenset({(0, 1), (1, 2)}), labels=("a", (1, -1), 7))
    back = Graph.from_json_dict(g.to_json_dict())
    assert back == g


def test_incompatibility_graph_magic_square(magic_square):
    g = graph_from_system(magic_square)
    assert g.n == 24  # 6 equations x 4 local solutions
    labels = g.labels
    assert labels == tuple(sorted(labels))  # equation-major, lexicographic
    # same-equation distinct vertices are always adjacent
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if labels[u][0] == labels[v][0]:
                assert g.is_edge(u, v)


def test_incompatibility_graph_disjoint_supports_give_no_edges():
    sys_ = BinaryLinearSystem(m=2, n=4, rows=(frozenset({1, 2}), frozenset({3, 4})), b=(0, 1))
    g = graph_from_system(sys_)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.labels[u][0] != g.labels[v][0]:
                assert not g.is_edge(u, v)


def graph_from_system_oracle(sys_: BinaryLinearSystem, use_b: bool) -> Graph:
    """The pair loop the synBCS disagreement mask replaced: an edge for each pair of
    (equation, local solution) vertices disagreeing on a shared variable."""
    b = sys_.b if use_b else (0,) * sys_.m
    variant = BinaryLinearSystem(m=sys_.m, n=sys_.n, rows=sys_.rows, b=b)
    labels = [(i, x) for i in range(1, sys_.m + 1) for x in enumerate_si(variant, i)]
    edges = []  # in ascending pair order, which fixes the frozenset's order
    for u in range(len(labels)):
        i, x = labels[u]
        for v in range(u + 1, len(labels)):
            j, y = labels[v]
            if any(x[k - 1] != y[k - 1] for k in sys_.rows[i - 1] & sys_.rows[j - 1]):
                edges.append((u, v))
    return Graph(n=len(labels), edges=frozenset(edges), labels=tuple(labels))


def test_incompatibility_graph_matches_the_pair_loop():
    """G_b and G_0, from the disagreement over each variant's whole sign table, are the
    graphs the pair loop builds: the same edges in the same order (so the same edge
    array), labels, equality, hash, pickle and JSON."""
    rng = np.random.default_rng(52)
    systems = [random_system(rng, max_m=6, max_n=10) for _ in range(40)]
    systems += [kcopy_magic_square(k)[0] for k in (1, 2, 3)]
    for sys_ in systems:
        for use_b in (True, False):
            g = graph_from_system(sys_, use_b=use_b)
            expected = graph_from_system_oracle(sys_, use_b)
            assert (g.n, g.labels, g.edges) == (expected.n, expected.labels, expected.edges)
            assert list(g.edges) == list(expected.edges)
            assert g == expected and hash(g) == hash(expected)
            assert pickle.loads(pickle.dumps(g)) == expected
            assert g.to_json_dict() == expected.to_json_dict()


def test_alpha_of_incompatibility_graph_detects_solvability():
    rng = np.random.default_rng(49)
    seen_solvable = seen_unsolvable = False
    for _ in range(25):
        sys_ = random_system(rng, max_m=4, max_n=6)
        g = graph_from_system(sys_)
        a = alpha(g)
        solvable = solve_gf2(sys_) is not None
        assert a <= sys_.m
        assert (a == sys_.m) == solvable
        seen_solvable |= solvable
        seen_unsolvable |= not solvable
    assert seen_solvable and seen_unsolvable


def test_magic_square_alpha_is_five(magic_square):
    g = graph_from_system(magic_square)
    assert alpha(g) == 5
    # gluing oracle: each 5-equation subsystem is solvable (alpha >= 5 witnesses),
    # while a 6-vertex independent set would glue to a global solution
    for drop in range(6):
        sub = BinaryLinearSystem(
            m=5,
            n=9,
            rows=tuple(r for k, r in enumerate(magic_square.rows) if k != drop),
            b=tuple(v for k, v in enumerate(magic_square.b) if k != drop),
        )
        assert solve_gf2(sub) is not None
    assert solve_gf2(magic_square) is None


def test_complement_colouring_ga0(magic_square):
    certs = complement_colouring_ga0(magic_square)
    assert certs.value == 6
    assert is_proper_colouring(certs.graph.complement(), certs.colouring)
    assert is_independent_set(certs.graph, certs.independent_set)
    assert alpha(certs.graph) == 6
    assert chi(certs.graph.complement()) == 6


def test_complement_colouring_ga0_random_homogeneous():
    rng = np.random.default_rng(59)
    for _ in range(10):
        sys_ = random_system(rng, max_m=4, max_n=5)
        certs = complement_colouring_ga0(sys_)
        assert certs.value == sys_.m
        assert is_proper_colouring(certs.graph.complement(), certs.colouring)


def test_iso_strategy_from_classical_solution_is_permutation():
    sys_ = BinaryLinearSystem(m=2, n=3, rows=(frozenset({1, 2}), frozenset({2, 3})), b=(1, 0))
    x = solve_gf2(sys_)
    strategy = strategy_from_solution(sys_, x)
    iso = iso_strategy_from_bcs(strategy, sys_, tol=1e-12)
    g_b = graph_from_system(sys_, use_b=True)
    g_0 = graph_from_system(sys_, use_b=False)
    # d = 1 and the nonzero entries define the bijection (i, y) -> (i, y * local(x))
    mapping = {}
    for (p, r), mat in iso.pvms.items():
        assert np.allclose(mat, np.eye(1))
        if p[0] == "g":
            mapping[p[1]] = r[1]
    assert sorted(mapping) == list(range(g_b.n))
    assert sorted(mapping.values()) == list(range(g_0.n))
    for u, v in mapping.items():
        i, y = g_b.labels[u]
        j, z = g_0.labels[v]
        assert i == j
        local = tuple(x[k - 1] if k in sys_.rows[i - 1] else 1 for k in range(1, sys_.n + 1))
        assert z == tuple(a * b for a, b in zip(y, local))


def test_iso_strategy_magic_square(magic_square, pauli_rep):
    strategy = strategy_from_rep(pauli_rep, magic_square)
    iso = iso_strategy_from_bcs(strategy, magic_square, tol=1e-9)
    g_b = graph_from_system(magic_square, use_b=True)
    g_0 = graph_from_system(magic_square, use_b=False)
    game = build_iso_game(g_b, g_0)
    report = check_game_algebra_relations(game, iso, 1e-9)
    assert report.passes
    # cross-equation blocks are identically zero: never stored
    for (p, r) in iso.pvms:
        lab_p = (g_b if p[0] == "g" else g_0).labels[p[1]]
        lab_r = (g_b if r[0] == "g" else g_0).labels[r[1]]
        assert lab_p[0] == lab_r[0]


def test_iso_strategy_rejects_defective_input(magic_square):
    game = build_synbcs(magic_square)
    bad = strategy_from_rep(pauli_magic_square_rep(), magic_square)
    broken = dict(bad.pvms)
    key = next(iter(broken))
    broken[key] = 0.5 * broken[key]
    from syncgames.strategies import OperatorStrategy

    with pytest.raises(VerificationError):
        iso_strategy_from_bcs(
            OperatorStrategy(dim=4, inputs=bad.inputs, outputs=bad.outputs, pvms=broken),
            magic_square,
        )


def test_transport_through_identity_isomorphism():
    g = five_cycle()
    indep = max_independent_set(g)
    cert = independence_certificate_from_set(g, indep)
    pvms = {}
    one = np.eye(1, dtype=complex)
    for v in range(g.n):
        pvms[(("g", v), ("h", v))] = one
        pvms[(("h", v), ("g", v))] = one
    game = build_iso_game(g, g)
    from syncgames.strategies import OperatorStrategy

    identity_iso = OperatorStrategy(dim=1, inputs=game.inputs, outputs=game.outputs, pvms=pvms)
    out = transport_independence(cert, identity_iso, g, tol=1e-12)
    assert out.value == cert.value
    for key, mat in cert.strategy.pvms.items():
        assert np.allclose(out.strategy.pvms[key], mat)


def test_transport_classical_certificate_through_classical_iso():
    sys_ = BinaryLinearSystem(m=2, n=3, rows=(frozenset({1, 2}), frozenset({2, 3})), b=(1, 0))
    x = solve_gf2(sys_)
    iso = iso_strategy_from_bcs(strategy_from_solution(sys_, x), sys_, tol=1e-12)
    g_b = graph_from_system(sys_, use_b=True)
    g_0 = graph_from_system(sys_, use_b=False)
    certs0 = complement_colouring_ga0(sys_)
    cert0 = independence_certificate_from_set(g_0, certs0.independent_set)
    cert_b = transport_independence(cert0, swap_iso_strategy(iso), g_b, tol=1e-12)
    assert cert_b.value == sys_.m
    # d = 1 x 1 transport of a classical set through a classical bijection is a set image
    image = set()
    for (k, v), mat in cert_b.strategy.pvms.items():
        assert np.allclose(mat, np.eye(1))
        image.add(v)
    assert is_independent_set(g_b, image)


def transport_oracle(cert, iso, target) -> dict:
    """The triple loop transport_independence replaced: every (k, x, v), looking up both
    stored operators, summed in ascending v."""
    pvms = {}
    for k in cert.strategy.inputs:
        for x in range(target.n):
            acc = None
            for v in range(cert.graph.n):
                e = cert.strategy.pvms.get((k, v))
                q = iso.pvms.get((("g", v), ("h", x)))
                if e is None or q is None:
                    continue
                term = np.kron(e, q)
                acc = term if acc is None else acc + term
            if acc is not None and norm2(acc) > 0.0:
                pvms[(k, x)] = acc
    return pvms


def transport_cases() -> list:
    """(certificate, iso strategy, target) for the k-copy magic squares, Pauli and
    Haar-rotated, and for a classical system.  A classical certificate stores one
    operator per input, so each transported sum has one term; the 1-copy quantum
    certificates, transported back, sum several terms per key."""
    cases = []
    for copies, seed in ((1, None), (1, 73), (2, None), (2, 74)):
        sys_, rep = kcopy_magic_square(copies)
        iso = iso_strategy_from_bcs(strategy_from_rep(rep, sys_), sys_)
        if seed is not None:
            iso = rotated(iso, random_unitary(iso.dim, np.random.default_rng(seed)))
        g_b, g_0 = graph_from_system(sys_, use_b=True), graph_from_system(sys_, use_b=False)
        cert0 = independence_certificate_from_set(g_0, complement_colouring_ga0(sys_).independent_set)
        cases.append((cert0, swap_iso_strategy(iso), g_b))
        if copies == 1:
            cases.append((transport_independence(cert0, swap_iso_strategy(iso), g_b), iso, g_0))
    sys_ = BinaryLinearSystem(m=2, n=3, rows=(frozenset({1, 2}), frozenset({2, 3})), b=(1, 0))
    iso = iso_strategy_from_bcs(strategy_from_solution(sys_, solve_gf2(sys_)), sys_, tol=1e-12)
    cert0 = independence_certificate_from_set(graph_from_system(sys_, use_b=False),
                                               complement_colouring_ga0(sys_).independent_set)
    cases.append((cert0, swap_iso_strategy(iso), graph_from_system(sys_, use_b=True)))
    return cases


def test_transport_matches_the_triple_loop_bit_for_bit():
    cases = transport_cases()
    assert any(sum(k == 0 for k, _ in cert.strategy.pvms) > 1 for cert, _, _ in cases)
    for cert, iso, target in cases:
        expected = transport_oracle(cert, iso, target)
        pvms = transport_independence(cert, iso, target, tol=1e-9).strategy.pvms
        assert list(pvms) == list(expected)
        assert all(pvms[key].tobytes() == mat.tobytes() for key, mat in expected.items())


def test_magic_square_triangle(magic_square, pauli_rep):
    strategy = strategy_from_rep(pauli_rep, magic_square)
    iso = iso_strategy_from_bcs(strategy, magic_square, tol=1e-9)
    g_b = graph_from_system(magic_square, use_b=True)
    g_0 = graph_from_system(magic_square, use_b=False)
    certs0 = complement_colouring_ga0(magic_square)
    cert0 = independence_certificate_from_set(g_0, certs0.independent_set)
    cert_b = transport_independence(cert0, swap_iso_strategy(iso), g_b, tol=1e-9)
    assert cert_b.value == 6
    assert cert_b.strategy.dim == 4
    assert cert_b.verify(1e-9).passes
    rep = rep_from_independence(cert_b, magic_square, tol=1e-9)
    assert verify_rep(rep, magic_square, 1e-8).passes
    assert alpha(g_b) == 5 < 6


def test_rep_from_independence_classical_case():
    sys_ = BinaryLinearSystem(m=2, n=3, rows=(frozenset({1, 2}), frozenset({2, 3})), b=(1, 0))
    x = solve_gf2(sys_)
    rep = rep_from_independence(classical_certificate(sys_), sys_, tol=1e-12)
    for w, v in zip(rep.images, x):
        assert np.allclose(w, [[v]])


def test_rep_from_independence_homogeneous_all_ones(magic_square):
    certs = complement_colouring_ga0(magic_square)
    homogeneous = BinaryLinearSystem(
        m=magic_square.m, n=magic_square.n, rows=magic_square.rows, b=(0,) * magic_square.m
    )
    cert = independence_certificate_from_set(certs.graph, certs.independent_set)
    rep = rep_from_independence(cert, homogeneous, tol=1e-12)
    for w in rep.images:
        assert np.allclose(w, np.eye(1))
    report = verify_rep(rep, homogeneous, 1e-12)
    assert report.passes and report.j_nontrivial


def test_rep_from_independence_rejects_value_mismatch(magic_square):
    g_b = graph_from_system(magic_square)
    indep = max_independent_set(g_b)  # size 5 < m
    cert = independence_certificate_from_set(g_b, indep)
    with pytest.raises(ValidationError):
        rep_from_independence(cert, magic_square)


def test_rep_from_independence_refuses_a_certificate_on_g0(magic_square):
    """The value-6 certificate on G_0 from complement_colouring_ga0 has the right value
    but the wrong graph: G_0 and G_b have the same vertex count and differ in labels
    and edges, so Graph equality refuses it."""
    certs = complement_colouring_ga0(magic_square)
    cert = independence_certificate_from_set(certs.graph, certs.independent_set)
    assert cert.value == magic_square.m and cert.graph.n == graph_from_system(magic_square).n
    with pytest.raises(ValidationError,
                       match="^certificate graph is not the system's incompatibility graph$"):
        rep_from_independence(cert, magic_square)


def independence_oracle(cert, sys_) -> tuple:
    """The slot-unitary loop rep_from_independence replaced, kept as its oracle:
    slot i's unitary for variable j summed over every vertex in ascending order.
    Returns (images, spreads): each variable's first-equation unitary (the identity
    for a variable in no equation) and its largest pairwise 2-norm spread."""
    g_b = graph_from_system(sys_, use_b=True)
    d = cert.strategy.dim
    slot_of = {i: cert.strategy.inputs[i - 1] for i in range(1, sys_.m + 1)}

    def slot_unitary(i, j):
        v = np.zeros((d, d), dtype=complex)
        for t, (_, x) in enumerate(g_b.labels):
            e = cert.strategy.pvms.get((slot_of[i], t))
            if e is not None:
                v = v + x[j - 1] * e
        return (v + dagger(v)) / 2

    images, spreads = [], []
    for j in range(1, sys_.n + 1):
        mats = [slot_unitary(i, j) for i in range(1, sys_.m + 1) if j in sys_.rows[i - 1]]
        images.append(mats[0] if mats else np.eye(d, dtype=complex))
        spreads.append(max((norm2(a - b) for k, a in enumerate(mats) for b in mats[k + 1 :]),
                           default=0.0))
    return images, spreads


def transported_certificate(copies: int, seed) -> tuple:
    """(system, full-value certificate for G_{A,b}) transported from the all-ones set of
    the homogeneous graph through the k-copy iso strategy, Pauli or Haar-rotated."""
    sys_, rep = kcopy_magic_square(copies)
    iso = iso_strategy_from_bcs(strategy_from_rep(rep, sys_), sys_)
    if seed is not None:
        iso = rotated(iso, random_unitary(iso.dim, np.random.default_rng(seed)))
    certs0 = complement_colouring_ga0(sys_)
    cert0 = independence_certificate_from_set(certs0.graph, certs0.independent_set)
    return sys_, transport_independence(cert0, swap_iso_strategy(iso), graph_from_system(sys_))


def classical_certificate(sys_) -> IndependenceCertificate:
    """The d = 1 certificate of a classical solution: each equation's local restriction."""
    x = solve_gf2(sys_)
    g_b = graph_from_system(sys_, use_b=True)
    index_of = {lab: v for v, lab in enumerate(g_b.labels)}
    local = [tuple(x[k - 1] if k in sys_.rows[i - 1] else 1 for k in range(1, sys_.n + 1))
             for i in range(1, sys_.m + 1)]
    return independence_certificate_from_set(g_b, [index_of[lab] for lab in enumerate(local, 1)])


@pytest.mark.parametrize(
    "case", ["1-pauli", "1-rotated", "2-pauli", "2-rotated", "classical", "uncovered-variable"]
)
def test_rep_from_independence_matches_the_slot_loop_bit_for_bit(case):
    if case == "classical":
        sys_ = BinaryLinearSystem(m=2, n=3, rows=(frozenset({1, 2}), frozenset({2, 3})), b=(1, 0))
        cert = classical_certificate(sys_)
    elif case == "uncovered-variable":  # variable 2 is in no equation: its image is I
        sys_ = BinaryLinearSystem(m=1, n=2, rows=(frozenset({1}),), b=(1,))
        cert = classical_certificate(sys_)
    else:
        copies, kind = case.split("-")
        sys_, cert = transported_certificate(int(copies), 75 if kind == "rotated" else None)
    images, spreads = independence_oracle(cert, sys_)
    assert max(spreads) <= 1e-12
    recovered = rep_from_independence(cert, sys_)
    assert len(recovered.images) == sys_.n
    assert all(w.tobytes() == mat.tobytes() for w, mat in zip(recovered.images, images))


def test_defective_certificate_names_its_worst_variable(magic_square):
    """Slots 1 and 6 rotated by different amounts: both slots' variables fail to glue,
    and the refusal names the variable of largest spread, not the first one over the
    gluing tolerance.  rep_from_independence does not check the certificate's relations,
    so the rotated certificate reaches the gluing."""
    _, cert = transported_certificate(1, None)
    rng = np.random.default_rng(5)
    rotations = {}
    for slot, eps in ((0, 0.01), (5, 0.3)):
        w, u = np.linalg.eigh(random_hermitian(4, rng))
        rotations[slot] = u @ np.diag(np.exp(1j * eps * w)) @ u.conj().T
    pvms = {
        (k, v): rotations[k] @ e @ rotations[k].conj().T if k in rotations else e
        for (k, v), e in cert.strategy.pvms.items()
    }
    strategy = OperatorStrategy(cert.strategy.dim, cert.strategy.inputs, cert.strategy.outputs, pvms)
    bad = IndependenceCertificate(graph=cert.graph, value=cert.value, strategy=strategy)
    _, spreads = independence_oracle(bad, magic_square)
    choice_tol = 2.0 * bad.graph.n * 1e-9 ** 0.5
    worst = 1 + int(np.argmax(spreads))
    first = 1 + next(j for j, spread in enumerate(spreads) if spread > choice_tol)
    assert worst != first
    with pytest.raises(VerificationError, match=f"^variable {worst}: equations") as info:
        rep_from_independence(bad, magic_square, tol=1e-9)
    assert f"disagree by {max(spreads):.3e}" in str(info.value)
    assert str(info.value).endswith("; defective certificate")


def _scaled(s: OperatorStrategy, factor: float) -> OperatorStrategy:
    return OperatorStrategy(s.dim, s.inputs, s.outputs,
                            {key: factor * mat for key, mat in s.pvms.items()})


@pytest.mark.parametrize("factor", [1 + 1e-12, 1 + 1e-9, 1 + 1e-6, 1 + 1e-3, 1e300],
                         ids=["delta-1e-12", "delta-1e-9", "delta-1e-6", "delta-1e-3", "times-1e300"])
@pytest.mark.parametrize("scaled", ["transport-iso", "transport-cert", "transport-both", "glue-cert"])
def test_arguments_off_their_relations_are_refused_or_give_a_certified_result(
        magic_square, pauli_rep, scaled, factor):
    """transport_independence and rep_from_independence check only their arguments'
    labels.  An iso or certificate scaled off its relations must be refused with a
    toolkit error or give a result that passes its own check, never a numpy warning."""
    iso = swap_iso_strategy(iso_strategy_from_bcs(strategy_from_rep(pauli_rep, magic_square),
                                                  magic_square))
    g_b = graph_from_system(magic_square)
    certs0 = complement_colouring_ga0(magic_square)
    cert = independence_certificate_from_set(certs0.graph, certs0.independent_set)
    if scaled == "glue-cert":
        cert = transport_independence(cert, iso, g_b)
    if scaled in ("transport-cert", "transport-both", "glue-cert"):
        cert = IndependenceCertificate(cert.graph, cert.value, _scaled(cert.strategy, factor))
    if scaled in ("transport-iso", "transport-both"):
        iso = _scaled(iso, factor)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            if scaled == "glue-cert":
                rep = rep_from_independence(cert, magic_square, tol=1e-9)
                assert verify_rep(rep, magic_square, 1e-8).passes
            else:
                assert transport_independence(cert, iso, g_b, tol=1e-9).verify(1e-9).passes
        except (VerificationError, ValidationError):
            pass


def test_mislabelled_arguments_are_refused_as_invalid(magic_square):
    """Only the labels of the arguments are checked, and they still must be: an output
    of -1 would index the graph's labels from the end, mixed int and str outputs would
    not sort, and an iso label that is no (side, vertex) pair would not unpack."""
    g_b = graph_from_system(magic_square)
    m, one = magic_square.m, np.eye(1, dtype=complex)

    def certificate(outputs) -> IndependenceCertificate:
        pvms = {(k, outputs[k % len(outputs)]): one for k in range(m)}
        return IndependenceCertificate(g_b, m, OperatorStrategy(1, tuple(range(m)), outputs, pvms))

    bcs_like = OperatorStrategy(1, (1,), (1,), {(1, 1): one})
    for bad in (certificate((-1,)), certificate((0, "a"))):
        with pytest.raises(ValidationError, match="outputs are not a subset of game outputs"):
            rep_from_independence(bad, magic_square)
        with pytest.raises(ValidationError, match="outputs are not a subset of game outputs"):
            transport_independence(bad, bcs_like, g_b)
    good = certificate(tuple(range(m)))
    with pytest.raises(ValidationError, match="inputs do not match game inputs"):
        transport_independence(good, bcs_like, g_b)


def test_certificate_verify_flags_dependent_set():
    g = five_cycle()
    with pytest.raises(ValidationError):
        independence_certificate_from_set(g, (0, 1))  # adjacent pair


def test_hom_game_solvability_matches_chromatic_number():
    from syncgames import build_hom_game, find_deterministic_perfect

    rng = np.random.default_rng(79)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(2, 13)), p=0.5)
        chromatic = chi(g)
        for c in range(1, 6):
            game = build_hom_game(g, complete(c))
            found = find_deterministic_perfect(game)
            assert (found is not None) == (chromatic <= c)


def test_hom_game_into_complement_encodes_independence_number():
    from syncgames import build_hom_game, find_deterministic_perfect

    rng = np.random.default_rng(89)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(2, 8)), p=0.5)
        independence = alpha(g)
        for c in range(1, 6):
            game = build_hom_game(complete(c), g.complement())
            found = find_deterministic_perfect(game)
            assert (found is not None) == (independence >= c)


def test_monotone_chain_alpha_cert_chi(magic_square, pauli_rep):
    # classical alpha <= verified quantum certificate value <= chi of the complement
    strategy = strategy_from_rep(pauli_rep, magic_square)
    iso = iso_strategy_from_bcs(strategy, magic_square, tol=1e-9)
    g_b = graph_from_system(magic_square, use_b=True)
    g_0 = graph_from_system(magic_square, use_b=False)
    cert0 = independence_certificate_from_set(g_0, complement_colouring_ga0(magic_square).independent_set)
    cert_b = transport_independence(cert0, swap_iso_strategy(iso), g_b, tol=1e-9)
    assert cert_b.verify(1e-9).passes
    assert alpha(g_b) <= cert_b.value <= chi(g_b.complement())


def _assert_same_strategy(s, t):
    assert (s.dim, s.inputs, s.outputs) == (t.dim, t.inputs, t.outputs)
    assert s.pvms.keys() == t.pvms.keys()
    assert all(np.array_equal(s.pvms[key], mat) for key, mat in t.pvms.items())


def test_swap_iso_strategy_is_an_involution(magic_square, pauli_rep):
    from syncgames.strategies import OperatorStrategy

    # a classical isomorphism of two 3-vertex paths along a 3-cycle: swapping changes it
    g = Graph(n=3, edges=frozenset({(0, 1), (1, 2)}))
    h = Graph(n=3, edges=frozenset({(1, 2), (0, 2)}))
    perm = {0: 1, 1: 2, 2: 0}
    one = np.eye(1, dtype=complex)
    pvms = {}
    for u, v in perm.items():
        pvms[(("g", u), ("h", v))] = pvms[(("h", v), ("g", u))] = one
    game = build_iso_game(g, h)
    iso = OperatorStrategy(dim=1, inputs=game.inputs, outputs=game.outputs, pvms=pvms)
    assert check_game_algebra_relations(game, iso, 1e-12).passes
    swapped = swap_iso_strategy(iso)
    assert swapped.pvms.keys() != iso.pvms.keys()
    assert check_game_algebra_relations(build_iso_game(h, g), swapped, 1e-12).passes
    _assert_same_strategy(swap_iso_strategy(swapped), iso)

    quantum = iso_strategy_from_bcs(strategy_from_rep(pauli_rep, magic_square), magic_square)
    _assert_same_strategy(swap_iso_strategy(swap_iso_strategy(quantum)), quantum)


def test_swap_iso_strategy_shares_the_original_stack(magic_square, pauli_rep):
    """The swap keeps iso's rows (no copy), flips every key, and reads like a strategy
    built from the flipped dict: same key order, defects and relation report."""
    iso = iso_strategy_from_bcs(strategy_from_rep(pauli_rep, magic_square), magic_square)
    swapped = swap_iso_strategy(iso)
    assert np.shares_memory(swapped.stack, iso.stack)
    flip = {"g": "h", "h": "g"}
    flipped = {((flip[x[0]], x[1]), (flip[a[0]], a[1])): mat for (x, a), mat in iso.pvms.items()}
    assert swapped.pvms.keys() == flipped.keys()
    assert all(swapped.pvms[key].tobytes() == mat.tobytes() for key, mat in flipped.items())
    rebuilt = OperatorStrategy(swapped.dim, swapped.inputs, swapped.outputs, flipped)
    assert list(swapped.pvms) == list(rebuilt.pvms)
    assert swapped.defects() == rebuilt.defects()
    g_b, g_0 = graph_from_system(magic_square), graph_from_system(magic_square, use_b=False)
    game = build_iso_game(g_0, g_b)
    assert (check_game_algebra_relations(game, swapped, 1e-12).as_dict()
            == check_game_algebra_relations(game, rebuilt, 1e-12).as_dict())


def test_stacked_follows_the_key_order_of_a_swapped_strategy():
    """Eight distinct operators, one per key: the swap gives key k row (k + 4) % 8, so
    stacked() gathers the rows in key order rather than handing back the stack as it
    is, and the correlation is the rebuilt strategy's."""
    def line(t):
        v = np.array([np.cos(t), np.sin(t)])
        return np.outer(v, v).astype(complex)

    labels = (("g", 0), ("g", 1), ("h", 0), ("h", 1))
    pvms = {}
    for k, x in enumerate(labels):
        a0, a1 = [a for a in labels if a[0] != x[0]]
        pvms[(x, a0)] = line(0.1 + 0.3 * k)
        pvms[(x, a1)] = np.eye(2) - pvms[(x, a0)]
    swapped = swap_iso_strategy(OperatorStrategy(2, labels, labels, pvms))
    assert swapped.ids.tolist() == [4, 5, 6, 7, 0, 1, 2, 3]
    keys, stack = swapped.stacked()
    assert all(stack[k].tobytes() == swapped.pvms[key].tobytes() for k, key in enumerate(keys))
    rebuilt = OperatorStrategy(2, swapped.inputs, swapped.outputs, dict(swapped.pvms))
    assert (correlation_from_tracial(swapped).to_json_dict()
            == correlation_from_tracial(rebuilt).to_json_dict())


def copying_iso_strategy(s: OperatorStrategy, sys_) -> OperatorStrategy:
    """The construction iso_strategy_from_bcs used before it shared s's stack: the BCS
    projection at x*y passed at both keys of every same-equation pair (u, v) of G_b and
    G_0 vertices, and copied into the constructor's new store."""
    g_b, g_0 = graph_from_system(sys_), graph_from_system(sys_, use_b=False)
    game = build_iso_game(g_b, g_0)
    pvms = {}
    for u, (i, x) in enumerate(g_b.labels):
        for v, (j, y) in enumerate(g_0.labels):
            mat = s.pvms.get((i, tuple(a * b for a, b in zip(x, y)))) if i == j else None
            if mat is not None:
                pvms[(("g", u), ("h", v))] = pvms[(("h", v), ("g", u))] = mat
    return OperatorStrategy(s.dim, game.inputs, game.outputs, pvms)


def assert_same_iso(iso: OperatorStrategy, copied: OperatorStrategy, sys_) -> None:
    """Same JSON, keys in the same order, defects and relation report as the copy."""
    assert iso.to_json_dict() == copied.to_json_dict()
    assert list(iso.pvms) == list(copied.pvms)
    assert iso.defects() == copied.defects()
    game = build_iso_game(graph_from_system(sys_), graph_from_system(sys_, use_b=False))
    assert (check_game_algebra_relations(game, iso, 1e-9).as_dict()
            == check_game_algebra_relations(game, copied, 1e-9).as_dict())


@pytest.mark.parametrize("copies", [1, 2])
@pytest.mark.parametrize("seed", [None, 79], ids=["pauli", "rotated"])
def test_iso_strategy_shares_the_bcs_stack(copies, seed):
    sys_, rep = kcopy_magic_square(copies)
    strategy = strategy_from_rep(rep, sys_)
    if seed is not None:
        strategy = rotated(strategy, random_unitary(strategy.dim, np.random.default_rng(seed)))
    iso = iso_strategy_from_bcs(strategy, sys_)
    assert iso.stack is strategy.stack
    assert_same_iso(iso, copying_iso_strategy(strategy, sys_), sys_)


def test_iso_strategy_keeps_only_the_rows_its_keys_use(magic_square, pauli_rep):
    """A BCS strategy storing an operator at an output that is no local solution: no
    iso key takes that row, so the iso strategy gathers the rows it uses (every row of
    a strategy's stack is some key's) and still reads as the copying construction."""
    strategy = strategy_from_rep(pauli_rep, magic_square)
    i = magic_square.b.index(1) + 1
    ones = (1,) * magic_square.n
    assert ones not in enumerate_si(magic_square, i)
    pvms = {**strategy.pvms, (i, ones): 0.5 * np.eye(4, dtype=complex)}
    stray = OperatorStrategy(4, strategy.inputs, strategy.outputs, pvms)
    assert len(stray.stack) == len(strategy.stack) + 1
    iso = iso_strategy_from_bcs(stray, magic_square)
    assert len(iso.stack) == len(strategy.stack)
    assert sorted(set(iso.ids.tolist())) == list(range(len(iso.stack)))
    assert not iso.stack.flags.writeable
    assert_same_iso(iso, copying_iso_strategy(stray, magic_square), magic_square)
