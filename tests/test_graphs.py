"""Exact graph parameters against brute-force oracles, the incompatibility graph,
and the certificate transports of the BCS / isomorphism / independence triangle."""
from __future__ import annotations

import numpy as np
import pytest

from conftest import (
    brute_alpha,
    brute_chi,
    brute_omega,
    random_graph,
    random_system,
)

from syncgames import (
    BinaryLinearSystem,
    alpha,
    build_iso_game,
    build_synbcs,
    check_game_algebra_relations,
    chi,
    complement_colouring_ga0,
    complete,
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
from syncgames.errors import BudgetError, ValidationError, VerificationError
from syncgames.graphs import Graph, greedy_colouring, is_independent_set, is_proper_colouring


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


def test_alpha_le_chi_of_complement_on_random_graphs():
    rng = np.random.default_rng(29)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(2, 13)), p=0.5)
        assert alpha(g) <= chi(g.complement())


def test_max_clique_returns_a_clique():
    rng = np.random.default_rng(39)
    g = random_graph(rng, 12, p=0.6)
    clique = max_clique(g)
    assert all(g.is_edge(u, v) for i, u in enumerate(clique) for v in clique[i + 1 :])
    indep = max_independent_set(g)
    assert is_independent_set(g, indep)


def test_exact_solvers_refuse_oversized_graphs():
    with pytest.raises(BudgetError):
        alpha(empty_graph(41))
    with pytest.raises(BudgetError):
        chi(empty_graph(21))
    assert chi(empty_graph(21), max_vertices=25) == 1


def test_graph_validation():
    with pytest.raises(ValidationError):
        Graph(n=2, edges=frozenset({(0, 0)}))
    with pytest.raises(ValidationError):
        Graph(n=2, edges=frozenset({(0, 5)}))


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
    assert chi(certs.graph.complement(), max_vertices=24) == 6


def test_complement_colouring_ga0_random_homogeneous():
    rng = np.random.default_rng(59)
    for _ in range(10):
        sys_ = random_system(rng, max_m=4, max_n=5)
        certs = complement_colouring_ga0(sys_)
        assert certs.value == sys_.m
        assert is_proper_colouring(certs.graph.complement(), certs.colouring)


def test_greedy_colouring_is_proper():
    rng = np.random.default_rng(69)
    g = random_graph(rng, 14, p=0.4)
    assert is_proper_colouring(g, greedy_colouring(g))


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
    g_b = graph_from_system(sys_, use_b=True)
    index_of = {lab: v for v, lab in enumerate(g_b.labels)}
    chosen = []
    for i in range(1, sys_.m + 1):
        local = tuple(x[k - 1] if k in sys_.rows[i - 1] else 1 for k in range(1, sys_.n + 1))
        chosen.append(index_of[(i, local)])
    cert = independence_certificate_from_set(g_b, chosen)
    rep = rep_from_independence(cert, sys_, tol=1e-12)
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
    assert alpha(g_b) <= cert_b.value <= chi(g_b.complement(), max_vertices=24)


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
