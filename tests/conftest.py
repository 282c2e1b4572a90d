"""Shared fixtures and independent oracles used across the test suite.

The oracles here (exhaustive sign-vector scans, subset enumeration for graph
parameters, brute-force colouring) are deliberately naive so they stay
independent of the code paths they check.
"""
from __future__ import annotations

from functools import cache
from itertools import combinations, permutations, product as iter_product

import numpy as np
import pytest

from syncgames import BinaryLinearSystem, Graph, mermin_peres_system, pauli_magic_square_rep
from syncgames.games import build_synbcs, game_from_losing
from syncgames.labels import SignVectors, label_from_json
from syncgames.solution_group import GroupRep
from syncgames.strategies import BipartiteStrategy, OperatorStrategy, deterministic_to_operator


@pytest.fixture
def magic_square():
    return mermin_peres_system()


@pytest.fixture
def pauli_rep():
    return pauli_magic_square_rep()


def random_unitary(d: int, rng) -> np.ndarray:
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(h)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_exact_pvm(d: int, m: int, rng) -> list:
    """m orthogonal projections summing to the identity; zero members allowed."""
    u = random_unitary(d, rng)
    assign = rng.integers(0, m, size=d)
    return [u[:, assign == a] @ u[:, assign == a].conj().T for a in range(m)]


def random_hermitian(d: int, rng, scale: float = 1.0) -> np.ndarray:
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (h + h.conj().T) / 2
    return scale * h / np.linalg.norm(h, 2)


def kcopy_system(k: int) -> BinaryLinearSystem:
    """k disjoint Mermin-Peres systems (6k equations over 9k variables)."""
    base = mermin_peres_system()
    rows = tuple(frozenset(j + 9 * c for j in r) for c in range(k) for r in base.rows)
    return BinaryLinearSystem(m=6 * k, n=9 * k, rows=rows, b=base.b * k)


def kcopy_magic_square(k: int) -> tuple:
    """k disjoint Mermin-Peres systems and their k-fold Kronecker Pauli representation."""
    sys_, pauli = kcopy_system(k), pauli_magic_square_rep()
    images = []
    for c in range(k):
        for w in pauli.images:
            mat = np.ones((1, 1), dtype=complex)
            for f in range(k):
                mat = np.kron(mat, w if f == c else np.eye(4))
            images.append(mat)
    return sys_, GroupRep(images=tuple(images), j_image=-np.eye(4**k, dtype=complex))


def rotated(strategy: OperatorStrategy, u: np.ndarray) -> OperatorStrategy:
    pvms = {key: u @ mat @ u.conj().T for key, mat in strategy.pvms.items()}
    return OperatorStrategy(strategy.dim, strategy.inputs, strategy.outputs, pvms)


LIGHT_BLOCK_DIMS = (8, 16, 4)


def light_block_strategy(rng, w: float) -> BipartiteStrategy:
    """A synchronous strategy planted from three tracial blocks of dims LIGHT_BLOCK_DIMS
    and weights (0.6, 0.4 - w, w), two inputs and three outputs, then conjugated by a
    Haar-random local unitary pair (u, v): Alice's operators u E u*, Bob's v E^T v* and
    the state matrix u diag(sqrt(weight / dim)) v^T.  The light block's Schmidt
    coefficient sqrt(w / 4) is 1.6e-5 at w = 1e-9 and 5e-7 at w = 1e-12."""
    total = sum(LIGHT_BLOCK_DIMS)
    weights = (0.6, 0.4 - w, w)
    blocks = [[random_exact_pvm(d, 3, rng) for _ in range(2)] for d in LIGHT_BLOCK_DIMS]
    starts = np.cumsum((0, *LIGHT_BLOCK_DIMS))
    alice = {}
    for x in range(2):
        for a in range(3):
            mat = np.zeros((total, total), dtype=complex)
            for start, d, blk in zip(starts, LIGHT_BLOCK_DIMS, blocks):
                mat[start:start + d, start:start + d] = blk[x][a]
            alice[(x, a)] = mat
    coeffs = np.repeat(np.sqrt(np.divide(weights, LIGHT_BLOCK_DIMS)), LIGHT_BLOCK_DIMS)
    u, v = random_unitary(total, rng), random_unitary(total, rng)
    return BipartiteStrategy(
        total, total, (0, 1), (0, 1, 2),
        alice={key: u @ e @ u.conj().T for key, e in alice.items()},
        bob={key: v @ e.T @ v.conj().T for key, e in alice.items()},
        state=(u @ np.diag(coeffs) @ v.T).reshape(-1),
    )


def random_system(rng, max_m: int = 6, max_n: int = 10) -> BinaryLinearSystem:
    m = int(rng.integers(1, max_m + 1))
    n = int(rng.integers(1, max_n + 1))
    rows = []
    for _ in range(m):
        size = int(rng.integers(1, min(n, 4) + 1))
        rows.append(frozenset(int(j) for j in rng.choice(np.arange(1, n + 1), size=size, replace=False)))
    b = tuple(int(v) for v in rng.integers(0, 2, size=m))
    return BinaryLinearSystem(m=m, n=n, rows=tuple(rows), b=b)


def local_solutions(sys_: BinaryLinearSystem, i: int) -> list:
    """Equation i's local solutions, +1 off its support, in ascending tuple order."""
    support = sorted(sys_.rows[i - 1])
    out = []
    for signs in iter_product((-1, 1), repeat=len(support)):
        x = [1] * sys_.n
        for j, s in zip(support, signs):
            x[j - 1] = s
        if sys_.equation_holds(i, tuple(x)):
            out.append(tuple(x))
    return sorted(out)


def bcs_disagreement(sys_: BinaryLinearSystem, keys) -> np.ndarray:
    """(K, K) bool array over (equation, sign vector) keys, built key by key from the
    tuples: entry (k, l) is True when the two sign vectors disagree on a variable both
    equations contain (signed supports agree on all #shared variables exactly when the
    answers agree)."""
    support = np.zeros((len(keys), sys_.n), dtype=np.int64)
    for k, (i, _) in enumerate(keys):
        support[k, [j - 1 for j in sys_.rows[i - 1]]] = 1
    signed = support * np.array([x for _, x in keys], dtype=np.int64).reshape(len(keys), sys_.n)
    return (signed @ signed.T) != (support @ support.T)


def synbcs_losing_oracle(sys_: BinaryLinearSystem, keys) -> np.ndarray:
    """The synBCS losing mask from per-equation frozensets of local solutions and the
    per-key disagreement: a key that is no local solution loses every round."""
    solutions = {i: frozenset(local_solutions(sys_, i)) for i in range(1, sys_.m + 1)}
    valid = np.array([x in solutions[i] for i, x in keys], dtype=bool)
    return ~(valid[:, None] & valid[None, :]) | bcs_disagreement(sys_, keys)


def classical_strategy(sys_: BinaryLinearSystem, x) -> OperatorStrategy:
    """The d = 1 strategy of a classical solution x: equation i answers x's local
    restriction, x on the equation's support and +1 off it."""
    game = build_synbcs(sys_)
    local = {i: tuple(x[j - 1] if j in sys_.rows[i - 1] else 1 for j in range(1, sys_.n + 1))
             for i in game.inputs}
    return deterministic_to_operator(game.inputs, game.outputs, local)


def exhaustive_solutions(sys: BinaryLinearSystem) -> list:
    """All global sign-vector solutions by scanning all 2^n assignments."""
    out = []
    for x in iter_product((-1, 1), repeat=sys.n):
        if all(sys.equation_holds(i, x) for i in range(1, sys.m + 1)):
            out.append(x)
    return out


def random_graph(rng, n: int, p: float = 0.5) -> Graph:
    edges = set()
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.add((u, v))
    return Graph(n=n, edges=frozenset(edges))


def brute_alpha(g: Graph) -> int:
    best = 0
    for size in range(g.n, 0, -1):
        if size <= best:
            break
        for subset in combinations(range(g.n), size):
            if all(not g.is_edge(u, v) for u, v in combinations(subset, 2)):
                return size
    return best


def brute_omega(g: Graph) -> int:
    return brute_alpha(g.complement())


def brute_chi(g: Graph) -> int:
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        for colours in iter_product(range(k), repeat=g.n):
            if all(colours[u] != colours[v] for u, v in g.edges):
                return k
    return g.n


def is_proper_colouring(g: Graph, colouring: dict) -> bool:
    """The check complement_colouring_ga0 made on the complement before it read G_0's
    colour classes as cliques."""
    if set(colouring) != set(range(g.n)):
        return False
    return all(colouring[u] != colouring[v] for u, v in g.edges)


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    """Whether some bijection of the vertices maps g's edges onto h's."""
    if g.n != h.n or len(g.edges) != len(h.edges):
        return False
    return any(
        all(h.is_edge(perm[u], perm[v]) for u, v in g.edges) for perm in permutations(range(g.n))
    )


def predicate_of(game):
    """The game's rule V(x, y, a, b) -> bool on valid labels, rebuilt from its JSON (the
    system, the two graphs or the losing table) one scalar rule per kind, with no
    losing mask: the oracle the masks are checked against, and a faster one than
    game.wins for brute-force loops."""
    data = game.to_json_dict()
    if data["kind"] == "explicit":
        losing = {tuple(map(label_from_json, t)) for t in data["losing"]}
        return lambda x, y, a, b: (x, y, a, b) not in losing
    if data["kind"] == "synbcs":
        sys_ = BinaryLinearSystem.from_json_dict(data["system"])

        @cache
        def local(i, x) -> bool:  # a solution of equation i, +1 off its support
            off = set(range(1, sys_.n + 1)) - sys_.rows[i - 1]
            return sys_.equation_holds(i, x) and all(x[k - 1] == 1 for k in off)

        def synbcs(i, j, x, y):
            shared = sys_.rows[i - 1] & sys_.rows[j - 1]
            return local(i, x) and local(j, y) and all(x[k - 1] == y[k - 1] for k in shared)

        return synbcs
    g, h = Graph.from_json_dict(data["G"]), Graph.from_json_dict(data["H"])
    if data["kind"] == "hom":
        def hom(v, w, x, y):
            if v == w and x != y:
                return False
            return not (g.is_edge(v, w) and not h.is_edge(x, y))

        return hom

    def rel(graph, u, v) -> int:
        """0 for equal vertices, 1 for adjacent, 2 for distinct non-adjacent."""
        if u == v:
            return 0
        return 1 if graph.is_edge(u, v) else 2

    def pair_of(question, answer):
        # (g-vertex, h-vertex) named by one player's round, or None on a type mismatch
        if question[0] == "g" and answer[0] == "h":
            return question[1], answer[1]
        if question[0] == "h" and answer[0] == "g":
            return answer[1], question[1]
        return None

    def iso(p, q, r, s):
        first, second = pair_of(p, r), pair_of(q, s)
        if first is None or second is None:
            return False
        return rel(g, first[0], second[0]) == rel(h, first[1], second[1])

    return iso


def explicit_copy(game):
    """The game as an explicit game: its oracle's losing tuples, in scan order."""
    wins = predicate_of(game)
    cells = iter_product(game.inputs, game.inputs, game.outputs, game.outputs)
    return game_from_losing(game.inputs, game.outputs, [t for t in cells if not wins(*t)])


def is_synchronous(game) -> bool:
    """Whether every round (x, x, a, b) with a != b loses, read off one mask per input."""
    eye = np.eye(len(game.outputs), dtype=bool)
    return all((game.losing([(x, a) for a in game.outputs]) | eye).all() for x in game.inputs)


def label_set(labels):
    """A membership test for a label sequence, built by hand: an implicit alphabet is its
    own, any other sequence gets a frozenset (the oracle for an alphabet's `in`)."""
    return labels if isinstance(labels, SignVectors) else frozenset(labels)


def label_index(labels):
    """label -> position in the sequence, built by hand: arithmetic for an implicit
    alphabet, a dict lookup otherwise (the oracle for an alphabet's index())."""
    if isinstance(labels, SignVectors):
        return labels.index
    return {label: k for k, label in enumerate(labels)}.__getitem__
