"""Graphs, exact classical parameters, the (equation, local-solution) incompatibility
graph of a GF(2) system, and the three certificate transports tying BCS strategies,
graph-isomorphism strategies and quantum independence certificates together.

alpha/omega run a branch-and-bound maximum-clique search with a greedy-colouring
bound; chi runs DSATUR backtracking seeded with a maximum clique.  All quantum
certificates are verified through the game-algebra relation checker before and
after every transport.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import BudgetError, ValidationError, VerificationError
from .games import GameRelationReport, build_hom_game, build_iso_game, check_game_algebra_relations
from .gf2 import BinaryLinearSystem, enumerate_si
from .labels import int_from_json, label_from_json, label_to_json
from .matops import DEFAULT_TOL, dagger, identity, kron, max_pairwise_distance, norm2
from .solution_group import GroupRep, verify_rep
from .strategies import OperatorStrategy, deterministic_to_operator

MAX_CLIQUE_VERTICES = 40
MAX_CHI_VERTICES = 20
MAX_SYSTEM_GRAPH_VERTICES = 4096


@dataclass(frozen=True)
class Graph:
    """A loopless undirected graph on vertices 0..n-1 with optional vertex labels."""

    n: int
    edges: frozenset
    labels: Optional[tuple] = None

    def __post_init__(self):
        if self.n < 0:
            raise ValidationError("vertex count must be >= 0")
        clean = set()
        for e in self.edges:
            u, v = e
            if any(isinstance(w, bool) or not isinstance(w, int) for w in (u, v)):
                raise ValidationError(f"edge {e!r} has non-integer endpoints")
            if u == v:
                raise ValidationError(f"loop at vertex {u} not allowed")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValidationError(f"edge {e!r} out of range for {self.n} vertices")
            clean.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(clean))
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != self.n:
                raise ValidationError("label table length must equal the vertex count")
            object.__setattr__(self, "labels", labels)

    @cached_property
    def neighbors(self) -> tuple:
        adj = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(frozenset(s) for s in adj)

    def is_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def complement(self) -> "Graph":
        comp = frozenset(
            (u, v) for u in range(self.n) for v in range(u + 1, self.n) if (u, v) not in self.edges
        )
        return Graph(n=self.n, edges=comp, labels=self.labels)

    def to_json_dict(self) -> dict:
        out = {"n": self.n, "edges": [list(e) for e in sorted(self.edges)]}
        if self.labels is not None:
            out["labels"] = [label_to_json(lab) for lab in self.labels]
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "Graph":
        try:
            labels = data["labels"] if "labels" in data else None
            return cls(
                n=int_from_json(data["n"], "vertex count"),
                edges=frozenset(
                    tuple(int_from_json(v, "edge endpoint") for v in e) for e in data["edges"]
                ),
                labels=None if labels is None else tuple(label_from_json(x) for x in labels),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed graph JSON: {exc}") from exc


def complete(n: int) -> Graph:
    return Graph(n=n, edges=frozenset((u, v) for u in range(n) for v in range(u + 1, n)))


def empty_graph(n: int) -> Graph:
    return Graph(n=n, edges=frozenset())


def is_independent_set(g: Graph, vertices) -> bool:
    vs = list(vertices)
    if len(set(vs)) != len(vs):
        return False
    return all(not g.is_edge(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :])


def is_proper_colouring(g: Graph, colouring: dict) -> bool:
    if set(colouring) != set(range(g.n)):
        return False
    return all(colouring[u] != colouring[v] for u, v in g.edges)


def greedy_colouring(g: Graph) -> dict:
    """Largest-degree-first greedy colouring; an upper bound for chi."""
    order = sorted(range(g.n), key=lambda v: -len(g.neighbors[v]))
    colouring: dict = {}
    for v in order:
        used = {colouring[u] for u in g.neighbors[v] if u in colouring}
        c = 0
        while c in used:
            c += 1
        colouring[v] = c
    return colouring


def _max_clique_search(neighbors) -> list:
    """Branch-and-bound maximum clique with a greedy-colouring upper bound."""
    n = len(neighbors)
    best: list = []

    def expand(chosen: list, candidates: list) -> None:
        nonlocal best
        if not candidates:
            if len(chosen) > len(best):
                best = chosen[:]
            return
        colour = {}
        classes: list = []
        for v in candidates:
            for ci, members in enumerate(classes):
                if not neighbors[v] & members:
                    members.add(v)
                    colour[v] = ci
                    break
            else:
                classes.append({v})
                colour[v] = len(classes) - 1
        ordered = sorted(candidates, key=colour.__getitem__)
        for idx in range(len(ordered) - 1, -1, -1):
            v = ordered[idx]
            if len(chosen) + colour[v] + 1 <= len(best):
                return
            chosen.append(v)
            expand(chosen, [u for u in ordered[:idx] if u in neighbors[v]])
            chosen.pop()

    initial = sorted(range(n), key=lambda v: -len(neighbors[v]))
    expand([], initial)
    return sorted(best)


def max_clique(g: Graph, max_vertices: int = MAX_CLIQUE_VERTICES) -> list:
    if g.n > max_vertices:
        raise BudgetError(f"exact clique search refused for {g.n} > {max_vertices} vertices")
    return _max_clique_search(g.neighbors)


def max_independent_set(g: Graph, max_vertices: int = MAX_CLIQUE_VERTICES) -> list:
    return max_clique(g.complement(), max_vertices=max_vertices)


def alpha(g: Graph, max_vertices: int = MAX_CLIQUE_VERTICES) -> int:
    return len(max_independent_set(g, max_vertices=max_vertices))


def omega(g: Graph, max_vertices: int = MAX_CLIQUE_VERTICES) -> int:
    return len(max_clique(g, max_vertices=max_vertices))


def _k_colourable(g: Graph, k: int, clique) -> Optional[dict]:
    """DSATUR backtracking for k-colourability, seeded with a pre-coloured clique."""
    if len(clique) > k:
        return None
    colouring = {v: i for i, v in enumerate(clique)}

    def recurse(max_used: int) -> bool:
        if len(colouring) == g.n:
            return True
        pick, pick_key = None, None
        for v in range(g.n):
            if v in colouring:
                continue
            saturation = len({colouring[u] for u in g.neighbors[v] if u in colouring})
            key = (saturation, len(g.neighbors[v]))
            if pick is None or key > pick_key:
                pick, pick_key = v, key
        used = {colouring[u] for u in g.neighbors[pick] if u in colouring}
        for c in range(min(k - 1, max_used + 1) + 1):
            if c in used:
                continue
            colouring[pick] = c
            if recurse(max(max_used, c)):
                return True
            del colouring[pick]
        return False

    return dict(colouring) if recurse(len(clique) - 1) else None


def chi(g: Graph, max_vertices: int = MAX_CHI_VERTICES) -> int:
    if g.n > max_vertices:
        raise BudgetError(f"exact colouring refused for {g.n} > {max_vertices} vertices")
    if g.n == 0:
        return 0
    if not g.edges:
        return 1
    clique = max_clique(g, max_vertices=max_vertices)
    lower = len(clique)
    upper = max(greedy_colouring(g).values()) + 1
    for k in range(lower, upper):
        if _k_colourable(g, k, clique) is not None:
            return k
    return upper


def graph_from_system(
    sys: BinaryLinearSystem,
    use_b: bool = True,
    max_vertices: int = MAX_SYSTEM_GRAPH_VERTICES,
) -> Graph:
    """The incompatibility graph: vertices are (equation, local solution) pairs,
    edges join pairs that disagree on a shared variable.

    With use_b=False the homogeneous right-hand side is used instead.  Vertices
    are ordered equation-major with solutions lexicographic, so the graph (and
    its JSON) is byte-stable.
    """
    variant = (
        sys
        if use_b
        else BinaryLinearSystem(m=sys.m, n=sys.n, rows=sys.rows, b=(0,) * sys.m)
    )
    labels = []
    for i in range(1, variant.m + 1):
        for x in enumerate_si(variant, i):
            labels.append((i, x))
    if len(labels) > max_vertices:
        raise BudgetError(f"{len(labels)} vertices exceed the budget of {max_vertices}")
    supports = {i: variant.rows[i - 1] for i in range(1, variant.m + 1)}
    edges = set()
    for u in range(len(labels)):
        i, x = labels[u]
        for v in range(u + 1, len(labels)):
            j, y = labels[v]
            if any(x[k - 1] != y[k - 1] for k in supports[i] & supports[j]):
                edges.add((u, v))
    return Graph(n=len(labels), edges=frozenset(edges), labels=tuple(labels))


@dataclass(frozen=True)
class HomogeneousGraphCertificates:
    """Paired certificates pinning the independence number of the homogeneous graph:
    an explicit proper colouring of the complement (upper bound) and the all-ones
    independent set (lower bound), both verified by edge scans."""

    graph: Graph
    colouring: dict        # vertex -> colour (the vertex's equation, 0-based)
    independent_set: tuple
    value: int

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "colouring": [[v, c] for v, c in sorted(self.colouring.items())],
            "independent_set": list(self.independent_set),
        }


def complement_colouring_ga0(sys: BinaryLinearSystem) -> HomogeneousGraphCertificates:
    """Colour the complement of the homogeneous incompatibility graph by equation and
    exhibit the all-ones independent set, establishing alpha = m for that graph."""
    g0 = graph_from_system(sys, use_b=False)
    colouring = {v: g0.labels[v][0] - 1 for v in range(g0.n)}
    if not is_proper_colouring(g0.complement(), colouring):
        raise VerificationError("equation colouring is not proper on the complement")
    ones = tuple(1 for _ in range(sys.n))
    index_of = {lab: v for v, lab in enumerate(g0.labels)}
    indep = tuple(index_of[(i, ones)] for i in range(1, sys.m + 1))
    if not is_independent_set(g0, indep):
        raise VerificationError("all-ones vertices are not independent")
    return HomogeneousGraphCertificates(
        graph=g0, colouring=colouring, independent_set=indep, value=sys.m
    )


@dataclass(frozen=True)
class IndependenceCertificate:
    """A claimed quantum independence number: an operator strategy for the
    homomorphism game from a complete graph into the target's complement."""

    graph: Graph
    value: int
    strategy: OperatorStrategy

    def game(self):
        return build_hom_game(complete(self.value), self.graph.complement())

    def verify(self, tol: float = DEFAULT_TOL) -> GameRelationReport:
        return check_game_algebra_relations(self.game(), self.strategy, tol)


def independence_certificate_from_set(g: Graph, vertices) -> IndependenceCertificate:
    """Wrap a classical independent set as a d = 1 certificate."""
    vs = tuple(vertices)
    if not is_independent_set(g, vs):
        raise ValidationError("vertices are not an independent set")
    strategy = deterministic_to_operator(range(len(vs)), range(g.n), dict(enumerate(vs)))
    return IndependenceCertificate(graph=g, value=len(vs), strategy=strategy)


def iso_strategy_from_bcs(
    s: OperatorStrategy, sys: BinaryLinearSystem, tol: float = DEFAULT_TOL
) -> OperatorStrategy:
    """Turn a perfect BCS strategy into a strategy for the isomorphism game between
    the inhomogeneous and homogeneous incompatibility graphs.

    The projection for the pair ((i, x), (j, y)) is the BCS projection at the
    pointwise product x*y when i = j and zero otherwise.  Row and column sums
    and all relation products are certified through the game checker.
    """
    g_b = graph_from_system(sys, use_b=True)
    g_0 = graph_from_system(sys, use_b=False)
    game = build_iso_game(g_b, g_0)
    pvms = {}
    for u, (i, x) in enumerate(g_b.labels):
        for v, (j, y) in enumerate(g_0.labels):
            if i != j:
                continue
            z = tuple(a * b for a, b in zip(x, y))
            mat = s.pvms.get((i, z))
            if mat is None:
                continue
            pvms[(("g", u), ("h", v))] = mat
            pvms[(("h", v), ("g", u))] = mat
    iso = OperatorStrategy(dim=s.dim, inputs=game.inputs, outputs=game.outputs, pvms=pvms)
    check_game_algebra_relations(game, iso, tol).require("isomorphism strategy")
    return iso


def swap_iso_strategy(iso: OperatorStrategy) -> OperatorStrategy:
    """Reverse an isomorphism-game strategy: a strategy for (G, H) becomes one for
    (H, G) by exchanging the two side tags."""

    def flip(label):
        side, v = label
        return ("h", v) if side == "g" else ("g", v)

    g_side = [v for side, v in iso.inputs if side == "g"]
    h_side = [v for side, v in iso.inputs if side == "h"]
    inputs = tuple(("g", v) for v in sorted(h_side)) + tuple(("h", v) for v in sorted(g_side))
    pvms = {(flip(x), flip(a)): mat for (x, a), mat in iso.pvms.items()}
    return OperatorStrategy(dim=iso.dim, inputs=inputs, outputs=inputs, pvms=pvms)


def transport_independence(
    cert: IndependenceCertificate,
    iso: OperatorStrategy,
    target: Graph,
    tol: float = DEFAULT_TOL,
) -> IndependenceCertificate:
    """Transport an independence certificate along an isomorphism-game strategy.

    Both inputs are verified first; the transported projections are the sums of
    Kronecker products f_{k,x} = sum_v e_{k,v} (x) q_{v,x}, and the returned
    certificate for the target graph is verified before being returned.
    """
    cert.verify(tol).require("independence certificate")
    check_game_algebra_relations(build_iso_game(cert.graph, target), iso, tol).require(
        "isomorphism strategy"
    )
    pvms = {}
    for k in cert.strategy.inputs:
        for x in range(target.n):
            acc = None
            for v in range(cert.graph.n):
                e = cert.strategy.pvms.get((k, v))
                q = iso.pvms.get((("g", v), ("h", x)))
                if e is None or q is None:
                    continue
                term = kron(e, q)
                acc = term if acc is None else acc + term
            if acc is not None and norm2(acc) > 0.0:
                pvms[(k, x)] = acc
    transported = OperatorStrategy(
        dim=cert.strategy.dim * iso.dim,
        inputs=cert.strategy.inputs,
        outputs=tuple(range(target.n)),
        pvms=pvms,
    )
    out = IndependenceCertificate(graph=target, value=cert.value, strategy=transported)
    out.verify(tol).require("transported independence certificate")
    return out


def rep_from_independence(
    cert: IndependenceCertificate,
    sys: BinaryLinearSystem,
    tol: float = DEFAULT_TOL,
    choice_tol: Optional[float] = None,
) -> GroupRep:
    """Recover a solution-group representation from a full-value independence
    certificate for the inhomogeneous incompatibility graph.

    Slot i's self-adjoint unitary for variable j is the sign-weighted sum of
    that slot's projections over every vertex; the certificate must glue
    (slots sharing a variable must produce the same unitary, exactly so under
    a faithful trace), and the glued generators are verified against all
    solution-group relators.
    """
    if cert.value != sys.m:
        raise ValidationError(f"certificate value {cert.value} != m = {sys.m}")
    g_b = graph_from_system(sys, use_b=True)
    if cert.graph.n != g_b.n or cert.graph.edges != g_b.edges or cert.graph.labels != g_b.labels:
        raise ValidationError("certificate graph is not the system's incompatibility graph")
    cert.verify(tol).require("independence certificate")
    if choice_tol is None:
        choice_tol = 2.0 * g_b.n * math.sqrt(tol)
    d = cert.strategy.dim
    slot_of = {i: cert.strategy.inputs[i - 1] for i in range(1, sys.m + 1)}

    def slot_unitary(i: int, j: int) -> np.ndarray:
        v = np.zeros((d, d), dtype=complex)
        for t, (k, x) in enumerate(g_b.labels):
            e = cert.strategy.pvms.get((slot_of[i], t))
            if e is not None:
                v = v + x[j - 1] * e
        return (v + dagger(v)) / 2

    images = []
    for j in range(1, sys.n + 1):
        eqs = [i for i in range(1, sys.m + 1) if j in sys.rows[i - 1]]
        if not eqs:
            images.append(identity(d))
            continue
        mats = [slot_unitary(i, j) for i in eqs]
        spread, pair = max_pairwise_distance(mats)
        if spread > choice_tol:
            raise VerificationError(
                f"variable {j}: slots {eqs[pair[0]]} and {eqs[pair[1]]} glue only within "
                f"{spread:.3e} > {choice_tol:.3e}; defective certificate"
            )
        images.append(mats[0])
    rep = GroupRep(images=tuple(images), j_image=-identity(d))
    verify_rep(rep, sys, 10 * tol).require("recovered representation")
    return rep
