"""Graphs, exact classical parameters, the (equation, local-solution) incompatibility
graph of a GF(2) system, and the three certificate transports tying BCS strategies,
graph-isomorphism strategies and quantum independence certificates together.

Per connected component, on neighbour bitsets (Graph.rows) and under the game search's
node budget, alpha/omega run a clique search with BBMC's bit-parallel colour bound (alpha
on complement rows) and chi runs DSATUR seeded with a maximum clique.  A conversion
certifies what it returns: a transported certificate by the game-algebra relation
checker, a glued representation against every relator.  Of its arguments it checks only
the labels it reads; their relations are the caller's to check, as the CLI checks the
files it reads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain
from operator import or_
from typing import Optional

import numpy as np

from .errors import BudgetError, ValidationError, VerificationError
from .games import GameRelationReport, SyncGame, build_hom_game, build_iso_game
from .games import _adjacency, _check_labels, _pair_table, check_game_algebra_relations, node_budget
from .gf2 import BinaryLinearSystem
from .labels import int_from_json, label_to_json, labels_from_json
from .matops import DEFAULT_TOL, _chunk_slices, _kron_pairs, _residuals
from .solution_group import GroupRep, glue_rep
from .strategies import OperatorStrategy, deterministic_to_operator

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
        n, clean = self.n, set()
        for e in self.edges:
            u, v = e
            if isinstance(u, bool) or isinstance(v, bool) or not (
                isinstance(u, int) and isinstance(v, int)
            ):
                raise ValidationError(f"edge {e!r} has non-integer endpoints")
            if u == v:
                raise ValidationError(f"loop at vertex {u} not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge {e!r} out of range for {n} vertices")
            clean.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "edges", frozenset(clean))
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != self.n:
                raise ValidationError("label table length must equal the vertex count")
            object.__setattr__(self, "labels", labels)

    @cached_property
    def rows(self) -> tuple:
        """Neighbour bitsets: bit u of rows[v] is set when {u, v} is an edge."""
        rows = [0] * self.n
        for u, v in self.edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return tuple(rows)

    @cached_property
    def _edge_array(self) -> np.ndarray:
        """The edges as a read-only (|E|, 2) intp array, in the frozenset's order."""
        edges = np.array(list(self.edges), dtype=np.intp).reshape(-1, 2)
        edges.flags.writeable = False
        return edges

    def __reduce__(self):
        # a pickle or copy drops the kept rows, edge array and complement
        return (Graph, (self.n, self.edges, self.labels))

    def is_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def complement(self) -> "Graph":
        """The complement graph, built (and its edges validated) once per graph."""
        return self._complement

    @cached_property
    def _complement(self) -> "Graph":
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
                    labels_from_json(data["edges"], "graph edges", item=_edge_from_json)
                ),
                labels=None if labels is None else labels_from_json(labels, "graph labels"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed graph JSON: {exc}") from exc


def _edge_from_json(e) -> tuple:
    return labels_from_json(e, "graph edge", item=lambda v: int_from_json(v, "edge endpoint"))


def complete(n: int) -> Graph:
    return Graph(n=n, edges=frozenset((u, v) for u in range(n) for v in range(u + 1, n)))


def is_independent_set(g: Graph, vertices) -> bool:
    vs = list(vertices)
    if len(set(vs)) != len(vs):
        return False
    return all(not g.is_edge(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :])


def _bits(x: int):
    """The vertices of bitset x, lowest first."""
    while x:
        yield (x & -x).bit_length() - 1
        x &= x - 1


def _components(g: Graph, spend):
    """The vertex bitsets of g's connected components.  A search is first charged one
    node per 64-bit word of an n x n bit table, the size of g.rows and of complement
    rows, so a huge graph is refused before they are built."""
    spend(g.n * g.n // 64)
    left = (1 << g.n) - 1
    while left:
        comp = grown = left & -left
        while grown:  # the neighbours of the vertices added last that comp lacks
            grown = reduce(or_, map(g.rows.__getitem__, _bits(grown))) & ~comp
            comp |= grown
        yield comp
        left ^= comp


def _colour_classes(rows, p: int, spend) -> list:
    """(class, vertex) for bitset p's vertices, greedily coloured lowest vertex first."""
    spend(p.bit_count())
    order, k = [], 0
    while p:
        q, k = p, k + 1
        while q:
            v = (q & -q).bit_length() - 1
            q &= ~(rows[v] | 1 << v)
            p ^= 1 << v
            order.append((k, v))
    return order


def _max_clique_in(rows, p: int, spend) -> list:
    """A maximum clique among bitset p's vertices, rows[v] being v's neighbours."""
    best, frames = [], [[p, _colour_classes(rows, p, spend), None]]  # [p, order, v opened for]
    while frames:
        p, order, _ = frame = frames[-1]
        if not order or len(frames) - 1 + order[-1][0] <= len(best):  # the colour bound
            frames.pop()
            continue
        v = order.pop()[1]
        frame[0] = p ^ (1 << v)
        spend(1)
        if p & rows[v]:
            frames.append([p & rows[v], _colour_classes(rows, p & rows[v], spend), v])
        elif len(frames) > len(best):
            best = [f[2] for f in frames[1:]] + [v]
    return best


def max_clique(g: Graph) -> list:
    spend = node_budget()
    cliques = (_max_clique_in(g.rows, comp, spend) for comp in _components(g, spend))
    return sorted(max(cliques, key=len, default=[]))


def max_independent_set(g: Graph) -> list:
    """Maximum cliques of the components' complement rows (no complement graph is built)."""
    spend = node_budget()
    return sorted(v for comp in _components(g, spend) for v in _max_clique_in(
        {u: comp & ~g.rows[u] & ~(1 << u) for u in _bits(comp)}, comp, spend))


def alpha(g: Graph) -> int:
    return len(max_independent_set(g))


def omega(g: Graph) -> int:
    return len(max_clique(g))


def _k_colourable(rows, comp: int, k: int, clique, spend) -> bool:
    """DSATUR backtracking for a k-colouring of comp with the clique coloured 0, 1, ..."""
    classes = [1 << v for v in clique] + [0] * (k - len(clique))  # colour -> vertex bitset
    left, trail = comp & ~sum(classes), []  # trail: (vertex, its colours still to try)
    while left:
        spend(left.bit_count())
        v = max(_bits(left), key=lambda u: (sum(1 for c in classes if rows[u] & c),
                                            rows[u].bit_count()))
        in_use = k - classes.count(0)  # colours 0 .. in_use - 1; try at most one more
        trail.append((v, [c for c in range(min(k, in_use + 1)) if not rows[v] & classes[c]][::-1]))
        left ^= 1 << v
        while not trail[-1][1]:  # no colour left: backtrack to the last vertex with one
            left |= 1 << trail.pop()[0]
            if not trail:
                return False
            classes = [members & ~(1 << trail[-1][0]) for members in classes]
        u, options = trail[-1]
        spend(1)
        classes[options.pop()] |= 1 << u
    return True


def chi(g: Graph) -> int:
    """The largest chromatic number of g's components (each searched only if it may win)."""
    spend, best = node_budget(), 0
    for comp in _components(g, spend):
        upper = _colour_classes(g.rows, comp, spend)[-1][0]  # a greedy colouring's colours
        if upper > best:
            clique = _max_clique_in(g.rows, comp, spend)
            best = next((k for k in range(max(best, len(clique)), upper)
                         if _k_colourable(g.rows, comp, k, clique, spend)), upper)
    return best


def graph_from_system(sys: BinaryLinearSystem, use_b: bool = True) -> Graph:
    """The incompatibility graph: vertices are (equation, local solution) pairs,
    edges join pairs that disagree on a shared variable.

    With use_b=False the homogeneous right-hand side is used instead.  Vertices
    are ordered equation-major with solutions lexicographic, so the graph (and
    its JSON) is byte-stable.  Each system builds its G_b and its G_0 once and
    returns the same Graph afterwards; a refusal (a support over 20 variables,
    more than MAX_SYSTEM_GRAPH_VERTICES vertices) is raised on every call,
    before any local solution is enumerated.
    """
    variant = sys if use_b else sys._homogeneous()
    n = sum(variant._local_solution_count(i) for i in range(1, variant.m + 1))
    if n > MAX_SYSTEM_GRAPH_VERTICES:
        raise BudgetError(f"{n} vertices exceed the budget of {MAX_SYSTEM_GRAPH_VERTICES}")
    return variant._cached("graph", lambda: _build_graph_from_system(variant))


def _build_graph_from_system(sys: BinaryLinearSystem) -> Graph:
    table = sys._sign_table()  # its rows are the vertices, in order
    us, vs = np.nonzero(table.disagreement())
    upper = us < vs
    edges = frozenset(zip(us[upper].tolist(), vs[upper].tolist()))
    return Graph(n=len(table.row_of), edges=edges, labels=tuple(table.row_of))


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
    exhibit the all-ones independent set, establishing alpha = m for that graph.  The
    colouring is proper on the complement exactly when each equation's colour class is
    a clique of G_0, which is checked on G_0's edges, with no complement built."""
    g0 = graph_from_system(sys, use_b=False)
    colouring = {v: g0.labels[v][0] - 1 for v in range(g0.n)}
    colour = np.array(list(colouring.values()), dtype=np.intp)
    edges = g0._edge_array
    inside = colour[edges[:, 0]] == colour[edges[:, 1]]
    sizes = np.bincount(colour, minlength=sys.m)
    if not np.array_equal(np.bincount(colour[edges[inside, 0]], minlength=sys.m),
                          sizes * (sizes - 1) // 2):
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

    def __post_init__(self):
        if int_from_json(self.value, "certificate value") < 0:
            raise ValidationError(f"certificate value must be >= 0, got {self.value}")

    def game(self):
        """The homomorphism game from K_value into the graph's complement, built once
        per certificate.  Its mask reads the graph itself, so neither K_value nor the
        complement is built: keys (k, v) and (l, w) lose when k = l and v != w, or when
        k != l and v = w or v ~ w.  Only its JSON, written on demand, builds both."""
        return self._game

    @cached_property
    def _game(self):
        g, value = self.graph, self.value

        def losing(keys):
            slot = np.array([k[0] for k in keys], dtype=np.intp)
            v = np.array([k[1] for k in keys], dtype=np.intp)
            same = v[:, None] == v[None, :]
            return np.where(slot[:, None] == slot[None, :], ~same,
                            same | _pair_table(_adjacency, g, v))

        inputs, outputs = tuple(range(value)), tuple(range(g.n))
        # the complement is loopless, so every output is a candidate
        return SyncGame(inputs, outputs, losing, dict.fromkeys(inputs, outputs),
                        lambda: build_hom_game(complete(value), g.complement()).to_json_dict())

    def verify(self, tol: float = DEFAULT_TOL) -> GameRelationReport:
        return check_game_algebra_relations(self.game(), self.strategy, tol)

    def __reduce__(self):
        # a pickle or copy drops the kept game, whose rules are closures
        return (IndependenceCertificate, (self.graph, self.value, self.strategy))


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
    and all relation products are certified through the game checker.  Each G_b
    vertex (i, x) is paired only with the G_0 vertices of equation i, both read from
    the graphs' labels, so keys come G_b vertex by G_b vertex, in ascending order.
    The result shares s's read-only stack and row checks, each key taking its BCS
    projection's row, so nothing is copied, re-hashed or checked again; a BCS projection
    at no x*y (not a local solution) keeps its row there, which no key of the result names.
    """
    g_b = graph_from_system(sys, use_b=True)
    g_0 = graph_from_system(sys, use_b=False)
    game = build_iso_game(g_b, g_0)
    row_of = dict(zip(s.pvms, s.ids.tolist()))
    partners: dict = {}  # equation -> [(G_0 vertex, its local solution)], ascending
    for v, (i, y) in enumerate(g_0.labels):
        partners.setdefault(i, []).append((v, y))
    keys, rows = [], []
    for u, (i, x) in enumerate(g_b.labels):
        for v, y in partners[i]:
            row = row_of.get((i, tuple(a * b for a, b in zip(x, y))))
            if row is not None:
                keys += [(("g", u), ("h", v)), (("h", v), ("g", u))]
                rows += [row, row]
    iso = OperatorStrategy._over_rows(s, game.inputs, game.outputs, keys, rows)
    check_game_algebra_relations(game, iso, tol).require("isomorphism strategy")
    return iso


def swap_iso_strategy(iso: OperatorStrategy) -> OperatorStrategy:
    """Reverse an isomorphism-game strategy: a strategy for (G, H) becomes one for
    (H, G) by exchanging the two side tags.  The result shares iso's read-only stack
    and row checks: each flipped key keeps its row, nothing is copied or checked again.  Every
    input and output label must be a ("g"|"h", vertex) pair, or ValidationError."""
    for label in chain(iso.inputs, iso.outputs):  # lazily: a sign-vector alphabet fails first
        if not (type(label) is tuple and len(label) == 2 and label[0] in ("g", "h")
                and isinstance(label[1], int)):
            raise ValidationError(
                f"isomorphism strategy label {label!r} is not a ('g'|'h', vertex) pair")

    def flip(label):
        side, v = label
        return ("h", v) if side == "g" else ("g", v)

    g_side = [v for side, v in iso.inputs if side == "g"]
    h_side = [v for side, v in iso.inputs if side == "h"]
    inputs = tuple(("g", v) for v in sorted(h_side)) + tuple(("h", v) for v in sorted(g_side))
    keys = [(flip(x), flip(a)) for x, a in iso.stored_keys()]
    return OperatorStrategy._over_rows(iso, inputs, inputs, keys, iso.ids)


def transport_independence(
    cert: IndependenceCertificate,
    iso: OperatorStrategy,
    target: Graph,
    tol: float = DEFAULT_TOL,
) -> IndependenceCertificate:
    """Transport an independence certificate along an isomorphism-game strategy.

    The transported projections are the sums of Kronecker products
    f_{k,x} = sum_v e_{k,v} (x) q_{v,x}, added in ascending v, and the returned
    certificate for the target graph is verified before being returned, so a
    defective input gives a VerificationError (or a ValidationError) rather than a
    wrong certificate.  Of the inputs only the labels are checked, against the
    certificate's game and the (cert.graph, target) isomorphism game.  One pass over
    the certificate's stored keys (k in input order, then ascending v) lists every
    term; the terms are formed in chunked batches and added to a running sum per
    (k, x), and the zero sums are dropped in one batch.
    """
    _check_labels(cert.game(), cert.strategy)
    _check_labels(build_iso_game(cert.graph, target), iso)
    images: dict = {}  # g-vertex v -> [(x, iso row)] of the iso operators stored for v
    for ((side, v), (out_side, x)), row in zip(iso.stored_keys(), iso.ids.tolist()):
        if (side, out_side) == ("g", "h"):
            images.setdefault(v, []).append((x, row))
    terms = [((k, x), e, q) for (k, v), e in zip(cert.strategy.stored_keys(),
                                                 cert.strategy.ids.tolist())
             for x, q in images.get(v, ())]
    dim = cert.strategy.dim * iso.dim
    sums: dict = {}
    # Huge finite entries may overflow; the result's constructor refuses the non-finite
    # sum, so the overflow stays silent here.
    with np.errstate(over="ignore", invalid="ignore"):
        for sl in _chunk_slices(len(terms), dim):
            e, q = np.array([t[1:] for t in terms[sl]], dtype=np.intp).T
            for (key, _, _), term in zip(terms[sl], _kron_pairs(cert.strategy.stack[e],
                                                                iso.stack[q])):
                sums[key] = term if key not in sums else sums[key] + term
    mats = np.array(list(sums.values()), dtype=complex).reshape(len(sums), dim, dim)
    pvms = {key: mat for key, mat, nonzero in zip(sums, mats, _residuals(mats) > 0.0)
            if nonzero}
    transported = OperatorStrategy(
        dim=dim,
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
) -> GroupRep:
    """Recover a solution-group representation from a full-value independence
    certificate for the inhomogeneous incompatibility graph.

    Equation i's row lists the G_b vertices labelled (i, x), in ascending vertex
    order, each with its sign vector x and its operator: the sum, in slot order, of
    the slots storing that vertex.  No slot is tied to an equation, so a certificate
    whose slots permute the equations, or spread one slot over several equations,
    glues too.  For a perfect certificate one equation's operators form a PVM and
    disagreeing vertices' operators are orthogonal, so the rows are a perfect BCS
    strategy.  glue_rep glues the rows into generators (equations sharing a variable
    must give the same unitary, exactly so under a faithful trace) and verifies them
    against all solution-group relators at 10 * tol; that check certifies the result,
    so the certificate's relations are not checked, only its labels.
    """
    if cert.value != sys.m:
        raise ValidationError(f"certificate value {cert.value} != m = {sys.m}")
    g_b = graph_from_system(sys, use_b=True)
    if cert.graph != g_b:
        raise ValidationError("certificate graph is not the system's incompatibility graph")
    _check_labels(cert.game(), cert.strategy)
    choice_tol = 2.0 * g_b.n * math.sqrt(tol)
    ops: dict = {}  # G_b vertex -> the sum, in slot order, of the slots storing it
    with np.errstate(over="ignore", invalid="ignore"):  # glue_rep refuses a non-finite sum
        for (_, t), e in cert.strategy.pvms.items():
            ops[t] = e if t not in ops else ops[t] + e
    rows: list = [[] for _ in range(sys.m)]
    for t, (i, x) in enumerate(g_b.labels):
        if t in ops:
            rows[i - 1].append((x, ops[t]))
    return glue_rep(sys, rows, cert.strategy.dim, choice_tol, tol, "defective certificate")
