"""Synchronous games: the data model, the BCS / graph-homomorphism / graph-isomorphism
constructors, exhaustive classical solving, and the game-algebra relation checker.

A game's rule is its losing mask: losing(keys) is the (K, K) bool array over a list
of (input, output) keys whose entry (i, j) is True when the round
(x_i, x_j, a_i, a_j) loses.  The relation checker, the classical search's pair
table, DeterministicStrategy.perfect_for and Correlation.max_losing all read it,
and it is computed only over the keys asked for: winning tuples of a BCS game are
sparse while losing tuples are astronomically many, so only an explicit game,
loaded from a JSON table, holds its losing tuples.  Every constructor also lists
each input's candidates, the outputs a with V(x, x, a, a) = 1, so the classical
search never scans the alphabet.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .errors import BudgetError, ValidationError
from .gf2 import BinaryLinearSystem
from .labels import (
    MAX_SIGN_VECTOR_LENGTH,
    SignVectors,
    ToleranceReport,
    as_alphabet,
    label_index,
    label_set,
    label_to_json,
    labels_from_json,
)
from .matops import product_norms

if TYPE_CHECKING:  # pragma: no cover
    from .strategies import OperatorStrategy

MAX_GAME_VARIABLES = MAX_SIGN_VECTOR_LENGTH  # synBCS outputs are SignVectors(n)
DEFAULT_SEARCH_NODES = 2_000_000
# cells of the search's pair table, K^2 for K candidate keys (x, a): K <= 2000
MAX_PAIR_TABLE_CELLS = 4_000_000


@dataclass(frozen=True)
class SyncGame:
    """A synchronous finite input-output game, given by its losing mask."""

    inputs: tuple
    outputs: Sequence  # a tuple, or SignVectors for the synBCS alphabet
    # keys -> (K, K) bool array, True where (x_i, x_j, a_i, a_j) loses for keys [(x, a)];
    # the labels must be valid for the game
    losing: Callable
    # input -> its winning outputs (those a with V(x, x, a, a) = 1), in output order
    candidates: dict = field(compare=False, repr=False)
    source: Callable  # () -> the game's JSON

    @cached_property
    def input_set(self) -> frozenset:
        return frozenset(self.inputs)

    @cached_property
    def output_set(self):
        """Membership test for the outputs (the implicit alphabet itself, never a set of it)."""
        return label_set(self.outputs)

    def wins(self, x, y, a, b) -> bool:
        if x not in self.input_set or y not in self.input_set:
            raise ValidationError(f"unknown input label in ({x!r}, {y!r})")
        if a not in self.output_set or b not in self.output_set:
            raise ValidationError(f"unknown output label in ({a!r}, {b!r})")
        return not self.losing([(x, a), (y, b)])[0, 1]

    def to_json_dict(self) -> dict:
        return self.source()


def game_from_losing(inputs, outputs, losing) -> SyncGame:
    """Build a game from an explicit losing-tuple table, enforcing synchronicity.  Its
    mask looks each pair up in the table, and its JSON lists the table in (input,
    input, output, output) position order."""
    inputs = as_alphabet(inputs, "explicit game inputs")
    outputs = as_alphabet(outputs, "explicit game outputs")
    losing_set = frozenset(tuple(t) for t in losing)
    for x, y, a, b in losing_set:
        if x not in inputs or y not in inputs or a not in outputs or b not in outputs:
            raise ValidationError(f"losing tuple {(x, y, a, b)!r} uses unknown labels")
    for x in inputs:
        for a in outputs:
            for b in outputs:
                if a != b and (x, x, a, b) not in losing_set:
                    raise ValidationError(
                        f"not synchronous: ({x!r}, {x!r}, {a!r}, {b!r}) must lose"
                    )

    def losing_of(keys):
        mask = [(x, y, a, b) in losing_set for x, a in keys for y, b in keys]
        return np.array(mask, dtype=bool).reshape(len(keys), len(keys))

    def source():
        xi, ai = label_index(inputs), label_index(outputs)
        table = sorted(losing_set, key=lambda t: (xi(t[0]), xi(t[1]), ai(t[2]), ai(t[3])))
        return {
            "kind": "explicit",
            "inputs": [label_to_json(x) for x in inputs],
            "outputs": [label_to_json(a) for a in outputs],
            "losing": [[label_to_json(v) for v in t] for t in table],
        }

    candidates = {x: tuple(a for a in outputs if (x, x, a, a) not in losing_set) for x in inputs}
    return SyncGame(inputs, outputs, losing_of, candidates, source)


def build_synbcs(sys: BinaryLinearSystem) -> SyncGame:
    """The synchronous BCS game of a GF(2) system: inputs are equations, outputs are
    the global sign vectors, kept implicit as SignVectors(n); players win when both
    answers are local solutions agreeing on shared variables.  Each system builds its
    game once and returns the same SyncGame afterwards; a refusal is raised on every
    call."""
    if sys.n > MAX_GAME_VARIABLES:
        raise BudgetError(f"synBCS output set 2^{sys.n} exceeds the n <= {MAX_GAME_VARIABLES} budget")
    return sys._cached("synbcs", lambda: _build_synbcs(sys))


def _build_synbcs(sys: BinaryLinearSystem) -> SyncGame:
    # the system's own local-solution tuples, in output order
    listed = {i: sys._local_solutions(i) for i in range(1, sys.m + 1)}
    # The closures hold the system's sign table and an equal system with nothing
    # derived, not sys: sys keeps this game, and the reference cycle would leave a
    # dropped system to the cyclic collector.
    table = sys._sign_table()
    spec = BinaryLinearSystem(m=sys.m, n=sys.n, rows=sys.rows, b=sys.b)
    row_of = table.row_of.get

    def losing(keys):
        rows = np.array([row_of(key, -1) for key in keys], dtype=np.intp)
        valid = rows >= 0
        if valid.all():
            return table.disagreement(rows)
        # a key that is no local solution loses every round
        return table.disagreement(np.where(valid, rows, 0)) | ~(valid[:, None] & valid[None, :])

    return SyncGame(
        inputs=tuple(range(1, sys.m + 1)),
        outputs=SignVectors(sys.n),
        losing=losing,
        candidates=listed,
        source=lambda: {"kind": "synbcs", "system": spec.to_json_dict()},
    )


def build_hom_game(g, h) -> SyncGame:
    """The graph homomorphism game from g to h: lose on edges mapped to non-edges
    and on unequal answers to a repeated question."""

    def losing(keys):
        v = np.array([k[0] for k in keys], dtype=np.intp)
        x = np.array([k[1] for k in keys], dtype=np.intp)
        repeated = (v[:, None] == v[None, :]) & (x[:, None] != x[None, :])
        return repeated | (_pair_table(_adjacency, g, v) & ~_pair_table(_adjacency, h, x))

    inputs, outputs = tuple(range(g.n)), tuple(range(h.n))
    return SyncGame(
        inputs=inputs,
        outputs=outputs,
        losing=losing,
        # graphs are loopless, so V(v, v, x, x) = 1 for every output x
        candidates=dict.fromkeys(inputs, outputs),
        source=lambda: {"kind": "hom", "G": g.to_json_dict(), "H": h.to_json_dict()},
    )


def _adjacency(graph, named: np.ndarray) -> np.ndarray:
    """n' x n' bool table of graph.is_edge over the n' distinct vertices named, ascending.
    Only the edges with both endpoints named are scattered in, so the cost is
    O(n'^2 + |E| log n') and never grows with graph.n.  The edges come from the graph's
    own (|E|, 2) array, built once per graph."""
    adjacent = np.zeros((len(named), len(named)), dtype=bool)
    if len(named):
        edges = graph._edge_array
        pos = np.searchsorted(named, edges).clip(max=len(named) - 1)
        u, v = pos[(named[pos] == edges).all(axis=1)].T  # edges with both ends named
        adjacent[u, v] = adjacent[v, u] = True
    return adjacent


def _relation_types(graph, named: np.ndarray) -> np.ndarray:
    """n' x n' int8 table over the n' distinct vertices named, ascending: 0 for equal
    vertices, 1 for adjacent, 2 for distinct non-adjacent."""
    rel = 2 - _adjacency(graph, named).astype(np.int8)
    np.fill_diagonal(rel, 0)  # the named vertices are distinct: equal exactly on the diagonal
    return rel


def _pair_table(table_of, graph, verts: np.ndarray) -> np.ndarray:
    """(K, K) array whose entry (i, j) is entry (verts[i], verts[j]) of table_of(graph,
    named), a table over the n' distinct vertices named: the small table is expanded
    by two 1-D gathers, rows then columns."""
    named, inverse = np.unique(verts, return_inverse=True)
    return table_of(graph, named)[inverse][:, inverse]


def build_iso_game(g, h) -> SyncGame:
    """The (g, h)-isomorphism game: vertex sets tagged ("g", v) / ("h", w) and treated
    as disjoint; an answer must come from the opposite graph and the two
    (g-vertex, h-vertex) pairs named by a round must have matching relation type
    (equal / adjacent / distinct non-adjacent)."""
    labels = tuple(("g", v) for v in range(g.n)) + tuple(("h", w) for w in range(h.n))

    def pair_of(question, answer):
        # (g-vertex, h-vertex) named by one player's round, or None on a type mismatch
        if question[0] == "g" and answer[0] == "h":
            return question[1], answer[1]
        if question[0] == "h" and answer[0] == "g":
            return answer[1], question[1]
        return None

    def losing(keys):
        pairs = [pair_of(p, r) for p, r in keys]
        valid = np.flatnonzero([pair is not None for pair in pairs])
        gv = np.array([pairs[k][0] for k in valid], dtype=np.intp)
        hv = np.array([pairs[k][1] for k in valid], dtype=np.intp)
        block = _pair_table(_relation_types, g, gv) != _pair_table(_relation_types, h, hv)
        if len(valid) == len(keys):
            return block
        # a same-side key loses every round: place the block's rows, then its columns
        rows = np.ones((len(valid), len(keys)), dtype=bool)
        rows[:, valid] = block
        mask = np.ones((len(keys), len(keys)), dtype=bool)
        mask[valid] = rows
        return mask

    # V(p, p, r, r) = 1 exactly when r is on the side opposite p (both pairs are equal)
    g_side, h_side = labels[:g.n], labels[g.n:]
    return SyncGame(
        inputs=labels,
        outputs=labels,
        losing=losing,
        candidates={p: h_side if p[0] == "g" else g_side for p in labels},
        source=lambda: {"kind": "iso", "G": g.to_json_dict(), "H": h.to_json_dict()},
    )


def game_from_json_dict(data: dict) -> SyncGame:
    kind = data.get("kind")
    if not isinstance(kind, (str, type(None))):
        raise ValidationError(f"game kind {kind!r} is not a string")
    required = {"synbcs": ("system",), "hom": ("G", "H"), "iso": ("G", "H")}.get(kind, ())
    missing = [key for key in required if key not in data]
    if missing:
        raise ValidationError(f"{kind} game JSON lacks {missing}")
    if kind == "synbcs":
        return build_synbcs(BinaryLinearSystem.from_json_dict(data["system"]))
    if kind in ("hom", "iso"):
        from .graphs import Graph  # deferred: graphs imports this module at runtime

        g = Graph.from_json_dict(data["G"])
        h = Graph.from_json_dict(data["H"])
        return build_hom_game(g, h) if kind == "hom" else build_iso_game(g, h)
    if kind == "explicit" or "losing" in data:
        # list-only: the losing table names every output explicitly anyway
        try:
            return game_from_losing(
                labels_from_json(data["inputs"], "explicit game inputs"),
                labels_from_json(data["outputs"], "explicit game outputs"),
                labels_from_json(data["losing"], "explicit game losing table",
                                 lambda t: labels_from_json(t, "losing entry")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed explicit game JSON: {exc}") from exc
    raise ValidationError(f"unknown game kind {kind!r}")


@dataclass(frozen=True)
class DeterministicStrategy:
    """A single assignment used by both players of a synchronous game."""

    assignment: dict

    def perfect_for(self, game: SyncGame) -> bool:
        """True when every round wins: each input's label is checked once, then one
        losing mask over the assignment's keys gives the verdict."""
        f = self.assignment
        for x in game.inputs:
            if x not in f:
                raise ValidationError(f"assignment lacks input {x!r}")
            if f[x] not in game.output_set:
                raise ValidationError(f"unknown output label {f[x]!r} for input {x!r}")
        return not game.losing([(x, f[x]) for x in game.inputs]).any()


def node_budget() -> Callable:
    """spend(k=1) counts k nodes of one search, raising BudgetError past DEFAULT_SEARCH_NODES."""
    left = [DEFAULT_SEARCH_NODES]

    def spend(k: int = 1) -> None:
        left[0] -= k
        if left[0] < 0:
            raise BudgetError(f"search exceeded {DEFAULT_SEARCH_NODES} nodes; undecided")

    return spend


def find_deterministic_perfect(game: SyncGame) -> Optional[DeterministicStrategy]:
    """Backtracking search for a perfect deterministic strategy.

    Returns None only when the exhaustive search proved none exists; raises
    BudgetError (an explicit undecided outcome) when the search exceeds
    DEFAULT_SEARCH_NODES nodes or its pair table MAX_PAIR_TABLE_CELLS cells,
    and never for the size of the assignment space alone.  The candidates of
    x are its outputs a with V(x, x, a, a) = 1, as the game lists them (synBCS:
    the local solutions S_i; hom: every output; iso: every label of the
    opposite side; explicit: those its table does not lose).  Inputs are
    processed most constrained first, ties in input order, and partial
    assignments are pruned against every previously assigned input.

    The pruning reads a pair table built once, before the search, from the
    game's losing mask over the K candidate keys (x, a): key k is a Python
    int whose bit j is set when keys k and j win against each other in both
    orders, and each depth passes on the AND of the rows chosen so far.  A
    table of more than MAX_PAIR_TABLE_CELLS cells (K^2) is refused before
    anything is allocated.
    """
    candidates = game.candidates
    if any(not c for c in candidates.values()):
        return None
    order = sorted(game.inputs, key=lambda x: len(candidates[x]))  # stable: ties keep input order
    keys = [(x, a) for x in order for a in candidates[x]]
    cells = len(keys) ** 2
    if cells > MAX_PAIR_TABLE_CELLS:
        raise BudgetError(
            f"pair table of {len(keys)} candidate keys needs {cells} cells > "
            f"{MAX_PAIR_TABLE_CELLS}; undecided"
        )
    losing = game.losing(keys)
    packed = np.packbits(~(losing | losing.T), axis=1, bitorder="little")
    # key k as (its own bit, its compatibility row, its output), cut into one level per depth
    entries = [(1 << k, int.from_bytes(row.tobytes(), "little"), a)
               for k, (row, (_, a)) in enumerate(zip(packed, keys))]
    levels, start = [], 0
    for x in order:
        levels.append(entries[start:start + len(candidates[x])])
        start += len(candidates[x])
    chosen: list = [None] * len(order)
    spend = node_budget()
    # one frame per assigned depth, on a list rather than the interpreter's stack (one
    # per input): (the depth's entries still to try, the keys allowed there)
    frames = [(iter(levels[0]), -1)] if levels else []  # -1: every bit set
    while frames:
        untried, allowed = frames[-1]
        for bit, row, a in untried:
            spend()
            if allowed & bit:
                break
        else:
            frames.pop()  # no entry left: back to the depth before
            continue
        chosen[len(frames) - 1] = a
        if len(frames) == len(levels):
            break
        frames.append((iter(levels[len(frames)]), allowed & row))
    if frames or not levels:
        return DeterministicStrategy(assignment=dict(zip(order, chosen)))
    return None


@dataclass(frozen=True)
class GameRelationReport(ToleranceReport):
    """Residuals of the game-algebra relations for an operator strategy."""

    tol: float
    max_adjoint_defect: float
    max_projection_defect: float
    max_completeness_defect: float
    max_losing_overlap: float
    worst_losing: Optional[tuple]
    n_stored: int
    n_losing_checked: int

    label_fields = ("worst_losing",)
    refusal = (
        "{what} fails the game-algebra relations: max residual {self.max_residual:.3e} "
        "> {self.tol:g} (worst losing tuple {self.worst_losing!r})"
    )

    @property
    def max_residual(self) -> float:
        return max(
            self.max_adjoint_defect,
            self.max_projection_defect,
            self.max_completeness_defect,
            self.max_losing_overlap,
        )


def _check_labels(game: SyncGame, strategy: "OperatorStrategy") -> None:
    """Raise ValidationError unless strategy's inputs are game's and its outputs lie
    among game's: the label part of the relation check, which a conversion reading a
    strategy's keys as the game's labels needs even when it skips the residuals."""
    if set(strategy.inputs) != game.input_set:
        raise ValidationError("strategy inputs do not match game inputs")
    # The strategy checked every stored key against its own labels when it was built,
    # so these two label-set checks also cover the stored keys.  The scan stops at the
    # first label missing from the game: for a longer alphabet, within len(game.outputs).
    outputs = strategy.outputs
    if outputs != game.outputs and not all(a in game.output_set for a in outputs):
        raise ValidationError("strategy outputs are not a subset of game outputs")


def check_game_algebra_relations(
    game: SyncGame, strategy: "OperatorStrategy", tol: float
) -> GameRelationReport:
    """Residuals of the synchronous game algebra relations: each stored operator must
    be a self-adjoint projection, each input's operators must sum to the identity,
    and operator products over losing tuples must vanish.  Absent operators are
    zero, so only stored pairs are scanned: the game's losing mask over the
    stored keys picks the losing pairs, in row-major order, and matops takes
    the norms of their products in one batch over the strategy's stack of
    distinct operators, forming one product per distinct pair of rows (an iso
    strategy stores each BCS projection many times) and giving each pair its
    own norm.  The witness is the first pair attaining the largest overlap,
    None when every overlap is zero.  A product that overflows has overlap inf
    and fails the check."""
    _check_labels(game, strategy)
    defects = strategy.defects()
    keys = strategy.stored_keys()
    left, right = np.nonzero(game.losing(keys))
    overlaps = product_norms(strategy.stack, strategy.ids[left], strategy.ids[right])
    max_losing, worst = 0.0, None
    if overlaps.size and overlaps.max() > 0.0:
        k = int(np.argmax(overlaps))
        (x, a), (y, b) = keys[left[k]], keys[right[k]]
        max_losing, worst = float(overlaps[k]), (x, y, a, b)
    return GameRelationReport(
        tol=tol,
        max_adjoint_defect=defects.max_adjoint,
        max_projection_defect=defects.max_projection,
        max_completeness_defect=defects.max_completeness,
        max_losing_overlap=max_losing,
        worst_losing=worst,
        n_stored=len(keys),
        n_losing_checked=len(left),
    )
