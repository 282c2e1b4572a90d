"""Synchronous games: the data model, the BCS / graph-homomorphism / graph-isomorphism
constructors, exhaustive classical solving, and the game-algebra relation checker.

Predicates are closures over the generating structure; winning tuples of a BCS
game are sparse while losing tuples are astronomically many, so games are never
materialized as losing lists except when loaded from an explicit JSON table.
The generated games also carry a vectorised losing mask over a list of stored
(input, output) keys, which the relation checker, the classical search's pair
table and DeterministicStrategy.perfect_for use in place of one predicate call per
pair; it is computed only when asked for.
"""
from __future__ import annotations

import math
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
    label_set,
    label_to_json,
    labels_from_json,
)
from .matops import product_norms

if TYPE_CHECKING:  # pragma: no cover
    from .strategies import OperatorStrategy

MAX_GAME_VARIABLES = MAX_SIGN_VECTOR_LENGTH  # synBCS outputs are SignVectors(n)
DEFAULT_SEARCH_BITS = 64.0
DEFAULT_SEARCH_NODES = 2_000_000
MAX_SYNC_SCAN_CELLS = 2_000_000
# predicate calls of the search's candidate scan, made only for a game that lists no
# candidates (an explicit game; generated games list theirs): above 3 * 2^20, the
# largest scan the 64-bit search budget allowed while synBCS games had at most 20
# variables
MAX_CANDIDATE_SCAN = 4_000_000
# cells of the search's pair table, K^2 for K candidate keys (x, a): K <= 2000
MAX_PAIR_TABLE_CELLS = 4_000_000
MAX_LOSING_TABLE_CELLS = 1_000_000


@dataclass(frozen=True)
class SyncGame:
    """A synchronous finite input-output game with a total win/lose predicate."""

    inputs: tuple
    outputs: Sequence  # a tuple, or SignVectors for the synBCS alphabet
    predicate: Callable  # (x, y, a, b) -> bool on valid labels
    source: Optional[Callable] = None  # () -> JSON provenance, for generated games
    # keys -> (K, K) bool array, True where (x_i, x_j, a_i, a_j) loses for keys [(x, a)]:
    # the vectorised form of the predicate, attached only by the generating constructors
    # (through _with_mask), so it cannot be passed in disagreeing with the predicate
    _mask_of: Optional[Callable] = field(default=None, init=False, compare=False, repr=False)
    # input -> its winning outputs (those a with V(x, x, a, a) = 1) in output order, so
    # the classical search need not scan the alphabet; attached by the generating
    # constructors only
    _candidates: Optional[dict] = field(default=None, init=False, compare=False, repr=False)

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
        return bool(self.predicate(x, y, a, b))

    def losing_mask(self, keys) -> np.ndarray:
        """(K, K) bool array over (input, output) keys: entry (i, j) is True when the
        round (x_i, x_j, a_i, a_j) loses.  Labels must be valid for the game."""
        if self._mask_of is not None:
            return self._mask_of(keys)
        mask = [not self.predicate(x, y, a, b) for x, a in keys for y, b in keys]
        return np.array(mask, dtype=bool).reshape(len(keys), len(keys))

    def synchronicity_holds(self) -> bool:
        """Full diagonal predicate scan: V(x,x,a,b) = 0 whenever a != b."""
        cells = len(self.inputs) * len(self.outputs) ** 2
        if cells > MAX_SYNC_SCAN_CELLS:
            raise BudgetError(f"synchronicity scan needs {cells} cells > {MAX_SYNC_SCAN_CELLS}")
        for x in self.inputs:
            for a in self.outputs:
                for b in self.outputs:
                    if a != b and self.predicate(x, x, a, b):
                        return False
        return True

    def to_json_dict(self) -> dict:
        if self.source is not None:
            return self.source()
        cells = len(self.inputs) ** 2 * len(self.outputs) ** 2
        if cells > MAX_LOSING_TABLE_CELLS:
            raise BudgetError(f"explicit losing table needs {cells} cells > {MAX_LOSING_TABLE_CELLS}")
        losing = [
            [label_to_json(x), label_to_json(y), label_to_json(a), label_to_json(b)]
            for x in self.inputs
            for y in self.inputs
            for a in self.outputs
            for b in self.outputs
            if not self.predicate(x, y, a, b)
        ]
        return {
            "kind": "explicit",
            "inputs": [label_to_json(x) for x in self.inputs],
            "outputs": [label_to_json(a) for a in self.outputs],
            "losing": losing,
        }


def _with_mask(game: SyncGame, mask_of: Callable, candidates: Optional[dict] = None) -> SyncGame:
    object.__setattr__(game, "_mask_of", mask_of)
    object.__setattr__(game, "_candidates", candidates)
    return game


def game_from_losing(inputs, outputs, losing) -> SyncGame:
    """Build a game from an explicit losing-tuple table, enforcing synchronicity."""
    inputs = tuple(inputs)
    outputs = tuple(outputs)
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
    return SyncGame(
        inputs=inputs,
        outputs=outputs,
        predicate=lambda x, y, a, b: (x, y, a, b) not in losing_set,
    )


def _bcs_disagreement(sys: BinaryLinearSystem, keys) -> np.ndarray:
    """(K, K) bool array over (equation, sign vector) keys of the system: entry (i, j)
    is True when the two sign vectors disagree on a variable both equations contain."""
    # Over the variables two keys' equations share, the signed support rows
    # give (#agreeing - #disagreeing) = #shared exactly when the answers agree.
    support = np.zeros((len(keys), sys.n), dtype=np.int64)
    for k, (i, _) in enumerate(keys):
        support[k, [j - 1 for j in sys.rows[i - 1]]] = 1
    signed = support * np.array([x for _, x in keys], dtype=np.int64).reshape(len(keys), sys.n)
    return (signed @ signed.T) != (support @ support.T)


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
    # The closures hold an equal system with nothing derived, not sys: sys keeps this
    # game, and the reference cycle would leave a dropped system to the cyclic collector.
    spec = BinaryLinearSystem(m=sys.m, n=sys.n, rows=sys.rows, b=sys.b)
    solutions = {i: frozenset(si) for i, si in listed.items()}
    shared = {
        (i, j): tuple(sorted(sys.rows[i - 1] & sys.rows[j - 1]))
        for i in range(1, sys.m + 1)
        for j in range(1, sys.m + 1)
    }

    def predicate(i, j, x, y):
        if x not in solutions[i] or y not in solutions[j]:
            return False
        return all(x[k - 1] == y[k - 1] for k in shared[(i, j)])

    def mask_of(keys):
        valid = np.array([x in solutions[i] for i, x in keys], dtype=bool)
        return ~(valid[:, None] & valid[None, :]) | _bcs_disagreement(spec, keys)

    game = SyncGame(
        inputs=tuple(range(1, sys.m + 1)),
        outputs=SignVectors(sys.n),
        predicate=predicate,
        source=lambda: {"kind": "synbcs", "system": spec.to_json_dict()},
    )
    return _with_mask(game, mask_of, listed)


def build_hom_game(g, h) -> SyncGame:
    """The graph homomorphism game from g to h: lose on edges mapped to non-edges
    and on unequal answers to a repeated question."""

    def predicate(v, w, x, y):
        if v == w and x != y:
            return False
        return not (g.is_edge(v, w) and not h.is_edge(x, y))

    def mask_of(keys):
        v = np.array([k[0] for k in keys], dtype=np.intp)
        x = np.array([k[1] for k in keys], dtype=np.intp)
        repeated = (v[:, None] == v[None, :]) & (x[:, None] != x[None, :])
        return repeated | (_pair_table(_adjacency, g, v) & ~_pair_table(_adjacency, h, x))

    game = SyncGame(
        inputs=tuple(range(g.n)),
        outputs=tuple(range(h.n)),
        predicate=predicate,
        source=lambda: {"kind": "hom", "G": g.to_json_dict(), "H": h.to_json_dict()},
    )
    # graphs are loopless, so V(v, v, x, x) = 1 for every output x
    return _with_mask(game, mask_of, dict.fromkeys(game.inputs, game.outputs))


def _rel(graph, u, v) -> int:
    """0 for equal vertices, 1 for adjacent, 2 for distinct non-adjacent."""
    if u == v:
        return 0
    return 1 if graph.is_edge(u, v) else 2


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
    """n' x n' int8 table of _rel over the n' distinct vertices named, ascending."""
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

    def predicate(p, q, r, s):
        first = pair_of(p, r)
        second = pair_of(q, s)
        if first is None or second is None:
            return False
        return _rel(g, first[0], second[0]) == _rel(h, first[1], second[1])

    def mask_of(keys):
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

    game = SyncGame(
        inputs=labels,
        outputs=labels,
        predicate=predicate,
        source=lambda: {"kind": "iso", "G": g.to_json_dict(), "H": h.to_json_dict()},
    )
    # V(p, p, r, r) = 1 exactly when r is on the side opposite p (both pairs are equal)
    g_side, h_side = labels[:g.n], labels[g.n:]
    candidates = {p: h_side if p[0] == "g" else g_side for p in labels}
    return _with_mask(game, mask_of, candidates)


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
        return not game.losing_mask([(x, f[x]) for x in game.inputs]).any()


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
    BudgetError (an explicit undecided outcome) when the assignment space,
    sum over inputs x of log2 |candidates(x)|, exceeds DEFAULT_SEARCH_BITS
    bits or the search exceeds DEFAULT_SEARCH_NODES nodes.  The candidates of
    x are its outputs a with V(x, x, a, a) = 1: the game's own lists when it
    has them (synBCS: the local solutions S_i; hom: every output; iso: every
    label of the opposite side), else a predicate scan of the whole alphabet,
    refused above MAX_CANDIDATE_SCAN calls and counted as every output in the
    bit budget.  Inputs are processed most constrained first and partial
    assignments are pruned against every previously assigned input.

    The pruning reads a pair table built once, before the search, from the
    game's losing mask over the K candidate keys (x, a): key k is a Python
    int whose bit j is set when keys k and j win against each other in both
    orders, and each depth passes on the AND of the rows chosen so far.  A
    table of more than MAX_PAIR_TABLE_CELLS cells (K^2) is refused before
    anything is allocated.
    """
    n_inputs = len(game.inputs)
    n_outputs = len(game.outputs)
    candidates = game._candidates
    if candidates is None:
        bits = n_inputs * math.log2(max(n_outputs, 1))
    else:
        bits = sum(math.log2(max(len(c), 1)) for c in candidates.values())
    if bits > DEFAULT_SEARCH_BITS:
        raise BudgetError(
            f"search space of {bits:.1f} bits exceeds budget of {DEFAULT_SEARCH_BITS:.1f}; undecided"
        )
    if candidates is None:
        if n_inputs * n_outputs > MAX_CANDIDATE_SCAN:
            raise BudgetError(
                f"candidate scan needs {n_inputs * n_outputs} predicate calls > "
                f"{MAX_CANDIDATE_SCAN}; undecided"
            )
        candidates = {
            x: tuple(a for a in game.outputs if game.predicate(x, x, a, a)) for x in game.inputs
        }
    if any(not c for c in candidates.values()):
        return None
    order = sorted(game.inputs, key=lambda x: (len(candidates[x]), game.inputs.index(x)))
    keys = [(x, a) for x in order for a in candidates[x]]
    cells = len(keys) ** 2
    if cells > MAX_PAIR_TABLE_CELLS:
        raise BudgetError(
            f"pair table of {len(keys)} candidate keys needs {cells} cells > "
            f"{MAX_PAIR_TABLE_CELLS}; undecided"
        )
    losing = game.losing_mask(keys)
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

    def extend(depth: int, allowed: int) -> bool:
        if depth == len(levels):
            return True
        for bit, row, a in levels[depth]:
            spend()
            if allowed & bit:
                chosen[depth] = a
                if extend(depth + 1, allowed & row):
                    return True
        return False

    if extend(0, -1):  # -1: every bit set
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
    left, right = np.nonzero(game.losing_mask(keys))
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
