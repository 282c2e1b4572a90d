"""Synchronous games: the data model, the BCS / graph-homomorphism / graph-isomorphism
constructors, exhaustive classical solving, and the game-algebra relation checker.

Predicates are closures over the generating structure; winning tuples of a BCS
game are sparse while losing tuples are astronomically many, so games are never
materialized as losing lists except when loaded from an explicit JSON table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product as iter_product
from typing import TYPE_CHECKING, Callable, Optional

from .errors import BudgetError, ValidationError, VerificationError
from .gf2 import BinaryLinearSystem, enumerate_si
from .labels import label_from_json, label_to_json
from .matops import norm2

if TYPE_CHECKING:  # pragma: no cover
    from .strategies import OperatorStrategy

MAX_GAME_VARIABLES = 20
DEFAULT_SEARCH_BITS = 64.0
DEFAULT_SEARCH_NODES = 2_000_000


@dataclass(frozen=True)
class SyncGame:
    """A synchronous finite input-output game with a total win/lose predicate."""

    inputs: tuple
    outputs: tuple
    predicate: Callable  # (x, y, a, b) -> bool on valid labels
    kind: str = "custom"
    source: Optional[dict] = None  # JSON provenance for generated games

    @cached_property
    def input_set(self) -> frozenset:
        return frozenset(self.inputs)

    @cached_property
    def output_set(self) -> frozenset:
        return frozenset(self.outputs)

    def wins(self, x, y, a, b) -> bool:
        if x not in self.input_set or y not in self.input_set:
            raise ValidationError(f"unknown input label in ({x!r}, {y!r})")
        if a not in self.output_set or b not in self.output_set:
            raise ValidationError(f"unknown output label in ({a!r}, {b!r})")
        return bool(self.predicate(x, y, a, b))

    def synchronicity_holds(self, max_cells: int = 2_000_000) -> bool:
        """Full diagonal predicate scan: V(x,x,a,b) = 0 whenever a != b."""
        cells = len(self.inputs) * len(self.outputs) ** 2
        if cells > max_cells:
            raise BudgetError(f"synchronicity scan needs {cells} cells > {max_cells}")
        for x in self.inputs:
            for a in self.outputs:
                for b in self.outputs:
                    if a != b and self.predicate(x, x, a, b):
                        return False
        return True

    def to_json_dict(self, max_cells: int = 1_000_000) -> dict:
        if self.source is not None:
            return dict(self.source)
        cells = len(self.inputs) ** 2 * len(self.outputs) ** 2
        if cells > max_cells:
            raise BudgetError(f"explicit losing table needs {cells} cells > {max_cells}")
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
        kind="explicit",
    )


def build_synbcs(sys: BinaryLinearSystem, max_vars: int = MAX_GAME_VARIABLES) -> SyncGame:
    """The synchronous BCS game of a GF(2) system: inputs are equations, outputs are
    global sign vectors; players win when both answers are local solutions agreeing
    on shared variables."""
    if sys.n > max_vars:
        raise BudgetError(f"synBCS output set 2^{sys.n} exceeds the n <= {max_vars} budget")
    solutions = {i: frozenset(enumerate_si(sys, i)) for i in range(1, sys.m + 1)}
    shared = {
        (i, j): tuple(sorted(sys.rows[i - 1] & sys.rows[j - 1]))
        for i in range(1, sys.m + 1)
        for j in range(1, sys.m + 1)
    }

    def predicate(i, j, x, y):
        if x not in solutions[i] or y not in solutions[j]:
            return False
        return all(x[k - 1] == y[k - 1] for k in shared[(i, j)])

    return SyncGame(
        inputs=tuple(range(1, sys.m + 1)),
        outputs=tuple(iter_product((-1, 1), repeat=sys.n)),
        predicate=predicate,
        kind="synbcs",
        source={"kind": "synbcs", "system": sys.to_json_dict()},
    )


def build_hom_game(g, h) -> SyncGame:
    """The graph homomorphism game from g to h: lose on edges mapped to non-edges
    and on unequal answers to a repeated question."""

    def predicate(v, w, x, y):
        if v == w and x != y:
            return False
        return not (g.is_edge(v, w) and not h.is_edge(x, y))

    return SyncGame(
        inputs=tuple(range(g.n)),
        outputs=tuple(range(h.n)),
        predicate=predicate,
        kind="hom",
        source={"kind": "hom", "G": g.to_json_dict(), "H": h.to_json_dict()},
    )


def _rel(graph, u, v) -> int:
    """0 for equal vertices, 1 for adjacent, 2 for distinct non-adjacent."""
    if u == v:
        return 0
    return 1 if graph.is_edge(u, v) else 2


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

    return SyncGame(
        inputs=labels,
        outputs=labels,
        predicate=predicate,
        kind="iso",
        source={"kind": "iso", "G": g.to_json_dict(), "H": h.to_json_dict()},
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
        try:
            return game_from_losing(
                [label_from_json(x) for x in data["inputs"]],
                [label_from_json(a) for a in data["outputs"]],
                [tuple(label_from_json(part) for part in t) for t in data["losing"]],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed explicit game JSON: {exc}") from exc
    raise ValidationError(f"unknown game kind {kind!r}")


@dataclass(frozen=True)
class DeterministicStrategy:
    """A single assignment used by both players of a synchronous game."""

    assignment: dict

    def perfect_for(self, game: SyncGame) -> bool:
        f = self.assignment
        return all(
            game.wins(x, y, f[x], f[y]) for x in game.inputs for y in game.inputs
        )


def find_deterministic_perfect(
    game: SyncGame,
    *,
    max_bits: float = DEFAULT_SEARCH_BITS,
    max_nodes: int = DEFAULT_SEARCH_NODES,
) -> Optional[DeterministicStrategy]:
    """Backtracking search for a perfect deterministic strategy.

    Returns None only when the exhaustive search proved none exists; raises
    BudgetError (an explicit undecided outcome) when the assignment space
    exceeds max_bits or the node budget runs out.  Inputs are processed most
    constrained first and partial assignments are pruned against every
    previously assigned input.
    """
    n_inputs = len(game.inputs)
    n_outputs = len(game.outputs)
    bits = n_inputs * math.log2(max(n_outputs, 1))
    if bits > max_bits:
        raise BudgetError(
            f"search space of {bits:.1f} bits exceeds budget of {max_bits:.1f}; undecided"
        )
    candidates = {
        x: tuple(a for a in game.outputs if game.predicate(x, x, a, a)) for x in game.inputs
    }
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
            if nodes > max_nodes:
                raise BudgetError(f"search exceeded {max_nodes} nodes; undecided")
            if all(
                game.predicate(x, y, a, b) and game.predicate(y, x, b, a)
                for y, b in assignment.items()
            ):
                assignment[x] = a
                if extend(depth + 1):
                    return True
                del assignment[x]
        return False

    if extend(0):
        return DeterministicStrategy(assignment=dict(assignment))
    return None


@dataclass(frozen=True)
class GameRelationReport:
    """Residuals of the game-algebra relations for an operator strategy."""

    tol: float
    max_adjoint_defect: float
    max_projection_defect: float
    max_completeness_defect: float
    max_losing_overlap: float
    worst_losing: Optional[tuple]
    n_stored: int
    n_losing_checked: int

    @property
    def max_residual(self) -> float:
        return max(
            self.max_adjoint_defect,
            self.max_projection_defect,
            self.max_completeness_defect,
            self.max_losing_overlap,
        )

    @property
    def passes(self) -> bool:
        return self.max_residual <= self.tol

    def require(self, what: str) -> None:
        """Raise VerificationError, naming what was checked, unless the relations hold."""
        if not self.passes:
            raise VerificationError(
                f"{what} fails the game-algebra relations: max residual {self.max_residual:.3e} "
                f"> {self.tol:g} (worst losing tuple {self.worst_losing!r})"
            )

    def as_dict(self) -> dict:
        return {
            "tol": self.tol,
            "max_adjoint_defect": self.max_adjoint_defect,
            "max_projection_defect": self.max_projection_defect,
            "max_completeness_defect": self.max_completeness_defect,
            "max_losing_overlap": self.max_losing_overlap,
            "worst_losing": None
            if self.worst_losing is None
            else [label_to_json(part) for part in self.worst_losing],
            "n_stored": self.n_stored,
            "n_losing_checked": self.n_losing_checked,
            "passes": self.passes,
        }


def check_game_algebra_relations(
    game: SyncGame, strategy: "OperatorStrategy", tol: float
) -> GameRelationReport:
    """Residuals of the synchronous game algebra relations: each stored operator must
    be a self-adjoint projection, each input's operators must sum to the identity,
    and operator products over losing tuples must vanish.  Absent operators are
    zero, so only stored pairs are scanned."""
    if set(strategy.inputs) != set(game.inputs):
        raise ValidationError("strategy inputs do not match game inputs")
    if not set(strategy.outputs) <= set(game.outputs):
        raise ValidationError("strategy outputs are not a subset of game outputs")
    for x, a in strategy.pvms:
        if x not in game.input_set or a not in game.output_set:
            raise ValidationError(f"stored operator ({x!r}, {a!r}) outside the game's index set")

    defects = strategy.defects()
    keys = strategy.stored_keys()
    max_losing = 0.0
    worst = None
    n_checked = 0
    for x, a in keys:
        e = strategy.pvms[(x, a)]
        for y, b in keys:
            if game.predicate(x, y, a, b):
                continue
            n_checked += 1
            overlap = norm2(e @ strategy.pvms[(y, b)])
            if overlap > max_losing:
                max_losing = overlap
                worst = (x, y, a, b)
    return GameRelationReport(
        tol=tol,
        max_adjoint_defect=defects.max_adjoint,
        max_projection_defect=defects.max_projection,
        max_completeness_defect=defects.max_completeness,
        max_losing_overlap=max_losing,
        worst_losing=worst,
        n_stored=len(keys),
        n_losing_checked=n_checked,
    )
