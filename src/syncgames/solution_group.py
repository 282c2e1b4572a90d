"""Solution groups of GF(2) linear systems: presentations, representation checking,
the central-involution compression trick, and the two explicit conversions between
group representations and perfect BCS strategies.

A representation assigns a unitary w_j to each variable generator and a unitary
to the central involution J; a strategy arises by multiplying the commuting
+-1 spectral projections chi_s(w) = (I + s w) / 2 over each equation's support,
and conversely each variable's unitary is recovered from any equation containing
it as the sign-weighted sum of that equation's projections.

A conversion certifies what it returns: a constructed strategy by the game-algebra
relation checker, a glued representation against every relator.  Of its arguments it
checks only what it reads; their relations are the caller's to check, as the CLI
checks the files it reads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ValidationError, VerificationError
from .games import _check_labels, build_synbcs, check_game_algebra_relations
from .gf2 import BinaryLinearSystem
from .labels import ToleranceReport, labels_from_json
from .matops import (
    DEFAULT_TOL,
    _chunk_slices,
    _chunked_residuals,
    _residuals,
    as_matrix,
    dagger,
    hermitian_eig,
    identity,
    matrix_from_json,
    matrix_to_json,
    residual,
)
from .strategies import OperatorStrategy, deterministic_to_operator


@dataclass(frozen=True)
class GroupPresentation:
    """Generators u_1..u_n, J and the four relator families of a solution group."""

    n_variables: int
    relators: tuple  # words over tokens "u1".."un", "J"

    def export_text(self) -> str:
        """Plain-text presentation: a generators line, then one relator word per line.

        All generators are involutions, so inverses are redundant and omitted.
        """
        gens = " ".join([f"u{j}" for j in range(1, self.n_variables + 1)] + ["J"])
        lines = [f"generators {gens}"]
        lines.extend(" ".join(word) for word in self.relators)
        return "\n".join(lines) + "\n"


def presentation(sys: BinaryLinearSystem) -> GroupPresentation:
    """The solution-group presentation: generator involutions, commutation of
    equation-mates, centrality of J, and one product relator per equation."""
    relators = []
    for j in range(1, sys.n + 1):
        relators.append((f"u{j}", f"u{j}"))
    relators.append(("J", "J"))
    for i in range(1, sys.m + 1):
        support = sorted(sys.rows[i - 1])
        for pos, j in enumerate(support):
            for k in support[pos + 1 :]:
                relators.append((f"u{j}", f"u{k}", f"u{j}", f"u{k}"))
    for j in range(1, sys.n + 1):
        relators.append((f"u{j}", "J", f"u{j}", "J"))
    for i in range(1, sys.m + 1):
        word = tuple(f"u{j}" for j in sorted(sys.rows[i - 1]))
        if sys.b[i - 1]:
            word = word + ("J",)
        relators.append(word)
    return GroupPresentation(n_variables=sys.n, relators=tuple(relators))


@dataclass(frozen=True)
class GroupRep:
    """Unitary images of the variable generators plus the image of J.

    The constructor copies them once into a read-only (n + 1, d, d) array, stack
    (the generators in order, then J); images and j_image are views of its rows.
    """

    images: tuple  # one matrix per variable generator
    j_image: np.ndarray
    stack: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        mats = tuple(as_matrix(w) for w in self.images)
        j = as_matrix(self.j_image)
        d = j.shape[0]
        if d < 1:
            raise ValidationError("representation dimension must be >= 1")
        for k, w in enumerate(mats, start=1):
            if w.shape != (d, d):
                raise ValidationError(f"generator image {k} has shape {w.shape}, expected {(d, d)}")
        stack = np.array(mats + (j,), dtype=complex)
        stack.flags.writeable = False
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "images", tuple(stack[:-1]))
        object.__setattr__(self, "j_image", stack[-1])

    def __reduce__(self):
        # a pickle or copy is rebuilt by the constructor, so its stack is read-only again
        return (GroupRep, (self.images, self.j_image))

    @property
    def dim(self) -> int:
        return self.j_image.shape[0]

    @property
    def n_variables(self) -> int:
        return len(self.images)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "images": [matrix_to_json(w) for w in self.images],
            "j": matrix_to_json(self.j_image),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "GroupRep":
        try:
            return cls(
                images=labels_from_json(
                    data["images"], "representation images", item=matrix_from_json
                ),
                j_image=matrix_from_json(data["j"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed representation JSON: {exc}") from exc


@dataclass(frozen=True)
class RepVerificationReport(ToleranceReport):
    """Relator residuals of a candidate representation, in the tracial 2-norm."""

    tol: float
    unitarity: tuple            # per generator then J: ||w* w - I||_2
    involutions: tuple          # per generator then J: ||w^2 - I||_2
    mate_commutators: tuple     # ((i, j, k), ||[w_j, w_k]||_2)
    j_commutators: tuple        # (j, ||[w_j, J]||_2)
    products: tuple             # (i, ||prod_{j in V_i} w_j - J^{b_i}||_2)
    j_distance: float           # ||J - I||_2

    verdicts = ("j_nontrivial", "max_residual", "passes")
    refusal = "{what} fails the relators: max residual {self.max_residual:.3e} > {self.tol:g}"

    @property
    def j_nontrivial(self) -> bool:
        return self.j_distance > self.tol

    @property
    def max_residual(self) -> float:
        residuals = list(self.unitarity) + list(self.involutions)
        residuals.extend(v for _, v in self.mate_commutators)
        residuals.extend(v for _, v in self.j_commutators)
        residuals.extend(v for _, v in self.products)
        return max(residuals, default=0.0)


def _by_length(seqs) -> list:
    """[(positions, (g, L) intp array of those sequences' entries)] for each length L
    among seqs, in order of first appearance; positions ascend within a group."""
    groups: dict = {}
    for pos, seq in enumerate(seqs):
        groups.setdefault(len(seq), []).append(pos)
    return [(np.array(members, dtype=np.intp),
             np.array([seqs[p] for p in members], dtype=np.intp).reshape(len(members), length))
            for length, members in groups.items()]


def _commutators(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b - b @ a for each matrix of a stack (either side may be one matrix)."""
    return np.matmul(a, b) - np.matmul(b, a)


def _ordered_products(eye: np.ndarray, count: int, length: int, factor):
    """For each chunk sl of range(count), (sl, the products I @ factor(sl, 0) @ ... @
    factor(sl, length - 1)), multiplied left to right from the identity as a loop over
    positions would multiply them one matrix at a time."""
    d = eye.shape[0]
    for sl in _chunk_slices(count, d):
        prod = np.broadcast_to(eye, (sl.stop - sl.start, d, d))
        for pos in range(length):
            prod = np.matmul(prod, factor(sl, pos))
        yield sl, prod


def verify_rep(rep: GroupRep, sys: BinaryLinearSystem, tol: float = DEFAULT_TOL) -> RepVerificationReport:
    """Residuals of every solution-group relator under the candidate representation.

    Each relator family is one chunked batch over rep.stack: unitarity and
    involutions of every generator and J, the commutators of equation-mates and
    with J, and each equation's product, multiplied from I in sorted support
    order; the residuals are those of the relators taken one at a time.
    """
    if rep.n_variables != sys.n:
        raise ValidationError(f"representation has {rep.n_variables} generators, system has {sys.n}")
    n, d, stack, j = sys.n, rep.dim, rep.stack, rep.j_image
    eye = identity(d)
    supports = [sorted(row) for row in sys.rows]
    mates = [(i, a, b) for i, support in enumerate(supports, start=1)
             for pos, a in enumerate(support) for b in support[pos + 1:]]
    left = np.array([a for _, a, _ in mates], dtype=np.intp) - 1
    right = np.array([b for _, _, b in mates], dtype=np.intp) - 1
    odd = np.array(sys.b, dtype=bool)
    products = np.empty(sys.m)
    # Huge finite entries may overflow; _residuals turns that into a failed relator.
    with np.errstate(over="ignore", invalid="ignore"):
        unitarity = _chunked_residuals(
            n + 1, d, lambda sl: np.matmul(dagger(stack[sl]), stack[sl]) - eye)
        involutions = _chunked_residuals(
            n + 1, d, lambda sl: np.matmul(stack[sl], stack[sl]) - eye)
        mate = _chunked_residuals(
            len(mates), d, lambda sl: _commutators(stack[left[sl]], stack[right[sl]]))
        j_comm = _chunked_residuals(n, d, lambda sl: _commutators(stack[sl], j))
        for eqs, ids in _by_length(supports):
            ids = ids - 1
            for sl, prod in _ordered_products(eye, len(eqs), ids.shape[1],
                                              lambda sl, pos: stack[ids[sl, pos]]):
                targets = np.where(odd[eqs[sl], None, None], j, eye)
                products[eqs[sl]] = _residuals(prod - targets)
        j_distance = residual(j - eye)
    return RepVerificationReport(
        tol=tol,
        unitarity=tuple(unitarity.tolist()),
        involutions=tuple(involutions.tolist()),
        mate_commutators=tuple(zip(mates, mate.tolist())),
        j_commutators=tuple(zip(range(1, n + 1), j_comm.tolist())),
        products=tuple(zip(range(1, sys.m + 1), products.tolist())),
        j_distance=j_distance,
    )


def normalize_j(rep: GroupRep, tol: float = DEFAULT_TOL) -> GroupRep:
    """Compress a representation to the -1 eigenspace of the image of J.

    The compressed representation has j_image exactly -I.  Raises when the -1
    eigenspace is trivial (the image of J is the identity) or when the
    eigenprojection fails to commute with some generator image within tol,
    naming the first such generator.
    """
    eye = identity(rep.dim)
    j = rep.j_image
    # Huge finite entries may overflow; residual() reads that as inf, which fails a check.
    with np.errstate(over="ignore", invalid="ignore"):
        if residual(j + eye) <= tol:
            return rep
        if residual(j @ j - eye) > tol:
            raise ValidationError("image of J is not an involution; cannot compress")
        eig = hermitian_eig((j + dagger(j)) / 2)
        selected = np.abs(eig.eigenvalues + 1.0) <= 0.5
        if not np.any(selected):
            raise ValidationError("image of J has no -1 eigenspace; nothing to compress to")
        cols = eig.eigenvectors[:, selected]
        proj = cols @ dagger(cols)
        gens = rep.stack[:-1]
        resid = _chunked_residuals(len(gens), rep.dim, lambda sl: _commutators(proj, gens[sl]))
        failing = np.flatnonzero(resid > tol)
        if failing.size:
            k = int(failing[0])
            raise ValidationError(
                f"-1 eigenprojection fails to commute with generator {k + 1} "
                f"(residual {float(resid[k]):.3e})"
            )
        compressed = tuple(dagger(cols) @ w @ cols for w in rep.images)
    return GroupRep(images=compressed, j_image=-identity(cols.shape[1]))


def strategy_from_rep(
    rep: GroupRep,
    sys: BinaryLinearSystem,
    tol: float = DEFAULT_TOL,
    eps: Optional[float] = None,
) -> OperatorStrategy:
    """Perfect BCS strategy from a representation with j_image = -I.

    E_{i,x} is the product over the equation's support, in sorted order, of the
    spectral-half projections (I + x_j w_j) / 2 picked by x, formed in chunked
    batches over every x in S_i of every equation of one support length;
    near-zero solutions (2-norm <= 1e-14) are omitted.  Of rep only the generator
    count and J = -I are checked; the result is certified instead: its PVMs and
    game-algebra relations at tol, and each losing overlap squared, for projections
    ||E F||_2^2 = tr(E F) / d (the probability of that losing tuple; every
    (x, x, a != b) is one, so this certifies synchronicity too), at most eps.
    """
    if not sys.covers_all_columns:
        raise ValidationError(
            f"variables {sorted(sys.untouched_variables)} appear in no equation; "
            "the surjection hypothesis fails"
        )
    eye = identity(rep.dim)
    if residual(rep.j_image + eye) > tol:
        raise ValidationError("representation must have j_image = -I; apply normalize_j first")
    if rep.n_variables != sys.n:
        raise ValidationError(f"representation has {rep.n_variables} generators, system has {sys.n}")
    eps = tol if eps is None else eps

    game = build_synbcs(sys)
    table = sys._sign_table()
    keys = list(table.row_of)
    stack = rep.stack
    pvms = {}
    for members, ids in _by_length([sorted(sys.rows[i - 1]) for i, _ in keys]):
        ids = ids - 1
        signs = np.take_along_axis(table.signs[members], ids, axis=1).astype(complex)

        def factor(sl, pos):
            # chi_{+-1}(w) = (I +- w)/2, exact for involutions; no eigensolver needed
            return (eye + signs[sl, pos, None, None] * stack[ids[sl, pos]]) / 2

        # Huge finite entries may overflow; the strategy refuses the non-finite result.
        with np.errstate(over="ignore", invalid="ignore"):
            for sl, e in _ordered_products(eye, len(members), ids.shape[1], factor):
                e = (e + dagger(e)) / 2
                keep = _residuals(e) > 1e-14  # keep the stored family sparse
                for r, mat in zip(members[sl][keep].tolist(), e[keep]):
                    pvms[keys[r]] = mat
    strategy = OperatorStrategy(dim=rep.dim, inputs=game.inputs, outputs=game.outputs, pvms=pvms)
    strategy.validate(tol)
    report = check_game_algebra_relations(game, strategy, tol)
    lost = report.max_losing_overlap ** 2
    if lost > eps:
        raise VerificationError(
            f"constructed correlation loses with probability {lost:.3e} at {report.worst_losing!r}"
        )
    report.require("constructed strategy")
    return strategy


def glue_rep(
    sys: BinaryLinearSystem,
    rows,
    d: int,
    choice_tol: float,
    tol: float,
    tail: str,
) -> GroupRep:
    """The representation glued from each equation's row of projections.

    rows[i - 1] lists equation i's (sign vector, operator) pairs in summation
    order.  Variable k's candidate from equation i is the symmetrised sum of
    x[k - 1] * operator over that row, added in row order; every support
    variable's candidate of an equation is formed in one chunked batch.  A
    variable in no equation maps to the identity.  Candidates of one variable
    must agree within choice_tol in the 2-norm (they agree exactly under a
    faithful trace), or a VerificationError names the worst pair over all
    variables (the first such pair, by variable, then equations) and ends with
    tail; every pair's spread is one chunked batch, which refuses a non-finite
    candidate or difference as norm2 does.  The images are the candidates of each
    variable's first equation, j_image is -I, and the result is verified against
    every relator at 10 * tol.
    """
    supports = [sorted(row) for row in sys.rows]
    cands = np.empty((sum(map(len, supports)), d, d), dtype=complex)
    where: dict = {}  # variable -> [(equation, row of cands)], equations ascending
    offset = 0
    for i, support in enumerate(supports, start=1):
        row = rows[i - 1]
        for pos, k in enumerate(support):
            where.setdefault(k, []).append((i, offset + pos))
        signs = np.array([x for x, _ in row], dtype=complex).reshape(len(row), sys.n)
        signs = signs[:, np.array(support) - 1]
        for sl in _chunk_slices(len(support), d):
            v = np.zeros((sl.stop - sl.start, d, d), dtype=complex)
            with np.errstate(over="ignore", invalid="ignore"):
                for r, (_, e) in enumerate(row):
                    v = v + signs[r, sl, None, None] * e
                cands[offset + sl.start:offset + sl.stop] = (v + dagger(v)) / 2
        offset += len(support)
    pairs = [(k, i, i2, a, b) for k in range(1, sys.n + 1)
             for pos, (i, a) in enumerate(where.get(k, ())) for i2, b in where[k][pos + 1:]]
    left = np.array([p[3] for p in pairs], dtype=np.intp)
    right = np.array([p[4] for p in pairs], dtype=np.intp)
    spreads = np.empty(len(pairs))
    for sl in _chunk_slices(len(pairs), d):
        with np.errstate(over="ignore", invalid="ignore"):
            diff = cands[left[sl]] - cands[right[sl]]
        spreads[sl] = _residuals(diff)
        if np.isinf(spreads[sl]).any() and not np.all(np.isfinite(diff)):
            raise ValidationError("matrix has non-finite entries")  # as norm2 refuses it
    worst = float(spreads.max()) if len(pairs) else 0.0
    if worst > choice_tol:
        k, i, i2, _, _ = pairs[int(np.argmax(spreads))]
        raise VerificationError(
            f"variable {k}: equations {i} and {i2} disagree by {worst:.3e} > {choice_tol:.3e}; "
            + tail
        )
    images = tuple(cands[where[k][0][1]] if k in where else identity(d)
                   for k in range(1, sys.n + 1))
    rep = GroupRep(images=images, j_image=-identity(d))
    verify_rep(rep, sys, 10 * tol).require("recovered representation")
    return rep


def rep_from_strategy(
    s: OperatorStrategy,
    sys: BinaryLinearSystem,
    tol: float = DEFAULT_TOL,
) -> GroupRep:
    """Recover a solution-group representation from a perfect BCS strategy.

    Each variable's unitary is the sign-weighted sum of the projections of any
    equation containing it; glue_rep computes it from every admissible
    equation and certifies the pairwise differences small (they vanish exactly
    under a faithful trace), so a large spread flags a defective input
    strategy; of s only the labels are checked.  j_image is fixed to -I.
    """
    if not sys.covers_all_columns:
        raise ValidationError(
            f"variables {sorted(sys.untouched_variables)} appear in no equation"
        )
    _check_labels(build_synbcs(sys), s)
    rows = [[(x, s.matrix(i, x)) for x in sys._local_solutions(i)] for i in range(1, sys.m + 1)]
    s_max = max(len(row) for row in rows)
    choice_tol = math.sqrt(8.0 * s_max * s_max * tol)
    return glue_rep(sys, rows, s.dim, choice_tol, tol,
                    "the strategy is only approximately perfect")


def strategy_from_solution(sys: BinaryLinearSystem, x) -> OperatorStrategy:
    """The d = 1 strategy of a classical solution: both players answer the local
    restriction of x (support entries kept, off-support entries set to +1)."""
    x = tuple(x)
    # the synBCS alphabet's own rule: int entries +-1 only, so no bool or float slips in
    if len(x) != sys.n or any(type(v) is not int or v not in (-1, 1) for v in x):
        raise ValidationError(f"not a sign vector of length {sys.n}")
    for i in range(1, sys.m + 1):
        if not sys.equation_holds(i, x):
            raise ValidationError(f"vector fails equation {i}; not a classical solution")
    game = build_synbcs(sys)
    local = {
        i: tuple(x[j - 1] if j in sys.rows[i - 1] else 1 for j in range(1, sys.n + 1))
        for i in game.inputs
    }
    return deterministic_to_operator(game.inputs, game.outputs, local)
