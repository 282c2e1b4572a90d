"""Solution groups of GF(2) linear systems: presentations, representation checking,
the central-involution compression trick, and the two explicit conversions between
group representations and perfect BCS strategies.

A representation assigns a unitary w_j to each variable generator and a unitary
to the central involution J; a strategy arises by multiplying the commuting
+-1 spectral projections chi_s(w) = (I + s w) / 2 over each equation's support,
and conversely each variable's unitary is recovered from any equation containing
it as the sign-weighted sum of that equation's projections.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError, VerificationError
from .games import build_synbcs, check_game_algebra_relations
from .gf2 import BinaryLinearSystem, enumerate_si
from .labels import labels_from_json
from .matops import (
    DEFAULT_TOL,
    as_matrix,
    dagger,
    hermitian_eig,
    identity,
    matrix_from_json,
    matrix_to_json,
    norm2,
    residual,
)
from .strategies import (
    OperatorStrategy,
    correlation_from_tracial,
    deterministic_to_operator,
    is_perfect,
    is_synchronous,
)


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
    """Unitary images of the variable generators plus the image of J."""

    images: tuple  # one matrix per variable generator
    j_image: np.ndarray

    def __post_init__(self):
        mats = tuple(as_matrix(w) for w in self.images)
        j = as_matrix(self.j_image)
        d = j.shape[0]
        for k, w in enumerate(mats, start=1):
            if w.shape != (d, d):
                raise ValidationError(f"generator image {k} has shape {w.shape}, expected {(d, d)}")
        object.__setattr__(self, "images", mats)
        object.__setattr__(self, "j_image", j)

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
class RepVerificationReport:
    """Relator residuals of a candidate representation, in the tracial 2-norm."""

    tol: float
    unitarity: tuple            # per generator then J: ||w* w - I||_2
    involutions: tuple          # per generator then J: ||w^2 - I||_2
    mate_commutators: tuple     # ((i, j, k), ||[w_j, w_k]||_2)
    j_commutators: tuple        # (j, ||[w_j, J]||_2)
    products: tuple             # (i, ||prod_{j in V_i} w_j - J^{b_i}||_2)
    j_distance: float           # ||J - I||_2

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

    @property
    def passes(self) -> bool:
        return self.max_residual <= self.tol

    def require(self, what: str) -> None:
        """Raise VerificationError, naming what was checked, unless every relator passes."""
        if not self.passes:
            raise VerificationError(
                f"{what} fails the relators: max residual {self.max_residual:.3e} > {self.tol:g}"
            )

    def as_dict(self) -> dict:
        return {
            "tol": self.tol,
            "unitarity": list(self.unitarity),
            "involutions": list(self.involutions),
            "mate_commutators": [[list(key), v] for key, v in self.mate_commutators],
            "j_commutators": [[j, v] for j, v in self.j_commutators],
            "products": [[i, v] for i, v in self.products],
            "j_distance": self.j_distance,
            "j_nontrivial": self.j_nontrivial,
            "max_residual": self.max_residual,
            "passes": self.passes,
        }


def verify_rep(rep: GroupRep, sys: BinaryLinearSystem, tol: float = DEFAULT_TOL) -> RepVerificationReport:
    """Residuals of every solution-group relator under the candidate representation."""
    if rep.n_variables != sys.n:
        raise ValidationError(f"representation has {rep.n_variables} generators, system has {sys.n}")
    eye = identity(rep.dim)
    mats = list(rep.images) + [rep.j_image]
    # Huge finite entries may overflow; residual() turns that into a failed relator.
    with np.errstate(over="ignore", invalid="ignore"):
        unitarity = tuple(residual(dagger(w) @ w - eye) for w in mats)
        involutions = tuple(residual(w @ w - eye) for w in mats)
        mate = []
        for i in range(1, sys.m + 1):
            support = sorted(sys.rows[i - 1])
            for pos, j in enumerate(support):
                wj = rep.images[j - 1]
                for k in support[pos + 1 :]:
                    wk = rep.images[k - 1]
                    mate.append(((i, j, k), residual(wj @ wk - wk @ wj)))
        j_comm = tuple(
            (j, residual(rep.images[j - 1] @ rep.j_image - rep.j_image @ rep.images[j - 1]))
            for j in range(1, sys.n + 1)
        )
        products = []
        for i in range(1, sys.m + 1):
            prod = eye
            for j in sorted(sys.rows[i - 1]):
                prod = prod @ rep.images[j - 1]
            target = rep.j_image if sys.b[i - 1] else eye
            products.append((i, residual(prod - target)))
        j_distance = residual(rep.j_image - eye)
    return RepVerificationReport(
        tol=tol,
        unitarity=unitarity,
        involutions=involutions,
        mate_commutators=tuple(mate),
        j_commutators=j_comm,
        products=tuple(products),
        j_distance=j_distance,
    )


def normalize_j(rep: GroupRep, tol: float = DEFAULT_TOL) -> GroupRep:
    """Compress a representation to the -1 eigenspace of the image of J.

    The compressed representation has j_image exactly -I.  Raises when the -1
    eigenspace is trivial (the image of J is the identity) or when the
    eigenprojection fails to commute with some generator image within tol.
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
        for k, w in enumerate(rep.images, start=1):
            resid = residual(proj @ w - w @ proj)
            if resid > tol:
                raise ValidationError(
                    f"-1 eigenprojection fails to commute with generator {k} (residual {resid:.3e})"
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

    E_{i,x} is the product over the equation's support of the spectral-half
    projections picked by x; off-support solutions are zero and omitted.  The
    construction certifies (through correlation_from_tracial) that each
    equation's projections sum to the identity and that the resulting tracial
    correlation is a synchronous perfect correlation for the BCS game.
    """
    if not sys.covers_all_columns:
        raise ValidationError(
            f"variables {sorted(sys.untouched_variables)} appear in no equation; "
            "the surjection hypothesis fails"
        )
    eye = identity(rep.dim)
    if residual(rep.j_image + eye) > tol:
        raise ValidationError("representation must have j_image = -I; apply normalize_j first")
    verify_rep(rep, sys, tol).require("representation")
    eps = tol if eps is None else eps

    game = build_synbcs(sys)
    pvms = {}
    for i in range(1, sys.m + 1):
        support = sorted(sys.rows[i - 1])
        for x in enumerate_si(sys, i):
            e = eye
            for j in support:
                # chi_{+-1}(w) = (I +- w)/2, exact for involutions; no eigensolver needed
                e = e @ ((eye + x[j - 1] * rep.images[j - 1]) / 2)
            e = (e + dagger(e)) / 2
            if norm2(e) > 1e-14:  # keep the stored family sparse
                pvms[(i, x)] = e
    # correlation_from_tracial validates the PVMs, completeness included, at tol
    strategy = OperatorStrategy(dim=rep.dim, inputs=game.inputs, outputs=game.outputs, pvms=pvms)
    corr = correlation_from_tracial(strategy, tol)
    if not is_synchronous(corr, eps):
        raise VerificationError("constructed correlation is not synchronous")
    if not is_perfect(corr, game, eps):
        worst, witness = corr.max_losing(game)
        raise VerificationError(
            f"constructed correlation loses with probability {worst:.3e} at {witness!r}"
        )
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
    x[k - 1] * operator over that row; a variable in no equation maps to the
    identity.  Candidates of one variable must agree within choice_tol in the
    2-norm (they agree exactly under a faithful trace), or a VerificationError
    names the worst pair over all variables and ends with tail.  The images are
    the candidates of each variable's first equation, j_image is -I, and the
    result is verified against every relator at 10 * tol.
    """
    images = []
    worst, witness = 0.0, None
    for k in range(1, sys.n + 1):
        mats = []
        for i in range(1, sys.m + 1):
            if k in sys.rows[i - 1]:
                v = np.zeros((d, d), dtype=complex)
                for x, e in rows[i - 1]:
                    v = v + x[k - 1] * e
                mats.append((i, (v + dagger(v)) / 2))
        for a, (i, va) in enumerate(mats):
            for i2, vb in mats[a + 1 :]:
                diff = norm2(va - vb)
                if diff > worst:
                    worst, witness = diff, (k, i, i2)
        images.append(mats[0][1] if mats else identity(d))
    if worst > choice_tol:
        k, i, i2 = witness
        raise VerificationError(
            f"variable {k}: equations {i} and {i2} disagree by {worst:.3e} > {choice_tol:.3e}; "
            + tail
        )
    rep = GroupRep(images=tuple(images), j_image=-identity(d))
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
    strategy.  j_image is fixed to -I.
    """
    if not sys.covers_all_columns:
        raise ValidationError(
            f"variables {sorted(sys.untouched_variables)} appear in no equation"
        )
    game = build_synbcs(sys)
    check_game_algebra_relations(game, s, tol).require("strategy")
    rows = [[(x, s.matrix(i, x)) for x in enumerate_si(sys, i)] for i in range(1, sys.m + 1)]
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
