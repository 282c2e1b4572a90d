"""Operator strategies and correlations: tracial and bipartite correlation evaluation,
synchronicity/perfectness tests, and the Schmidt-block decomposition turning a
finite-dimensional bipartite synchronous strategy into a convex combination of
tracial strategies.
"""
from __future__ import annotations

import hashlib
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import TYPE_CHECKING

import numpy as np

from .errors import ClusterAmbiguityError, ValidationError, VerificationError
from .labels import (
    Labels,
    SignVectors,
    as_alphabet,
    complex_from_json,
    int_from_json,
    label_from_json,
    label_to_json,
    labels_from_json,
    outputs_from_json,
    outputs_to_json,
    unique_dict,
)
from .matops import (
    DEFAULT_TOL,
    _residuals,
    as_matrix,
    dagger,
    hermitian_eig,
    matrix_from_json,
    matrix_to_json,
    pvm_defects,
)

if TYPE_CHECKING:  # pragma: no cover
    from .games import SyncGame

DEFAULT_CLUSTER_TOL = 1e-7
MAX_DENSE_CORRELATION_CELLS = 4_000_000  # a larger correlation is written as sparse entries


def _pvms_to_json(s: OperatorStrategy) -> list:
    """The {"input", "output", "matrix"} entries of a strategy's stored operators."""
    return [
        dict(input=label_to_json(x), output=label_to_json(a), matrix=matrix_to_json(s.pvms[(x, a)]))
        for x, a in s.stored_keys()
    ]


def _pvm_entry_from_json(e) -> tuple:
    key = label_from_json(e["input"]), label_from_json(e["output"])
    return key, matrix_from_json(e["matrix"])


def _pvms_from_json(entries, what: str) -> dict:
    """Inverse of _pvms_to_json: (input, output) -> operator."""
    return unique_dict(labels_from_json(entries, what, item=_pvm_entry_from_json), what)


@dataclass(frozen=True)
class PVMDefects:
    max_adjoint: float
    max_projection: float
    max_completeness: float

    @property
    def max(self) -> float:
        return max(self.max_adjoint, self.max_projection, self.max_completeness)


@dataclass(frozen=True)
class OperatorStrategy:
    """A family of projection-valued measures with the normalized matrix trace.

    pvms maps (input, output) to a dim x dim operator; missing keys are zero,
    so exponentially large output sets stay cheap when only the winning
    supports carry mass.

    Each distinct operator is stored once.  The constructor copies the given
    operators into one read-only (D, dim, dim) array, stack, and ids[k] is the
    row of stack holding the operator of stored_keys()[k]; every row is some
    key's, so D is at most the number of stored keys.  Operators are shared by
    content: a blake2b digest of the bytes, a hit confirmed byte for byte, so a
    strategy reloaded from JSON or rotated key by key shares its rows too.  The
    constructor numbers rows in stored-key order of first use (a swapped
    isomorphism strategy keeps the original's numbers, and one built by
    graphs.iso_strategy_from_bcs the BCS strategy's).
    After construction pvms is a read-only mapping, in stored_keys() order, to
    read-only views of the rows, one view object per row.
    """

    dim: int
    inputs: Labels
    outputs: Sequence  # Labels, or SignVectors for the synBCS alphabet
    pvms: Mapping
    stack: np.ndarray = field(init=False, compare=False, repr=False)
    ids: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("strategy dimension must be >= 1")
        object.__setattr__(self, "inputs", as_alphabet(self.inputs, "strategy inputs"))
        object.__setattr__(self, "outputs", as_alphabet(self.outputs, "strategy outputs"))
        inputs, outputs, dim = self.inputs, self.outputs, self.dim
        for x, a in self.pvms:
            if x not in inputs:
                raise ValidationError(f"PVM key has unknown input {x!r}")
            if a not in outputs:
                raise ValidationError(f"PVM key has unknown output {a!r}")
        keys = sorted(self.pvms, key=lambda key: (inputs.index(key[0]), outputs.index(key[1])))
        distinct: list = []
        by_digest: dict = {}  # blake2b digest -> rows with that digest
        ids = np.empty(len(keys), dtype=np.intp)
        for k, key in enumerate(keys):
            m = np.ascontiguousarray(as_matrix(self.pvms[key]))
            if m.shape != (dim, dim):
                raise ValidationError(
                    f"operator for {key!r} has shape {m.shape}, expected {(dim, dim)}"
                )
            same = by_digest.setdefault(hashlib.blake2b(m, digest_size=32).digest(), [])
            raw = m.view(np.uint8)
            row = next((r for r in same if np.array_equal(raw, distinct[r].view(np.uint8))), None)
            if row is None:
                row = len(distinct)
                distinct.append(m)
                same.append(row)
            ids[k] = row
        stack = np.array(distinct, dtype=complex).reshape(len(distinct), dim, dim)
        stack.flags.writeable = False
        ids.flags.writeable = False
        self._set_rows(keys, stack, ids)

    def _set_rows(self, keys: list, stack: np.ndarray, ids: np.ndarray) -> None:
        views = list(stack)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "pvms", MappingProxyType(
            {key: views[row] for key, row in zip(keys, ids.tolist())}
        ))

    def __reduce__(self):
        # a pickle or copy is rebuilt by the constructor: validated, read-only, nothing derived
        return (OperatorStrategy, (self.dim, self.inputs, self.outputs, dict(self.pvms)))

    @classmethod
    def _over_rows(cls, dim: int, inputs, outputs, keys, stack: np.ndarray,
                   ids: np.ndarray) -> "OperatorStrategy":
        """The strategy mapping keys[t] to stack[ids[t]] over another strategy's
        read-only stack, shared as it is: nothing is copied, re-hashed or re-validated,
        so every key must be a valid (input, output) label pair and every row of stack
        some key's row.  Rows keep their numbers, which need not follow this
        strategy's key order."""
        self = cls.__new__(cls)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "inputs", as_alphabet(inputs, "strategy inputs"))
        object.__setattr__(self, "outputs", as_alphabet(outputs, "strategy outputs"))
        order = sorted(range(len(keys)), key=lambda t: (
            self.inputs.index(keys[t][0]), self.outputs.index(keys[t][1])))
        sorted_ids = np.asarray(ids)[order]
        sorted_ids.flags.writeable = False
        self._set_rows([keys[t] for t in order], stack, sorted_ids)
        return self

    def matrix(self, x, a) -> np.ndarray:
        mat = self.pvms.get((x, a))
        return np.zeros((self.dim, self.dim), dtype=complex) if mat is None else mat

    def stored_keys(self) -> list:
        """The (input, output) keys with a stored operator, in input order, then output order."""
        return list(self.pvms)

    def stacked(self) -> tuple:
        """(stored_keys(), their operators in that order as a (K, dim, dim) array): the
        read-only stack itself when key k has row k, else a gathered copy."""
        in_order = np.array_equal(self.ids, np.arange(len(self.stack)))
        return self.stored_keys(), self.stack if in_order else self.stack[self.ids]

    @cached_property
    def _pvm_pass(self) -> tuple:
        """(PVMDefects, which rows of stack are exactly Hermitian): one pvm_defects pass."""
        rows = [self.inputs.index(x) for x, _ in self.pvms]
        *defects, hermitian = pvm_defects(self.stack, self.ids, rows, len(self.inputs), self.dim)
        hermitian.flags.writeable = False
        return PVMDefects(*defects), hermitian

    def defects(self) -> PVMDefects:
        """The largest adjoint, idempotency and completeness residuals: adjoint and
        idempotency once per distinct operator, each input's operators summed in
        stored_keys() order.  Computed once per strategy, whose operators are
        read-only; a residual that overflows (huge finite entries) is inf, so it
        fails every check."""
        return self._pvm_pass[0]

    @property
    def _hermitian(self) -> np.ndarray:
        """Read-only flags, one per row of stack: True where the row equals its adjoint
        entry for entry.  Taken in the same pass as defects()."""
        return self._pvm_pass[1]

    def validate(self, tol: float = DEFAULT_TOL) -> PVMDefects:
        """Raise unless every PVM defect is within tol; return the defects."""
        d = self.defects()
        if d.max > tol:
            raise VerificationError(
                "PVM invariants fail: "
                f"adjoint {d.max_adjoint:.3e}, projection {d.max_projection:.3e}, "
                f"completeness {d.max_completeness:.3e} vs tol {tol:g}"
            )
        return d

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "inputs": [label_to_json(x) for x in self.inputs],
            "outputs": outputs_to_json(self.outputs),
            "pvms": _pvms_to_json(self),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "OperatorStrategy":
        try:
            return cls(
                dim=int_from_json(data["dim"], "strategy dim"),
                inputs=labels_from_json(data["inputs"], "strategy inputs"),
                outputs=outputs_from_json(data["outputs"]),
                pvms=_pvms_from_json(data["pvms"], "strategy pvms"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed strategy JSON: {exc}") from exc


@dataclass(frozen=True)
class BipartiteStrategy:
    """Two PVM families plus a shared entangled state vector on the tensor space.

    The state is indexed row-major: component (i, j) of the dim_a x dim_b grid
    sits at position i * dim_b + j.
    """

    dim_a: int
    dim_b: int
    inputs: Labels
    outputs: Sequence
    alice: dict
    bob: dict
    state: np.ndarray
    # each side as an OperatorStrategy, validated once here; alice and bob are their pvms
    _alice: OperatorStrategy = field(init=False, compare=False, repr=False)
    _bob: OperatorStrategy = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "inputs", as_alphabet(self.inputs, "bipartite strategy inputs"))
        object.__setattr__(self, "outputs", as_alphabet(self.outputs, "bipartite strategy outputs"))
        for side, dim in (("alice", self.dim_a), ("bob", self.dim_b)):
            strategy = OperatorStrategy(dim, self.inputs, self.outputs, getattr(self, side))
            object.__setattr__(self, "_" + side, strategy)
            object.__setattr__(self, side, strategy.pvms)
        psi = np.asarray(self.state, dtype=complex).reshape(-1)
        if psi.size != self.dim_a * self.dim_b:
            raise ValidationError(
                f"state has {psi.size} components, expected {self.dim_a * self.dim_b}"
            )
        with np.errstate(over="ignore"):  # a huge entry gives norm inf, which fails below
            nrm = float(np.linalg.norm(psi))
        if not abs(nrm - 1.0) <= 1e-12:  # written so that a NaN norm fails too
            raise ValidationError(f"state norm {nrm!r} is not 1 within 1e-12")
        object.__setattr__(self, "state", psi)

    def __reduce__(self):
        # as OperatorStrategy's: the constructor rebuilds and validates both sides
        return (BipartiteStrategy, (self.dim_a, self.dim_b, self.inputs, self.outputs,
                                    dict(self.alice), dict(self.bob), self.state))

    def state_matrix(self) -> np.ndarray:
        return self.state.reshape(self.dim_a, self.dim_b)

    def alice_strategy(self) -> OperatorStrategy:
        return self._alice

    def bob_strategy(self) -> OperatorStrategy:
        return self._bob

    def to_json_dict(self) -> dict:
        return {
            "dim_a": self.dim_a,
            "dim_b": self.dim_b,
            "inputs": [label_to_json(x) for x in self.inputs],
            "outputs": outputs_to_json(self.outputs),
            "alice": _pvms_to_json(self.alice_strategy()),
            "bob": _pvms_to_json(self.bob_strategy()),
            "state": [[float(z.real), float(z.imag)] for z in self.state],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BipartiteStrategy":
        try:
            return cls(
                dim_a=int_from_json(data["dim_a"], "dim_a"),
                dim_b=int_from_json(data["dim_b"], "dim_b"),
                inputs=labels_from_json(data["inputs"], "bipartite strategy inputs"),
                outputs=outputs_from_json(data["outputs"]),
                alice=_pvms_from_json(data["alice"], "bipartite strategy alice"),
                bob=_pvms_from_json(data["bob"], "bipartite strategy bob"),
                state=np.array(labels_from_json(
                    data["state"], "bipartite state",
                    item=lambda z: complex_from_json(z, "bipartite state entry"),
                ), dtype=complex),
            )
        except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed bipartite strategy JSON: {exc}") from exc


@dataclass(frozen=True)
class Correlation:
    """Conditional probabilities p(a, b | x, y), stored sparsely: missing entries are 0."""

    inputs: Labels
    outputs: Sequence
    p: dict  # (x, y, a, b) -> float

    def __post_init__(self):
        object.__setattr__(self, "inputs", as_alphabet(self.inputs, "correlation inputs"))
        object.__setattr__(self, "outputs", as_alphabet(self.outputs, "correlation outputs"))
        object.__setattr__(self, "p", dict(self.p))

    @cached_property
    def _row_sums(self) -> dict:
        sums: dict = {}
        for (x, y, _a, _b), val in self.p.items():
            sums[(x, y)] = sums.get((x, y), 0.0) + val
        return sums

    def value(self, x, y, a, b) -> float:
        return self.p.get((x, y, a, b), 0.0)

    def row_sum(self, x, y) -> float:
        return self._row_sums.get((x, y), 0.0)

    def max_range_violation(self) -> float:
        """How far the entries stray outside [0, 1]; NaN when an entry is NaN."""
        vals = np.fromiter(self.p.values(), dtype=float, count=len(self.p))
        return float(np.max(np.maximum(-vals, vals - 1.0), initial=0.0))

    def max_normalization_defect(self) -> float:
        defects = [abs(self.row_sum(x, y) - 1.0) for x in self.inputs for y in self.inputs]
        return max(defects, default=0.0)

    def max_sync_violation(self) -> tuple:
        """(max, witness) over diagonal entries p(a, b | x, x) with a != b."""
        worst, witness = 0.0, None
        for (x, y, a, b), val in self.p.items():
            if x == y and a != b and val > worst:
                worst, witness = val, (x, y, a, b)
        return worst, witness

    def max_losing(self, game: "SyncGame") -> tuple:
        """(max, witness) over stored entries on losing tuples of the game: one losing
        mask over the distinct (x, a) and (y, b) keys of the entries picks them, and
        the witness is the first entry, in dict order, holding the largest value
        above 0 (None when there is none; a NaN value never counts)."""
        keys = {}
        for x, y, a, b in self.p:
            keys.setdefault((x, a), len(keys))
            keys.setdefault((y, b), len(keys))
        for x, a in keys:
            if x not in game.inputs:
                raise ValidationError(f"unknown input label {x!r}")
            if a not in game.outputs:
                raise ValidationError(f"unknown output label {a!r}")
        if not keys:
            return 0.0, None
        rows = [keys[(x, a)] for x, _, a, _ in self.p]
        cols = [keys[(y, b)] for _, y, _, b in self.p]
        losing = game.losing(list(keys))[rows, cols]
        vals = np.fromiter(self.p.values(), dtype=float, count=len(self.p))
        vals = np.where(losing & (vals > 0.0), vals, 0.0)
        k = int(np.argmax(vals))
        if vals[k] > 0.0:
            return float(vals[k]), list(self.p)[k]
        return 0.0, None

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        if not self.max_range_violation() <= tol:  # written so that a NaN entry fails too
            raise VerificationError(
                f"correlation entry outside [-tol, 1+tol]: violation {self.max_range_violation():.3e}"
            )
        defect = self.max_normalization_defect()
        if defect > tol:
            raise VerificationError(f"correlation rows sum to 1 only within {defect:.3e} > {tol:g}")

    def to_dense(self) -> np.ndarray:
        n, m = len(self.inputs), len(self.outputs)
        xi, ai = self.inputs.index, self.outputs.index
        dense = np.zeros((n, n, m, m))
        for (x, y, a, b), val in self.p.items():
            dense[xi(x), xi(y), ai(a), ai(b)] = val
        return dense

    def to_json_dict(self) -> dict:
        base = {
            "n": len(self.inputs),
            "m": len(self.outputs),
            "inputs": [label_to_json(x) for x in self.inputs],
            "outputs": outputs_to_json(self.outputs),
        }
        cells = len(self.inputs) ** 2 * len(self.outputs) ** 2
        if cells <= MAX_DENSE_CORRELATION_CELLS:
            base["p"] = self.to_dense().tolist()
        else:
            base["entries"] = [
                [label_to_json(x), label_to_json(y), label_to_json(a), label_to_json(b), val]
                for (x, y, a, b), val in sorted(
                    self.p.items(),
                    key=lambda kv: tuple(map(repr, kv[0])),
                )
            ]
        return base

    @classmethod
    def from_json_dict(cls, data: dict) -> "Correlation":
        try:
            inputs = labels_from_json(data["inputs"], "correlation inputs")
            outputs = outputs_from_json(data["outputs"])
            counts = [int_from_json(data[key], f"correlation {key}") for key in ("n", "m")]
            if counts != [len(inputs), len(outputs)]:
                raise ValidationError(f"correlation n, m = {counts} do not match the labels listed")
            if "p" in data:
                dense = np.asarray(data["p"])
                shape = (len(inputs), len(inputs), len(outputs), len(outputs))
                if dense.size == 0 and 0 in shape:  # tolist() drops the shape of an array without cells
                    dense = dense.reshape(shape)
                if dense.dtype.kind not in "iuf" or dense.shape != shape:
                    raise ValidationError(f"dense correlation must be a {shape} array of numbers")
                p = _dense_entries(dense.astype(float), inputs, outputs)
            else:
                # the listed labels, each once: a repeat is refused by the constructor, after
                # every entry is read
                listed_x = frozenset(inputs)
                listed_a = outputs if isinstance(outputs, SignVectors) else frozenset(outputs)

                def entry(e) -> tuple:
                    *labels, val = e
                    x, y, a, b = map(label_from_json, labels)
                    if not ({x, y} <= listed_x and a in listed_a and b in listed_a):
                        raise ValidationError(f"unlisted label in correlation entry {[x, y, a, b]!r}")
                    if isinstance(val, bool) or not isinstance(val, (int, float)):
                        raise ValidationError(f"correlation value {val!r} is not a number")
                    return (x, y, a, b), float(val)

                p = unique_dict(labels_from_json(data["entries"], "correlation entries", item=entry),
                                "correlation entries")
            if not np.isfinite(np.fromiter(p.values(), dtype=float, count=len(p))).all():
                raise ValidationError("correlation has a NaN or infinite value")
            return cls(inputs=inputs, outputs=outputs, p=p)
        except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed correlation JSON: {exc}") from exc


def _dense_entries(dense: np.ndarray, inputs, outputs) -> dict:
    """(x, y, a, b) -> value for each nonzero cell of a dense [x][y][a][b] float array, in
    row-major order, as a loop over x, y, a and b would insert them: -0.0 is zero, NaN is not."""
    cells = np.nonzero(dense)
    return {(inputs[ix], inputs[iy], outputs[ia], outputs[ib]): val
            for ix, iy, ia, ib, val in zip(*(c.tolist() for c in cells), dense[cells].tolist())}


def _trace_table(inputs, outputs, row_keys, rows, col_keys, cols, d) -> Correlation:
    """p(x, y, a, b) = tr(rows[i] cols[j]^T) / d over keys (x, a) = row_keys[i], (y, b) =
    col_keys[j] in key order, from one Gram product of the (K, n, n) stacks and with no
    square root, so as exact as a per-pair trace; a non-real trace (beyond 1e-9) raises."""
    n = rows.shape[-1]
    traces = rows.reshape(len(row_keys), n * n) @ cols.reshape(len(col_keys), n * n).T / d
    nonreal = np.flatnonzero(np.abs(traces.imag) > 1e-9)
    if nonreal.size:
        i, j = divmod(int(nonreal[0]), len(col_keys))
        (x, a), (y, b) = row_keys[i], col_keys[j]
        raise VerificationError(f"non-real trace {complex(traces[i, j])!r} at {(x, y, a, b)!r}")
    real = traces.real.tolist()
    p = {
        (x, y, a, b): real[i][j]
        for i, (x, a) in enumerate(row_keys)
        for j, (y, b) in enumerate(col_keys)
    }
    return Correlation(inputs=inputs, outputs=outputs, p=p)


def correlation_from_tracial(s: OperatorStrategy, tol: float = DEFAULT_TOL) -> Correlation:
    """p(a, b | x, y) = tr(E_{x,a} E_{y,b}) / d under the normalized trace, over the
    stored operators in stored_keys() order."""
    defects = s.validate(tol)
    keys, stack = s.stacked()
    corr = _trace_table(s.inputs, s.outputs, keys, stack, keys, np.swapaxes(stack, 1, 2), s.dim)
    corr.validate(max(tol, 10 * defects.max))
    return corr


def correlation_from_bipartite(s: BipartiteStrategy, tol: float = DEFAULT_TOL) -> Correlation:
    """p(a, b | x, y) = <(E_{x,a} (x) F_{y,b}) psi, psi> = tr(m* E_{x,a} m F_{y,b}^T) for the
    state matrix m, over Alice's and Bob's stored operators in stored_keys() order."""
    s.alice_strategy().validate(tol)
    s.bob_strategy().validate(tol)
    m = s.state_matrix()
    a_keys, a_stack = s.alice_strategy().stacked()
    b_keys, b_stack = s.bob_strategy().stacked()
    rows = dagger(m) @ a_stack @ m
    corr = _trace_table(s.inputs, s.outputs, a_keys, rows, b_keys, b_stack, 1)
    corr.validate(1e-10 if tol <= 1e-10 else tol)
    return corr


def is_synchronous(corr: Correlation, tol: float = DEFAULT_TOL) -> bool:
    return corr.max_sync_violation()[0] <= tol


def is_perfect(corr: Correlation, game: "SyncGame", eps: float = DEFAULT_TOL) -> bool:
    return corr.max_losing(game)[0] <= eps


def deterministic_to_operator(inputs, outputs, assignment: dict) -> OperatorStrategy:
    """Embed a deterministic assignment as the d = 1 operator strategy."""
    one = np.ones((1, 1), dtype=complex)
    pvms = {(x, assignment[x]): one for x in inputs}
    return OperatorStrategy(dim=1, inputs=inputs, outputs=outputs, pvms=pvms)


def sync_vector_defect(s: BipartiteStrategy) -> float:
    """max over (x, a) stored on either side of || (E (x) I) psi - (I (x) F) psi ||, the
    Frobenius norm of E m - m F^T for the state matrix m (an absent operator is zero),
    from one batched product per side over its distinct operators; zero certifies the
    synchronous-state condition needed by the block decomposition."""
    m = s.state_matrix()
    alice, bob = s.alice_strategy(), s.bob_strategy()
    zero = np.zeros((1, s.dim_a, s.dim_b), dtype=complex)  # row -1: an absent operator
    left = np.concatenate([np.matmul(alice.stack, m), zero])
    right = np.concatenate([np.matmul(m, np.swapaxes(bob.stack, 1, 2)), zero])
    a_row = dict(zip(alice.pvms, alice.ids.tolist()))
    b_row = dict(zip(bob.pvms, bob.ids.tolist()))
    keys = list(a_row | b_row)
    diffs = (left[[a_row.get(key, -1) for key in keys]]
             - right[[b_row.get(key, -1) for key in keys]])
    return float(np.linalg.norm(diffs, axis=(1, 2)).max(initial=0.0))


def _schmidt_levels(sigma: np.ndarray, cluster_tol: float) -> list:
    """Group the descending Schmidt coefficients into equal-value level sets.

    Consecutive coefficients closer than cluster_tol are merged; coefficients
    at or below cluster_tol are treated as zero and dropped.
    """
    levels: list = []
    for k, val in enumerate(sigma):
        if val <= cluster_tol:
            break
        if levels and levels[-1] and sigma[levels[-1][-1]] - val < cluster_tol:
            levels[-1].append(k)
        else:
            levels.append([k])
    return levels


def _compress(stack: np.ndarray, cols: np.ndarray) -> tuple:
    """(cols* E cols, ||P E (I - P)||_2) for each operator E of a (D, d, d) stack, where
    the d x L columns cols are orthonormal and P = cols cols*: one batched product per
    operator, associated as (cols* E) cols.  Since ||P E (I - P)||_2 = ||cols* E (I - P)||_F
    / sqrt(d), the residual is that of cols* E - (cols* E cols) cols*; for Hermitian E it
    is ||(I - P) E P||_2, zero exactly when P commutes with E."""
    left = dagger(cols) @ stack
    small = left @ cols
    return small, _residuals(left - small @ dagger(cols))


def decompose_qs(
    s: BipartiteStrategy,
    tol: float = DEFAULT_TOL,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> list:
    """Decompose a synchronous bipartite strategy into weighted tracial blocks.

    Computes the Schmidt decomposition of the dim_a x dim_b state matrix (the
    local dimensions may differ), groups equal Schmidt coefficients into level
    sets, verifies that each level's subspace reduces every stored operator on
    both sides, each under its own normalized trace, and returns (weight,
    compressed tracial strategy) pairs whose convex recombination reproduces the
    input correlation within 10 * tol.  The level subspaces are certified rather
    than trusted: a reduction residual ||P E (I - P)||_2 above tol raises
    ClusterAmbiguityError naming the first input, in input order, with such an
    operator on either side, and that input's largest residual.  Each level
    takes one batched product per side over its distinct operators (_compress),
    and keys sharing an operator share its compression.
    """
    defect = sync_vector_defect(s)
    if defect > tol:
        raise VerificationError(
            f"synchronous-state defect {defect:.3e} > {tol:g}; not a synchronous strategy"
        )
    m = s.state_matrix()
    eig = hermitian_eig(m @ dagger(m))
    order = np.argsort(eig.eigenvalues)[::-1]
    lam = np.clip(eig.eigenvalues[order], 0.0, None)
    vecs = eig.eigenvectors[:, order]
    sigma = np.sqrt(lam)
    levels = _schmidt_levels(sigma, cluster_tol)
    if not levels:
        raise VerificationError("state has no Schmidt coefficient above the clustering tolerance")

    alice, bob = s.alice_strategy(), s.bob_strategy()
    # the input position of each stored key: Alice's keys, then Bob's
    key_inputs = np.array([s.inputs.index(x) for side in (alice, bob) for x, _ in side.pvms],
                          dtype=np.intp)
    blocks = []
    for level in levels:
        a_cols = vecs[:, level]
        b_cols = np.conj(dagger(m) @ a_cols) / sigma[level][None, :]
        gram = dagger(b_cols) @ b_cols
        if float(np.max(np.abs(gram - np.eye(len(level))))) > 1e-6:
            raise ClusterAmbiguityError("Schmidt partners of a level set are not orthonormal")
        small, res_a = _compress(alice.stack, a_cols)
        _, res_b = _compress(bob.stack, b_cols)
        per_input = np.zeros(len(s.inputs))  # each input's largest residual, both sides
        np.maximum.at(per_input, key_inputs, np.concatenate([res_a[alice.ids], res_b[bob.ids]]))
        failing = np.flatnonzero(per_input > tol)
        if failing.size:
            k = int(failing[0])
            raise ClusterAmbiguityError(
                f"level set of size {len(level)} fails the reduction check at input "
                f"{s.inputs[k]!r} (residual {per_input[k]:.3e} > {tol:g}); Schmidt clusters are ambiguous"
            )
        weight = float(np.sum(lam[level]))
        small = (small + dagger(small)) / 2
        nonzero, views = _residuals(small) > 0.0, list(small)  # one view object per row
        compressed = {key: views[row] for key, row in zip(alice.pvms, alice.ids.tolist())
                      if nonzero[row]}
        block = OperatorStrategy(
            dim=len(level), inputs=s.inputs, outputs=s.outputs, pvms=compressed
        )
        block.validate(10 * tol)
        blocks.append((weight, block))

    # Certify the convex recombination against the bipartite correlation.
    target = correlation_from_bipartite(s, tol=tol)
    recombined: dict = {}
    for weight, block in blocks:
        part = correlation_from_tracial(block, tol=10 * tol)
        for key, val in part.p.items():
            recombined[key] = recombined.get(key, 0.0) + weight * val
    worst = 0.0
    for key in set(recombined) | set(target.p):
        worst = max(worst, abs(recombined.get(key, 0.0) - target.p.get(key, 0.0)))
    if worst > 10 * tol:
        raise VerificationError(
            f"block recombination misses the input correlation by {worst:.3e} > {10 * tol:g}"
        )
    return blocks
