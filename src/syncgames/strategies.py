"""Operator strategies and correlations: tracial and bipartite correlation evaluation,
synchronicity/perfectness tests, and the Schmidt-block decomposition turning a
finite-dimensional bipartite synchronous strategy into a convex combination of
tracial strategies.
"""
from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from numbers import Real
from types import MappingProxyType

import numpy as np

from .errors import ClusterAmbiguityError, ValidationError, VerificationError
from .games import SyncGame, _check_labels
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
    ProductStore,
    _require_eig_dim,
    _residuals,
    as_matrix,
    dagger,
    matrix_from_json,
    matrix_to_json,
    pvm_defects,
    row_checks,
)

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
    row of stack holding the operator of stored_keys()[k]; the constructor
    stores only the keys' operators, so D is at most the number of stored keys,
    while a strategy sharing another's stack may hold rows no key names.
    Operators are shared by their bytes, the keys of one dict (so -0.0 is not
    0.0), and a strategy reloaded from JSON or rotated key by key shares its
    rows too.  The constructor numbers rows in stored-key order of first use (a
    swapped isomorphism strategy keeps the original's numbers, and one built by
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
    # the strategy whose stack _over_rows built this one over; its row checks are read
    _source: OperatorStrategy | None = field(init=False, default=None, compare=False, repr=False)

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
        rows: dict = {}  # operator bytes -> its row
        ids = np.empty(len(keys), dtype=np.intp)
        for k, key in enumerate(keys):
            m = np.ascontiguousarray(as_matrix(self.pvms[key]))
            if m.shape != (dim, dim):
                raise ValidationError(
                    f"operator for {key!r} has shape {m.shape}, expected {(dim, dim)}"
                )
            row = ids[k] = rows.setdefault(m.tobytes(), len(distinct))
            if row == len(distinct):
                distinct.append(m)
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
    def _over_rows(cls, source: OperatorStrategy, inputs, outputs, keys, ids) -> OperatorStrategy:
        """The strategy mapping keys[t] to source.stack[ids[t]] over source's read-only
        stack, shared as it is with its row checks: nothing is copied, keyed by its
        bytes or re-validated, so every key must be a valid (input, output) label pair.
        Rows keep their numbers, which need not follow this strategy's key order, and a
        row no key names is never read: every reader goes through ids."""
        self = cls.__new__(cls)
        object.__setattr__(self, "dim", source.dim)
        object.__setattr__(self, "inputs", as_alphabet(inputs, "strategy inputs"))
        object.__setattr__(self, "outputs", as_alphabet(outputs, "strategy outputs"))
        order = sorted(range(len(keys)), key=lambda t: (
            self.inputs.index(keys[t][0]), self.outputs.index(keys[t][1])))
        sorted_ids = np.asarray(ids, dtype=np.intp)[order]
        sorted_ids.flags.writeable = False
        self._set_rows([keys[t] for t in order], source.stack, sorted_ids)
        object.__setattr__(self, "_source", source)
        return self

    def matrix(self, x, a) -> np.ndarray:
        mat = self.pvms.get((x, a))
        return np.zeros((self.dim, self.dim), dtype=complex) if mat is None else mat

    def stored_keys(self) -> list:
        """The (input, output) keys with a stored operator, in input order, then output order."""
        return list(self.pvms)

    @cached_property
    def _row_checks(self) -> tuple:
        """matops.row_checks of stack, taken once per stack, when first read: a
        strategy built over another's stack holds that strategy's arrays."""
        source = self._source
        return row_checks(self.stack, self.dim) if source is None else source._row_checks

    @cached_property
    def _products(self) -> ProductStore:
        """The matops.product_norms store of stack: every norm a relation check has
        formed over it, kept per stack as _row_checks is, whose Hermitian flags fold
        its pairs.  A strategy built over another's stack reads that strategy's store."""
        source = self._source
        return ProductStore() if source is None else source._products

    @cached_property
    def _defects(self) -> PVMDefects:
        rows = [self.inputs.index(x) for x, _ in self.pvms]
        return PVMDefects(*pvm_defects(self.stack, self._row_checks, self.ids, rows,
                                       len(self.inputs), self.dim))

    def defects(self) -> PVMDefects:
        """The largest adjoint, idempotency and completeness residuals: adjoint and
        idempotency once per distinct operator, each input's operators summed in
        stored_keys() order.  Computed once per strategy, whose operators are
        read-only; a residual that overflows (huge finite entries) is inf, so it
        fails every check."""
        return self._defects

    @property
    def _hermitian(self) -> np.ndarray:
        """Read-only flags, one per row of stack: True where the row equals its adjoint
        entry for entry.  Read from the row checks that defects() reads."""
        return self._row_checks[2]

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
    """Conditional probabilities p(a, b | x, y), stored sparsely: missing entries are 0.

    The constructor walks its own copy of p once, in dict order, refusing a label outside
    the alphabets and a value that is not a real number (a boolean included), and every
    reader reads that walk: _keys, the distinct (x, a) in first use (an entry's (x, a)
    before its (y, b)); _ends, each entry's two key numbers; _cells, the input positions
    (x, y) and output positions (a, b) of each entry; _vals, its value.  A correlation
    of strategies is built by _over_table, which reads the same walk off its trace table."""

    inputs: Labels
    outputs: Sequence
    p: dict  # (x, y, a, b) -> float
    _keys: list = field(init=False, compare=False, repr=False)
    _ends: np.ndarray = field(init=False, compare=False, repr=False)  # (2, E)
    _cells: np.ndarray = field(init=False, compare=False, repr=False)  # (2, 2, E)
    _vals: np.ndarray = field(init=False, compare=False, repr=False)  # (E,)

    def __post_init__(self):
        object.__setattr__(self, "inputs", as_alphabet(self.inputs, "correlation inputs"))
        object.__setattr__(self, "outputs", as_alphabet(self.outputs, "correlation outputs"))
        object.__setattr__(self, "p", dict(self.p))
        keys: dict = {}  # (x, a) -> its number
        ends = np.array([keys.setdefault(key, len(keys)) for x, y, a, b in self.p
                         for key in ((x, a), (y, b))], dtype=np.intp).reshape(-1, 2)
        for x, a in keys:
            if x not in self.inputs:
                raise ValidationError(f"correlation entry has unknown input {x!r}")
            if a not in self.outputs:
                raise ValidationError(f"correlation entry has unknown output {a!r}")
        for val in self.p.values():
            # a float passes at once: an isinstance check against the Real ABC is far slower
            if type(val) is not float and (isinstance(val, bool) or not isinstance(val, Real)):
                raise ValidationError(f"correlation value {val!r} is not a number")
        self._set_walk(list(keys), ends.T, np.fromiter(self.p.values(), float, len(self.p)))

    def _set_walk(self, keys: list, ends: np.ndarray, vals: np.ndarray) -> None:
        """Set the walk from its keys, (2, E) ends and values; _cells gathers the keys' positions."""
        positions = np.array([(self.inputs.index(x), self.outputs.index(a)) for x, a in keys],
                             dtype=np.intp).reshape(-1, 2)
        object.__setattr__(self, "_keys", keys)
        object.__setattr__(self, "_ends", ends)
        object.__setattr__(self, "_cells", positions[ends.T].T)
        object.__setattr__(self, "_vals", vals)

    @classmethod
    def _over_table(cls, inputs, outputs, row_keys, col_keys, table: np.ndarray) -> Correlation:
        """The correlation p(x, y, a, b) = table[i, j] for the row keys (x, a) = row_keys[i]
        and the column keys (y, b) = col_keys[j], entries in row-major order, with the walk
        the constructor would take read off the table: _keys holds row key 0, then the
        column keys, then the other row keys, each once (the first use of a row-major
        walk); _ends each entry's row number and column number, the row numbers repeated
        and the column numbers tiled; _cells the positions of each distinct key, gathered
        by _ends; _vals the table, raveled.  No entry is walked, p is not copied and no
        value's type is checked: the keys must be the stored keys of strategies over these
        inputs and outputs, which checked every label when they were built and hold each
        key once, and table a real float array, its values floats, in a new dict."""
        self = cls.__new__(cls)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)
        real = table.tolist()
        object.__setattr__(self, "p", {
            (x, y, a, b): real[i][j]
            for i, (x, a) in enumerate(row_keys)
            for j, (y, b) in enumerate(col_keys)
        })
        if not (len(row_keys) and len(col_keys)):
            row_keys = col_keys = []  # no entry, so the walk names no key
        keys = list(dict.fromkeys([*row_keys[:1], *col_keys, *row_keys[1:]]))
        number = {key: k for k, key in enumerate(keys)}
        rows = np.array([number[key] for key in row_keys], dtype=np.intp)
        cols = np.array([number[key] for key in col_keys], dtype=np.intp)
        self._set_walk(keys, np.array([np.repeat(rows, len(cols)), np.tile(cols, len(rows))]),
                       table.ravel())
        return self

    def value(self, x, y, a, b) -> float:
        return self.p.get((x, y, a, b), 0.0)

    def max_range_violation(self) -> float:
        """How far the entries stray outside [0, 1]; NaN when an entry is NaN."""
        return float(np.max(np.maximum(-self._vals, self._vals - 1.0), initial=0.0))

    def max_normalization_defect(self) -> float:
        """max |sum_{a,b} p(a, b | x, y) - 1| over (x, y) in input order, each row summed in
        dict order, by Python's max (so a NaN defect counts only in first place)."""
        n, (x, y) = len(self.inputs), self._cells[0]
        sums = np.zeros(n * n)
        np.add.at(sums, x * n + y, self._vals)
        return max(np.abs(sums - 1.0).tolist(), default=0.0)

    def _first_max(self, picked: np.ndarray) -> tuple:
        """(max, witness): the first picked entry, in dict order, holding the largest value
        above 0; (0.0, None) when there is none, and a NaN value never counts."""
        vals = np.where(picked & (self._vals > 0.0), self._vals, 0.0)
        if not vals.any():
            return 0.0, None
        k = int(np.argmax(vals))
        return float(vals[k]), next(islice(self.p, k, None))

    def max_sync_violation(self) -> tuple:
        """(max, witness) over diagonal entries p(a, b | x, x) with a != b."""
        (x, y), (a, b) = self._cells
        return self._first_max((x == y) & (a != b))

    def max_losing(self, game: SyncGame) -> tuple:
        """(max, witness) over stored entries on losing tuples of the game: one losing
        mask over the walk's keys picks them, and the witness is the first entry, in
        dict order, holding the largest value above 0 (None when there is none; a NaN
        value never counts).  The inputs must be the game's and the outputs among its."""
        _check_labels(game, self, "correlation")
        return self._first_max(game.losing(self._keys)[tuple(self._ends)])

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
        (x, y), (a, b) = self._cells
        dense = np.zeros((n, n, m, m))
        dense[x, y, a, b] = self._vals
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


def _trace_table(left: OperatorStrategy, rows, right: OperatorStrategy, cols, d) -> Correlation:
    """p(x, y, a, b) = tr(rows[left.ids[i]] cols[right.ids[j]]^T) / d over the keys (x, a)
    and (y, b) of left and right in key order, for (D, n, n) stacks rows and cols over
    each side's distinct rows, read through the ids: one Gram product with no square
    root, so as exact as a per-pair trace; a non-real trace (beyond 1e-9) raises.  The
    product runs over the rows in key order, not over the distinct ones: BLAS picks its
    kernel by the operands' row counts, so only then are an entry's bits those of its
    two operators whatever the row layout (a swapped or reloaded strategy).  Both sides'
    alphabets are left's (the two sides of a bipartite strategy share its own), so the
    correlation and its entry walk are read off the real table by
    Correlation._over_table, with no walk over its entries."""
    n, row_keys, col_keys = rows.shape[-1], left.stored_keys(), right.stored_keys()
    rows, cols = rows[left.ids], cols[right.ids]
    traces = rows.reshape(len(rows), n * n) @ cols.reshape(len(cols), n * n).T / d
    nonreal = np.flatnonzero(np.abs(traces.imag) > 1e-9)
    if nonreal.size:
        i, j = divmod(int(nonreal[0]), len(col_keys))
        (x, a), (y, b) = row_keys[i], col_keys[j]
        raise VerificationError(f"non-real trace {complex(traces[i, j])!r} at {(x, y, a, b)!r}")
    return Correlation._over_table(left.inputs, left.outputs, row_keys, col_keys, traces.real)


def correlation_from_tracial(s: OperatorStrategy, tol: float = DEFAULT_TOL) -> Correlation:
    """p(a, b | x, y) = tr(E_{x,a} E_{y,b}) / d under the normalized trace, over the
    stored operators in stored_keys() order."""
    defects = s.validate(tol)
    corr = _trace_table(s, s.stack, s, np.swapaxes(s.stack, 1, 2), s.dim)
    corr.validate(max(tol, 10 * defects.max))
    return corr


def correlation_from_bipartite(s: BipartiteStrategy, tol: float = DEFAULT_TOL) -> Correlation:
    """p(a, b | x, y) = <(E_{x,a} (x) F_{y,b}) psi, psi> = tr(m* E_{x,a} m F_{y,b}^T) for the
    state matrix m, over Alice's and Bob's stored operators in stored_keys() order."""
    alice, bob = s.alice_strategy(), s.bob_strategy()
    alice.validate(tol)
    bob.validate(tol)
    m = s.state_matrix()
    corr = _trace_table(alice, dagger(m) @ alice.stack @ m, bob, bob.stack, 1)
    corr.validate(1e-10 if tol <= 1e-10 else tol)
    return corr


def is_synchronous(corr: Correlation, tol: float = DEFAULT_TOL) -> bool:
    return corr.max_sync_violation()[0] <= tol


def is_perfect(corr: Correlation, game: SyncGame, eps: float = DEFAULT_TOL) -> bool:
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
    """Index arrays of the level sets of the descending Schmidt coefficients sigma: the
    coefficients above cluster_tol, split wherever a gap is at least cluster_tol."""
    kept = sigma[sigma > cluster_tol]  # a prefix, as sigma descends
    cuts = np.flatnonzero(kept[:-1] - kept[1:] >= cluster_tol) + 1
    return np.split(np.arange(len(kept)), cuts) if len(kept) else []


def _reduce(side: OperatorStrategy, cols: np.ndarray) -> tuple:
    """(cols* E cols per row E of side's stack, each input's largest ||P E (I - P)||_2 over
    its stored operators, read through ids, 0 for none) for orthonormal columns cols and
    P = cols cols*, associated as (cols* E) cols.  As ||P E (I - P)||_2 = ||cols* E (I - P)||_F
    / sqrt(d), the residual is that of cols* E - (cols* E cols) cols*; for Hermitian E it
    is ||(I - P) E P||_2, zero exactly when P commutes with E."""
    left = dagger(cols) @ side.stack
    small = left @ cols
    per_input = np.zeros(len(side.inputs))
    np.maximum.at(per_input, [side.inputs.index(x) for x, _ in side.pvms],
                  _residuals(left - small @ dagger(cols))[side.ids])
    return small, per_input


def _recombination_miss(parts: list, target: Correlation) -> float:
    """max |sum_k w_k p_k - target| over every cell of parts' (w_k, p_k) and of target, on
    one alphabet: one np.add.at over the correlations' walks adds each cell's w_k p_k,
    part by part, then its target value negated, in the order of a per-key dict loop."""
    weighted = [*parts, (-1.0, target)]
    cells = np.concatenate([c._cells.reshape(4, -1) for _, c in weighted], axis=1)
    terms = np.concatenate([w * c._vals for w, c in weighted])
    distinct, cell = np.unique(cells, axis=1, return_inverse=True)
    sums = np.zeros(distinct.shape[1])
    np.add.at(sums, cell.reshape(-1), terms)
    return float(np.abs(sums).max(initial=0.0))


def _certified_blocks(target: Correlation, splits: list, tol: float) -> list:
    """The block path: certify splits, each a (weight, [(side, cols), ...]) pair of one or
    more strategies over the same inputs, each with orthonormal columns of its own space.
    Each input's largest residual over the sides (_reduce) must be at most tol, or
    ClusterAmbiguityError names the first such input.  The block is the first side's
    symmetrised non-zero compressions (keys sharing an operator share one), validated by
    its tracial correlation within 10 * tol, and the weighted correlations must sum to
    target within 10 * tol.  Returns the (weight, block) pairs."""
    blocks, parts = [], []
    for weight, sides in splits:
        reductions = [_reduce(side, cols) for side, cols in sides]
        per_input = np.max([res for _, res in reductions], axis=0)
        (first, cols), small = sides[0], reductions[0][0]
        if (per_input > tol).any():
            k = int(np.argmax(per_input > tol))  # the first failing input
            raise ClusterAmbiguityError(
                f"level set of size {cols.shape[1]} fails the reduction check at input "
                f"{first.inputs[k]!r} (residual {per_input[k]:.3e} > {tol:g}); Schmidt clusters are ambiguous")
        small = (small + dagger(small)) / 2
        nonzero, views = _residuals(small) > 0.0, list(small)  # one view object per row
        block = OperatorStrategy(cols.shape[1], first.inputs, first.outputs, {
            key: views[row] for key, row in zip(first.pvms, first.ids.tolist()) if nonzero[row]})
        blocks.append((weight, block))
        parts.append((weight, correlation_from_tracial(block, tol=10 * tol)))
    worst = _recombination_miss(parts, target)
    if worst > 10 * tol:
        raise VerificationError(
            f"block recombination misses the input correlation by {worst:.3e} > {10 * tol:g}")
    return blocks


def decompose_qs(
    s: BipartiteStrategy,
    tol: float = DEFAULT_TOL,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> list:
    """Decompose a synchronous bipartite strategy into weighted tracial blocks.

    After the synchronous-state defect and the eigensolver cap (dim_a at most
    matops.MAX_EIG_DIM), the input's correlation is taken, so both sides' PVMs are checked
    before any compression.  One SVD u diag(sigma) vh of the state matrix gives the
    Schmidt level sets (_schmidt_levels), each weighing sum(sigma[level] ** 2), with
    Alice's columns u[:, level] and Bob's vh[level].T, and the block path
    (_certified_blocks) certifies them: each level must reduce both sides' operators, each
    under its own normalized trace, and the blocks, Alice's compressions, must recombine
    to the input's correlation within 10 * tol.  Returns (weight, block) pairs."""
    defect = sync_vector_defect(s)
    if defect > tol:
        raise VerificationError(
            f"synchronous-state defect {defect:.3e} > {tol:g}; not a synchronous strategy"
        )
    _require_eig_dim(s.dim_a)
    target = correlation_from_bipartite(s, tol=tol)
    u, sigma, vh = np.linalg.svd(s.state_matrix(), full_matrices=False)
    levels = _schmidt_levels(sigma, cluster_tol)
    if not levels:
        raise VerificationError("state has no Schmidt coefficient above the clustering tolerance")
    alice, bob = s.alice_strategy(), s.bob_strategy()
    return _certified_blocks(target, [
        (float(np.sum(sigma[level] ** 2)), [(alice, u[:, level]), (bob, vh[level].T)])
        for level in levels
    ], tol)
