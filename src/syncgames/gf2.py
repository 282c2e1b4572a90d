"""Exact linear algebra over GF(2) and enumeration of per-equation local solution sets.

Systems are stored multiplicatively: a sign vector x in {+1,-1}^n satisfies
equation i when the product of x_j over the support V_i equals (-1)^(b_i).
Rows are bit-packed into Python ints, so elimination is exact and reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, product as iter_product
from typing import Optional

import numpy as np

from .errors import BudgetError, ValidationError, VerificationError
from .labels import int_from_json

SignVector = tuple  # entries in {+1, -1}, length n

MAX_SUPPORT_ENUMERATION = 20


@dataclass(frozen=True)
class BinaryLinearSystem:
    """An m x n linear system over GF(2) given by per-equation supports and right-hand bits."""

    m: int
    n: int
    rows: tuple  # tuple of frozensets of 1-based variable indices
    b: tuple      # tuple of bits (0 or 1)
    # what the library derives from the system, each built on first use and kept for the
    # object's life (equality, hashing and repr ignore it): ("si", i) -> equation i's local
    # solutions, "signs" -> the SignTable of all of them, "homogeneous" -> the b = 0
    # system, "graph" -> the incompatibility graph, "synbcs" -> the synBCS game
    _derived: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValidationError("system needs at least one equation and one variable")
        if len(self.rows) != self.m or len(self.b) != self.m:
            raise ValidationError("rows/b length must equal m")
        object.__setattr__(self, "rows", tuple(frozenset(r) for r in self.rows))
        for i, support in enumerate(self.rows, start=1):
            if not support:
                raise ValidationError(f"equation {i} has empty support")
            for j in support:
                if isinstance(j, bool) or not isinstance(j, int) or not 1 <= j <= self.n:
                    raise ValidationError(f"equation {i}: variable index {j!r} out of range 1..{self.n}")
        for i, bit in enumerate(self.b, start=1):
            if isinstance(bit, bool) or bit not in (0, 1):
                raise ValidationError(f"b[{i}] must be 0 or 1")
        object.__setattr__(self, "b", tuple(int(v) for v in self.b))

    @property
    def untouched_variables(self) -> frozenset:
        """Variables that appear in no equation (all-zero columns of A)."""
        touched = frozenset().union(*self.rows)
        return frozenset(range(1, self.n + 1)) - touched

    @property
    def covers_all_columns(self) -> bool:
        """True when every column of A has a nonzero entry; conversions between
        representations and strategies require this and refuse otherwise."""
        return not self.untouched_variables

    def row_mask(self, i: int) -> int:
        """Bitmask of equation i's support, bit j-1 for variable j."""
        self._check_index(i)
        mask = 0
        for j in self.rows[i - 1]:
            mask |= 1 << (j - 1)
        return mask

    def equation_holds(self, i: int, x: SignVector) -> bool:
        """Whether the sign vector x satisfies equation i."""
        self._check_index(i)
        if len(x) != self.n:
            raise ValidationError(f"sign vector length {len(x)} != n = {self.n}")
        prod = 1
        for j in self.rows[i - 1]:
            prod *= x[j - 1]
        return prod == (-1) ** self.b[i - 1]

    def __reduce__(self):
        # a pickle or copy starts with nothing derived, as a system loaded from JSON does
        return (BinaryLinearSystem, (self.m, self.n, self.rows, self.b))

    def _cached(self, key, build):
        """The object build() returned on the first call for key.  A call that raises
        (a budget refusal) stores nothing, so it raises again on the next call."""
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]

    def _local_solution_count(self, i: int) -> int:
        """|S_i| = 2^(|V_i| - 1), refused for a support over MAX_SUPPORT_ENUMERATION."""
        self._check_index(i)
        size = len(self.rows[i - 1])
        if size > MAX_SUPPORT_ENUMERATION:
            raise BudgetError(
                f"equation {i} has support size {size} > {MAX_SUPPORT_ENUMERATION}"
            )
        return 1 << (size - 1)

    def _local_solutions(self, i: int) -> tuple:
        """Equation i's local solutions as enumerate_si lists them, enumerated once per
        system and kept as a tuple; a refusal is raised on every call."""
        self._local_solution_count(i)
        return self._cached(("si", i), lambda: _enumerate_si(self, i))

    def _sign_table(self) -> "SignTable":
        """The local solutions of every equation as one SignTable, built once per system;
        a refusal is raised on every call."""
        return self._cached("signs", lambda: _build_sign_table(self))

    def _homogeneous(self) -> "BinaryLinearSystem":
        """The system with every b_i = 0: itself when it is homogeneous, else built once."""
        if not any(self.b):
            return self
        return self._cached("homogeneous", lambda: BinaryLinearSystem(
            m=self.m, n=self.n, rows=self.rows, b=(0,) * self.m))

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.m:
            raise ValidationError(f"equation index {i} out of range 1..{self.m}")

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "rows": [sorted(r) for r in self.rows],
            "b": list(self.b),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BinaryLinearSystem":
        try:
            rows = [[int_from_json(j, "variable index") for j in row] for row in data["rows"]]
            for i, row in enumerate(rows, start=1):
                if len(set(row)) != len(row):
                    raise ValidationError(f"equation {i} repeats a variable index")
            return cls(
                m=int_from_json(data["m"], "m"),
                n=int_from_json(data["n"], "n"),
                rows=tuple(frozenset(row) for row in rows),
                b=tuple(int_from_json(v, "b entry") for v in data["b"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed system JSON: {exc}") from exc


@dataclass(frozen=True, eq=False)
class SignTable:
    """A system's local solutions (i, x), equation-major with each S_i in enumerate_si's
    order (the incompatibility graph's vertex order), as one row each.  It holds no
    reference to the system, so whatever keeps it never keeps the system alive."""

    row_of: dict  # (i, x) -> its row, in row order
    equation: np.ndarray  # (N,) intp: row r's equation, 0-based
    # (N, n) int8: row r's sign vector on its equation's support, 0 off it
    signs: np.ndarray
    supports: np.ndarray  # (m, n) int8: entry (i - 1, j - 1) is 1 when x_j is in V_i

    def disagreement(self, rows=slice(None)) -> np.ndarray:
        """(K, K) bool array over the K rows given (every row by default): entry (k, l)
        is True when the two local solutions disagree on a variable both equations
        contain."""
        # Over the variables two equations share, the signed rows give (#agreeing -
        # #disagreeing) = #shared exactly when the answers agree; with entries -1, 0, 1
        # and at most 2^53 terms, float64 forms every sum exactly.
        signed = self.signs[rows].astype(np.float64)
        support = self.supports[self.equation[rows]].astype(np.float64)
        return (signed @ signed.T) != (support @ support.T)


def _build_sign_table(sys: BinaryLinearSystem) -> SignTable:
    listed = [sys._local_solutions(i) for i in range(1, sys.m + 1)]
    keys = [(i, x) for i, si in enumerate(listed, start=1) for x in si]
    supports = np.zeros((sys.m, sys.n), dtype=np.int8)
    supports.reshape(-1)[[i * sys.n + j - 1 for i, row in enumerate(sys.rows) for j in row]] = 1
    equation = np.repeat(np.arange(sys.m, dtype=np.intp), [len(si) for si in listed])
    signs = np.fromiter(chain.from_iterable(chain.from_iterable(listed)), dtype=np.int8,
                        count=len(keys) * sys.n).reshape(-1, sys.n)
    signs = signs * supports[equation]  # a local solution is +1 off its support
    for array in (equation, signs, supports):
        array.flags.writeable = False
    return SignTable(dict(zip(keys, range(len(keys)))), equation, signs, supports)


def solve_gf2(sys: BinaryLinearSystem) -> Optional[SignVector]:
    """Decide solvability of the system and return one multiplicative solution, or None.

    Gaussian elimination on bit-packed rows with pivoting by ascending column;
    free variables are set to +1.  The returned vector is re-verified against
    every equation before being returned.
    """
    rows = [sys.row_mask(i) for i in range(1, sys.m + 1)]
    rhs = list(sys.b)
    pivots = []  # (row, column) pairs, column 0-based
    r = 0
    for col in range(sys.n):
        bit = 1 << col
        pivot = next((k for k in range(r, sys.m) if rows[k] & bit), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rhs[r], rhs[pivot] = rhs[pivot], rhs[r]
        for k in range(sys.m):
            if k != r and rows[k] & bit:
                rows[k] ^= rows[r]
                rhs[k] ^= rhs[r]
        pivots.append((r, col))
        r += 1
    for k in range(r, sys.m):
        if rows[k] == 0 and rhs[k] == 1:
            return None
    bits = 0  # bit j set <=> x_{j+1} = -1
    for row, col in pivots:
        other = rows[row] & ~(1 << col)
        val = rhs[row] ^ (bin(other & bits).count("1") & 1)
        if val:
            bits |= 1 << col
    x = tuple(-1 if bits >> j & 1 else 1 for j in range(sys.n))
    for i in range(1, sys.m + 1):
        if not sys.equation_holds(i, x):
            raise VerificationError(f"internal elimination error: equation {i} unsatisfied")
    return x


def enumerate_si(sys: BinaryLinearSystem, i: int) -> list:
    """All sign vectors satisfying equation i with +1 entries off the support V_i.

    Returned in lexicographic order (tuples compared entrywise, -1 before +1),
    so downstream vertex orderings are byte-stable.  Cardinality is
    2^(|V_i| - 1).  Supports larger than 20 variables are refused.  The vectors
    are enumerated once per system and equation; each call returns a new list.
    """
    return list(sys._local_solutions(i))


def _enumerate_si(sys: BinaryLinearSystem, i: int) -> tuple:
    support = sorted(sys.rows[i - 1])
    target = (-1) ** sys.b[i - 1]
    out = []
    for signs in iter_product((-1, 1), repeat=len(support)):
        prod = 1
        for s in signs:
            prod *= s
        if prod != target:
            continue
        x = [1] * sys.n
        for j, s in zip(support, signs):
            x[j - 1] = s
        out.append(tuple(x))
    out.sort()
    return tuple(out)
