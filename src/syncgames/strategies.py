"""Operator strategies and correlations: tracial and bipartite correlation evaluation,
synchronicity/perfectness tests, PVM/unitary conversion, and the Schmidt-block
decomposition turning a finite-dimensional bipartite synchronous strategy into a
convex combination of tracial strategies.

Output-to-spectral-value convention: output number i in {1..m} (position in the
strategy's output tuple, 1-based) corresponds to the spectral value w^i of the
row unitary, where w = exp(2*pi*1j/m).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import ClusterAmbiguityError, ValidationError, VerificationError
from .labels import int_from_json, label_from_json, label_to_json
from .matops import (
    DEFAULT_TOL,
    as_matrix,
    dagger,
    hermitian_eig,
    identity,
    matrix_from_json,
    matrix_to_json,
    norm2,
)

if TYPE_CHECKING:  # pragma: no cover
    from .games import SyncGame

DEFAULT_CLUSTER_TOL = 1e-7


def _validated_pvm_dict(pvms: dict, dim: int, inputs: tuple, outputs: tuple) -> dict:
    input_set = frozenset(inputs)
    output_set = frozenset(outputs)
    clean = {}
    for key, mat in pvms.items():
        x, a = key
        if x not in input_set:
            raise ValidationError(f"PVM key has unknown input {x!r}")
        if a not in output_set:
            raise ValidationError(f"PVM key has unknown output {a!r}")
        m = as_matrix(mat)
        if m.shape != (dim, dim):
            raise ValidationError(f"operator for {key!r} has shape {m.shape}, expected {(dim, dim)}")
        clean[(x, a)] = m
    return clean


def _pvms_to_json(s: OperatorStrategy) -> list:
    """The {"input", "output", "matrix"} entries of a strategy's stored operators."""
    return [
        dict(input=label_to_json(x), output=label_to_json(a), matrix=matrix_to_json(s.pvms[(x, a)]))
        for x, a in s.stored_keys()
    ]


def _pvms_from_json(entries) -> dict:
    """Inverse of _pvms_to_json: (input, output) -> operator."""
    return {
        (label_from_json(e["input"]), label_from_json(e["output"])): matrix_from_json(e["matrix"])
        for e in entries
    }


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
    """

    dim: int
    inputs: tuple
    outputs: tuple
    pvms: dict

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("strategy dimension must be >= 1")
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        object.__setattr__(
            self, "pvms", _validated_pvm_dict(self.pvms, self.dim, self.inputs, self.outputs)
        )

    @cached_property
    def _input_index(self) -> dict:
        return {x: i for i, x in enumerate(self.inputs)}

    @cached_property
    def _output_index(self) -> dict:
        return {a: i for i, a in enumerate(self.outputs)}

    def matrix(self, x, a) -> np.ndarray:
        mat = self.pvms.get((x, a))
        return np.zeros((self.dim, self.dim), dtype=complex) if mat is None else mat

    def row_outputs(self, x) -> tuple:
        """Outputs with a stored operator for input x, in output order."""
        present = [a for (x2, a) in self.pvms if x2 == x]
        present.sort(key=self._output_index.__getitem__)
        return tuple(present)

    def row(self, x) -> list:
        """The full PVM row for input x, ordered by the output tuple (zeros included)."""
        return [self.matrix(x, a) for a in self.outputs]

    def stored_keys(self) -> list:
        return sorted(
            self.pvms, key=lambda key: (self._input_index[key[0]], self._output_index[key[1]])
        )

    def defects(self) -> PVMDefects:
        eye = identity(self.dim)
        max_adj = 0.0
        max_proj = 0.0
        for mat in self.pvms.values():
            max_adj = max(max_adj, norm2(mat - dagger(mat)))
            max_proj = max(max_proj, norm2(mat - mat @ mat))
        max_complete = 0.0
        for x in self.inputs:
            total = sum((self.pvms[(x, a)] for a in self.row_outputs(x)), 0.0 * eye)
            max_complete = max(max_complete, norm2(total - eye))
        return PVMDefects(max_adj, max_proj, max_complete)

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
            "outputs": [label_to_json(a) for a in self.outputs],
            "pvms": _pvms_to_json(self),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "OperatorStrategy":
        try:
            return cls(
                dim=int_from_json(data["dim"], "strategy dim"),
                inputs=tuple(label_from_json(x) for x in data["inputs"]),
                outputs=tuple(label_from_json(a) for a in data["outputs"]),
                pvms=_pvms_from_json(data["pvms"]),
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
    inputs: tuple
    outputs: tuple
    alice: dict
    bob: dict
    state: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        object.__setattr__(
            self, "alice", _validated_pvm_dict(self.alice, self.dim_a, self.inputs, self.outputs)
        )
        object.__setattr__(
            self, "bob", _validated_pvm_dict(self.bob, self.dim_b, self.inputs, self.outputs)
        )
        psi = np.asarray(self.state, dtype=complex).reshape(-1)
        if psi.size != self.dim_a * self.dim_b:
            raise ValidationError(
                f"state has {psi.size} components, expected {self.dim_a * self.dim_b}"
            )
        nrm = float(np.linalg.norm(psi))
        if abs(nrm - 1.0) > 1e-12:
            raise ValidationError(f"state norm {nrm!r} is not 1 within 1e-12")
        object.__setattr__(self, "state", psi)

    def state_matrix(self) -> np.ndarray:
        return self.state.reshape(self.dim_a, self.dim_b)

    def alice_strategy(self) -> OperatorStrategy:
        return OperatorStrategy(self.dim_a, self.inputs, self.outputs, dict(self.alice))

    def bob_strategy(self) -> OperatorStrategy:
        return OperatorStrategy(self.dim_b, self.inputs, self.outputs, dict(self.bob))

    def to_json_dict(self) -> dict:
        return {
            "dim_a": self.dim_a,
            "dim_b": self.dim_b,
            "inputs": [label_to_json(x) for x in self.inputs],
            "outputs": [label_to_json(a) for a in self.outputs],
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
                inputs=tuple(label_from_json(x) for x in data["inputs"]),
                outputs=tuple(label_from_json(a) for a in data["outputs"]),
                alice=_pvms_from_json(data["alice"]),
                bob=_pvms_from_json(data["bob"]),
                state=np.array([complex(real, imag) for real, imag in data["state"]]),
            )
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise ValidationError(f"malformed bipartite strategy JSON: {exc}") from exc


@dataclass(frozen=True)
class Correlation:
    """Conditional probabilities p(a, b | x, y), stored sparsely: missing entries are 0."""

    inputs: tuple
    outputs: tuple
    p: dict  # (x, y, a, b) -> float

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
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
        worst = 0.0
        for val in self.p.values():
            worst = max(worst, -val, val - 1.0)
        return max(worst, 0.0)

    def max_normalization_defect(self) -> float:
        return max(abs(self.row_sum(x, y) - 1.0) for x in self.inputs for y in self.inputs)

    def max_sync_violation(self) -> tuple:
        """(max, witness) over diagonal entries p(a, b | x, x) with a != b."""
        worst, witness = 0.0, None
        for (x, y, a, b), val in self.p.items():
            if x == y and a != b and val > worst:
                worst, witness = val, (x, y, a, b)
        return worst, witness

    def max_losing(self, game: "SyncGame") -> tuple:
        """(max, witness) over stored entries on losing tuples of the game."""
        worst, witness = 0.0, None
        for (x, y, a, b), val in self.p.items():
            if not game.wins(x, y, a, b) and val > worst:
                worst, witness = val, (x, y, a, b)
        return worst, witness

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        if self.max_range_violation() > tol:
            raise VerificationError(
                f"correlation entry outside [-tol, 1+tol]: violation {self.max_range_violation():.3e}"
            )
        defect = self.max_normalization_defect()
        if defect > tol:
            raise VerificationError(f"correlation rows sum to 1 only within {defect:.3e} > {tol:g}")

    def to_dense(self) -> np.ndarray:
        n, m = len(self.inputs), len(self.outputs)
        xi = {x: i for i, x in enumerate(self.inputs)}
        ai = {a: i for i, a in enumerate(self.outputs)}
        dense = np.zeros((n, n, m, m))
        for (x, y, a, b), val in self.p.items():
            dense[xi[x], xi[y], ai[a], ai[b]] = val
        return dense

    def to_json_dict(self, max_dense_cells: int = 4_000_000) -> dict:
        base = {
            "n": len(self.inputs),
            "m": len(self.outputs),
            "inputs": [label_to_json(x) for x in self.inputs],
            "outputs": [label_to_json(a) for a in self.outputs],
        }
        cells = len(self.inputs) ** 2 * len(self.outputs) ** 2
        if cells <= max_dense_cells:
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
            inputs = tuple(label_from_json(x) for x in data["inputs"])
            outputs = tuple(label_from_json(a) for a in data["outputs"])
            counts = [int_from_json(data[key], f"correlation {key}") for key in ("n", "m")]
            if counts != [len(inputs), len(outputs)]:
                raise ValidationError(f"correlation n, m = {counts} do not match the labels listed")
            p: dict = {}
            if "p" in data:
                dense = np.asarray(data["p"])
                shape = (len(inputs), len(inputs), len(outputs), len(outputs))
                if dense.dtype.kind not in "iuf" or dense.shape != shape:
                    raise ValidationError(f"dense correlation must be a {shape} array of numbers")
                dense = dense.astype(float)
                for ix, x in enumerate(inputs):
                    for iy, y in enumerate(inputs):
                        for ia, a in enumerate(outputs):
                            for ib, b in enumerate(outputs):
                                val = float(dense[ix, iy, ia, ib])
                                if val != 0.0:
                                    p[(x, y, a, b)] = val
            else:
                input_set, output_set = frozenset(inputs), frozenset(outputs)
                for *labels, val in data["entries"]:
                    x, y, a, b = map(label_from_json, labels)
                    if not ({x, y} <= input_set and {a, b} <= output_set):
                        raise ValidationError(f"unlisted label in correlation entry {[x, y, a, b]!r}")
                    if isinstance(val, bool) or not isinstance(val, (int, float)):
                        raise ValidationError(f"correlation value {val!r} is not a number")
                    p[(x, y, a, b)] = float(val)
            return cls(inputs=inputs, outputs=outputs, p=p)
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise ValidationError(f"malformed correlation JSON: {exc}") from exc


def correlation_from_tracial(s: OperatorStrategy, tol: float = DEFAULT_TOL) -> Correlation:
    """p(a, b | x, y) = tr(E_{x,a} E_{y,b}) / d under the normalized trace."""
    defects = s.validate(tol)
    p: dict = {}
    keys = s.stored_keys()
    for x, a in keys:
        e = s.pvms[(x, a)]
        for y, b in keys:
            val = complex(np.trace(e @ s.pvms[(y, b)])) / s.dim
            if abs(val.imag) > 1e-9:
                raise VerificationError(f"non-real trace {val!r} at {(x, y, a, b)!r}")
            p[(x, y, a, b)] = val.real
    corr = Correlation(inputs=s.inputs, outputs=s.outputs, p=p)
    corr.validate(max(tol, 10 * defects.max))
    return corr


def correlation_from_bipartite(s: BipartiteStrategy, tol: float = DEFAULT_TOL) -> Correlation:
    """p(a, b | x, y) = <(E_{x,a} (x) F_{y,b}) psi, psi> evaluated exactly."""
    s.alice_strategy().validate(tol)
    s.bob_strategy().validate(tol)
    m = s.state_matrix()
    p: dict = {}
    for (x, a), e in s.alice.items():
        em = e @ m
        for (y, b), f in s.bob.items():
            val = complex(np.vdot(m, em @ f.T))
            if abs(val.imag) > 1e-9:
                raise VerificationError(f"non-real probability {val!r} at {(x, y, a, b)!r}")
            p[(x, y, a, b)] = val.real
    corr = Correlation(inputs=s.inputs, outputs=s.outputs, p=p)
    corr.validate(1e-10 if tol <= 1e-10 else tol)
    return corr


def is_synchronous(corr: Correlation, tol: float = DEFAULT_TOL) -> bool:
    return corr.max_sync_violation()[0] <= tol


def is_perfect(corr: Correlation, game: "SyncGame", eps: float = DEFAULT_TOL) -> bool:
    return corr.max_losing(game)[0] <= eps


def pvm_to_unitary(row) -> np.ndarray:
    """The order-m unitary sum of w^i E_i over the ordered PVM row (1-based exponents)."""
    mats = [as_matrix(e) for e in row]
    if not mats:
        raise ValidationError("empty PVM row")
    m = len(mats)
    omega = np.exp(2j * np.pi / m)
    out = np.zeros_like(mats[0])
    for i, e in enumerate(mats, start=1):
        out = out + omega**i * e
    return out


def unitary_to_pvm(u, m: int, tol: float = DEFAULT_TOL) -> list:
    """Recover the spectral PVM of an order-m unitary by power averaging.

    e_i = (1/m) sum_k w^(-ik) u^k is an exact polynomial identity, so no
    eigendecomposition of the (non-Hermitian) unitary is ever needed.
    """
    mat = as_matrix(u)
    if m < 1:
        raise ValidationError("m must be >= 1")
    eye = identity(mat.shape[0])
    if norm2(mat @ dagger(mat) - eye) > tol:
        raise VerificationError(f"input is not unitary within {tol:g}")
    powers = [eye]
    for _ in range(m - 1):
        powers.append(powers[-1] @ mat)
    if norm2(powers[-1] @ mat - eye) > tol:
        raise VerificationError(f"u^{m} differs from the identity by more than {tol:g}")
    omega = np.exp(2j * np.pi / m)
    row = []
    for i in range(1, m + 1):
        e = sum(omega ** (-i * k) * powers[k] for k in range(m)) / m
        row.append((e + dagger(e)) / 2)
    return row


def deterministic_to_operator(inputs, outputs, assignment: dict) -> OperatorStrategy:
    """Embed a deterministic assignment as the d = 1 operator strategy."""
    one = np.ones((1, 1), dtype=complex)
    pvms = {(x, assignment[x]): one for x in inputs}
    return OperatorStrategy(dim=1, inputs=tuple(inputs), outputs=tuple(outputs), pvms=pvms)


def sync_vector_defect(s: BipartiteStrategy) -> float:
    """max over (x, a) of || (E (x) I) psi - (I (x) F) psi ||; zero certifies the
    synchronous-state condition needed by the block decomposition."""
    m = s.state_matrix()
    alice, bob = s.alice_strategy(), s.bob_strategy()
    worst = 0.0
    for x, a in set(s.alice) | set(s.bob):
        worst = max(worst, float(np.linalg.norm(alice.matrix(x, a) @ m - m @ bob.matrix(x, a).T)))
    return worst


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


def decompose_qs(
    s: BipartiteStrategy,
    tol: float = DEFAULT_TOL,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> list:
    """Decompose a synchronous bipartite strategy into weighted tracial blocks.

    Computes the Schmidt decomposition of the dim_a x dim_b state matrix (the
    local dimensions may differ), groups equal Schmidt coefficients into level
    sets, verifies that each level's subspace reduces every row unitary on both
    sides, each under its own normalized trace, and returns (weight, compressed
    tracial strategy) pairs whose convex recombination reproduces the input
    correlation within 10 * tol.  The level subspaces are certified rather
    than trusted: a reduction residual above tol raises ClusterAmbiguityError.
    """
    defect = sync_vector_defect(s)
    if defect > tol:
        raise VerificationError(
            f"synchronous-state defect {defect:.3e} > {tol:g}; not a synchronous strategy"
        )
    m = s.state_matrix()
    rho = m @ dagger(m)
    eig = hermitian_eig((rho + dagger(rho)) / 2)
    order = np.argsort(eig.eigenvalues)[::-1]
    lam = np.clip(eig.eigenvalues[order], 0.0, None)
    vecs = eig.eigenvectors[:, order]
    sigma = np.sqrt(lam)
    levels = _schmidt_levels(sigma, cluster_tol)
    if not levels:
        raise VerificationError("state has no Schmidt coefficient above the clustering tolerance")

    alice, bob = s.alice_strategy(), s.bob_strategy()
    alice_unitaries = {x: pvm_to_unitary(alice.row(x)) for x in s.inputs}
    bob_unitaries = {x: pvm_to_unitary(bob.row(x)) for x in s.inputs}

    eye_a, eye_b = identity(s.dim_a), identity(s.dim_b)
    blocks = []
    for level in levels:
        a_cols = vecs[:, level]
        b_cols = np.conj(dagger(m) @ a_cols) / sigma[level][None, :]
        gram = dagger(b_cols) @ b_cols
        if float(np.max(np.abs(gram - np.eye(len(level))))) > 1e-6:
            raise ClusterAmbiguityError("Schmidt partners of a level set are not orthonormal")
        p_l = a_cols @ dagger(a_cols)
        q_l = b_cols @ dagger(b_cols)
        for x in s.inputs:
            res_a = norm2((eye_a - p_l) @ alice_unitaries[x] @ p_l)
            res_b = norm2((eye_b - q_l) @ bob_unitaries[x] @ q_l)
            if max(res_a, res_b) > tol:
                raise ClusterAmbiguityError(
                    f"level set of size {len(level)} fails the reduction check at input {x!r} "
                    f"(residual {max(res_a, res_b):.3e} > {tol:g}); Schmidt clusters are ambiguous"
                )
        weight = float(np.sum(lam[level]))
        compressed = {}
        for (x, a), e in s.alice.items():
            small = dagger(a_cols) @ e @ a_cols
            small = (small + dagger(small)) / 2
            if norm2(small) > 0.0:
                compressed[(x, a)] = small
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
