"""The four benchmark workloads: seeded input generators, one certified instance
each, and the correctness gates that decide whether an instance counts.

Every workload exposes ``make_inputs(rng)`` and ``run(inputs, ctx)``.  ``run``
returns ``(ok, artifact_bytes, detail)``: ``ok`` is the conjunction of the
workload's gates, ``artifact_bytes`` the CLI-format JSON bytes the instance
wrote, and ``detail`` a short string naming the first gate that failed.  The
library only ever receives the generated inputs; the seed stays here.

Gates check meaning (verdicts, residuals, recovered structure), never golden
bytes, so refactors that change file layouts keep the benchmark valid.
"""
from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

import syncgames as sg
from syncgames import cli
from syncgames.rounding import orthogonalize_family, round_contraction
from syncgames.strategies import BipartiteStrategy, OperatorStrategy

TOL = 1e-9
ROTATED_RELATION_TOL = 1e-12  # the precision trap: rotated inputs must stay at machine level
WEIGHT_TOL = 1e-8


def write_json(path: str, payload) -> int:
    """Write ``payload`` as compact JSON and return the bytes written.

    The CLI's writer indents and streams through ``json.dump``'s pure-Python
    encoder: for the 2-copy strategy that is 49 MB and several seconds of
    whitespace.  One compact ``json.dumps`` keeps ``kcopy2`` about the
    library's own codec (``to_json_dict`` / ``from_json_dict``).
    """
    text = json.dumps(payload)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return os.path.getsize(path)


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.loads(fh.read())


def random_unitary(d: int, rng) -> np.ndarray:
    """Haar-random unitary (QR of a complex Gaussian with the phase fix)."""
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(h)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_exact_pvm(d: int, m: int, rng) -> list:
    """m orthogonal projections summing to the identity, each of rank >= 1."""
    u = random_unitary(d, rng)
    assign = np.concatenate([np.arange(m), rng.integers(0, m, size=d - m)])
    rng.shuffle(assign)
    return [u[:, assign == a] @ u[:, assign == a].conj().T for a in range(m)]


def random_hermitian(d: int, rng, scale: float) -> np.ndarray:
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (h + h.conj().T) / 2
    return scale * h / np.linalg.norm(h, 2)


# ------------------------------------------------------------------- demo --

class Demo:
    """``syncgames demo magic-square --report <tmp>`` through ``cli.main``.

    The input is fixed, so the seed is ignored.  ``--jobs`` is never passed:
    the flag is scheduled for removal.
    """

    name = "demo"

    def make_inputs(self, rng):
        return None

    def run(self, inputs, ctx):
        path = os.path.join(ctx.tmp_dir, "demo-report.json")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["demo", "magic-square", "--report", path])
        if code != 0:
            return False, 0, f"exit code {code}"
        size = os.path.getsize(path)
        payload = read_json(path)["payload"]
        checks = payload.get("checks", [])
        if not checks or not all(c["pass"] for c in checks):
            failed = [c["name"] for c in checks if not c["pass"]]
            return False, size, f"failed checks {failed}"
        if payload.get("alpha_G_Ab") != 5:
            return False, size, f"alpha_G_Ab = {payload.get('alpha_G_Ab')!r}"
        return True, size, ""


# ----------------------------------------------------------------- kcopy2 --

def kcopy_system(k: int) -> sg.BinaryLinearSystem:
    """Disjoint union of k Mermin-Peres systems (m = 6k, n = 9k)."""
    base = sg.mermin_peres_system()
    rows, b = [], []
    for c in range(k):
        rows.extend(frozenset(j + 9 * c for j in r) for r in base.rows)
        b.extend(base.b)
    return sg.BinaryLinearSystem(m=6 * k, n=9 * k, rows=tuple(rows), b=tuple(b))


def kcopy_pauli_images(k: int) -> list:
    """The k-fold Kronecker Pauli representation: copy c acts on tensor factor c."""
    base = sg.pauli_magic_square_rep().images
    eye = np.eye(4, dtype=complex)
    images = []
    for c in range(k):
        for w in base:
            mat = np.ones((1, 1), dtype=complex)
            for f in range(k):
                mat = np.kron(mat, w if f == c else eye)
            images.append(mat)
    return images


class KCopy2:
    """The 2-copy magic-square pipeline on a Haar-rotated Pauli representation.

    Drawing the rotation per instance makes every matrix entry non-dyadic, so
    a fast path that loses precision fails the 1e-12 relation gate.
    """

    name = "kcopy2"
    copies = 2

    def __init__(self):
        self.system = kcopy_system(self.copies)
        self.images = kcopy_pauli_images(self.copies)

    def make_inputs(self, rng):
        d = self.images[0].shape[0]
        u = random_unitary(d, rng)
        ud = u.conj().T
        return sg.GroupRep(
            images=tuple(u @ w @ ud for w in self.images),
            j_image=-np.eye(d, dtype=complex),
        )

    def run(self, rep, ctx):
        sys_ = self.system
        rep_report = sg.verify_rep(rep, sys_, ROTATED_RELATION_TOL)
        if not (rep_report.passes and rep_report.j_nontrivial):
            return False, 0, f"rotated representation residual {rep_report.max_residual:.3e}"
        strategy = sg.strategy_from_rep(rep, sys_, tol=TOL, eps=TOL)
        game = sg.build_synbcs(sys_)
        relations = sg.check_game_algebra_relations(game, strategy, TOL)
        if not (relations.passes and relations.max_residual <= ROTATED_RELATION_TOL):
            return False, 0, f"relation residual {relations.max_residual:.3e} > 1e-12"
        corr = sg.correlation_from_tracial(strategy, TOL)
        if not (sg.is_synchronous(corr, TOL) and sg.is_perfect(corr, game, TOL)):
            return False, 0, "tracial correlation not synchronous and perfect"

        back = sg.rep_from_strategy(strategy, sys_, tol=TOL)
        if not sg.verify_rep(back, sys_, 1e-8).passes:
            return False, 0, "representation round trip fails at 1e-8"
        g_b = sg.graph_from_system(sys_, use_b=True)
        g_0 = sg.graph_from_system(sys_, use_b=False)
        iso = sg.iso_strategy_from_bcs(strategy, sys_, tol=TOL)
        ga0 = sg.complement_colouring_ga0(sys_)
        cert0 = sg.independence_certificate_from_set(g_0, ga0.independent_set)
        cert_b = sg.transport_independence(cert0, sg.swap_iso_strategy(iso), g_b, tol=TOL)
        if cert_b.value != sys_.m or not cert_b.verify(TOL).passes:
            return False, 0, "transported independence certificate fails"
        recovered = sg.rep_from_independence(cert_b, sys_, tol=TOL)
        if not sg.verify_rep(recovered, sys_, 1e-8).passes:
            return False, 0, "representation from certificate fails at 1e-8"

        path = os.path.join(ctx.tmp_dir, "kcopy2-strategy.json")
        size = write_json(path, strategy.to_json_dict())
        loaded = OperatorStrategy.from_json_dict(read_json(path))
        if not _bitwise_equal(strategy, loaded):
            return False, size, "strategy JSON round trip is not bit-exact"
        return True, size, ""


def _bitwise_equal(a: OperatorStrategy, b: OperatorStrategy) -> bool:
    if (a.dim, a.inputs, a.outputs) != (b.dim, b.inputs, b.outputs):
        return False
    if set(a.pvms) != set(b.pvms):
        return False
    return all(np.array_equal(a.pvms[key], b.pvms[key]) for key in a.pvms)


# --------------------------------------------------------------- spectral --

# Fixed shapes per instance, so instance times differ only through the drawn
# matrices; the seed picks unitaries, ranks, perturbations and weights.
FAMILY_SHAPES = ((64, 8), (128, 6), (256, 4))        # (d, m) near-PVM families
CONTRACTION_DIMS = (32, 64, 128)
BLOCK_DIMS = (8, 16, 32)                              # planted decompose_qs blocks
BLOCK_INPUTS, BLOCK_OUTPUTS = 3, 3


class Spectral:
    """Near-PVM families through ``orthogonalize_family``, random contractions
    through ``round_contraction`` and planted block strategies through
    ``decompose_qs``: eigensolves and the rounding code, no game work."""

    name = "spectral"

    def make_inputs(self, rng):
        families = []
        for k, (d, m) in enumerate(FAMILY_SHAPES):
            eps = float(10.0 ** rng.uniform(-6.0, -2.0))
            ps = [p + random_hermitian(d, rng, eps) for p in random_exact_pvm(d, m, rng)]
            families.append((ps, k % 2 == 0))
        contractions = []
        for d in CONTRACTION_DIMS:
            lam = rng.uniform(0.0, 1.0, size=d)
            near = np.abs(lam - 0.5) < 1e-3  # keep clear of the 1/2 boundary margin
            lam[near] = np.where(lam[near] < 0.5, 0.25, 0.75)
            u = random_unitary(d, rng)
            contractions.append((u * lam) @ u.conj().T)
        return families, contractions, planted_block_strategy(rng)

    def run(self, inputs, ctx):
        families, contractions, (bipartite, truth) = inputs
        reports = []
        for ps, sum_one in families:
            qs, rep = orthogonalize_family(ps, sum_one=sum_one)
            if not (rep.outputs_exact and rep.within_budget):
                return False, 0, f"family d={ps[0].shape[0]} not exact or over budget"
            reports.append(rep.as_dict())
        for p in contractions:
            q, rep = round_contraction(p)
            if not rep.bound_holds or sg.norm2(q - q @ q) > 1e-12:
                return False, 0, "contraction rounding bound or idempotency fails"
            # ContractionRoundingReport.as_dict holds a numpy bool, which json rejects
            reports.append([rep.defect, rep.distance, float(rep.bound)])
        blocks = sg.decompose_qs(bipartite, tol=TOL)
        if len(blocks) != len(truth):
            return False, 0, f"decompose_qs found {len(blocks)} blocks, planted {len(truth)}"
        for (weight, block), (true_weight, true_dim) in zip(blocks, truth):
            if block.dim != true_dim or abs(weight - true_weight) > WEIGHT_TOL:
                return False, 0, "decompose_qs block weight or dimension is off"
        reports.append([[w, b.dim] for w, b in blocks])
        size = write_json(os.path.join(ctx.tmp_dir, "spectral-report.json"), reports)
        return True, size, ""


def planted_block_strategy(rng):
    """Block-diagonal synchronous bipartite strategy with distinct Schmidt levels.

    Returns the strategy and its ground truth [(weight, dim)] ordered by
    descending Schmidt coefficient, which is the order decompose_qs reports.
    """
    dims = np.array(BLOCK_DIMS)
    while True:
        raw = rng.uniform(0.2, 1.0, size=len(dims))
        weights = raw / raw.sum()
        coeffs = np.sqrt(weights / dims)
        gaps = np.abs(np.subtract.outer(coeffs, coeffs))[~np.eye(len(dims), dtype=bool)]
        if np.min(gaps) > 1e-3:
            break
    total = int(dims.sum())
    inputs, outputs = tuple(range(BLOCK_INPUTS)), tuple(range(BLOCK_OUTPUTS))
    alice = {(x, a): np.zeros((total, total), dtype=complex) for x in inputs for a in outputs}
    offset = 0
    for d in dims:
        for x in inputs:
            for a, p in enumerate(random_exact_pvm(int(d), len(outputs), rng)):
                alice[(x, a)][offset : offset + d, offset : offset + d] = p
        offset += d
    bob = {key: mat.T for key, mat in alice.items()}
    psi = np.zeros((total, total), dtype=complex)
    offset = 0
    for d, w in zip(dims, weights):
        idx = np.arange(offset, offset + d)
        psi[idx, idx] = np.sqrt(w / d)
        offset += d
    strategy = BipartiteStrategy(
        dim_a=total, dim_b=total, inputs=inputs, outputs=outputs,
        alice=alice, bob=bob, state=psi.reshape(-1),
    )
    order = np.argsort(-coeffs)
    return strategy, [(float(weights[k]), int(dims[k])) for k in order]


# -------------------------------------------------------------- classical --

SYSTEMS_PER_INSTANCE = 8
GRAPH_SIZES = (10, 11, 12, 13)    # the (chi - 1) refutation search grows fast with n
MAX_SYSTEM_VERTICES = 40          # stays inside the clique-search budget
MAX_SEARCH_BITS = 64              # m * n, the game search's default bit budget


class Classical:
    """GF(2) elimination, exhaustive game search, clique search and DSATUR
    colouring on random systems and graphs: the matrix-free layers."""

    name = "classical"

    def make_inputs(self, rng):
        systems = [random_small_system(rng) for _ in range(SYSTEMS_PER_INSTANCE)]
        graphs = [random_graph(rng, n) for n in GRAPH_SIZES]
        return systems, graphs

    def run(self, inputs, ctx):
        systems, graphs = inputs
        results = []
        for sys_ in systems:
            solution = sg.solve_gf2(sys_)
            found = sg.find_deterministic_perfect(sg.build_synbcs(sys_))
            alpha_b = sg.alpha(sg.graph_from_system(sys_, use_b=True))
            if not ((solution is not None) == (found is not None) == (alpha_b == sys_.m)):
                return False, 0, "solve_gf2, game search and alpha(G_b) == m disagree"
            if found is not None and not all(
                sys_.equation_holds(i, found.assignment[i]) for i in range(1, sys_.m + 1)
            ):
                return False, 0, "game search answer violates an equation"
            results.append([solution is not None, alpha_b])
        for g in graphs:
            k = sg.chi(g)
            hom = sg.build_hom_game(g, sg.complete(k))
            colouring = sg.find_deterministic_perfect(hom)
            if colouring is None or not colouring.perfect_for(hom):
                return False, 0, f"no K_{k} map for a graph with chi = {k}"
            if sg.find_deterministic_perfect(sg.build_hom_game(g, sg.complete(k - 1))) is not None:
                return False, 0, f"found a K_{k - 1} map for a graph with chi = {k}"
            results.append([g.n, k])
        size = write_json(os.path.join(ctx.tmp_dir, "classical-report.json"), results)
        return True, size, ""


def random_small_system(rng) -> sg.BinaryLinearSystem:
    """A random system with m * n <= 64 and at most 40 incompatibility-graph vertices."""
    while True:
        m = int(rng.integers(3, 7))
        n = int(rng.integers(3, min(10, MAX_SEARCH_BITS // m) + 1))
        sizes = [int(rng.integers(1, min(n, 4) + 1)) for _ in range(m)]
        if sum(2 ** (s - 1) for s in sizes) > MAX_SYSTEM_VERTICES:
            continue
        rows = tuple(
            frozenset(int(j) for j in rng.choice(np.arange(1, n + 1), size=s, replace=False))
            for s in sizes
        )
        b = tuple(int(v) for v in rng.integers(0, 2, size=m))
        return sg.BinaryLinearSystem(m=m, n=n, rows=rows, b=b)


def random_graph(rng, n: int, p: float = 0.5) -> sg.Graph:
    """G(n, p) with vertices numbered by descending degree.

    The game search takes inputs in index order, so this numbering is the
    largest-first order a colouring search would pick.  With uniformly random
    numbering a few n = 13 graphs in a thousand need over 200k search nodes to
    refute a (chi - 1)-colouring, and a rare one would exceed the search's 2M
    node budget; in this numbering none of 2000 needed more than half a second.
    """
    upper = np.triu(rng.random((n, n)) < p, k=1)
    adjacency = upper | upper.T
    order = np.argsort(-adjacency.sum(axis=1), kind="stable")
    position = np.empty(n, dtype=int)
    position[order] = np.arange(n)
    edges = frozenset(
        (int(min(position[u], position[v])), int(max(position[u], position[v])))
        for u, v in zip(*np.nonzero(upper))
    )
    return sg.Graph(n=n, edges=edges)


WORKLOADS = {w.name: w for w in (Demo, KCopy2, Spectral, Classical)}
