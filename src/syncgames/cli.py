"""Command-line front end wiring the toolkit into reproducible pipelines.

Each command is one COMMANDS entry declaring its input files and flags; main()
reads each input once, runs the handler, writes --out and the JSON --report
(also on failure) and maps errors to exit codes.  Result payloads contain no
timestamps, so outputs are byte-stable for fixed inputs.
Exit codes: 0 all verdicts pass, 2 validation error (a NaN, infinite or negative
tolerance too), 3 verification failure, 4 budget exceeded.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys as _sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import BudgetError, ToolkitError, ValidationError, VerificationError
from .games import (
    build_hom_game,
    build_iso_game,
    build_synbcs,
    check_game_algebra_relations,
    find_deterministic_perfect,
    game_from_json_dict,
)
from .gf2 import BinaryLinearSystem, enumerate_si, solve_gf2
from .graphs import (
    Graph,
    IndependenceCertificate,
    alpha,
    chi,
    complement_colouring_ga0,
    graph_from_system,
    independence_certificate_from_set,
    iso_strategy_from_bcs,
    omega,
    rep_from_independence,
    swap_iso_strategy,
    transport_independence,
)
from .labels import int_from_json, label_to_json, labels_from_json
from .magic_square import mermin_peres_system, pauli_magic_square_rep
from .matops import matrix_from_json, matrix_to_json
from .rounding import orthogonalize_family
from .solution_group import (
    GroupRep,
    normalize_j,
    presentation,
    rep_from_strategy,
    strategy_from_rep,
    verify_rep,
)
from .strategies import (
    BipartiteStrategy,
    Correlation,
    OperatorStrategy,
    correlation_from_bipartite,
    correlation_from_tracial,
    decompose_qs,
    is_perfect,
    is_synchronous,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VERIFICATION = 3
EXIT_BUDGET = 4

# Most specific first: the first matching class decides the exit code.
ERROR_EXITS = (
    (BudgetError, EXIT_BUDGET, "budget exceeded"),
    (VerificationError, EXIT_VERIFICATION, "verification failed"),
    (ValidationError, EXIT_VALIDATION, "invalid input"),
    (ToolkitError, EXIT_VALIDATION, "error"),
)

OUTPUTS_NOTE = (
    '{"sign_vectors": n}, 0 <= n <= 62, stands for all 2^n sign vectors [+1|-1, ...] in '
    "itertools.product((-1, 1), repeat=n) order, the synBCS output alphabet, and is how it is "
    "written; the old form listing every vector still loads)"
)

SCHEMAS = {
    "system": '{"m": int, "n": int, "rows": [[1-based variable indices]], "b": [0|1, ...]}',
    "sign_vector": "[+1|-1, ...] of length n",
    "matrix": '{"dim": d, "c16": "<base64 of the little-endian complex128 bytes, row-major>"} '
    "is written (bit-exact); the hand-written form "
    '{"dim": d, "entries": [[[re, im], ... d], ... d]} (row-major) is still read. '
    'Exactly one of "c16" and "entries", an integer d >= 1 and finite entries',
    "graph": '{"n": int, "edges": [[u, v], ...]} with 0-based vertices, optional "labels": [...]',
    "game": '{"kind": "synbcs", "system": {...}} | {"kind": "hom"|"iso", "G": {...}, "H": {...}} | '
    '{"kind": "explicit", "inputs": [...], "outputs": [...], "losing": [[x, y, a, b], ...]}',
    "strategy": '{"dim": d, "inputs": [...], "outputs": [...] | {"sign_vectors": n}, '
    '"pvms": [{"input": x, "output": a, "matrix": {...}}, ...]} (missing operators are zero; '
    + OUTPUTS_NOTE,
    "bipartite_strategy": '{"dim_a": d, "dim_b": d, "inputs": [...], '
    '"outputs": [...] | {"sign_vectors": n}, "alice": [pvm entries], "bob": [pvm entries], '
    '"state": [[re, im], ...]} (' + OUTPUTS_NOTE,
    "correlation": '{"n": int, "m": int, "inputs": [...], "outputs": [...] | {"sign_vectors": n}, '
    '"p": [[[[...]]]] indexed [x][y][a][b]} or sparse "entries": [[x, y, a, b, value], ...] ('
    + OUTPUTS_NOTE,
    "representation": '{"dim": d, "images": [matrix, ... n], "j": matrix}',
    "pvm_family": '{"pvms": [matrix, ...]}',
    "certificate_bundle": '{"value": c, "graph": {...}|"path", "strategy": {...}|"path"} '
    "(paths resolved relative to the bundle file; reports digest the files named)",
    "report": '{"command": str, "inputs": {path: sha256}, "payload": {...}, "wall_time_s": float}, '
    'with a digest for every file read, plus "exit_code": int and "error": str when the exit '
    "code is not 0",
    "labels": "ints and strings pass through; tuples serialize as JSON lists",
}


def _read_json(path: str, digests: Optional[dict] = None) -> dict:
    """Parse the JSON object in path; record the sha256 of the bytes read in digests."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in a bundle-named path
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    if digests is not None:
        digests[path] = hashlib.sha256(raw).hexdigest()
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValidationError(f"{path} nests JSON too deeply to parse") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path} must hold a JSON object")
    return data


def _write_json(path: str, payload) -> None:
    """Write payload as indented, key-sorted JSON; a str payload is written verbatim."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            if isinstance(payload, str):
                fh.write(payload)
            else:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


class Run:
    """Collects named checks, the payload and input digests for one CLI invocation."""

    def __init__(self, command: str):
        self.command = command
        self.inputs: dict = {}
        self.payload: dict = {}
        self.checks: list = []
        self.started = time.monotonic()

    def track(self, path: str, loader: Callable):
        """Read one input file, record its digest and parse it with its loader.  The
        loaders parse nested labels recursively, so a deeper nesting than the
        interpreter's recursion limit allows is refused as invalid input."""
        data = _read_json(path, self.inputs)
        try:
            return loader(data, path, self.inputs)
        except RecursionError as exc:
            raise ValidationError(f"{path} nests its values too deeply to load") from exc

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append({"name": name, "pass": bool(ok), "detail": detail})
        line = f"{name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        print(line)
        return bool(ok)

    def finish(self, report_path: Optional[str], code: int, error: str) -> None:
        if self.checks:
            self.payload["checks"] = self.checks
        if not report_path:
            return
        report = {
            "command": self.command,
            "inputs": self.inputs,
            "payload": self.payload,
            "wall_time_s": round(time.monotonic() - self.started, 6),
        }
        if code != EXIT_OK:
            report["exit_code"] = code
            report["error"] = error
        _write_json(report_path, report)


# --------------------------------------------------------------- loaders --

def _load_pvm_family(data: dict, *_) -> list:
    try:
        return list(labels_from_json(data["pvms"], "PVM family pvms", item=matrix_from_json))
    except KeyError as exc:
        raise ValidationError(f"malformed PVM family JSON: {exc}") from exc


def _load_cert_bundle(data: dict, path: str, digests: dict) -> IndependenceCertificate:
    """A certificate bundle; string entries name files relative to the bundle file,
    whose digests are recorded next to the bundle's."""

    def part(key, cls):
        entry = data[key]
        if isinstance(entry, str):
            entry = _read_json(os.path.join(os.path.dirname(path), entry), digests)
        return cls.from_json_dict(entry)

    try:
        return IndependenceCertificate(
            graph=part("graph", Graph),
            value=int_from_json(data["value"], "certificate value"),
            strategy=part("strategy", OperatorStrategy),
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed certificate bundle: {exc}") from exc


# Each loader takes the parsed JSON object, the path it was read from and the
# run's digest table (for any further file it reads).
LOADERS = {
    "system": lambda data, *_: BinaryLinearSystem.from_json_dict(data),
    "graph": lambda data, *_: Graph.from_json_dict(data),
    "strategy": lambda data, *_: OperatorStrategy.from_json_dict(data),
    "game": lambda data, *_: game_from_json_dict(data),
    "rep": lambda data, *_: GroupRep.from_json_dict(data),
    "bipartite": lambda data, *_: BipartiteStrategy.from_json_dict(data),
    "correlation": lambda data, *_: Correlation.from_json_dict(data),
    "pvm_family": _load_pvm_family,
    "cert_bundle": _load_cert_bundle,
}


# --------------------------------------------------------------- handlers --
# A handler gets the Run, the parsed arguments and the loaded input objects in
# the order its command declares them (None for an absent optional input).  It
# fills the payload and returns what --out receives (None without --out).

def _system_solve(run, args, system):
    solution = solve_gf2(system)
    solution = None if solution is None else list(solution)
    run.payload["solvable"] = solution is not None
    if solution is not None:
        run.payload["solution"] = solution
        print(f"solvable: {solution}")
    else:
        print("unsolvable over GF(2)")
    return {"solvable": solution is not None, "solution": solution}


def _system_si(run, args, system):
    vectors = enumerate_si(system, args.equation)
    run.payload["equation"] = args.equation
    run.payload["count"] = len(vectors)
    print(f"|S_{args.equation}| = {len(vectors)}")
    if not args.out:
        for x in vectors:
            print(list(x))
    return {"equation": args.equation, "solutions": [list(x) for x in vectors]}


def _game_build(run, args, system, g, h):
    if args.kind == "synbcs":
        if system is None:
            raise ValidationError("--kind synbcs needs --system")
        game = build_synbcs(system)
    else:
        if g is None or h is None:
            raise ValidationError(f"--kind {args.kind} needs --g and --h")
        game = build_hom_game(g, h) if args.kind == "hom" else build_iso_game(g, h)
    run.payload.update(inputs_count=len(game.inputs), outputs_count=len(game.outputs))
    print(f"built {args.kind} game: {len(game.inputs)} inputs, {len(game.outputs)} outputs")
    return game.to_json_dict()


def _game_solve_classical(run, args, game):
    strategy = find_deterministic_perfect(game)
    run.payload["perfect_deterministic_strategy_exists"] = strategy is not None
    if strategy is None:
        print("no perfect deterministic strategy (exhaustive)")
    else:
        print("perfect deterministic strategy found")
        run.payload["assignment"] = [
            [label_to_json(x), label_to_json(a)] for x, a in sorted(
                strategy.assignment.items(), key=lambda kv: repr(kv[0])
            )
        ]


def _game_check_strategy(run, args, game, strategy):
    report = check_game_algebra_relations(game, strategy, args.tol)
    run.payload["relations"] = report.as_dict()
    run.check(
        "game-algebra-relations",
        report.passes,
        f"max residual {report.max_residual:.3e} vs tol {args.tol:g}",
    )


def _strategy_correlation(run, args, tracial, bipartite):
    if (tracial is None) == (bipartite is None):
        raise ValidationError("pass exactly one of --tracial or --bipartite")
    if tracial is not None:
        corr = correlation_from_tracial(tracial, args.tol)
    else:
        corr = correlation_from_bipartite(bipartite, args.tol)
    run.payload["entries"] = len(corr.p)
    print(f"wrote correlation with {len(corr.p)} stored entries")
    return corr.to_json_dict()


def _strategy_check(run, args, corr, game):
    corr.validate(args.tol)
    sync_worst, _ = corr.max_sync_violation()
    run.payload["max_sync_violation"] = sync_worst
    run.check("synchronous", is_synchronous(corr, args.tol), f"max diagonal leak {sync_worst:.3e}")
    if game is not None:
        losing, witness = corr.max_losing(game)
        run.payload["max_losing_probability"] = losing
        run.check(
            "perfect",
            is_perfect(corr, game, args.eps),
            f"max losing probability {losing:.3e} at {witness!r} vs eps {args.eps:g}",
        )


def _strategy_decompose_qs(run, args, strategy):
    blocks = decompose_qs(strategy, tol=args.tol, cluster_tol=args.cluster_tol)
    run.payload["weights"] = [w for w, _ in blocks]
    run.payload["block_dims"] = [b.dim for _, b in blocks]
    print(f"{len(blocks)} block(s), weights {[round(w, 12) for w, _ in blocks]}")
    return {"blocks": [{"weight": w, "strategy": b.to_json_dict()} for w, b in blocks]}


def _round(run, args, mats):
    qs, report = orthogonalize_family(mats, sum_one=args.sum_one)
    run.payload["rounding"] = report.as_dict()
    run.check(
        "outputs-exact",
        report.outputs_exact,
        f"orthogonality/idempotency within {1e-12:g}",
    )
    run.check(
        "within-budget",
        report.within_budget,
        f"max distance {report.max_distance:.3e} vs budget {report.budget:.3e}",
    )
    return {"pvms": [matrix_to_json(q) for q in qs]}


def _group_present(run, args, system):
    pres = presentation(system)
    text = pres.export_text()
    if args.out:
        print(f"wrote {len(pres.relators)} relators")
    else:
        print(text, end="")
    run.payload["relators"] = len(pres.relators)
    return text


def _group_verify(run, args, system, rep):
    report = verify_rep(rep, system, args.tol)
    run.payload["verification"] = report.as_dict()
    run.check("relators", report.passes, f"max residual {report.max_residual:.3e} vs {args.tol:g}")
    run.check("j-nontrivial", report.j_nontrivial, f"||J - I||_2 = {report.j_distance:.3e}")


def _group_to_strategy(run, args, system, rep):
    """strategy_from_rep does not check the file's relators, so they are checked here."""
    verify_rep(rep, system, args.tol).require("representation")
    strategy = strategy_from_rep(rep, system, tol=args.tol, eps=args.eps)
    run.payload.update(dim=strategy.dim, stored_projections=len(strategy.pvms))
    print(f"wrote perfect strategy: dim {strategy.dim}, {len(strategy.pvms)} projections")
    return strategy.to_json_dict()


def _group_from_strategy(run, args, system, strategy):
    """rep_from_strategy does not check the file's relations, so they are checked here."""
    check_game_algebra_relations(build_synbcs(system), strategy, args.tol).require("strategy")
    rep = rep_from_strategy(strategy, system, tol=args.tol)
    run.payload["dim"] = rep.dim
    print(f"recovered representation of dimension {rep.dim}")
    return rep.to_json_dict()


def _group_normalize_j(run, args, rep):
    out = normalize_j(rep, tol=args.tol)
    run.payload.update(dim_before=rep.dim, dim_after=out.dim)
    print(f"compressed {rep.dim} -> {out.dim}")
    return out.to_json_dict()


def _graph_param(run, args, graph):
    param = run.command.split()[-1]
    run.payload[param] = value = {"alpha": alpha, "omega": omega, "chi": chi}[param](graph)
    print(value)


def _graph_from_system(run, args, system):
    g = graph_from_system(system, use_b=not args.homogeneous)
    run.payload.update(vertices=g.n, edges=len(g.edges))
    print(f"wrote incompatibility graph: {g.n} vertices, {len(g.edges)} edges")
    return g.to_json_dict()


def _graph_colour_ga0(run, args, system):
    certs = complement_colouring_ga0(system)
    run.payload["certificates"] = certs.as_dict()
    run.check(
        "alpha-of-homogeneous-graph",
        True,
        f"value {certs.value} pinned by colouring + independent set",
    )
    return certs.as_dict()


def _graph_certify(run, args, cert):
    report = cert.verify(args.tol)
    run.payload["value"] = cert.value
    run.payload["relations"] = report.as_dict()
    run.check(
        "independence-certificate",
        report.passes,
        f"value {cert.value}, max residual {report.max_residual:.3e} vs {args.tol:g}",
    )


def _graph_transport(run, args, cert, iso, target):
    """transport_independence checks only its arguments' labels, so the files' relations
    are checked here first."""
    if args.swap_iso:
        iso = swap_iso_strategy(iso)
    cert.verify(args.tol).require("independence certificate")
    check_game_algebra_relations(build_iso_game(cert.graph, target), iso, args.tol).require(
        "isomorphism strategy"
    )
    out_cert = transport_independence(cert, iso, target, tol=args.tol)
    run.payload.update(value=out_cert.value, dim=out_cert.strategy.dim)
    run.check("transported-certificate", True, f"value {out_cert.value}, dim {out_cert.strategy.dim}")
    return {
        "value": out_cert.value,
        "graph": out_cert.graph.to_json_dict(),
        "strategy": out_cert.strategy.to_json_dict(),
    }


def _demo_magic_square(run, args):
    """The headline pipeline.  Objects that a library constructor certifies before
    returning them (glue_rep at 10 * tol, the rest at tol) are not checked again here."""
    tol, eps = args.tol, args.eps
    sys_ = mermin_peres_system()
    run.check("classical-gf2-unsolvable", solve_gf2(sys_) is None, "Gaussian elimination")
    run.check(
        "classical-search-unsolvable",
        find_deterministic_perfect(build_synbcs(sys_)) is None,
        "exhaustive backtracking over local solutions",
    )

    rep = pauli_magic_square_rep()
    rep_report = verify_rep(rep, sys_, 1e-12)
    run.check(
        "pauli-representation",
        rep_report.passes and rep_report.j_nontrivial,
        f"max relator residual {rep_report.max_residual:.3e} at 1e-12, J != 1",
    )

    # strategy_from_rep certifies its strategy synchronous and perfect at eps
    strategy = strategy_from_rep(rep, sys_, tol=tol, eps=eps)
    run.check("quantum-strategy-perfect", True, f"dim {strategy.dim} tracial strategy, eps {eps:g}")

    rep_from_strategy(strategy, sys_, tol=tol)
    run.check("representation-roundtrip", True, f"certified by glue_rep at {10 * tol:g}")

    iso = iso_strategy_from_bcs(strategy, sys_, tol=tol)
    run.check("isomorphism-certificate", True, f"certified by iso_strategy_from_bcs at {tol:g}")

    g_b = graph_from_system(sys_, use_b=True)
    ga0 = complement_colouring_ga0(sys_)
    cert0 = independence_certificate_from_set(ga0.graph, ga0.independent_set)
    cert_b = transport_independence(cert0, swap_iso_strategy(iso), g_b, tol=tol)
    run.check(
        "quantum-independence-6",
        cert_b.value == 6,
        f"certified by transport_independence at {tol:g}",
    )

    rep_from_independence(cert_b, sys_, tol=tol)
    run.check("representation-from-certificate", True, f"certified by glue_rep at {10 * tol:g}")

    # gluing cross-check: any 5 equations are classically solvable, all 6 are not
    subsystems_ok = all(
        solve_gf2(
            BinaryLinearSystem(
                m=5,
                n=sys_.n,
                rows=tuple(r for k, r in enumerate(sys_.rows) if k != drop),
                b=tuple(v for k, v in enumerate(sys_.b) if k != drop),
            )
        )
        is not None
        for drop in range(6)
    )
    alpha_b = alpha(g_b)
    run.check(
        "classical-alpha-5",
        alpha_b == 5 and subsystems_ok,
        "branch-and-bound = 5; every 5-equation subsystem solvable, full system not",
    )
    run.payload["alpha_G_Ab"] = alpha_b


# ---------------------------------------------------------- command table --

@dataclass(frozen=True)
class Input:
    """An input-file flag and the LOADERS key of the loader that parses it."""

    flag: str
    kind: str
    required: bool = True
    help: Optional[str] = None


@dataclass(frozen=True)
class Command:
    """One CLI command; the first word of its name is its subcommand group, if any."""

    name: str
    help: str
    handler: Callable
    inputs: tuple = ()  # Input specs, loaded in this order
    flags: tuple = ()   # (flag names, argparse keyword arguments) pairs; --report is implicit


def flag(*names, **kwargs) -> tuple:
    return names, kwargs


OUT = flag("--out", help="output JSON path")
OUT_REQUIRED = flag("--out", required=True, help="output JSON path")
TOL = flag("--tol", default=1e-9, help="verification tolerance (default 1e-9)")
EPS = flag("--eps", default=1e-9, help="perfectness tolerance (default 1e-9)")


GROUPS = {
    "system": "GF(2) linear systems",
    "game": "synchronous games",
    "strategy": "operator strategies and correlations",
    "group": "solution groups",
    "graph": "graphs and certificates",
    "demo": "end-to-end pipelines",
}

COMMANDS = (
    Command("system solve", "decide classical solvability", _system_solve,
            inputs=(Input("--in", "system"),), flags=(OUT,)),
    Command("system si", "enumerate one equation's local solutions", _system_si,
            inputs=(Input("--in", "system"),),
            flags=(flag("--equation", type=int, required=True), OUT)),
    Command("game build", "build a game from a system or graphs", _game_build,
            inputs=(Input("--system", "system", False), Input("--g", "graph", False),
                    Input("--h", "graph", False)),
            flags=(flag("--kind", choices=["synbcs", "hom", "iso"], required=True), OUT_REQUIRED)),
    Command("game solve-classical", "search for a perfect deterministic strategy",
            _game_solve_classical, inputs=(Input("--in", "game"),)),
    Command("game check-strategy", "verify the game-algebra relations", _game_check_strategy,
            inputs=(Input("--game", "game"), Input("--strategy", "strategy")), flags=(TOL,)),
    Command("strategy correlation", "evaluate a strategy's correlation", _strategy_correlation,
            inputs=(Input("--tracial", "strategy", False, "operator strategy JSON"),
                    Input("--bipartite", "bipartite", False, "bipartite strategy JSON")),
            flags=(OUT_REQUIRED, TOL)),
    Command("strategy check", "synchronicity / perfectness of a correlation", _strategy_check,
            inputs=(Input("--correlation", "correlation"), Input("--game", "game", False)),
            flags=(TOL, EPS)),
    Command("strategy decompose-qs", "Schmidt-block decomposition", _strategy_decompose_qs,
            inputs=(Input("--in", "bipartite"),),
            flags=(flag("--cluster-tol", default=1e-7), OUT, TOL)),
    Command("round", "orthogonalize a family of near-projections", _round,
            inputs=(Input("--in", "pvm_family"),),
            flags=(flag("--sum-one", action="store_true"), OUT_REQUIRED)),
    Command("group present", "export the group presentation", _group_present,
            inputs=(Input("--system", "system"),), flags=(OUT,)),
    Command("group verify", "check a representation against all relators", _group_verify,
            inputs=(Input("--system", "system"), Input("--rep", "rep")), flags=(TOL,)),
    Command("group to-strategy", "representation -> perfect BCS strategy", _group_to_strategy,
            inputs=(Input("--system", "system"), Input("--rep", "rep")),
            flags=(OUT_REQUIRED, TOL, EPS)),
    Command("group from-strategy", "perfect BCS strategy -> representation",
            _group_from_strategy,
            inputs=(Input("--system", "system"), Input("--strategy", "strategy")),
            flags=(OUT_REQUIRED, TOL)),
    Command("group normalize-j", "compress to the -1 eigenspace of J", _group_normalize_j,
            inputs=(Input("--rep", "rep"),), flags=(OUT_REQUIRED, TOL)),
    *(
        Command(f"graph {param}", f"exact {param} by branch and bound", _graph_param,
                inputs=(Input("--in", "graph"),))
        for param in ("alpha", "omega", "chi")
    ),
    Command("graph from-system", "incompatibility graph of a system", _graph_from_system,
            inputs=(Input("--system", "system"),),
            flags=(flag("--homogeneous", action="store_true",
                        help="use b = 0 instead of the given b"),
                   OUT_REQUIRED)),
    Command("graph colour-ga0", "colouring + independent-set certificates for G_{A,0}",
            _graph_colour_ga0, inputs=(Input("--system", "system"),), flags=(OUT,)),
    Command("graph certify", "verify an independence certificate", _graph_certify,
            inputs=(Input("--cert", "cert_bundle", help="certificate bundle JSON"),), flags=(TOL,)),
    Command("graph transport", "transport a certificate along an isomorphism strategy",
            _graph_transport,
            inputs=(Input("--cert", "cert_bundle", help="certificate bundle JSON"),
                    Input("--iso", "strategy", help="isomorphism-game strategy JSON"),
                    Input("--target", "graph", help="target graph JSON")),
            flags=(flag("--swap-iso", action="store_true",
                        help="reverse the isomorphism strategy first"),
                   OUT_REQUIRED, TOL)),
    Command("demo magic-square", "full magic-square pipeline", _demo_magic_square,
            flags=(TOL, EPS)),
)


# Flags whose value main converts and range-checks itself, so that a bad value gets
# the run report a bad input file gets.
FLOAT_FLAGS = ("--tol", "--eps", "--cluster-tol")


def _attach_float_values(argv: list) -> list:
    """argv with each float flag joined to the argument after it (`--tol=-1e-7`).
    argparse takes a separate `-1e-7` or `-inf` for an option, not a value (its
    negative-number pattern has no exponent), and would exit before main could
    check the value and write a report."""
    out: list = []
    for arg in argv:
        if out and out[-1] in FLOAT_FLAGS:
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process and shared by every main
    call: parsing leaves it unchanged, and no caller may change it."""
    parser = argparse.ArgumentParser(
        prog="syncgames",
        description="Synchronous nonlocal games: construction, verification and conversion.",
    )
    parser.add_argument("--schema", action="store_true", help="dump all JSON schemas and exit")
    sub = parser.add_subparsers(dest="group")
    groups: dict = {}
    for cmd in COMMANDS:
        head, _, tail = cmd.name.partition(" ")
        if not tail:
            p = sub.add_parser(head, help=cmd.help)
        else:
            if head not in groups:
                groups[head] = sub.add_parser(head, help=GROUPS[head]).add_subparsers(dest="command")
            p = groups[head].add_parser(tail, help=cmd.help)
        for spec in cmd.inputs:
            p.add_argument(spec.flag, required=spec.required, help=spec.help)
        for names, kwargs in cmd.flags:
            p.add_argument(*names, **kwargs)
        p.add_argument("--report", help="write a JSON run report here")
        p.set_defaults(spec=cmd)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_float_values(_sys.argv[1:] if argv is None else argv))
    if args.schema:
        print(json.dumps(SCHEMAS, indent=2, sort_keys=True))
        return EXIT_OK
    cmd = getattr(args, "spec", None)
    if cmd is None:
        parser.print_help()
        return EXIT_VALIDATION
    run = Run(cmd.name)
    try:
        for flag_name in FLOAT_FLAGS:
            dest = flag_name[2:].replace("-", "_")
            raw = getattr(args, dest, None)
            if raw is None:
                continue
            try:
                value = float(raw)
            except ValueError:
                raise ValidationError(f"{flag_name} must be a number, got {raw!r}") from None
            if not 0.0 <= value < math.inf:  # NaN fails too
                raise ValidationError(f"{flag_name} must be finite and >= 0, got {value!r}")
            setattr(args, dest, value)
        loaded = []
        for spec in cmd.inputs:
            path = getattr(args, spec.flag[2:])
            loaded.append(None if path is None else run.track(path, LOADERS[spec.kind]))
        out = cmd.handler(run, args, *loaded)
        if getattr(args, "out", None):
            _write_json(args.out, out)
        failed = [c["name"] for c in run.checks if not c["pass"]]
        code = EXIT_VERIFICATION if failed else EXIT_OK
        error = f"failed checks: {', '.join(failed)}" if failed else ""
    except ToolkitError as exc:
        code, prefix = next((c, p) for cls, c, p in ERROR_EXITS if isinstance(exc, cls))
        error = f"{prefix}: {exc}"
        print(error, file=_sys.stderr)
    try:
        run.finish(args.report, code, error)
    except ValidationError as exc:
        print(f"invalid input: {exc}", file=_sys.stderr)
        return EXIT_VALIDATION
    return code


if __name__ == "__main__":
    raise SystemExit(main())
