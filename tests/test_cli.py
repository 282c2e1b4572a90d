"""CLI surface: exit-code taxonomy, file pipelines, report stability."""
from __future__ import annotations

import argparse
import base64
import functools
import hashlib
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import random_exact_pvm

from syncgames import (
    OperatorStrategy,
    build_iso_game,
    check_game_algebra_relations,
    complement_colouring_ga0,
    complete,
    empty_graph,
    graph_from_system,
    independence_certificate_from_set,
    iso_strategy_from_bcs,
    mermin_peres_system,
    pauli_magic_square_rep,
    strategy_from_rep,
    swap_iso_strategy,
)
from syncgames import games
from syncgames.cli import SCHEMAS, build_parser, main
from syncgames.matops import MAX_EIG_DIM, matrix_to_json


@pytest.fixture
def magic_square_file(tmp_path):
    path = tmp_path / "magic.json"
    path.write_text(json.dumps(mermin_peres_system().to_json_dict()))
    return str(path)


@pytest.fixture
def pauli_rep_file(tmp_path):
    path = tmp_path / "pauli.json"
    path.write_text(json.dumps(pauli_magic_square_rep().to_json_dict()))
    return str(path)


def write_json(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_system_solve_unsolvable(magic_square_file, capsys):
    assert main(["system", "solve", "--in", magic_square_file]) == 0
    assert "unsolvable" in capsys.readouterr().out


def test_system_solve_writes_solution(tmp_path, capsys):
    sys_file = write_json(
        tmp_path, "sys.json", {"m": 1, "n": 2, "rows": [[1, 2]], "b": [1]}
    )
    out = tmp_path / "solution.json"
    assert main(["system", "solve", "--in", sys_file, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["solvable"] and sorted(data["solution"]) == [-1, 1]


def test_system_si(magic_square_file, capsys):
    assert main(["system", "si", "--in", magic_square_file, "--equation", "6"]) == 0
    assert "|S_6| = 4" in capsys.readouterr().out


def test_graph_alpha_complete_graph(tmp_path, capsys):
    path = write_json(tmp_path, "k5.json", complete(5).to_json_dict())
    assert main(["graph", "alpha", "--in", path]) == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == "1"


def test_graph_alpha_on_long_paths_answers_or_exits_4(tmp_path, capsys, monkeypatch):
    """No vertex cap: a 2000-vertex path is answered (its search is deeper than
    Python's recursion limit), and a 5000-vertex one under a smaller node budget is
    refused with exit 4 and a report, never a traceback."""
    path = {"n": 2000, "edges": [[v, v + 1] for v in range(1999)]}
    assert main(["graph", "alpha", "--in", write_json(tmp_path, "p2000.json", path)]) == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == "1000"
    monkeypatch.setattr(games, "DEFAULT_SEARCH_NODES", 500_000)
    path = {"n": 5000, "edges": [[v, v + 1] for v in range(4999)]}
    report = tmp_path / "report.json"
    argv = ["graph", "alpha", "--in", write_json(tmp_path, "p5000.json", path)]
    assert main(argv + ["--report", str(report)]) == 4
    data = json.loads(report.read_text())
    assert data["exit_code"] == 4
    assert data["error"] == "budget exceeded: search exceeded 500000 nodes; undecided"


@pytest.mark.parametrize("param, graph, need, value", [
    ("alpha", empty_graph(10), 21, "10"), ("omega", complete(5), 20, "5"), ("chi", complete(5), 25, "5"),
], ids=["alpha", "omega", "chi"])
def test_graph_param_exits_4_past_the_node_budget(tmp_path, capsys, monkeypatch, param, graph,
                                                  need, value):
    """The game search's node budget bounds the graph searches: each graph is answered
    within `need` nodes (counted in test_graphs) and refused with one node fewer."""
    path = write_json(tmp_path, "g.json", graph.to_json_dict())
    report = tmp_path / "report.json"
    monkeypatch.setattr(games, "DEFAULT_SEARCH_NODES", need)
    assert main(["graph", param, "--in", path]) == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == value
    monkeypatch.setattr(games, "DEFAULT_SEARCH_NODES", need - 1)
    assert main(["graph", param, "--in", path, "--report", str(report)]) == 4
    data = json.loads(report.read_text())
    assert (data["exit_code"], data["payload"]) == (4, {})
    assert data["error"] == f"budget exceeded: search exceeded {need - 1} nodes; undecided"
    with pytest.raises(SystemExit):  # the vertex cap and its flag are gone
        main(["graph", param, "--in", path, "--max-vertices", "0"])


def test_every_flag_the_readme_names_is_accepted():
    """A flag that is removed from the command line cannot stay documented."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme))
    accepted, parsers = set(), [build_parser()]
    while parsers:
        parser = parsers.pop()
        accepted |= set(parser._option_string_actions)
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    assert "--report" in named and "--tol" in named
    assert named <= accepted, sorted(named - accepted)


def test_round_cli_noop_on_exact_pvm(tmp_path, capsys):
    rng = np.random.default_rng(1)
    pvm = random_exact_pvm(4, 2, rng)
    infile = write_json(tmp_path, "pvms.json", {"pvms": [matrix_to_json(p) for p in pvm]})
    out = tmp_path / "rounded.json"
    report = tmp_path / "report.json"
    code = main(["round", "--in", infile, "--sum-one", "--out", str(out), "--report", str(report)])
    assert code == 0
    payload = json.loads(report.read_text())["payload"]
    assert max(payload["rounding"]["distances"]) <= 1e-12


def test_round_cli_respects_max_dim(tmp_path, capsys):
    d = MAX_EIG_DIM + 1
    zero = {"dim": d, "entries": [[[0.0, 0.0]] * d] * d}  # a projection, refused by size alone
    infile = write_json(tmp_path, "pvms.json", {"pvms": [zero]})
    out = str(tmp_path / "o.json")
    assert main(["round", "--in", infile, "--out", out]) == 4
    assert f"dimension {d} exceeds cap {MAX_EIG_DIM}" in capsys.readouterr().err
    with pytest.raises(SystemExit):  # no flag raises the cap
        main(["round", "--in", infile, "--out", out, "--max-dim", "1024"])


def test_validation_exit_code_for_garbage_file(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    assert main(["system", "solve", "--in", path.as_posix()]) == 2


def test_budget_exit_code(tmp_path, monkeypatch, capsys):
    """K_70 -> K_2 (70 bits) is refuted; K_5 -> K_4 is refuted too, but only past a
    node budget of 100, so under that budget the answer is undecided."""
    game = {"kind": "hom", "G": complete(70).to_json_dict(), "H": complete(2).to_json_dict()}
    report = tmp_path / "solve.json"
    path = write_json(tmp_path, "big.json", game)
    assert main(["game", "solve-classical", "--in", path, "--report", str(report)]) == 0
    assert json.loads(report.read_text())["payload"]["perfect_deterministic_strategy_exists"] is False
    monkeypatch.setattr(games, "DEFAULT_SEARCH_NODES", 100)
    game = {"kind": "hom", "G": complete(5).to_json_dict(), "H": complete(4).to_json_dict()}
    assert main(["game", "solve-classical", "--in", write_json(tmp_path, "k5.json", game)]) == 4
    assert "search exceeded 100 nodes; undecided" in capsys.readouterr().err


def test_pair_table_budget_exit_code(tmp_path, capsys):
    """A hom game from one vertex into 2001 lists 2001 candidate keys: the search's
    pair table (2001^2 cells) is over its budget, so the answer is undecided."""
    game = {"kind": "hom", "G": {"n": 1, "edges": []}, "H": {"n": 2001, "edges": []}}
    path = write_json(tmp_path, "wide.json", game)
    assert main(["game", "solve-classical", "--in", path]) == 4
    assert "pair table of 2001 candidate keys needs 4004001 cells" in capsys.readouterr().err
    game["H"]["n"] = 2000
    assert main(["game", "solve-classical", "--in", write_json(tmp_path, "fits.json", game)]) == 0


def test_search_over_1200_inputs_exits_0_with_a_report(tmp_path):
    """The hom game from an edgeless 1,200-vertex graph into K_1 is searched one depth
    per input, deeper than the interpreter's recursion limit."""
    game = {"kind": "hom", "G": {"n": 1200, "edges": []}, "H": {"n": 1, "edges": []}}
    report = tmp_path / "solve.json"
    path = write_json(tmp_path, "edgeless.json", game)
    assert main(["game", "solve-classical", "--in", path, "--report", str(report)]) == 0
    payload = json.loads(report.read_text())["payload"]
    assert payload["perfect_deterministic_strategy_exists"] is True
    assert sorted(payload["assignment"]) == [[v, 0] for v in range(1200)]


def test_verification_exit_code_for_bad_strategy(tmp_path, magic_square_file):
    game_file = write_json(
        tmp_path, "game.json", {"kind": "synbcs", "system": mermin_peres_system().to_json_dict()}
    )
    outputs = [[1] * 9]
    bad = {
        "dim": 2,
        "inputs": [1, 2, 3, 4, 5, 6],
        "outputs": [[c * v for c, v in zip([1] * 9, o)] for o in outputs],
        "pvms": [],
    }
    # a strategy with no stored operators fails completeness
    bad_file = write_json(tmp_path, "bad.json", bad)
    code = main(["game", "check-strategy", "--game", game_file, "--strategy", bad_file])
    assert code == 3


SYSTEM = {"m": 1, "n": 2, "rows": [[1, 2]], "b": [1]}  # each case below breaks one field
RAGGED_MATRIX = {"dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0]]]}
CORRELATION = {"n": 1, "m": 1, "inputs": [0], "outputs": [0]}
E0, E1 = ({"dim": 2, "entries": [[[v, 0], [0, 0]], [[0, 0], [1 - v, 0]]]} for v in (1, 0))
# Alice answers 0 where Bob answers 1: a product strategy that is not synchronous
MISMATCHED = {"dim_a": 2, "dim_b": 2, "inputs": [0], "outputs": [0, 1],
              "alice": [{"input": 0, "output": a, "matrix": e} for a, e in enumerate((E0, E1))],
              "bob": [{"input": 0, "output": a, "matrix": e} for a, e in enumerate((E1, E0))],
              "state": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
NO_SIDES = {"inputs": [], "outputs": [], "alice": [], "bob": []}
ONE = {"dim": 1, "entries": [[[1.0, 0.0]]]}
# Label lists given as a string or an object, which iterate as characters or keys;
# each loads on one input "x" (or "a", "b") if it is coerced.
STRING_INPUTS = {"dim": 1, "inputs": "ab", "outputs": [0],
                 "pvms": [{"input": x, "output": 0, "matrix": ONE} for x in "ab"]}
BIPARTITE_STRING_INPUTS = {"dim_a": 1, "dim_b": 1, "inputs": "x", "outputs": [0],
                           "alice": [{"input": "x", "output": 0, "matrix": ONE}],
                           "bob": [{"input": "x", "output": 0, "matrix": ONE}],
                           "state": [[1.0, 0.0]]}
BIPARTITE_ONE = {**BIPARTITE_STRING_INPUTS, "inputs": ["x"]}
EXPLICIT = {"kind": "explicit", "inputs": ["x"], "outputs": ["a", "b"],
            "losing": [["x", "x", "a", "b"], ["x", "x", "b", "a"]]}
# one key stored twice, first as the zero operator, then as the identity
ZERO = {"dim": 1, "entries": [[[0.0, 0.0]]]}
TWICE = [{"input": "x", "output": 0, "matrix": m} for m in (ZERO, ONE)]


def c16(values, dim: int = 1) -> dict:
    """The compact matrix form of the complex values given, row-major, for dimension dim."""
    raw = np.asarray(values, dtype="<c16").tobytes()
    return {"dim": dim, "c16": base64.b64encode(raw).decode("ascii")}


def round_file(matrix) -> dict:
    return {"pvms": [matrix]}


ROUND = ["round", "--out", "o.json", "--in"]
# graph transport reads a certificate and a target before its --iso; these load
EMPTY_CERT = {"value": 0, "graph": {"n": 0, "edges": []},
              "strategy": {"dim": 1, "inputs": [], "outputs": [], "pvms": []}}
TRANSPORT_SWAPPED = ["graph", "transport", "--swap-iso", "--out", "o.json",
                     "--cert", "empty-cert.json", "--target", "empty-graph.json", "--iso"]


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["system", "solve", "--in"], {**SYSTEM, "m": "x"}),
        (["system", "solve", "--in"], {**SYSTEM, "rows": [[1.5, 2]]}),
        (["system", "solve", "--in"], {**SYSTEM, "rows": [[True, 2]]}),
        (["system", "solve", "--in"], {**SYSTEM, "b": [True]}),
        (["graph", "alpha", "--in"], {"n": 3, "edges": [[0, 1.7]]}),
        (["round", "--out", "o.json", "--in"], {"pvms": [RAGGED_MATRIX]}),
        (
            ["strategy", "check", "--correlation"],
            {"n": 1, "m": 2, "inputs": [0], "outputs": [0, 1], "p": [[[[0.5, 0.0], [0.5]]]]},
        ),
        (["system", "solve", "--in"], None),  # missing input file
        (
            ["strategy", "check", "--correlation"],
            {"n": 5, "m": 9, "inputs": [0], "outputs": [0], "entries": [[7, 7, 3, 4, 0.5]]},
        ),
        (
            ["strategy", "check", "--correlation"],
            {**CORRELATION, "entries": [[0, 0, 0, 0, float("nan")]]},
        ),
        (
            ["strategy", "check", "--correlation"],
            {**CORRELATION, "entries": [[0, 0, 0, 0, float("inf")]]},
        ),
        (
            ["strategy", "check", "--correlation"],
            {**CORRELATION, "entries": [[0, 0, 0, 0, 10**400]]},  # too large for a float
        ),
        (["strategy", "check", "--correlation"], {**CORRELATION, "p": [[[[float("nan")]]]]}),
        (["strategy", "check", "--correlation"], {**CORRELATION, "p": [[[[float("-inf")]]]]}),
        (
            ["strategy", "correlation", "--out", "o.json", "--bipartite"],
            {**MISMATCHED, "state": [[float("nan"), 0.0]] + MISMATCHED["state"][1:]},
        ),
        (["strategy", "decompose-qs", "--in"], {**NO_SIDES, "dim_a": -1, "dim_b": -1,
                                                "state": [[1.0, 0.0]]}),
        (["strategy", "decompose-qs", "--in"], {**NO_SIDES, "dim_a": -2, "dim_b": -3,
                                                "state": [[6 ** -0.5, 0.0]] * 6}),
        (["strategy", "decompose-qs", "--tol", "nan", "--in"], MISMATCHED),
        (["strategy", "check", "--eps", "inf", "--correlation"], {**CORRELATION, "p": [[[[1]]]]}),
        (["strategy", "decompose-qs", "--cluster-tol", "-0.5", "--in"], MISMATCHED),
        (["strategy", "correlation", "--out", "o.json", "--tracial"], STRING_INPUTS),
        (["strategy", "decompose-qs", "--in"], BIPARTITE_STRING_INPUTS),
        (["strategy", "check", "--correlation"],
         {**CORRELATION, "inputs": "0", "entries": [["0", "0", 0, 0, 1.0]]}),
        (["graph", "alpha", "--in"], {"n": 2, "edges": [], "labels": {"p": 1, "q": 2}}),
        (["game", "solve-classical", "--in"], {**EXPLICIT, "losing": ["xxab", "xxba"]}),
        (["game", "solve-classical", "--in"], {**EXPLICIT, "outputs": ["a"], "losing": {}}),
        (["game", "solve-classical", "--in"], {**EXPLICIT, "inputs": "x"}),
        (["graph", "alpha", "--in"], {"n": 2, "edges": {}}),
        (ROUND, {"pvms": {}}),
        (["strategy", "correlation", "--out", "o.json", "--tracial"],
         {"dim": 2, "inputs": [], "outputs": [0], "pvms": {}}),
        (["strategy", "decompose-qs", "--in"], {**MISMATCHED, "bob": ""}),
        (["strategy", "check", "--correlation"], {**CORRELATION, "entries": {}}),
        (["group", "normalize-j", "--out", "o.json", "--rep"],
         {"dim": 1, "images": {}, "j": {"dim": 1, "entries": [[[-1.0, 0.0]]]}}),
        (ROUND, round_file({"dim": 1, "c16": "AAAA!AAAAAAAAAAAAAAAAA=="})),
        (ROUND, round_file({"dim": 1, "c16": "AAAAAAAAAAAAAAAAAAAAAA="})),
        (ROUND, round_file({"dim": 1, "c16": "AAAAAAAAAAAAAAAAAAAAAB=="})),
        (ROUND, round_file(c16([1.0], dim=2))),
        (ROUND, round_file(c16([1.0, 0.0]))),
        (ROUND, round_file(c16([float("nan")]))),
        (ROUND, round_file(c16([complex(0.0, float("inf"))]))),
        (["group", "normalize-j", "--out", "o.json", "--rep"],
         {"dim": 1, "images": [c16([float("-inf")])], "j": c16([-1.0])}),
        (ROUND, round_file({**c16([1.0]), **ONE})),
        (ROUND, round_file({"dim": 1})),
        (ROUND, round_file({"dim": 1, "c16": [0] * 16})),
        (ROUND, round_file({"dim": 0, "c16": ""})),
        (ROUND, round_file({"dim": 1, "entries": [[[10**400, 0]]]})),
        (ROUND, round_file({"dim": 1, "entries": [[[True, False]]]})),
        (ROUND, round_file({"dim": 1, "entries": [[[1.0, 0.0, 0.0]]]})),
        (["strategy", "decompose-qs", "--in"], {**BIPARTITE_ONE, "state": [[True, False]]}),
        (["strategy", "decompose-qs", "--in"],
         {**BIPARTITE_ONE, "alice": [{"input": "x", "output": 0,
                                      "matrix": {"dim": 1, "entries": [[[True, 0.0]]]}}]}),
        (["strategy", "decompose-qs", "--in"], {**BIPARTITE_ONE, "state": [[10**400, 0]]}),
        (["strategy", "decompose-qs", "--in"], {**BIPARTITE_ONE, "state": "x"}),
        (TRANSPORT_SWAPPED, {"dim": 1, "inputs": [1], "outputs": {"sign_vectors": 1},
                             "pvms": [{"input": 1, "output": [1], "matrix": ONE}]}),
        (TRANSPORT_SWAPPED, {"dim": 1, "inputs": [["x", 0]], "outputs": [["h", 0]],
                             "pvms": [{"input": ["x", 0], "output": ["h", 0], "matrix": ONE}]}),
        (["game", "solve-classical", "--in"],
         {**EXPLICIT, "losing": EXPLICIT["losing"] + [["x", "x", "a", "c"]]}),
        (["game", "solve-classical", "--in"], {**EXPLICIT, "losing": EXPLICIT["losing"][:1]}),
        (["game", "solve-classical", "--in"], {**EXPLICIT, "inputs": ["x", "x"]}),
        (["game", "solve-classical", "--in"], {**EXPLICIT, "outputs": ["a", "b", "a"]}),
        (["strategy", "correlation", "--out", "o.json", "--tracial"],
         {"dim": 1, "inputs": ["x", "x"], "outputs": [0], "pvms": TWICE[1:]}),
        (["strategy", "correlation", "--out", "o.json", "--tracial"],
         {"dim": 1, "inputs": ["x"], "outputs": [0, 0], "pvms": TWICE[1:]}),
        (["strategy", "correlation", "--out", "o.json", "--tracial"],
         {"dim": 1, "inputs": ["x"], "outputs": [0], "pvms": TWICE}),
        (["strategy", "decompose-qs", "--in"], {**BIPARTITE_ONE, "inputs": ["x", "x"]}),
        (["strategy", "decompose-qs", "--in"], {**BIPARTITE_ONE, "outputs": [0, 0]}),
        (["strategy", "decompose-qs", "--in"], {**BIPARTITE_ONE, "alice": TWICE}),
        (["strategy", "decompose-qs", "--in"], {**BIPARTITE_ONE, "bob": TWICE}),
        (["strategy", "check", "--correlation"],
         {"n": 2, "m": 1, "inputs": [0, 0], "outputs": [0], "p": [[[[0.25]], [[0.25]]]] * 2}),
        (["strategy", "check", "--correlation"],
         {"n": 1, "m": 2, "inputs": [0], "outputs": [0, 0], "entries": [[0, 0, 0, 0, 1.0]]}),
        (["strategy", "check", "--correlation"],
         {**CORRELATION, "entries": [[0, 0, 0, 0, 0.5], [0, 0, 0, 0, 1.0]]}),
        (["system", "solve", "--in"], "[" * 100_000 + "]" * 100_000),
        (["game", "solve-classical", "--in"],
         '{"kind": "explicit", "inputs": [%s], "outputs": [0], "losing": []}'
         % ("[" * 900 + "0" + "]" * 900)),
    ],
    ids=["m-string", "index-float", "index-bool", "b-bool", "edge-float", "ragged-matrix",
         "ragged-correlation", "missing-path", "correlation-labels", "correlation-entry-nan",
         "correlation-entry-infinity", "correlation-entry-huge-int", "correlation-dense-nan",
         "correlation-dense-minus-infinity", "bipartite-state-nan", "bipartite-dims-minus-1",
         "bipartite-dims-minus-2-3", "tol-nan", "eps-infinity", "cluster-tol-negative",
         "strategy-inputs-string", "bipartite-inputs-string", "correlation-inputs-string",
         "graph-labels-object", "explicit-losing-entry-strings", "explicit-losing-object",
         "explicit-inputs-string", "graph-edges-object", "pvm-family-object",
         "strategy-pvms-object", "bipartite-bob-string", "correlation-entries-object",
         "rep-images-object", "c16-non-alphabet", "c16-bad-padding", "c16-unused-bits-set",
         "c16-too-short", "c16-too-long", "c16-nan", "c16-infinity", "rep-c16-infinity",
         "c16-and-entries", "matrix-without-payload", "c16-not-string", "matrix-dim-0",
         "entries-huge-int", "entries-bool", "entries-triple", "bipartite-state-bool",
         "bipartite-entries-bool", "bipartite-state-huge-int", "bipartite-state-string",
         "swap-iso-bcs-strategy", "swap-iso-side-x", "explicit-losing-unknown-label",
         "explicit-not-synchronous", "explicit-inputs-repeated", "explicit-outputs-repeated",
         "strategy-inputs-repeated", "strategy-outputs-repeated", "strategy-key-repeated",
         "bipartite-inputs-repeated", "bipartite-outputs-repeated", "bipartite-alice-key-repeated",
         "bipartite-bob-key-repeated", "correlation-inputs-repeated",
         "correlation-outputs-repeated", "correlation-entry-repeated", "json-nested-100000",
         "explicit-input-label-nested-900"],
)
def test_malformed_input_exits_2_with_report(tmp_path, capsys, argv, payload):
    """Runs in-process, so an uncaught exception (a traceback) fails the test."""
    write_json(tmp_path, "empty-cert.json", EMPTY_CERT)
    write_json(tmp_path, "empty-graph.json", EMPTY_CERT["graph"])
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    path = tmp_path / "input.json"
    if payload is not None:  # raw text is written as it is
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    report = tmp_path / "report.json"
    assert main(argv + [str(path), "--report", str(report)]) == 2
    assert capsys.readouterr().err.startswith("invalid input: ")
    data = json.loads(report.read_text())
    assert data["exit_code"] == 2 and data["error"].startswith("invalid input: ")


@pytest.mark.parametrize(
    "argv, payload, expected",
    [
        (["strategy", "correlation", "--out", "corr.json", "--tracial"],
         {"dim": 2, "inputs": [], "outputs": [0], "pvms": []}, {"entries": 0}),
        (["strategy", "check", "--correlation"],
         {"n": 0, "m": 0, "inputs": [], "outputs": [], "entries": []},
         {"max_sync_violation": 0.0, "checks": [
             {"name": "synchronous", "pass": True, "detail": "max diagonal leak 0.000e+00"}]}),
    ],
    ids=["tracial", "correlation"],
)
def test_empty_inputs_are_vacuous(tmp_path, argv, payload, expected):
    """Runs in-process, so an uncaught exception (a traceback) fails the test."""
    path = write_json(tmp_path, "input.json", payload)
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    report = tmp_path / "report.json"
    assert main(argv + [path, "--report", str(report)]) == 0
    assert json.loads(report.read_text())["payload"] == expected


SIGN_VECTOR_LOADERS = {
    "strategy": (["game", "check-strategy", "--game", "game.json", "--strategy"],
                 {"dim": 1, "inputs": [1], "pvms": []}),
    "bipartite": (["strategy", "decompose-qs", "--in"],
                  {"dim_a": 1, "dim_b": 1, "inputs": [1], "alice": [], "bob": [],
                   "state": [[1.0, 0.0]]}),
    "correlation": (["strategy", "check", "--correlation"],
                    {"n": 1, "m": 2, "inputs": [1], "entries": []}),
}


@pytest.mark.parametrize("kind", sorted(SIGN_VECTOR_LOADERS))
@pytest.mark.parametrize(
    "alphabet, message",
    [
        ({"sign_vectors": True}, "sign_vectors must be an integer, got True"),
        ({"sign_vectors": 1.0}, "sign_vectors must be an integer, got 1.0"),
        ({"sign_vectors": -1}, "sign-vector length -1 is outside 0..62"),
        ({"sign_vectors": 63}, "sign-vector length 63 is outside 0..62"),
        ({"sign_vectors": 1, "n": 1}, "output alphabet object must be"),
    ],
    ids=["bool", "float", "negative", "too-long", "extra-key"],
)
def test_malformed_sign_vector_alphabet_exits_2(tmp_path, capsys, kind, alphabet, message):
    command, payload = SIGN_VECTOR_LOADERS[kind]
    write_json(tmp_path, "game.json", {"kind": "synbcs", "system": {"m": 1, "n": 1, "rows": [[1]],
                                                                     "b": [0]}})
    path = write_json(tmp_path, "input.json", {**payload, "outputs": alphabet})
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in command]
    report = tmp_path / "report.json"
    assert main(argv + [path, "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and message in err
    assert json.loads(report.read_text())["exit_code"] == 2


@pytest.mark.parametrize("kind", sorted(SIGN_VECTOR_LOADERS))
def test_well_formed_sign_vector_alphabet_loads(tmp_path, kind):
    """The same inputs with a valid alphabet get past the loaders (the empty
    strategies then fail their checks, exit 3)."""
    command, payload = SIGN_VECTOR_LOADERS[kind]
    write_json(tmp_path, "game.json", {"kind": "synbcs", "system": {"m": 1, "n": 1, "rows": [[1]],
                                                                     "b": [0]}})
    path = write_json(tmp_path, "input.json", {**payload, "outputs": {"sign_vectors": 1}})
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in command]
    assert main(argv + [path]) == 3


def failing_runs(tmp_path) -> dict:
    """argv, exit code and report error of one failing run per failure kind."""
    game = {"kind": "synbcs", "system": mermin_peres_system().to_json_dict()}
    empty = {"dim": 2, "inputs": [1, 2, 3, 4, 5, 6], "outputs": [[1] * 9], "pvms": []}
    # 2001 candidate keys: the search's pair table would need more than 4,000,000 cells
    big = {"kind": "hom", "G": {"n": 1, "edges": []}, "H": {"n": 2001, "edges": []}}
    huge = {"dim": 1, "inputs": [0], "outputs": [0], "pvms": [
        {"input": 0, "output": 0, "matrix": {"dim": 1, "entries": [[[1e308, 0.0]]]}}]}
    one = {"m": 1, "n": 1, "rows": [[1]], "b": [0]}
    entry = {"dim": 1, "entries": [[[1e200, 0.0]]]}
    # (-1,) is no local solution, so the pair of stored operators is a losing pair
    huge_bcs = {"dim": 1, "inputs": [1], "outputs": [[-1], [1]], "pvms": [
        {"input": 1, "output": [s], "matrix": entry} for s in (-1, 1)]}
    huge_rep = {"dim": 1, "images": [{"dim": 1, "entries": [[[1.7e308, 0.0]]]}] * 9,
                "j": {"dim": 1, "entries": [[[-1.0, 0.0]]]}}
    magic = write_json(tmp_path, "magic.json", mermin_peres_system().to_json_dict())
    # the second variable is in no equation, which the conversions refuse (exit 2)
    untouched = write_json(tmp_path, "untouched.json", {"m": 1, "n": 2, "rows": [[1]], "b": [1]})
    double = {"dim": 1, "images": [{"dim": 1, "entries": [[[2.0, 0.0]]]}] * 2,
              "j": {"dim": 1, "entries": [[[-1.0, 0.0]]]}}
    empty_one = {"dim": 1, "inputs": [1], "outputs": [[-1, 1]], "pvms": []}
    # the empty row of a huge dimension sums to 0, so its completeness residual is 1, and
    # no d x d matrix may be formed for it
    huge_dim = write_json(tmp_path, "huge_dim.json",
                          {"dim": 100000000, "inputs": [0], "outputs": [0], "pvms": []})
    transport = scaled_transport_inputs()
    files = {name: write_json(tmp_path, f"{name}.json", transport[name])
             for name in ("cert", "cert-scaled", "iso", "iso-scaled", "target")}
    refused = "verification failed: {} fails the game-algebra relations: max residual 1.000e-06 > 1e-09"
    return {
        "verification": (
            ["game", "check-strategy", "--game", write_json(tmp_path, "game.json", game),
             "--strategy", write_json(tmp_path, "empty.json", empty)],
            3,
            "failed checks: game-algebra-relations",
        ),
        "budget": (
            ["game", "solve-classical", "--in", write_json(tmp_path, "big.json", big)],
            4,
            "budget exceeded: pair table of 2001 candidate keys needs 4004001 cells > 4000000; "
            "undecided",
        ),
        # 1e308 squared overflows: the PVM check must fail (exit 3), not warn or exit 2
        "overflow": (
            ["strategy", "correlation", "--tracial", write_json(tmp_path, "huge.json", huge),
             "--out", str(tmp_path / "corr.out")],
            3,
            "verification failed: PVM invariants fail: adjoint 0.000e+00, projection inf, "
            "completeness inf vs tol 1e-09",
        ),
        "huge-dim-check": (
            ["game", "check-strategy", "--strategy", huge_dim, "--game", write_json(
                tmp_path, "game00.json", {"kind": "explicit", "inputs": [0], "outputs": [0], "losing": []})],
            3,
            "failed checks: game-algebra-relations",
        ),
        "huge-dim-correlation": (
            ["strategy", "correlation", "--tracial", huge_dim, "--out", str(tmp_path / "corr.out")],
            3,
            "verification failed: PVM invariants fail: adjoint 0.000e+00, projection 0.000e+00, "
            "completeness 1.000e+00 vs tol 1e-09",
        ),
        # Overflowing products and relators are failed checks too.
        "overflow-relations": (
            ["game", "check-strategy",
             "--game", write_json(tmp_path, "game1.json", {"kind": "synbcs", "system": one}),
             "--strategy", write_json(tmp_path, "huge_bcs.json", huge_bcs)],
            3,
            "failed checks: game-algebra-relations",
        ),
        "overflow-relators": (
            ["group", "verify", "--system", magic,
             "--rep", write_json(tmp_path, "huge_rep.json", huge_rep)],
            3,
            "failed checks: relators",
        ),
        "overflow-to-strategy": (
            ["group", "to-strategy", "--system", magic, "--rep", str(tmp_path / "huge_rep.json"),
             "--out", str(tmp_path / "strategy.out")],
            3,
            "verification failed: representation fails the relators: max residual inf > 1e-09",
        ),
        # The group conversions certify only what they return, and each command checks
        # the file it reads first: of two faults, a file off its relations is reported
        # before an untouched variable or J != -I.
        "from-strategy-defective": (
            ["group", "from-strategy", "--system", magic, "--strategy", str(tmp_path / "empty.json"),
             "--out", str(tmp_path / "rep.out")],
            3,
            "verification failed: strategy fails the game-algebra relations: max residual "
            "1.000e+00 > 1e-09 (worst losing tuple None)",
        ),
        "to-strategy-untouched-and-relators": (
            ["group", "to-strategy", "--system", untouched,
             "--rep", write_json(tmp_path, "double.json", double),
             "--out", str(tmp_path / "strategy.out")],
            3,
            "verification failed: representation fails the relators: max residual 3.000e+00 > 1e-09",
        ),
        "to-strategy-j-and-relators": (
            ["group", "to-strategy", "--system", magic,
             "--rep", write_json(tmp_path, "huge_rep_j.json",
                                 {**huge_rep, "j": {"dim": 1, "entries": [[[1.0, 0.0]]]}}),
             "--out", str(tmp_path / "strategy.out")],
            3,
            "verification failed: representation fails the relators: max residual inf > 1e-09",
        ),
        "from-strategy-untouched-and-relations": (
            ["group", "from-strategy", "--system", untouched,
             "--strategy", write_json(tmp_path, "empty_one.json", empty_one),
             "--out", str(tmp_path / "rep.out")],
            3,
            "verification failed: strategy fails the game-algebra relations: max residual "
            "1.000e+00 > 1e-09 (worst losing tuple None)",
        ),
        # A negative value written with an exponent, or -inf, is a value, not an option:
        # the range check refuses it before any input is read.
        "cluster-tol-exponent": (
            ["strategy", "decompose-qs", "--cluster-tol", "-1e-7",
             "--in", write_json(tmp_path, "mismatched.json", MISMATCHED)],
            2,
            "invalid input: --cluster-tol must be finite and >= 0, got -1e-07",
        ),
        "tol-exponent": (
            ["game", "check-strategy", "--tol", "-1E-7", "--game", str(tmp_path / "game.json"),
             "--strategy", str(tmp_path / "empty.json")],
            2,
            "invalid input: --tol must be finite and >= 0, got -1e-07",
        ),
        "eps-exponent": (
            ["strategy", "check", "--correlation",
             write_json(tmp_path, "corr.json", {**CORRELATION, "p": [[[[1]]]]}),
             "--eps", "-2.5e-3"],
            2,
            "invalid input: --eps must be finite and >= 0, got -0.0025",
        ),
        "tol-minus-infinity": (
            ["demo", "magic-square", "--tol", "-inf"],
            2,
            "invalid input: --tol must be finite and >= 0, got -inf",
        ),
        # A value that is not a number is refused by main too, with a report.
        "tol-not-a-number": (
            ["strategy", "decompose-qs", "--tol", "abc", "--in", str(tmp_path / "mismatched.json")],
            2,
            "invalid input: --tol must be a number, got 'abc'",
        ),
        "eps-not-a-number": (
            ["demo", "magic-square", "--eps", "-x"],
            2,
            "invalid input: --eps must be a number, got '-x'",
        ),
        # transport_independence checks only labels; the command checks its files first
        "transport-iso-scaled": (
            ["graph", "transport", "--swap-iso", "--out", str(tmp_path / "cert.out"),
             "--cert", files["cert"], "--iso", files["iso-scaled"], "--target", files["target"]],
            3,
            refused.format("isomorphism strategy")
            + f" (worst losing tuple {transport['iso-scaled-witness']!r})",
        ),
        "transport-cert-scaled": (
            ["graph", "transport", "--swap-iso", "--out", str(tmp_path / "cert.out"),
             "--cert", files["cert-scaled"], "--iso", files["iso"], "--target", files["target"]],
            3,
            refused.format("independence certificate") + " (worst losing tuple None)",
        ),
    }


@functools.cache
def scaled_transport_inputs() -> dict:
    """The magic-square transport's certificate bundle, iso strategy and target graph as
    JSON, and the bundle and the iso with every operator scaled by 1 + 1e-6.  Also the
    witness of the scaled iso's relation check: its losing overlaps are rounding noise
    near 1e-17, so which pair is worst depends on the float kernel."""
    sys_ = mermin_peres_system()
    iso = iso_strategy_from_bcs(strategy_from_rep(pauli_magic_square_rep(), sys_), sys_)
    g_b, g_0 = graph_from_system(sys_), graph_from_system(sys_, use_b=False)
    cert = independence_certificate_from_set(g_0, complement_colouring_ga0(sys_).independent_set)

    def scaled(s):
        return OperatorStrategy(s.dim, s.inputs, s.outputs,
                                {key: (1 + 1e-6) * mat for key, mat in s.pvms.items()})

    def bundle(strategy):
        return {"value": cert.value, "graph": g_0.to_json_dict(), "strategy": strategy.to_json_dict()}

    witness = check_game_algebra_relations(
        build_iso_game(g_0, g_b), swap_iso_strategy(scaled(iso)), 1e-9).worst_losing
    return {"cert": bundle(cert.strategy), "cert-scaled": bundle(scaled(cert.strategy)),
            "iso": iso.to_json_dict(), "iso-scaled": scaled(iso).to_json_dict(),
            "target": g_b.to_json_dict(), "iso-scaled-witness": witness}


@pytest.mark.parametrize("case", ["verification", "budget", "overflow", "overflow-relations",
                                  "overflow-relators", "overflow-to-strategy", "cluster-tol-exponent",
                                  "tol-exponent", "eps-exponent", "tol-minus-infinity",
                                  "tol-not-a-number", "eps-not-a-number", "transport-iso-scaled",
                                  "transport-cert-scaled", "from-strategy-defective",
                                  "to-strategy-untouched-and-relators", "to-strategy-j-and-relators",
                                  "from-strategy-untouched-and-relations", "huge-dim-check",
                                  "huge-dim-correlation"])
def test_failed_run_still_writes_report(tmp_path, case):
    argv, code, error = failing_runs(tmp_path)[case]
    report = tmp_path / "r.json"
    assert main(argv + ["--report", str(report)]) == code
    data = json.loads(report.read_text())
    assert (data["exit_code"], data["error"]) == (code, error)
    read = [] if code == 2 else sorted(a for a in argv if a.endswith(".json"))  # flags come first
    assert sorted(data["inputs"]) == read
    if case == "huge-dim-check":
        assert data["payload"]["relations"]["max_completeness_defect"] == 1.0


def test_empty_dense_correlation_roundtrips_through_the_cli(tmp_path):
    strategy = write_json(tmp_path, "strategy.json", {"dim": 2, "inputs": [], "outputs": [0], "pvms": []})
    corr, report = tmp_path / "corr.json", tmp_path / "report.json"
    assert main(["strategy", "correlation", "--tracial", strategy, "--out", str(corr)]) == 0
    assert json.loads(corr.read_text())["p"] == []
    assert main(["strategy", "check", "--correlation", str(corr), "--report", str(report)]) == 0
    assert json.loads(report.read_text())["payload"]["max_sync_violation"] == 0.0


def test_demo_has_no_jobs_flag():
    with pytest.raises(SystemExit) as exc:
        main(["demo", "magic-square", "--jobs", "2"])
    assert exc.value.code == 2


def test_group_pipeline_via_files(tmp_path, magic_square_file, pauli_rep_file, capsys):
    strat = tmp_path / "strategy.json"
    assert (
        main(
            [
                "group",
                "to-strategy",
                "--system",
                magic_square_file,
                "--rep",
                pauli_rep_file,
                "--out",
                str(strat),
            ]
        )
        == 0
    )
    rep_back = tmp_path / "rep_back.json"
    assert (
        main(
            [
                "group",
                "from-strategy",
                "--system",
                magic_square_file,
                "--strategy",
                str(strat),
                "--out",
                str(rep_back),
            ]
        )
        == 0
    )
    assert (
        main(["group", "verify", "--system", magic_square_file, "--rep", str(rep_back)]) == 0
    )
    out = capsys.readouterr().out
    assert "relators: PASS" in out
    assert "j-nontrivial: PASS" in out


def test_group_present(tmp_path, magic_square_file, capsys):
    assert main(["group", "present", "--system", magic_square_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("generators u1")


def test_group_normalize_j(tmp_path, pauli_rep_file):
    out = tmp_path / "normalized.json"
    assert main(["group", "normalize-j", "--rep", pauli_rep_file, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["dim"] == 4


def test_strategy_correlation_and_check(tmp_path, magic_square_file, pauli_rep_file):
    strat = tmp_path / "strategy.json"
    main(["group", "to-strategy", "--system", magic_square_file, "--rep", pauli_rep_file, "--out", str(strat)])
    corr = tmp_path / "corr.json"
    assert main(["strategy", "correlation", "--tracial", str(strat), "--out", str(corr)]) == 0
    game_file = write_json(
        tmp_path, "game.json", {"kind": "synbcs", "system": mermin_peres_system().to_json_dict()}
    )
    assert main(["strategy", "check", "--correlation", str(corr), "--game", game_file]) == 0


def test_strategy_decompose_cli(tmp_path):
    rng = np.random.default_rng(2)
    d = 3
    pvms = {}
    for x in range(2):
        for a, e in enumerate(random_exact_pvm(d, 2, rng)):
            pvms[(x, a)] = e
    psi = np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)
    bundle = {
        "dim_a": d,
        "dim_b": d,
        "inputs": [0, 1],
        "outputs": [0, 1],
        "alice": [
            {"input": x, "output": a, "matrix": matrix_to_json(m)} for (x, a), m in pvms.items()
        ],
        "bob": [
            {"input": x, "output": a, "matrix": matrix_to_json(m.T)} for (x, a), m in pvms.items()
        ],
        "state": [[float(z.real), float(z.imag)] for z in psi],
    }
    infile = write_json(tmp_path, "bipartite.json", bundle)
    out = tmp_path / "blocks.json"
    assert main(["strategy", "decompose-qs", "--in", infile, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["blocks"]) == 1
    assert data["blocks"][0]["weight"] == pytest.approx(1.0)


def test_graph_transport_via_bundles(tmp_path, magic_square_file, pauli_rep_file):
    strat = tmp_path / "strategy.json"
    main(["group", "to-strategy", "--system", magic_square_file, "--rep", pauli_rep_file, "--out", str(strat)])

    from syncgames import (
        complement_colouring_ga0,
        graph_from_system,
        independence_certificate_from_set,
        iso_strategy_from_bcs,
        strategy_from_rep,
    )

    sys_ = mermin_peres_system()
    iso = iso_strategy_from_bcs(strategy_from_rep(pauli_magic_square_rep(), sys_), sys_)
    iso_file = write_json(tmp_path, "iso.json", iso.to_json_dict())
    g_b = graph_from_system(sys_, use_b=True)
    g_0 = graph_from_system(sys_, use_b=False)
    target_file = write_json(tmp_path, "gb.json", g_b.to_json_dict())
    certs0 = complement_colouring_ga0(sys_)
    cert0 = independence_certificate_from_set(g_0, certs0.independent_set)
    write_json(tmp_path, "g0.json", g_0.to_json_dict())
    write_json(tmp_path, "cert_strategy.json", cert0.strategy.to_json_dict())
    bundle_file = write_json(
        tmp_path, "cert0.json", {"value": 6, "graph": "g0.json", "strategy": "cert_strategy.json"}
    )
    out = tmp_path / "cert_b.json"
    code = main(
        [
            "graph",
            "transport",
            "--cert",
            bundle_file,
            "--iso",
            iso_file,
            "--target",
            target_file,
            "--swap-iso",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert main(["graph", "certify", "--cert", str(out)]) == 0


def test_certify_report_digests_the_files_a_bundle_names(tmp_path):
    cert = independence_certificate_from_set(empty_graph(3), [0, 2])
    graph_file = write_json(tmp_path, "g.json", cert.graph.to_json_dict())
    strategy_file = write_json(tmp_path, "s.json", cert.strategy.to_json_dict())
    bundle = {"value": 2, "graph": "g.json", "strategy": "s.json"}
    bundle_file = write_json(tmp_path, "bundle.json", bundle)
    report = tmp_path / "report.json"
    assert main(["graph", "certify", "--cert", bundle_file, "--report", str(report)]) == 0
    digests = {
        path: hashlib.sha256(Path(path).read_bytes()).hexdigest()
        for path in (bundle_file, graph_file, strategy_file)
    }
    assert json.loads(report.read_text())["inputs"] == digests


def test_certify_reads_a_large_bundle(tmp_path, capsys):
    """A value-2 certificate on 3,000 isolated vertices: a small bundle whose check
    never builds the graph's complement."""
    cert = independence_certificate_from_set(empty_graph(3000), [0, 1])
    bundle = {"value": 2, "graph": cert.graph.to_json_dict(),
              "strategy": cert.strategy.to_json_dict()}
    report = tmp_path / "report.json"
    assert main(["graph", "certify", "--cert", write_json(tmp_path, "bundle.json", bundle),
                 "--report", str(report)]) == 0
    payload = json.loads(report.read_text())["payload"]
    assert payload["value"] == 2 and payload["relations"]["passes"]


def test_certify_takes_its_certificate_as_a_bundle_only(tmp_path, capsys):
    graph_file = write_json(tmp_path, "g.json", empty_graph(3).to_json_dict())
    for argv in (["graph", "certify"], ["graph", "certify", "--graph", graph_file]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert "--cert" in capsys.readouterr().err


# Per loader kind: a command reading that kind (the fuzzed file goes last) and the
# keys of the object it expects.
FUZZ_KINDS = {
    "system": (["system", "solve", "--in"], ["m", "n", "rows", "b"]),
    "graph": (["graph", "alpha", "--in"], ["n", "edges", "labels"]),
    "strategy": (["strategy", "correlation", "--out", "out.json", "--tracial"],
                 ["dim", "inputs", "outputs", "pvms"]),
    "game": (["game", "solve-classical", "--in"],
             ["kind", "system", "G", "H", "inputs", "outputs", "losing"]),
    "rep": (["group", "normalize-j", "--out", "out.json", "--rep"], ["dim", "images", "j"]),
    "bipartite": (["strategy", "decompose-qs", "--in"],
                  ["dim_a", "dim_b", "inputs", "outputs", "alice", "bob", "state"]),
    "correlation": (["strategy", "check", "--correlation"],
                    ["n", "m", "inputs", "outputs", "p", "entries"]),
    "pvm_family": (["round", "--out", "out.json", "--in"], ["pvms"]),
    "cert_bundle": (["graph", "certify", "--cert"], ["value", "graph", "strategy"]),
}
# Small integers keep every declared size (dimensions, vertex counts) cheap to act on.
# Huge finite values reach the overflow paths (squares and products of matrix entries).
_numbers = (
    st.integers(-2, 5)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([1e200, 1.7e308, -1e308])
)
_matrices = st.integers(0, 3).flatmap(
    lambda d: st.fixed_dictionaries({
        "dim": st.just(d),
        "entries": st.lists(
            st.lists(st.lists(_numbers, min_size=2, max_size=2), min_size=d, max_size=d),
            min_size=d, max_size=d,
        ),
    })
)
# Compact matrices: a random string, base64 of random bytes, or base64 of exactly 16 d^2
# random bytes (any bit pattern: NaN, infinities, huge and subnormal entries); now and
# then an "entries" key as well.
_c16_matrices = st.integers(0, 3).flatmap(
    lambda d: st.fixed_dictionaries(
        {"dim": st.just(d),
         "c16": st.text(max_size=8)
         | (st.binary(max_size=40) | st.binary(min_size=16 * d * d, max_size=16 * d * d))
         .map(lambda raw: base64.b64encode(raw).decode("ascii"))},
        optional={"entries": st.just([[[1.0, 0.0]]])},
    )
)
_json = st.recursive(
    st.none() | st.booleans() | _numbers | st.text(max_size=3) | _matrices | _c16_matrices
    | st.sampled_from(["synbcs", "hom", "iso", "explicit", "input", "output", "matrix",
                       "sign_vectors"]),
    # [v, v]: a label list or a pvm, losing or entry list repeating an item
    lambda inner: st.lists(inner, max_size=4) | inner.map(lambda v: [v, v])
    | st.dictionaries(st.text(max_size=6) | st.just("sign_vectors"), inner, max_size=4),
    max_leaves=16,
)


@pytest.mark.parametrize("kind", sorted(FUZZ_KINDS))
@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_input_exits_with_a_documented_code(kind, data):
    """Random JSON, shaped like each loader's object or not, never escapes the exit codes.
    Warnings fail the suite, so a huge finite entry must not make numpy warn either."""
    command, keys = FUZZ_KINDS[kind]
    payload = data.draw(st.dictionaries(st.sampled_from(keys), _json) | _json)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(payload))
        argv = [str(Path(tmp) / a) if a.endswith(".json") else a for a in command]
        code = main(argv + [str(path), "--report", str(Path(tmp) / "report.json")])
        assert code in (0, 2, 3, 4)
        assert json.loads((Path(tmp) / "report.json").read_text())["command"]


def test_the_parser_is_built_once_per_process(capsys):
    """Two main calls share one parser, and help, the schema dump and usage errors
    read as they do from a parser built afresh."""
    build_parser.cache_clear()
    assert main(["--schema"]) == 0 and main(["--schema"]) == 0
    assert (build_parser.cache_info().misses, build_parser.cache_info().hits) == (1, 1)
    schema = capsys.readouterr().out
    assert schema == 2 * (json.dumps(SCHEMAS, indent=2, sort_keys=True) + "\n")

    def printed(parse, argv) -> tuple:
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        return (exc.value.code,) + tuple(capsys.readouterr())

    for argv in (["--help"], ["graph", "transport", "--help"], ["graph", "transport"],
                 ["demo", "magic-square", "--jobs", "2"], ["no-such-group"]):
        fresh = printed(build_parser.__wrapped__().parse_args, argv)
        assert printed(main, argv) == printed(main, argv) == fresh
    assert build_parser.cache_info().misses == 1


def test_schema_dump(capsys):
    assert main(["--schema"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "system" in data and "strategy" in data
    for kind in ("strategy", "bipartite_strategy", "correlation"):
        assert '{"sign_vectors": n}' in data[kind] and "still loads" in data[kind]
    assert '"c16"' in data["matrix"] and "is written" in data["matrix"]
    assert '"entries"' in data["matrix"] and "still read" in data["matrix"]


def test_demo_magic_square_report_is_byte_stable(tmp_path):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["demo", "magic-square", "--report", str(r1)]) == 0
    assert main(["demo", "magic-square", "--report", str(r2)]) == 0
    p1 = json.loads(r1.read_text())
    p2 = json.loads(r2.read_text())
    assert p1["payload"] == p2["payload"]
    assert all(check["pass"] for check in p1["payload"]["checks"])
    names = {check["name"] for check in p1["payload"]["checks"]}
    assert {
        "classical-gf2-unsolvable",
        "quantum-strategy-perfect",
        "classical-alpha-5",
        "quantum-independence-6",
    } <= names
    assert p1["payload"]["alpha_G_Ab"] == 5


# sha256 of what these commands write for the magic square: how the graphs are built may
# change, their bytes may not
GRAPH_OUT_SHA256 = {
    "from-system": "97605f80402cac940de0eac76ab54d61edf3f25395665cf227c49aaf2ba9793f",
    "from-system --homogeneous": "a1d453e8cac17e94971701e95668ef45418c19e28309237321bd1b9463a479a7",
    "colour-ga0": "661420c6f47ba36017ece499128bae00d69822a9266fed4f879ec3bfcd3986af",
}
DEMO_REPORT_SHA256 = "68fd0ec29720f25e01b06d8e30e4a8a3e2c700380e744fcdb62c4cc6b13c8adb"


def test_graph_and_demo_outputs_are_pinned(tmp_path, magic_square_file):
    """The graph commands' --out files and the demo's report (without wall_time_s, keys
    sorted) keep their bytes, run twice in one process."""
    for _ in range(2):
        for command, digest in GRAPH_OUT_SHA256.items():
            out, report = tmp_path / "out.json", tmp_path / "report.json"
            argv = ["graph", *command.split(), "--system", magic_square_file,
                    "--out", str(out), "--report", str(report)]
            assert main(argv) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
            if command.startswith("from-system"):
                assert json.loads(report.read_text())["payload"] == {"edges": 108, "vertices": 24}
        report = tmp_path / "demo.json"
        assert main(["demo", "magic-square", "--report", str(report)]) == 0
        data = json.loads(report.read_text())
        del data["wall_time_s"]
        text = json.dumps(data, sort_keys=True).encode()
        assert hashlib.sha256(text).hexdigest() == DEMO_REPORT_SHA256
