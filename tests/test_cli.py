"""CLI surface: exit-code taxonomy, file pipelines, report stability."""
from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import random_exact_pvm

from syncgames import (
    complete,
    empty_graph,
    independence_certificate_from_set,
    mermin_peres_system,
    pauli_magic_square_rep,
)
from syncgames.cli import main
from syncgames.matops import matrix_to_json


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


def test_graph_chi_respects_max_vertices_flag(tmp_path):
    path = write_json(tmp_path, "e25.json", {"n": 25, "edges": []})
    assert main(["graph", "chi", "--in", path]) == 4  # above default cap
    assert main(["graph", "chi", "--in", path, "--max-vertices", "30"]) == 0


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


def test_round_cli_respects_max_dim(tmp_path):
    infile = write_json(
        tmp_path, "pvms.json", {"pvms": [matrix_to_json(np.eye(3))]}
    )
    assert main(["round", "--in", infile, "--out", str(tmp_path / "o.json"), "--max-dim", "2"]) == 2


def test_validation_exit_code_for_garbage_file(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    assert main(["system", "solve", "--in", path.as_posix()]) == 2


def test_budget_exit_code(tmp_path):
    game = {
        "kind": "hom",
        "G": complete(70).to_json_dict(),
        "H": complete(2).to_json_dict(),
    }
    path = write_json(tmp_path, "big.json", game)
    assert main(["game", "solve-classical", "--in", path]) == 4


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
    ],
    ids=["m-string", "index-float", "index-bool", "b-bool", "edge-float", "ragged-matrix",
         "ragged-correlation", "missing-path", "correlation-labels"],
)
def test_malformed_input_exits_2_with_report(tmp_path, capsys, argv, payload):
    """Runs in-process, so an uncaught exception (a traceback) fails the test."""
    path = tmp_path / "input.json"
    if payload is not None:
        path.write_text(json.dumps(payload))
    report = tmp_path / "report.json"
    assert main(argv + [str(path), "--report", str(report)]) == 2
    assert capsys.readouterr().err.startswith("invalid input: ")
    data = json.loads(report.read_text())
    assert data["exit_code"] == 2 and data["error"].startswith("invalid input: ")


def failing_runs(tmp_path) -> dict:
    """argv, exit code and report error of one failing run per failure kind."""
    game = {"kind": "synbcs", "system": mermin_peres_system().to_json_dict()}
    empty = {"dim": 2, "inputs": [1, 2, 3, 4, 5, 6], "outputs": [[1] * 9], "pvms": []}
    big = {"kind": "hom", "G": complete(70).to_json_dict(), "H": complete(2).to_json_dict()}
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
            "budget exceeded: search space of 70.0 bits exceeds budget of 64.0; undecided",
        ),
    }


@pytest.mark.parametrize("case", ["verification", "budget"])
def test_failed_run_still_writes_report(tmp_path, case):
    argv, code, error = failing_runs(tmp_path)[case]
    report = tmp_path / "r.json"
    assert main(argv + ["--report", str(report)]) == code
    data = json.loads(report.read_text())
    assert (data["exit_code"], data["error"]) == (code, error)
    assert sorted(data["inputs"]) == sorted(a for a in argv if a.endswith(".json"))


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
_numbers = st.integers(-2, 5) | st.floats(allow_nan=True, allow_infinity=True)
_matrices = st.integers(0, 3).flatmap(
    lambda d: st.fixed_dictionaries({
        "dim": st.just(d),
        "entries": st.lists(
            st.lists(st.lists(_numbers, min_size=2, max_size=2), min_size=d, max_size=d),
            min_size=d, max_size=d,
        ),
    })
)
_json = st.recursive(
    st.none() | st.booleans() | _numbers | st.text(max_size=3) | _matrices
    | st.sampled_from(["synbcs", "hom", "iso", "explicit", "input", "output", "matrix"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=16,
)


@pytest.mark.parametrize("kind", sorted(FUZZ_KINDS))
# Huge finite entries overflow inside the PVM checks; numpy warns and the run still
# ends with a documented code, which is what this test checks.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_input_exits_with_a_documented_code(kind, data):
    """Random JSON, shaped like each loader's object or not, never escapes the exit codes."""
    command, keys = FUZZ_KINDS[kind]
    payload = data.draw(st.dictionaries(st.sampled_from(keys), _json) | _json)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(payload))
        argv = [str(Path(tmp) / a) if a.endswith(".json") else a for a in command]
        code = main(argv + [str(path), "--report", str(Path(tmp) / "report.json")])
        assert code in (0, 2, 3, 4)
        assert json.loads((Path(tmp) / "report.json").read_text())["command"]


def test_schema_dump(capsys):
    assert main(["--schema"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "system" in data and "strategy" in data


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
