"""The check reports' JSON form, verdicts and refusals, against the hand-written
as_dict and require bodies each report class had before they shared one base."""
from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import random_exact_pvm, random_unitary, rotated

from syncgames import (
    GroupRep,
    OperatorStrategy,
    build_iso_game,
    build_synbcs,
    check_game_algebra_relations,
    complement_colouring_ga0,
    graph_from_system,
    independence_certificate_from_set,
    iso_strategy_from_bcs,
    mermin_peres_system,
    orthogonalize_family,
    pauli_magic_square_rep,
    round_contraction,
    strategy_from_rep,
    verify_rep,
)
from syncgames.cli import main
from syncgames.errors import ValidationError, VerificationError
from syncgames.games import GameRelationReport
from syncgames.gf2 import BinaryLinearSystem
from syncgames.labels import label_to_json
from syncgames.matops import matrix_to_json


# ------------------------------------------------------------------ oracles --
# The hand-written bodies, kept verbatim as the reference for the shared base.

def game_relation_as_dict(self) -> dict:
    return {
        "tol": self.tol,
        "max_adjoint_defect": self.max_adjoint_defect,
        "max_projection_defect": self.max_projection_defect,
        "max_completeness_defect": self.max_completeness_defect,
        "max_losing_overlap": self.max_losing_overlap,
        "worst_losing": None
        if self.worst_losing is None
        else [label_to_json(part) for part in self.worst_losing],
        "n_stored": self.n_stored,
        "n_losing_checked": self.n_losing_checked,
        "passes": self.passes,
    }


def game_relation_refusal(self, what: str) -> str:
    return (
        f"{what} fails the game-algebra relations: max residual {self.max_residual:.3e} "
        f"> {self.tol:g} (worst losing tuple {self.worst_losing!r})"
    )


def rep_as_dict(self) -> dict:
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


def rep_refusal(self, what: str) -> str:
    return f"{what} fails the relators: max residual {self.max_residual:.3e} > {self.tol:g}"


def family_as_dict(self) -> dict:
    return {
        "input_defects": list(self.input_defects),
        "pairwise_overlaps": [[list(ij), v] for ij, v in self.pairwise_overlaps],
        "distances": list(self.distances),
        "sum_defect_before": self.sum_defect_before,
        "sum_defect_after": self.sum_defect_after,
        "max_output_adjoint": self.max_output_adjoint,
        "max_output_idempotency": self.max_output_idempotency,
        "max_output_overlap": self.max_output_overlap,
        "sum_one": self.sum_one,
        "input_scale": self.input_scale,
        "max_distance": self.max_distance,
        "budget": self.budget,
        "within_budget": self.within_budget,
        "outputs_exact": self.outputs_exact,
    }


def contraction_as_dict(self) -> dict:
    return {
        "defect": self.defect,
        "distance": self.distance,
        "bound": self.bound,
        "bound_holds": self.bound_holds,
    }


# ------------------------------------------------------------------ reports --

def scaled(s: OperatorStrategy, factor: float) -> OperatorStrategy:
    return OperatorStrategy(s.dim, s.inputs, s.outputs,
                            {key: factor * mat for key, mat in s.pvms.items()})


def relation_reports() -> dict:
    """Passing and failing relation reports with sign-vector, iso-pair and None witnesses."""
    sys_ = mermin_peres_system()
    strategy = strategy_from_rep(pauli_magic_square_rep(), sys_)
    iso = iso_strategy_from_bcs(strategy, sys_)
    iso_game = build_iso_game(graph_from_system(sys_), graph_from_system(sys_, use_b=False))
    u = random_unitary(strategy.dim, np.random.default_rng(1))
    one = BinaryLinearSystem(m=1, n=1, rows=(frozenset({1}),), b=(0,))
    # (-1,) is no local solution of x1 = +1, so the two stored operators form a losing pair
    losing = OperatorStrategy(1, (1,), ((-1,), (1,)), {(1, (-1,)): np.eye(1), (1, (1,)): np.eye(1)})
    return {
        "pass-none": check_game_algebra_relations(build_synbcs(sys_), strategy, 1e-9),
        "pass-sign-vector": check_game_algebra_relations(
            build_synbcs(sys_), rotated(strategy, u), 1e-9),
        "fail-sign-vector": check_game_algebra_relations(build_synbcs(one), losing, 1e-9),
        "pass-iso-pair": check_game_algebra_relations(iso_game, rotated(iso, u), 1e-9),
        "fail-iso-pair": check_game_algebra_relations(iso_game, scaled(rotated(iso, u), 1 + 1e-6), 1e-9),
        # no operator stored: every completeness residual is 1, and no pair is checked
        "fail-none": check_game_algebra_relations(
            build_synbcs(sys_), OperatorStrategy(4, strategy.inputs, strategy.outputs, {}), 1e-9),
    }


def rep_reports() -> dict:
    sys_, pauli = mermin_peres_system(), pauli_magic_square_rep()
    j_is_i = GroupRep(images=pauli.images, j_image=np.eye(4))
    return {"pauli": verify_rep(pauli, sys_, 1e-12), "j-is-i": verify_rep(j_is_i, sys_, 1e-9)}


def rounding_reports() -> dict:
    rng = np.random.default_rng(5)
    pvm = [e + 1e-4 * (h + h.conj().T) for e, h in zip(
        random_exact_pvm(4, 3, rng), rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4)))]
    lam, u = np.array([0.1, 0.3, 0.8, 0.95]), random_unitary(4, rng)
    return {
        "empty-family": orthogonalize_family([])[1],
        "sum-one-family": orthogonalize_family(pvm, sum_one=True)[1],
        "contraction": round_contraction((u * lam) @ u.conj().T)[1],
    }


ORACLES = {"GameRelationReport": game_relation_as_dict, "RepVerificationReport": rep_as_dict,
           "FamilyRoundingReport": family_as_dict, "ContractionRoundingReport": contraction_as_dict}


def all_reports() -> dict:
    return {**relation_reports(), **rep_reports(), **rounding_reports()}


def test_the_reports_cover_every_witness_and_verdict():
    relations = relation_reports()
    witnesses = {name: r.worst_losing for name, r in relations.items()}
    assert witnesses["pass-none"] is None and witnesses["fail-none"] is None
    assert all(set(witnesses[name][2] + witnesses[name][3]) <= {-1, 1}
               for name in ("pass-sign-vector", "fail-sign-vector"))
    assert all(witnesses[name][0][0] in "gh" for name in ("pass-iso-pair", "fail-iso-pair"))
    assert {name: r.passes for name, r in relations.items()} == {
        "pass-none": True, "pass-sign-vector": True, "fail-sign-vector": False,
        "pass-iso-pair": True, "fail-iso-pair": False, "fail-none": False}
    reps = rep_reports()
    assert reps["pauli"].passes and not reps["j-is-i"].passes
    assert reps["j-is-i"].j_distance == 0.0 and not reps["j-is-i"].j_nontrivial
    rounding = rounding_reports()
    assert rounding["empty-family"].input_defects == () and rounding["sum-one-family"].sum_one


@pytest.mark.parametrize("name", sorted(all_reports()))
def test_as_dict_equals_the_hand_written_form(name):
    report = all_reports()[name]
    expected = ORACLES[type(report).__name__](report)
    got = report.as_dict()
    assert got == expected
    assert json.dumps(got) == json.dumps(expected)  # the key order too, as written unsorted
    assert json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True)


@pytest.mark.parametrize("name", sorted(relation_reports()) + sorted(rep_reports()))
def test_require_refuses_with_the_hand_written_message(name):
    report = all_reports()[name]
    refusal = game_relation_refusal if isinstance(report, GameRelationReport) else rep_refusal
    if report.passes:
        assert report.require("the object") is None
        return
    with pytest.raises(VerificationError) as exc:
        report.require("the object")
    assert str(exc.value) == refusal(report, "the object")


def test_a_label_json_cannot_hold_is_refused_as_before():
    report = GameRelationReport(1e-9, 0.0, 0.0, 0.0, 1.0, (0, 1.5, "a", ("b", 2)), 2, 1)
    for as_dict in (game_relation_as_dict, GameRelationReport.as_dict):
        with pytest.raises(ValidationError, match="label 1.5 is not JSON-serializable"):
            as_dict(report)


# ---------------------------------------------------------------- CLI payloads --

def write(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def payload_of(tmp_path, argv) -> dict:
    report = tmp_path / "report.json"
    main(argv + ["--report", str(report)])
    return json.loads(report.read_text())["payload"]


def test_cli_payloads_equal_the_hand_written_form(tmp_path):
    sys_, pauli = mermin_peres_system(), pauli_magic_square_rep()
    strategy = strategy_from_rep(pauli, sys_)
    system = write(tmp_path, "system.json", sys_.to_json_dict())

    j_is_i = GroupRep(images=pauli.images, j_image=np.eye(4))
    for rep in (pauli, j_is_i):
        got = payload_of(tmp_path, ["group", "verify", "--system", system,
                                    "--rep", write(tmp_path, "rep.json", rep.to_json_dict())])
        assert got["verification"] == rep_as_dict(verify_rep(rep, sys_, 1e-9))

    game = write(tmp_path, "game.json", {"kind": "synbcs", "system": sys_.to_json_dict()})
    for s in (strategy, scaled(strategy, 1 + 1e-6)):
        got = payload_of(tmp_path, ["game", "check-strategy", "--game", game, "--strategy",
                                    write(tmp_path, "strategy.json", s.to_json_dict())])
        assert got["relations"] == game_relation_as_dict(
            check_game_algebra_relations(build_synbcs(sys_), s, 1e-9))

    g_0 = graph_from_system(sys_, use_b=False)
    cert = independence_certificate_from_set(g_0, complement_colouring_ga0(sys_).independent_set)
    bundle = {"value": cert.value, "graph": g_0.to_json_dict(),
              "strategy": cert.strategy.to_json_dict()}
    got = payload_of(tmp_path, ["graph", "certify", "--cert", write(tmp_path, "cert.json", bundle)])
    assert got["relations"] == game_relation_as_dict(cert.verify(1e-9))

    rng = np.random.default_rng(6)
    pvm = random_exact_pvm(3, 3, rng)
    family = write(tmp_path, "family.json", {"pvms": [matrix_to_json(p) for p in pvm]})
    for flags in ([], ["--sum-one"]):
        got = payload_of(tmp_path, ["round", "--in", family, "--out", str(tmp_path / "o.json")]
                         + flags)
        assert got["rounding"] == family_as_dict(orthogonalize_family(pvm, sum_one=bool(flags))[1])
