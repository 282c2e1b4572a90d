"""The two alphabet types, explicit Labels and the implicit sign-vector alphabet, and
the output-alphabet JSON converters."""
from __future__ import annotations

import copy
import json
import pickle
from itertools import product as iter_product

import numpy as np
import pytest

from conftest import label_index, label_set
from syncgames import (
    BipartiteStrategy,
    Correlation,
    Graph,
    OperatorStrategy,
    build_hom_game,
    build_iso_game,
    build_synbcs,
    complete,
    independence_certificate_from_set,
    mermin_peres_system,
)
from syncgames.errors import ValidationError
from syncgames.games import game_from_losing
from syncgames.labels import (
    Labels,
    SignVectors,
    as_alphabet,
    outputs_from_json,
    outputs_to_json,
    unique_dict,
)


@pytest.mark.parametrize("n", range(11))
def test_order_index_and_getitem_match_itertools_product(n):
    alphabet = SignVectors(n)
    expected = list(iter_product((-1, 1), repeat=n))
    assert len(alphabet) == len(expected) == 2**n
    assert list(alphabet) == expected
    assert [alphabet[k] for k in range(len(expected))] == expected
    assert [alphabet.index(x) for x in expected] == list(range(len(expected)))
    assert all(x in alphabet for x in expected)
    assert alphabet[-1] == expected[-1] and alphabet[np.int64(0)] == expected[0]


def test_getitem_refuses_out_of_range_and_non_integer_indices():
    alphabet = SignVectors(3)
    for k in (8, -9):
        with pytest.raises(IndexError):
            alphabet[k]
    for k in (1.0, slice(0, 2), "1"):
        with pytest.raises(TypeError):
            alphabet[k]


@pytest.mark.parametrize(
    "label",
    [
        (True, -1, 1),      # bool entries are refused, although True == 1
        (1, -1, False),
        (1, 0, -1),         # a 0 entry
        (1, 2, -1),
        (1.0, -1, 1),       # floats, although 1.0 == 1
        (np.int64(1), -1, 1),
        (1, -1),            # wrong lengths
        (1, -1, 1, 1),
        (),
        [1, -1, 1],         # a list, not a tuple
        "+-+",
        None,
    ],
)
def test_membership_accepts_only_int_sign_tuples_of_the_right_length(label):
    alphabet = SignVectors(3)
    assert label not in alphabet
    with pytest.raises(ValueError):
        alphabet.index(label)


def test_equality_and_hash():
    assert SignVectors(4) == SignVectors(4) and hash(SignVectors(4)) == hash(SignVectors(4))
    assert SignVectors(4) != SignVectors(5)
    assert SignVectors(2) != tuple(iter_product((-1, 1), repeat=2))  # like range, never a tuple
    assert len({SignVectors(3), SignVectors(3), SignVectors(0)}) == 2
    assert pickle.loads(pickle.dumps(SignVectors(7))) == SignVectors(7)
    with pytest.raises(AttributeError):
        SignVectors(3).n = 4


def test_sign_vectors_copies_are_rebuilt_by_the_constructor():
    """A pickle, copy or deep copy is an equal alphabet built through SignVectors(n);
    every attribute is frozen, and an alphabet never equals a tuple from either side."""
    alphabet = SignVectors(5)
    assert alphabet.__reduce__() == (SignVectors, (5,))
    for again in (pickle.loads(pickle.dumps(alphabet)), copy.copy(alphabet),
                  copy.deepcopy(alphabet)):
        assert type(again) is SignVectors and again == alphabet
        assert hash(again) == hash(alphabet) and list(again) == list(alphabet)
    for name in ("n", "m"):
        with pytest.raises(AttributeError):
            setattr(alphabet, name, 3)
    assert alphabet.n == 5 and repr(alphabet) == "SignVectors(n=5)"
    assert tuple(alphabet) != alphabet and SignVectors(0) != ((),)


def test_largest_alphabet_is_counted_without_being_built():
    alphabet = SignVectors(62)
    assert len(alphabet) == 2**62
    top = (1,) * 62
    assert top in alphabet and alphabet.index(top) == 2**62 - 1 and alphabet[-1] == top


@pytest.mark.parametrize("n", [True, 2.0, "3", None, -1, 63])
def test_constructor_refuses_bad_lengths(n):
    with pytest.raises(ValidationError):
        SignVectors(n)


def test_output_alphabets_round_trip_through_json():
    assert outputs_to_json(SignVectors(5)) == {"sign_vectors": 5}
    assert outputs_from_json({"sign_vectors": 5}) == SignVectors(5)
    labels = (0, "a", (1, -1))
    assert outputs_to_json(labels) == [0, "a", [1, -1]]
    assert outputs_from_json(outputs_to_json(labels)) == labels


@pytest.mark.parametrize("n", [0, 1, 3, 6])
def test_a_listed_full_enumeration_collapses_to_the_implicit_alphabet(n):
    listed = [list(x) for x in iter_product((-1, 1), repeat=n)]
    assert outputs_from_json(listed) == SignVectors(n)


@pytest.mark.parametrize(
    "listed",
    [
        [],
        [[-1, -1], [-1, 1], [1, 1], [1, -1]],   # every vector, out of order
        [[-1, -1], [-1, 1], [1, -1]],           # not every vector
        [[-1], [1], [1], [-1]],                 # four labels, but of length 1
        [[-1, 1], [1, -1]],
    ],
)
def test_any_other_list_stays_a_tuple(listed):
    loaded = outputs_from_json(listed)
    assert type(loaded) is tuple and loaded == tuple(tuple(x) for x in listed)


@pytest.mark.parametrize(
    "data",
    [
        {"sign_vectors": True},
        {"sign_vectors": 2.0},
        {"sign_vectors": -1},
        {"sign_vectors": 63},
        {"sign_vectors": 2, "extra": 0},
        {},
        [[-1], [True]],     # a listed label keeps the label rules: no bools
        [[-1], [1.0]],
        "sign_vectors",
        3,
    ],
)
def test_malformed_output_alphabets_are_refused(data):
    with pytest.raises(ValidationError):
        outputs_from_json(data)


def test_unique_dict_names_the_first_repeated_key():
    assert unique_dict([("a", 1), (("b", 2), 2)], "pairs") == {"a": 1, ("b", 2): 2}
    with pytest.raises(ValidationError, match=r"pairs repeat \('b', 2\)"):
        unique_dict([(("b", 2), 2), ("a", 3), (("b", 2), 4), ("a", 5)], "pairs")


def test_as_alphabet_refuses_a_repeated_label_but_keeps_the_implicit_alphabet():
    assert as_alphabet(["a", 0, ("a", 0)], "labels") == ("a", 0, ("a", 0))
    assert as_alphabet(SignVectors(3), "labels") == SignVectors(3)
    with pytest.raises(ValidationError, match="labels repeat 0"):
        as_alphabet(iter([1, 0, 2, 0]), "labels")


def explicit_game():
    """A synchronous explicit game over mixed labels: only (u, 1, 0, 0) loses besides
    the unequal answers to a repeated input."""
    inputs, outputs = ["u", 1, (2,)], [0, (0,), ("a", 1)]
    losing = [(x, x, a, b) for x in inputs for a in outputs for b in outputs if a != b]
    return game_from_losing(inputs, outputs, losing + [("u", 1, 0, 0)])


def constructed_alphabets() -> dict:
    """name -> an alphabet as one of the constructors stores it."""
    path = Graph(n=3, edges=frozenset({(0, 1), (1, 2)}))
    one = np.eye(1, dtype=complex)
    pvms = {("x", 0): one, (("x",), (0,)): one}
    strategy = OperatorStrategy(1, ("x", ("x",)), (0, (0,), 1), pvms)
    bipartite = BipartiteStrategy(1, 1, ("x", ("x",)), (0, (0,), 1), pvms, pvms, np.ones(1))
    correlation = Correlation(("x", 1), (True, (1,)), {("x", 1, True, (1,)): 1.0})
    certificate = independence_certificate_from_set(path, [0, 2])
    alphabets = {
        "synbcs-inputs": build_synbcs(mermin_peres_system()).inputs,
        "hom-inputs": build_hom_game(complete(2), path).inputs,
        "hom-outputs": build_hom_game(complete(2), path).outputs,
        "iso-labels": build_iso_game(path, complete(3)).inputs,
        "explicit-inputs": explicit_game().inputs,
        "explicit-outputs": explicit_game().outputs,
        "certificate-inputs": certificate.game().inputs,
        "certificate-outputs": certificate.game().outputs,
        "strategy-inputs": strategy.inputs,
        "strategy-outputs": strategy.outputs,
        "bipartite-inputs": bipartite.inputs,
        "bipartite-outputs": bipartite.outputs,
        "correlation-inputs": correlation.inputs,
        "correlation-outputs": correlation.outputs,
    }
    assert all(type(alphabet) is Labels for alphabet in alphabets.values())
    return {**alphabets, "synbcs-outputs": build_synbcs(mermin_peres_system()).outputs,
            "sign-vectors": SignVectors(2)}


# labels inside and outside the alphabets above: True against 1, one-element tuples
# against their entries, a float equal to an int, and sign vectors with a bool entry
PROBES = [0, 1, 2, 3, -1, True, False, 1.0, "x", "u", "y", (0,), (1,), ("x",), (2,), ((2,),),
          ("a", 1), ("a", True), ("g", 0), ("h", 2), ("g", 3), ("h", "0"), (-1, 1), (1, True),
          (-1,) * 9, (1,) * 9, None]


@pytest.mark.parametrize("name", sorted(constructed_alphabets()))
def test_membership_and_index_agree_with_lookups_built_by_hand(name):
    alphabet = constructed_alphabets()[name]
    members, index = label_set(alphabet), label_index(alphabet)
    for label in PROBES + list(alphabet)[:64]:
        assert (label in alphabet) == (label in members), label
        if label in members:
            assert alphabet.index(label) == index(label), label
        else:
            with pytest.raises(ValueError):
                alphabet.index(label)


def test_repeated_labels_are_refused_naming_the_repeat():
    one = np.eye(1, dtype=complex)
    cases = [
        (lambda: as_alphabet([1, "a", True], "labels"), "labels repeat True"),
        (lambda: Labels(((0,), 1, (0,)), "labels"), r"labels repeat \(0,\)"),
        (lambda: game_from_losing(["u", "u"], [0], []), "explicit game inputs repeat 'u'"),
        (lambda: game_from_losing(["u"], [0, 0.0], []), "explicit game outputs repeat 0.0"),
        (lambda: OperatorStrategy(1, ("x", "x"), (0,), {}), "strategy inputs repeat 'x'"),
        (lambda: OperatorStrategy(1, ("x",), (1, True), {("x", 1): one}),
         "strategy outputs repeat True"),
        (lambda: BipartiteStrategy(1, 1, ("x", "x"), (0,), {}, {}, np.ones(1)),
         "bipartite strategy inputs repeat 'x'"),
        (lambda: Correlation(("x",), (0, 0), {}), "correlation outputs repeat 0"),
    ]
    for build, message in cases:
        with pytest.raises(ValidationError, match=f"^{message}$"):
            build()


def test_labels_are_a_tuple_to_everything_but_membership_and_index():
    labels = as_alphabet(iter(["a", 0, ("a", 0)]), "labels")
    assert type(labels) is Labels and as_alphabet(labels, "other") is labels
    assert labels == ("a", 0, ("a", 0)) and hash(labels) == hash(("a", 0, ("a", 0)))
    assert repr(labels) == "('a', 0, ('a', 0))"
    assert type(labels[1:]) is tuple and labels[1:] == (0, ("a", 0))
    assert json.dumps(labels) == '["a", 0, ["a", 0]]'
    assert labels.index(("a", 0)) == 2 and False in labels and labels.index(False) == 1
    with pytest.raises(ValueError, match="^'b' is not in the alphabet$"):
        labels.index("b")


@pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.copy,
                                   copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
def test_copies_of_strategies_and_correlations_keep_their_alphabets(clone):
    one = np.eye(1, dtype=complex)
    strategy = OperatorStrategy(1, ("x", ("x",)), (0, (0,)), {("x", 0): one, (("x",), (0,)): one})
    correlation = Correlation(("x", 1), ((1,), "b"), {("x", 1, (1,), "b"): 1.0})
    bipartite = BipartiteStrategy(1, 1, strategy.inputs, strategy.outputs, dict(strategy.pvms),
                                  dict(strategy.pvms), np.ones(1))
    for original in (strategy, correlation, bipartite, strategy.inputs):
        back = clone(original)
        for alphabet, kept in ([(back, original)] if isinstance(original, Labels) else
                               [(back.inputs, original.inputs), (back.outputs, original.outputs)]):
            assert type(alphabet) is Labels and alphabet == kept
            assert [alphabet.index(label) for label in kept] == list(range(len(kept)))
            assert all(label in alphabet for label in kept) and "y" not in alphabet

