"""The implicit sign-vector alphabet and the output-alphabet JSON converters."""
from __future__ import annotations

import pickle
from itertools import product as iter_product

import numpy as np
import pytest

from syncgames.errors import ValidationError
from syncgames.labels import (
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
