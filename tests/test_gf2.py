"""GF(2) solver and local-solution enumeration against exhaustive oracles, and the
structures a system builds once and keeps."""
from __future__ import annotations

import copy
import dataclasses
import gc
import pickle
import weakref
from itertools import product as iter_product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import exhaustive_solutions, random_system
import numpy as np

from syncgames import (
    BinaryLinearSystem,
    build_synbcs,
    enumerate_si,
    graph_from_system,
    mermin_peres_system,
    solve_gf2,
)
from syncgames import gf2, graphs
from syncgames.errors import BudgetError, ValidationError


def test_single_equation_forced_solution():
    sys_ = BinaryLinearSystem(m=1, n=1, rows=(frozenset({1}),), b=(1,))
    assert solve_gf2(sys_) == (-1,)


def test_magic_square_unsolvable_matches_exhaustive(magic_square):
    assert solve_gf2(magic_square) is None
    assert exhaustive_solutions(magic_square) == []


def test_all_ones_solves_any_homogeneous_system():
    rng = np.random.default_rng(11)
    for _ in range(20):
        sys_ = random_system(rng)
        homogeneous = BinaryLinearSystem(m=sys_.m, n=sys_.n, rows=sys_.rows, b=(0,) * sys_.m)
        ones = (1,) * sys_.n
        assert all(homogeneous.equation_holds(i, ones) for i in range(1, sys_.m + 1))
        assert solve_gf2(homogeneous) is not None


def test_returned_solution_satisfies_every_equation():
    rng = np.random.default_rng(5)
    for _ in range(50):
        sys_ = random_system(rng)
        x = solve_gf2(sys_)
        if x is not None:
            assert all(sys_.equation_holds(i, x) for i in range(1, sys_.m + 1))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_solve_agrees_with_exhaustive_scan(data):
    m = data.draw(st.integers(1, 4), label="m")
    n = data.draw(st.integers(1, 8), label="n")
    rows = tuple(
        frozenset(data.draw(st.sets(st.integers(1, n), min_size=1, max_size=n), label=f"V_{i}"))
        for i in range(m)
    )
    b = tuple(data.draw(st.integers(0, 1), label=f"b_{i}") for i in range(m))
    sys_ = BinaryLinearSystem(m=m, n=n, rows=rows, b=b)
    found = solve_gf2(sys_)
    brute = exhaustive_solutions(sys_)
    assert (found is not None) == bool(brute)


def test_enumerate_si_two_variable_equation():
    sys_ = BinaryLinearSystem(m=1, n=3, rows=(frozenset({1, 2}),), b=(1,))
    assert set(enumerate_si(sys_, 1)) == {(1, -1, 1), (-1, 1, 1)}


def test_enumerate_si_forced_single_variable():
    sys_ = BinaryLinearSystem(m=1, n=1, rows=(frozenset({1}),), b=(0,))
    assert enumerate_si(sys_, 1) == [(1,)]


def test_enumerate_si_is_exactly_the_local_solution_set():
    rng = np.random.default_rng(23)
    for _ in range(20):
        sys_ = random_system(rng, max_m=4, max_n=7)
        for i in range(1, sys_.m + 1):
            support = sys_.rows[i - 1]
            listed = set(enumerate_si(sys_, i))
            assert len(listed) == 2 ** (len(support) - 1)
            expected = {
                x
                for x in iter_product((-1, 1), repeat=sys_.n)
                if sys_.equation_holds(i, x)
                and all(x[j - 1] == 1 for j in range(1, sys_.n + 1) if j not in support)
            }
            assert listed == expected


def test_enumerate_si_sorted_and_deterministic():
    sys_ = BinaryLinearSystem(m=1, n=4, rows=(frozenset({1, 2, 4}),), b=(0,))
    listed = enumerate_si(sys_, 1)
    assert listed == sorted(listed)


def test_enumerate_si_refuses_huge_support():
    n = 25
    sys_ = BinaryLinearSystem(m=1, n=n, rows=(frozenset(range(1, n + 1)),), b=(0,))
    with pytest.raises(BudgetError):
        enumerate_si(sys_, 1)


def test_equation_index_out_of_range():
    sys_ = BinaryLinearSystem(m=1, n=1, rows=(frozenset({1}),), b=(0,))
    with pytest.raises(ValidationError):
        enumerate_si(sys_, 2)


def test_validation_rejects_empty_support():
    with pytest.raises(ValidationError):
        BinaryLinearSystem(m=1, n=2, rows=(frozenset(),), b=(0,))


def test_validation_rejects_out_of_range_index():
    with pytest.raises(ValidationError):
        BinaryLinearSystem(m=1, n=2, rows=(frozenset({3}),), b=(0,))


def test_validation_rejects_bad_bit():
    with pytest.raises(ValidationError):
        BinaryLinearSystem(m=1, n=1, rows=(frozenset({1}),), b=(2,))


def test_untouched_variables_flag():
    sys_ = BinaryLinearSystem(m=1, n=3, rows=(frozenset({1, 3}),), b=(0,))
    assert sys_.untouched_variables == frozenset({2})
    assert not sys_.covers_all_columns


def test_json_roundtrip(magic_square):
    data = magic_square.to_json_dict()
    back = BinaryLinearSystem.from_json_dict(data)
    assert back == magic_square


def test_json_rejects_malformed():
    with pytest.raises(ValidationError):
        BinaryLinearSystem.from_json_dict({"m": 1, "n": 1})


def test_solve_agrees_with_bitmask_scan_up_to_sixteen_variables():
    # independent oracle on wider systems: parity of (row mask AND assignment)
    rng = np.random.default_rng(61)
    for n in (12, 14, 16):
        for _ in range(3):
            m = int(rng.integers(2, 5))
            rows = tuple(
                frozenset(
                    int(j)
                    for j in rng.choice(np.arange(1, n + 1), size=int(rng.integers(1, 6)), replace=False)
                )
                for _ in range(m)
            )
            b = tuple(int(v) for v in rng.integers(0, 2, size=m))
            sys_ = BinaryLinearSystem(m=m, n=n, rows=rows, b=b)
            masks = [sys_.row_mask(i) for i in range(1, m + 1)]
            brute = any(
                all(bin(mask & x).count("1") % 2 == bit for mask, bit in zip(masks, b))
                for x in range(2**n)
            )
            assert (solve_gf2(sys_) is not None) == brute


def derived_objects(sys_) -> list:
    """Every object the library derives from sys_ and keeps on it."""
    objects = [build_synbcs(sys_), graph_from_system(sys_, True), graph_from_system(sys_, False)]
    objects += [sys_._sign_table(), sys_._homogeneous()._sign_table(), sys_._homogeneous()]
    objects += [sys_._local_solutions(i) for i in range(1, sys_.m + 1)]
    return objects


def test_mutating_a_local_solution_list_changes_nothing_kept(magic_square):
    listed = enumerate_si(magic_square, 1)
    expected = list(listed)
    listed.reverse()
    listed.append((1,) * 9)
    assert enumerate_si(magic_square, 1) == expected
    assert enumerate_si(magic_square, 1) is not enumerate_si(magic_square, 1)
    assert build_synbcs(magic_square).candidates[1] == tuple(expected)


def test_equal_systems_share_no_derived_object(magic_square):
    """Equality, hashing and repr ignore what a system keeps, and each object, equal or
    not, built directly, by dataclasses.replace, by a copy or by a pickle, derives its
    own."""
    kept = derived_objects(magic_square)
    other = mermin_peres_system()
    assert other == magic_square and other is not magic_square
    assert hash(other) == hash(magic_square) and repr(other) == repr(magic_square)
    flipped = dataclasses.replace(magic_square, b=(1,) * 6)
    same = dataclasses.replace(magic_square, b=magic_square.b)
    seen = {id(obj) for obj in kept}
    for sys_ in (other, flipped, same):
        objects = derived_objects(sys_)
        assert seen.isdisjoint(map(id, objects))
        seen.update(map(id, objects))
    assert derived_objects(other)[1] == kept[1] == derived_objects(same)[1]
    for sys_ in (copy.copy(magic_square), copy.deepcopy(magic_square),
                 pickle.loads(pickle.dumps(magic_square))):
        assert sys_ == magic_square and sys_._derived == {}
    fresh = BinaryLinearSystem(m=6, n=9, rows=magic_square.rows, b=(1,) * 6)
    assert graph_from_system(flipped, True) == graph_from_system(fresh, True)
    assert build_synbcs(flipped).candidates == build_synbcs(fresh).candidates


def test_refusals_are_raised_on_every_call(monkeypatch, magic_square):
    """A refusal stores nothing: the same call refuses again, and once the budget allows
    it the object is built.  The graph budget refuses before any local solution is
    enumerated."""
    enumerated = []
    original = gf2._enumerate_si
    monkeypatch.setattr(gf2, "_enumerate_si", lambda *args: enumerated.append(args) or original(*args))
    monkeypatch.setattr(graphs, "MAX_SYSTEM_GRAPH_VERTICES", 23)
    for use_b in (True, False, True):
        with pytest.raises(BudgetError, match="^24 vertices exceed the budget of 23$"):
            graph_from_system(magic_square, use_b)
    assert enumerated == []
    monkeypatch.setattr(graphs, "MAX_SYSTEM_GRAPH_VERTICES", 24)
    assert graph_from_system(magic_square, True).n == 24
    n = 25
    wide = BinaryLinearSystem(m=1, n=n, rows=(frozenset(range(1, n + 1)),), b=(0,))
    for _ in range(2):
        with pytest.raises(BudgetError, match="^equation 1 has support size 25 > 20$"):
            enumerate_si(wide, 1)
        with pytest.raises(BudgetError, match="^equation 1 has support size 25 > 20$"):
            graph_from_system(wide, False)
    huge = BinaryLinearSystem(m=1, n=63, rows=(frozenset({1}),), b=(0,))
    for _ in range(2):
        with pytest.raises(BudgetError, match="exceeds the n <= 62 budget"):
            build_synbcs(huge)
    assert wide._derived == huge._derived == {}


def test_a_dropped_system_is_freed_with_what_it_derived():
    """What a system keeps holds no reference back to it, so dropping the system frees
    it and its derived objects at once, without the cyclic collector.  The game's
    closures keep the system's sign table, which goes with the game."""
    gc.disable()
    try:
        sys_ = mermin_peres_system()
        refs = [weakref.ref(obj) for obj in [sys_] + derived_objects(sys_)[:5]]
        game = build_synbcs(sys_)
        del sys_
        assert [ref() is None for ref in refs] == [True, False, True, True, False, True]
        assert game.to_json_dict()["system"] == mermin_peres_system().to_json_dict()
        del game
        assert refs[1]() is None and refs[4]() is None
    finally:
        gc.enable()
