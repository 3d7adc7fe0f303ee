"""Unit + property tests for the linear-probing integer hash map."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import IntHashMap


def test_basic_insert_get():
    m = IntHashMap()
    m.insert(np.array([5, 9, 1000]), np.array([50, 90, 10000]))
    assert m.get(np.array([5, 9, 1000])).tolist() == [50, 90, 10000]
    assert len(m) == 3


def test_missing_keys_get_default():
    m = IntHashMap()
    m.insert(np.array([1]), np.array([2]))
    assert m.get(np.array([1, 7, 8]), default=-99).tolist() == [2, -99, -99]


def test_scalar_get():
    m = IntHashMap()
    m.insert(np.array([42]), np.array([7]))
    assert m.get(42) == 7
    assert m.get(43, default=-1) == -1


def test_overwrite_existing_key():
    m = IntHashMap()
    m.insert(np.array([3]), np.array([1]))
    m.insert(np.array([3]), np.array([2]))
    assert m.get(3) == 2
    assert len(m) == 1


def test_duplicates_in_batch_last_wins():
    m = IntHashMap()
    m.insert(np.array([7, 7, 7]), np.array([1, 2, 3]))
    assert m.get(7) == 3
    assert len(m) == 1


def test_growth_beyond_initial_capacity():
    m = IntHashMap(capacity_hint=4)
    keys = np.arange(10_000, dtype=np.int64) * 13 + 1
    m.insert(keys, keys * 2)
    assert len(m) == 10_000
    assert (m.get(keys) == keys * 2).all()
    assert m.load_factor <= 0.6 + 1e-9


def test_empty_operations():
    m = IntHashMap()
    assert m.get(np.array([], dtype=np.int64)).shape == (0,)
    m.insert(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    assert len(m) == 0
    assert m.get(np.array([1, 2])).tolist() == [-1, -1]


def test_negative_keys_rejected():
    m = IntHashMap()
    with pytest.raises(ValueError):
        m.insert(np.array([-1]), np.array([0]))


def test_negative_keys_are_missing():
    """−1 is the empty-slot marker: a query for it (or any negative key)
    must not "match" an empty slot and read uninitialised values."""
    m = IntHashMap()
    m.insert(np.array([3, 5]), np.array([10, 20]))
    assert m.get(np.array([-1, -2, 3, 7])).tolist() == [-1, -1, 10, -1]
    assert m.get(np.array([-1, 5]), default=-7).tolist() == [-7, 20]
    assert m.get(-1, default=99) == 99
    assert m.contains(np.array([-1, 3, -5])).tolist() == [False, True, False]


def test_mismatched_shapes_rejected():
    m = IntHashMap()
    with pytest.raises(ValueError):
        m.insert(np.array([1, 2]), np.array([1]))


def test_contains():
    m = IntHashMap()
    m.insert(np.array([10, 20]), np.array([1, 2]))
    assert m.contains(np.array([10, 15, 20])).tolist() == [True, False, True]


def test_items_roundtrip():
    m = IntHashMap()
    keys = np.array([4, 8, 15, 16, 23, 42])
    m.insert(keys, keys + 1)
    k, v = m.items()
    assert sorted(k.tolist()) == sorted(keys.tolist())
    assert dict(zip(k.tolist(), v.tolist())) == {x: x + 1 for x in keys}


def test_adversarial_same_bucket_keys():
    """Keys engineered to collide must still resolve by probing."""
    m = IntHashMap(capacity_hint=8)
    cap = m.capacity
    # Multiplicative hashing: keys differing by capacity*large multiples can
    # land anywhere, so force collisions by brute force search.
    base_keys = np.arange(1, 20_000, dtype=np.int64)
    m2 = IntHashMap(capacity_hint=8)
    m2.insert(base_keys[:64], base_keys[:64])
    assert (m2.get(base_keys[:64]) == base_keys[:64]).all()


@settings(max_examples=60, deadline=None)
@given(
    kv=st.dictionaries(
        st.integers(min_value=0, max_value=2**62),
        st.integers(min_value=-(2**62), max_value=2**62),
        max_size=300,
    ),
    probe=st.lists(st.integers(min_value=0, max_value=2**62), max_size=60),
)
def test_property_matches_dict(kv, probe):
    m = IntHashMap()
    if kv:
        keys = np.fromiter(kv.keys(), dtype=np.int64)
        vals = np.fromiter(kv.values(), dtype=np.int64)
        m.insert(keys, vals)
    assert len(m) == len(kv)
    queries = np.array(sorted(set(probe) | set(kv)), dtype=np.int64)
    if len(queries):
        got = m.get(queries, default=-123456789)
        expect = np.array([kv.get(int(q), -123456789) for q in queries])
        assert (got == expect).all()


@settings(max_examples=30, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=0, max_value=10**12), min_size=1,
                  max_size=500, unique=True),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_property_incremental_inserts(keys, seed):
    """Inserting in several batches equals inserting all at once."""
    rng = np.random.default_rng(seed)
    arr = np.array(keys, dtype=np.int64)
    vals = rng.integers(0, 1000, len(arr)).astype(np.int64)
    m = IntHashMap(capacity_hint=2)
    k = max(1, len(arr) // 3)
    for lo in range(0, len(arr), k):
        m.insert(arr[lo : lo + k], vals[lo : lo + k])
    assert (m.get(arr) == vals).all()
    assert len(m) == len(arr)
