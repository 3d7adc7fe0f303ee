"""CSR construction and segment primitives."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    build_csr,
    csr_row_lengths,
    expand_rows,
    segment_count_nonzero,
    segment_sum,
)


def test_build_csr_simple():
    indptr, adj = build_csr(3, np.array([0, 2, 0, 1]), np.array([5, 6, 7, 8]))
    assert indptr.tolist() == [0, 2, 3, 4]
    assert adj[indptr[0] : indptr[1]].tolist() == [5, 7]  # stable order
    assert adj[indptr[1] : indptr[2]].tolist() == [8]
    assert adj[indptr[2] : indptr[3]].tolist() == [6]


def test_build_csr_empty():
    indptr, adj = build_csr(4, np.array([], dtype=np.int64),
                            np.array([], dtype=np.int64))
    assert indptr.tolist() == [0, 0, 0, 0, 0]
    assert len(adj) == 0


def test_build_csr_out_of_range_raises():
    with pytest.raises(ValueError):
        build_csr(2, np.array([0, 2]), np.array([1, 1]))
    with pytest.raises(ValueError):
        build_csr(2, np.array([-1]), np.array([0]))


def test_build_csr_mismatched_raises():
    with pytest.raises(ValueError):
        build_csr(2, np.array([0]), np.array([0, 1]))


def test_row_lengths_and_expand_rows():
    indptr, _ = build_csr(3, np.array([1, 1, 2]), np.array([0, 0, 0]))
    assert csr_row_lengths(indptr).tolist() == [0, 2, 1]
    assert expand_rows(indptr).tolist() == [1, 1, 2]


def test_segment_sum_with_empty_rows():
    indptr = np.array([0, 2, 2, 5])
    vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    assert segment_sum(indptr, vals).tolist() == [3.0, 0.0, 12.0]


def test_segment_sum_int():
    indptr = np.array([0, 0, 3])
    vals = np.array([1, 2, 3])
    out = segment_sum(indptr, vals)
    assert out.tolist() == [0, 6]
    assert out.dtype == np.int64


def test_segment_count_nonzero():
    indptr = np.array([0, 3, 3, 4])
    flags = np.array([True, False, True, True])
    assert segment_count_nonzero(indptr, flags).tolist() == [2, 0, 1]


def test_segment_sum_all_empty():
    indptr = np.zeros(5, dtype=np.int64)
    assert segment_sum(indptr, np.array([])).tolist() == [0, 0, 0, 0]


@settings(max_examples=60, deadline=None)
@given(
    n_rows=st.integers(min_value=1, max_value=30),
    data=st.data(),
)
def test_property_csr_roundtrip(n_rows, data):
    m = data.draw(st.integers(min_value=0, max_value=200))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    src = rng.integers(0, n_rows, m).astype(np.int64)
    dst = rng.integers(0, 10**6, m).astype(np.int64)
    indptr, adj = build_csr(n_rows, src, dst)
    # Row contents equal the multiset of dst per src, in stable order.
    for v in range(n_rows):
        expect = dst[src == v]
        got = adj[indptr[v] : indptr[v + 1]]
        assert got.tolist() == expect.tolist()
    assert indptr[-1] == m


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_property_segment_sum_matches_loop(data):
    n = data.draw(st.integers(1, 20))
    lens = data.draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
    indptr = np.concatenate(([0], np.cumsum(lens))).astype(np.int64)
    vals = np.asarray(
        data.draw(
            st.lists(
                st.floats(-1e6, 1e6, allow_nan=False),
                min_size=int(indptr[-1]),
                max_size=int(indptr[-1]),
            )
        ),
        dtype=np.float64,
    )
    got = segment_sum(indptr, vals)
    expect = [vals[indptr[i] : indptr[i + 1]].sum() for i in range(n)]
    assert np.allclose(got, expect)
