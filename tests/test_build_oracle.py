"""Graph construction against the argsort oracle, byte for byte.

The builders group by small keys with ``bucket_order`` (16-bit radix
passes) and read row ids off the ghost map; ``build_reference`` holds the
argsort + ``Partition.to_local`` builders they replaced.  Every array —
CSR indexes and edges, weights, ``unmap``, ``ghost_tasks``, the hash
map's table, both grid views, and the rows after ``sort_adjacency`` —
must be byte- and dtype-equal for every partition kind, rank count
(5 ranks runs the grid with an idle rank), weighting and vertex count,
with ``n_global`` on both sides of the one- and two-pass digit
boundaries.  The kernel is module-level, so the procs backend runs this
file too (``REPRO_BACKEND=procs``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import spmd_kernels as K
from repro.graph import build_dist_graph
from repro.graph.csr import bucket_order, radix_order
from repro.partition.base import Partition
from repro.runtime import SpmdError, run_spmd

# One digit is 16 bits, and the top digit is a uint8 when it fits 8 bits.
N_GLOBALS = (1, 2, 200, 256, 257, 65_536, 65_537)


def _case(n: int, nranks: int, m: int, pool_size: int, seed: int,
          weighted: bool, symmetrize: bool) -> dict:
    """A random multigraph over a pool of ids — self-loops, duplicate
    edges and isolated vertices included — cut into per-rank chunks at
    random points, so some ranks start with no edges."""
    rng = np.random.default_rng(seed)
    pool = rng.choice(n, size=min(n, pool_size), replace=False)
    pool[0] = n - 1  # the largest id: every digit of the top bucket
    edges = pool[rng.integers(0, len(pool), size=(m, 2))].astype(np.int64)
    cuts = np.sort(rng.integers(0, m + 1, size=nranks - 1))
    return {
        "edges": edges,
        "n": n,
        "splits": np.concatenate(([0], cuts, [m])).astype(np.int64),
        "values": rng.random(m) if weighted else None,
        "owners": rng.integers(0, nranks, size=n),
        "symmetrize": symmetrize,
    }


def _assert_same_bytes(got: dict, want: dict, where: str) -> None:
    assert got.keys() == want.keys()
    for name, a in got.items():
        b = want[name]
        if a is None or b is None:
            assert a is None and b is None, f"{where}: {name}"
            continue
        assert a.dtype == b.dtype, f"{where}: {name} dtype"
        assert a.shape == b.shape, f"{where}: {name} shape"
        assert a.tobytes() == b.tobytes(), f"{where}: {name} bytes"


def _check_against_oracle(nranks: int, cfg: dict) -> None:
    outs = run_spmd(nranks, K.kern_build_oracle, cfg, timeout=120.0)
    for rank, per_case in enumerate(outs):
        for name, (got, want) in per_case.items():
            _assert_same_bytes(got, want, f"rank {rank}, {name}")


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(N_GLOBALS), st.integers(1, 5), st.integers(0, 160),
       st.integers(1, 48), st.integers(0, 2**32 - 1), st.booleans(),
       st.booleans())
def test_builders_match_argsort_oracle(n, nranks, m, pool_size, seed,
                                       weighted, symmetrize):
    _check_against_oracle(nranks, _case(n, nranks, m, pool_size, seed,
                                        weighted, symmetrize))


@pytest.mark.parametrize("n", [256, 257, 65_536, 65_537])
def test_one_rank_rows_straddle_the_digit_boundary(n):
    """At one rank every vertex is a row: 65 537 rows take two passes."""
    _check_against_oracle(1, _case(n, 1, 400, 300, n, True, True))


class _ListedPartition(Partition):
    """One rank that owns every id but lists only ``listed`` as owned."""

    def __init__(self, n_global: int, listed):
        super().__init__(n_global, 1)
        self.listed = np.asarray(listed, dtype=np.int64)

    def owner_of(self, gids):
        return np.zeros(len(np.atleast_1d(gids)), dtype=np.int64)

    def owned_gids(self, rank):
        return self.listed


def test_unowned_row_raises_like_to_local():
    """The convert reads row ids off the ghost map; a received source this
    rank does not list raises ``Partition.to_local``'s error."""
    edges = np.array([[0, 1], [3, 2], [3, 0]], dtype=np.int64)
    part = _ListedPartition(4, [0, 1, 2])
    with pytest.raises(ValueError, match=r"2 ids not owned by rank 0 "
                                         r"\(first: 3\)"):
        part.to_local(0, edges[:, 0])
    with pytest.raises(SpmdError, match=r"2 ids not owned by rank 0 "
                                        r"\(first: 3\)"):
        run_spmd(1, lambda comm: build_dist_graph(comm, edges, part),
                 backend="threads")


# Keys at and around every digit boundary, so one-, two- and three-pass
# orders all run; a three-pass key range is too large for ``offsets``, so
# it exercises ``radix_order`` (the order half) alone.
N_KEYS = (1, 2, 255, 256, 257, 65_535, 65_536, 65_537, 1 << 20)
N_KEYS_ORDER_ONLY = ((1 << 32) - 1, 1 << 32, (1 << 32) + 1, 1 << 40)


@st.composite
def keyed(draw, sizes):
    """``(keys, n_keys)``: few distinct values (long runs of equal keys,
    so an unstable order shows) spread over the whole range."""
    n_keys = draw(st.sampled_from(sizes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = draw(st.integers(1, 12))
    values = np.unique(np.concatenate((
        rng.integers(0, n_keys, size=distinct),
        [n_keys - 1, 0, min(n_keys - 1, 255), min(n_keys - 1, 256),
         min(n_keys - 1, 65_536)])))
    m = draw(st.integers(0, 300))
    return values[rng.integers(0, len(values), size=m)].astype(np.int64), \
        n_keys


@settings(max_examples=120, deadline=None)
@given(keyed(N_KEYS))
def test_bucket_order_is_stable_argsort_and_bincount(case):
    keys, n_keys = case
    order, offsets = bucket_order(keys, n_keys)
    want = np.argsort(keys, kind="stable")
    assert order.dtype == want.dtype
    assert np.array_equal(order, want)
    assert offsets.dtype == np.int64
    assert np.array_equal(offsets, np.concatenate(
        ([0], np.cumsum(np.bincount(keys, minlength=n_keys)))))


@settings(max_examples=60, deadline=None)
@given(keyed(N_KEYS_ORDER_ONLY))
def test_radix_order_is_stable_argsort_past_two_digits(case):
    keys, n_keys = case
    assert np.array_equal(radix_order(keys, n_keys),
                          np.argsort(keys, kind="stable"))


@pytest.mark.parametrize("n_keys", [0, 1, 300, 1 << 40])
def test_bucket_order_empty(n_keys):
    empty = np.empty(0, dtype=np.int64)
    assert radix_order(empty, n_keys).shape == (0,)
    if n_keys < (1 << 32):
        order, offsets = bucket_order(empty, n_keys)
        assert order.shape == (0,)
        assert offsets.tolist() == [0] * (n_keys + 1)


@pytest.mark.parametrize("keys,n_keys", [
    ([0, -1], 4), ([4], 4), ([0, 1], 0), ([1 << 16], 1 << 16),
    ([-(1 << 40)], 1 << 41),
])
def test_bucket_order_rejects_keys_out_of_range(keys, n_keys):
    keys = np.array(keys, dtype=np.int64)
    with pytest.raises(ValueError, match="out of range"):
        radix_order(keys, n_keys)
    if n_keys < (1 << 32):
        with pytest.raises(ValueError, match="out of range"):
            bucket_order(keys, n_keys)
