"""Halo (ghost) exchange correctness."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import PARTITION_KINDS, dist_run
from repro.analytics import HaloExchange
from repro.runtime import SpmdError, run_spmd


@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("kind", PARTITION_KINDS)
def test_ghosts_receive_owner_values(small_web, p, kind):
    """After exchange, every ghost slot holds f(global id of the ghost)."""
    n, edges = small_web

    def fn(comm, g):
        halo = HaloExchange(comm, g)
        vals = np.zeros(g.n_total, dtype=np.int64)
        vals[: g.n_loc] = g.unmap[: g.n_loc] * 3 + 1
        halo.exchange(vals)
        expect = g.unmap * 3 + 1
        assert (vals == expect).all()
        return True

    assert all(dist_run(edges, n, p, fn, kind))


@pytest.mark.parametrize("p", [2, 3])
def test_exchange_float_values(small_web, p):
    n, edges = small_web

    def fn(comm, g):
        halo = HaloExchange(comm, g)
        vals = np.zeros(g.n_total, dtype=np.float64)
        vals[: g.n_loc] = np.sqrt(g.unmap[: g.n_loc].astype(np.float64))
        halo.exchange(vals)
        assert np.allclose(vals, np.sqrt(g.unmap.astype(np.float64)))
        return True

    assert all(dist_run(edges, n, p, fn))


@pytest.mark.parametrize("p", [2, 4])
def test_exchange_with_ids_matches_optimized(small_web, p):
    n, edges = small_web

    def fn(comm, g):
        halo = HaloExchange(comm, g)
        a = np.zeros(g.n_total)
        b = np.zeros(g.n_total)
        a[: g.n_loc] = b[: g.n_loc] = g.unmap[: g.n_loc] * 1.5
        halo.exchange(a)
        halo.exchange_with_ids(b)
        assert (a == b).all()
        return True

    assert all(dist_run(edges, n, p, fn))


def test_repeated_exchanges_track_updates(small_web):
    """Ghost values follow the owners across multiple iterations."""
    n, edges = small_web

    def fn(comm, g):
        halo = HaloExchange(comm, g)
        vals = np.zeros(g.n_total, dtype=np.int64)
        for it in range(4):
            vals[: g.n_loc] = g.unmap[: g.n_loc] + 1000 * it
            halo.exchange(vals)
            assert (vals[g.n_loc :] == g.unmap[g.n_loc :] + 1000 * it).all()
        return True

    assert all(dist_run(edges, n, 3, fn))


def test_exchange_many(small_web):
    n, edges = small_web

    def fn(comm, g):
        halo = HaloExchange(comm, g)
        a = np.zeros(g.n_total)
        b = np.zeros(g.n_total)
        a[: g.n_loc] = 1.0
        b[: g.n_loc] = 2.0
        halo.exchange_many(a, b)
        assert (a[g.n_loc :] == 1.0).all() and (b[g.n_loc :] == 2.0).all()
        return True

    assert all(dist_run(edges, n, 2, fn))


def test_wrong_length_rejected(small_web):
    n, edges = small_web

    def fn(comm, g):
        halo = HaloExchange(comm, g)
        halo.exchange(np.zeros(g.n_total + 1))

    with pytest.raises(SpmdError):
        dist_run(edges, n, 2, fn)


def test_single_rank_has_no_ghosts(small_web):
    n, edges = small_web

    def fn(comm, g):
        halo = HaloExchange(comm, g)
        assert halo.n_ghosts == 0
        assert halo.n_sent_per_iter == 0
        vals = np.arange(g.n_total, dtype=np.float64)
        halo.exchange(vals)  # no-op but must not fail
        return True

    assert all(dist_run(edges, n, 1, fn))


def test_traffic_counts_symmetric(small_web):
    """Total values sent must equal total ghosts across ranks."""
    n, edges = small_web

    def fn(comm, g):
        halo = HaloExchange(comm, g)
        return halo.n_sent_per_iter, halo.n_ghosts

    outs = dist_run(edges, n, 4, fn)
    assert sum(o[0] for o in outs) == sum(o[1] for o in outs)


@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("kind", PARTITION_KINDS)
def test_reverse_returns_ghost_values_to_owners(small_web, p, kind):
    """``reverse`` hands each owner the value every holder of a ghost
    shipped for it, aligned with the retained send list, and every
    rank's flag row; one execute of ghost slots plus peer flags."""
    n, edges = small_web

    def fn(comm, g):
        halo = HaloExchange(comm, g)
        ghost_gids = g.unmap[g.n_loc:]
        for tail in ((), (3,)):
            vals = (ghost_gids * 10).reshape((-1,) + (1,) * len(tail)) \
                + np.zeros(tail, dtype=np.int64)
            mark = len(comm.trace.events)
            rows, flags = halo.reverse(vals, comm.rank + 1)
            (event,) = comm.trace.events[mark:]
            assert event.op == "alltoallv"
            assert event.bytes_sent == (g.n_gst + p - 1) * 8 * (
                tail[0] if tail else 1)
            want = (g.unmap[halo.send_lids] * 10).reshape(
                (-1,) + (1,) * len(tail))
            assert rows.shape == (len(halo.send_lids),) + tail
            assert (rows == want).all()
            assert flags.shape == (p,) + tail
            assert (flags == np.arange(1, p + 1).reshape(
                (-1,) + (1,) * len(tail))).all()
        return True

    assert all(dist_run(edges, n, p, fn, kind))


def test_reverse_rejects_wrong_length(small_web):
    n, edges = small_web

    def fn(comm, g):
        halo = HaloExchange(comm, g)
        with pytest.raises(ValueError, match="n_gst"):
            halo.reverse(np.zeros(g.n_gst + 1, dtype=bool), False)
        return True

    assert all(dist_run(edges, n, 2, fn))


# ---------------------------------------------------------------------------
# flat-buffer plan path: edge cases and new exchange modes
# ---------------------------------------------------------------------------
def _line_edges(pairs):
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def test_rank_with_zero_ghosts():
    """Ranks owning no cross-partition edges still join every exchange."""
    n = 40  # vblock on 4 ranks: only ranks 0/1 share edges; 2/3 are isolated
    edges = _line_edges([(i, i + 10) for i in range(5)])

    def fn(comm, g):
        halo = HaloExchange(comm, g)
        if comm.rank >= 2:
            assert halo.n_ghosts == 0 and halo.n_sent_per_iter == 0
        vals = np.zeros(g.n_total, dtype=np.float64)
        for it in range(3):
            vals[: g.n_loc] = g.unmap[: g.n_loc] * 2.0 + it
            halo.exchange(vals)
            assert (vals == g.unmap * 2.0 + it).all()
        return True

    assert all(dist_run(edges, n, 4, fn))


def test_all_empty_exchange():
    """A graph with no cross-partition edges exchanges zero values."""
    n = 40
    edges = _line_edges(
        [(b * 10 + j, b * 10 + j + 1) for b in range(4) for j in range(9)])

    def fn(comm, g):
        halo = HaloExchange(comm, g)
        assert halo.n_ghosts == 0 and halo.n_sent_per_iter == 0
        vals = np.arange(g.n_total, dtype=np.float64)
        halo.exchange(vals)
        halo.exchange_many(vals, vals.copy())
        return True

    assert all(dist_run(edges, n, 4, fn))


def test_2d_block_exchange(small_web):
    """(n, k) blocks ship k values per ghost through one plan."""
    n, edges = small_web

    def fn(comm, g):
        halo = HaloExchange(comm, g)
        vals = np.zeros((g.n_total, 3), dtype=np.float64)
        vals[: g.n_loc] = g.unmap[: g.n_loc, None] * np.array([1.0, 2.0, 3.0])
        halo.exchange(vals)
        assert np.array_equal(
            vals, g.unmap[:, None] * np.array([1.0, 2.0, 3.0]))
        return True

    assert all(dist_run(edges, n, 3, fn))


def test_mismatched_k_raises_via_verifier(small_web):
    """Different trailing dims across ranks must raise, not deadlock."""
    n, edges = small_web

    def fn(comm, g):
        halo = HaloExchange(comm, g)
        k = 2 if comm.rank == 0 else 3  # rank-divergent block width
        vals = np.zeros((g.n_total, k), dtype=np.float64)
        halo.exchange(vals)
        return True

    with pytest.raises(SpmdError) as excinfo:
        dist_run(edges, n, 2, fn, verify=True)
    from repro.runtime import CollectiveMismatchError

    assert any(isinstance(e, CollectiveMismatchError)
               for e in excinfo.value.failures.values())


def test_exchange_list_matches_plan_path(small_web):
    n, edges = small_web

    def fn(comm, g):
        halo = HaloExchange(comm, g)
        a = np.zeros(g.n_total)
        b = np.zeros(g.n_total)
        a[: g.n_loc] = b[: g.n_loc] = np.sqrt(g.unmap[: g.n_loc] + 1.0)
        halo.exchange(a)
        halo.exchange_list(b)
        assert (a == b).all()
        return True

    assert all(dist_run(edges, n, 4, fn))


def test_exchange_many_fuses_mixed_dtypes(small_web):
    """1-D float pairs fuse; int64/bool/2-D fall back to single exchanges."""
    n, edges = small_web

    def fn(comm, g):
        halo = HaloExchange(comm, g)
        a = np.zeros(g.n_total)
        b = np.zeros(g.n_total)
        c = np.zeros(g.n_total, dtype=np.int64)
        d = np.zeros(g.n_total, dtype=bool)
        e = np.zeros((g.n_total, 2))
        gid = g.unmap[: g.n_loc]
        a[: g.n_loc] = gid * 1.5
        b[: g.n_loc] = gid * -2.0
        c[: g.n_loc] = gid + 7
        d[: g.n_loc] = gid % 3 == 0
        e[: g.n_loc] = gid[:, None] * np.array([1.0, -1.0])
        halo.exchange_many(a, b, c, d, e)
        assert (a == g.unmap * 1.5).all()
        assert (b == g.unmap * -2.0).all()
        assert (c == g.unmap + 7).all()
        assert (d == (g.unmap % 3 == 0)).all()
        assert np.array_equal(e, g.unmap[:, None] * np.array([1.0, -1.0]))
        return True

    assert all(dist_run(edges, n, 3, fn))
