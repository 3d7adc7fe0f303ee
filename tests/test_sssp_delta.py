"""Delta-stepping SSSP: agreement with Bellman–Ford, bucket behavior."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import PARTITION_KINDS, dist_run, gather_by_gid
from repro.analytics import delta_stepping, sssp
from repro.graph import build_grid_graph
from repro.partition import GridEdgePartition
from repro.runtime import SpmdError, run_spmd

CHAIN = np.array([[0, 1], [1, 2], [2, 3], [0, 3]], dtype=np.int64)


def _on_both_layouts(fn, nranks=2):
    """``fn(comm, g)`` on the chain as a 1-D graph and as a grid; returns
    the per-rank results of each."""
    def grid_job(comm):
        chunk = np.array_split(CHAIN, comm.size)[comm.rank]
        part = GridEdgePartition.from_edge_chunks(comm, chunk[:, 0], 4,
                                                  fallback=True)
        g = build_grid_graph(comm, chunk, part)
        own = np.arange(g.own_lo, g.own_lo + g.n_own, dtype=np.int64)
        return own, fn(comm, g)

    one_d = dist_run(CHAIN, 4, nranks,
                     lambda c, g: (g.unmap[: g.n_loc], fn(c, g)))
    return one_d, run_spmd(nranks, grid_job, backend="threads")


@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("kind", PARTITION_KINDS)
def test_agrees_with_bellman_ford(small_web, p, kind):
    n, edges = small_web
    root = int(edges[0, 0])

    def fn(comm, g):
        a = sssp(comm, g, root)
        b = delta_stepping(comm, g, root)
        assert np.array_equal(a.distances, b.distances)
        return g.unmap[: g.n_loc], b.distances

    dist = gather_by_gid(dist_run(edges, n, p, fn, kind))
    assert dist[root] == 0.0


def test_small_delta_approaches_dijkstra(small_web):
    """Tiny buckets: more phases, each settled with few relaxations."""
    n, edges = small_web
    root = int(edges[0, 0])

    def fn(comm, g):
        small = delta_stepping(comm, g, root, delta=0.5)
        large = delta_stepping(comm, g, root, delta=1000.0)
        assert np.allclose(small.distances, large.distances, equal_nan=True)
        return small.n_phases, large.n_phases

    phases_small, phases_large = dist_run(edges, n, 2, fn)[0]
    assert phases_small > phases_large
    assert phases_large <= 2  # one giant bucket ~ pure Bellman-Ford


def test_unit_weights_chain():
    edges = np.array([[0, 1], [1, 2], [2, 3]], dtype=np.int64)

    def fn(comm, g):
        r = delta_stepping(comm, g, 0, weights=np.ones(g.m_in), delta=1.0)
        return g.unmap[: g.n_loc], r.distances

    dist = gather_by_gid(dist_run(edges, 4, 2, fn))
    assert dist.tolist() == [0.0, 1.0, 2.0, 3.0]


def test_heavy_light_mix():
    """Shortcut via many light edges must beat one heavy edge."""
    # 0 -> 4 direct (weight 10), 0 ->1->2->3->4 (weight 4 x 1).
    edges = np.array([[0, 4], [0, 1], [1, 2], [2, 3], [3, 4]], dtype=np.int64)
    w_map = {(0, 4): 10.0, (0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (3, 4): 1.0}

    def fn(comm, g):
        from repro.graph import expand_rows

        dsts = g.unmap[expand_rows(g.in_indexes)]
        srcs = g.unmap[g.in_edges]
        w = np.array([w_map[(int(u), int(v))] for u, v in zip(srcs, dsts)])
        r = delta_stepping(comm, g, 0, weights=w, delta=2.0)
        return g.unmap[: g.n_loc], r.distances

    dist = gather_by_gid(dist_run(np.array(edges), 5, 2, fn))
    assert dist[4] == 4.0


def test_zero_weight_edges():
    edges = np.array([[0, 1], [1, 2]], dtype=np.int64)

    def fn(comm, g):
        r = delta_stepping(comm, g, 0, weights=np.zeros(g.m_in), delta=1.0)
        # The default Δ (mean weight 0) is one bucket, not an error.
        d = delta_stepping(comm, g, 0, weights=np.zeros(g.m_in))
        assert np.array_equal(d.distances, r.distances) and d.n_phases == 1
        return g.unmap[: g.n_loc], r.distances

    dist = gather_by_gid(dist_run(edges, 3, 2, fn))
    assert dist.tolist() == [0.0, 0.0, 0.0]


def test_reached_count(small_web):
    n, edges = small_web
    root = int(edges[0, 0])

    def fn(comm, g):
        a = sssp(comm, g, root)
        b = delta_stepping(comm, g, root)
        assert a.reached == b.reached
        return b.reached

    assert dist_run(edges, n, 2, fn)[0] > 0


def test_invalid_params(small_web):
    n, edges = small_web
    with pytest.raises(SpmdError):
        dist_run(edges, n, 1, lambda c, g: delta_stepping(c, g, 0, delta=-1.0))
    with pytest.raises(SpmdError):
        dist_run(edges, n, 1, lambda c, g: delta_stepping(c, g, n + 1))
    with pytest.raises(SpmdError):
        dist_run(edges, n, 1,
                 lambda c, g: delta_stepping(
                     c, g, 0, weights=np.full(g.m_in, -2.0)))


def test_infinite_delta_is_one_bucket():
    """Δ = ∞ is Bellman–Ford: one bucket [0, ∞), every distance found."""
    want = gather_by_gid(dist_run(
        CHAIN, 4, 2, lambda c, g: (g.unmap[: g.n_loc],
                                   sssp(c, g, 0).distances)))
    assert np.isfinite(want).all()

    def fn(comm, g):
        r = delta_stepping(comm, g, 0, delta=np.inf)
        return r.distances, r.n_phases

    for outs in _on_both_layouts(fn):
        got = gather_by_gid([(o[0], o[1][0]) for o in outs])
        assert np.array_equal(got, want)
        assert {o[1][1] for o in outs} == {1}


@pytest.mark.parametrize("delta", [np.nan, 0.0, -1.0])
def test_invalid_delta_raises_on_both_layouts(delta):
    def fn(comm, g):
        with pytest.raises(ValueError, match="delta"):
            delta_stepping(comm, g, 0, delta=delta)
        return True

    for outs in _on_both_layouts(fn):
        assert all(o[1] for o in outs)
