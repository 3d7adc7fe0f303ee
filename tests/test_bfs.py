"""Distributed BFS vs. NetworkX shortest-path lengths, and the oracle's
generalizations (merged roots, ``restrict``, level cap) the engine dropped."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from bfs_reference import reference_bfs
from conftest import PARTITION_KINDS, dist_run, gather_by_gid
from repro.analytics import NOT_VISITED, QUEUED, distributed_bfs, multi_source_bfs
from repro.baselines import digraph_from_edges


def bfs_levels(edges, n, p, root, direction, kind="vblock"):
    def fn(comm, g):
        lev = distributed_bfs(comm, g, root, direction=direction)
        return g.unmap[: g.n_loc], lev

    return gather_by_gid(dist_run(edges, n, p, fn, kind))


def nx_levels(G, root, n):
    dist = nx.single_source_shortest_path_length(G, root)
    out = np.full(n, NOT_VISITED, dtype=np.int64)
    for v, d in dist.items():
        out[v] = d
    return out


@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("kind", PARTITION_KINDS)
def test_out_bfs_matches_networkx(small_web, p, kind):
    n, edges = small_web
    G = digraph_from_edges(n, edges)
    root = int(edges[0, 0])
    got = bfs_levels(edges, n, p, root, "out", kind)
    assert (got == nx_levels(G, root, n)).all()


@pytest.mark.parametrize("p", [1, 3])
def test_in_bfs_matches_reverse(small_web, p):
    n, edges = small_web
    G = digraph_from_edges(n, edges).reverse()
    root = int(edges[0, 1])
    got = bfs_levels(edges, n, p, root, "in")
    assert (got == nx_levels(G, root, n)).all()


@pytest.mark.parametrize("p", [1, 3])
def test_both_bfs_matches_undirected(small_web, p):
    n, edges = small_web
    G = digraph_from_edges(n, edges).to_undirected()
    root = int(edges[0, 0])
    got = bfs_levels(edges, n, p, root, "both")
    assert (got == nx_levels(G, root, n)).all()


def test_multi_source_bfs(small_web):
    """The oracle's merged multi-root traversal is the per-vertex minimum of
    the engine's independent per-root columns (and of NetworkX's levels)."""
    n, edges = small_web
    G = digraph_from_edges(n, edges)
    roots = np.unique(edges[:3].reshape(-1))[:3]

    def fn(comm, g):
        return (g.unmap[: g.n_loc], reference_bfs(comm, g, roots, "out"),
                multi_source_bfs(comm, g, roots, "out"))

    outs = dist_run(edges, n, 3, fn)
    got = gather_by_gid(outs)
    # Multi-source levels are the min over per-root levels.
    expect = np.full(n, np.inf)
    for r in roots:
        lv = nx_levels(G, int(r), n).astype(np.float64)
        lv[lv == NOT_VISITED] = np.inf
        expect = np.minimum(expect, lv)
    cols = gather_by_gid(outs, 2).astype(np.float64)
    cols[cols == NOT_VISITED] = np.inf
    assert (cols.min(axis=1) == expect).all()
    expect[np.isinf(expect)] = NOT_VISITED
    assert (got == expect.astype(np.int64)).all()


def test_restricted_bfs_stays_inside_mask(small_web):
    """The oracle's ``restrict`` mask (the k-core reference's component
    step) is BFS on the induced subgraph."""
    n, edges = small_web
    allowed = np.zeros(n, dtype=bool)
    allowed[: n // 2] = True
    root = 0

    def fn(comm, g):
        mask = allowed[g.unmap]  # includes ghosts
        lev = reference_bfs(comm, g, root, "out", restrict=mask)
        return g.unmap[: g.n_loc], lev

    got = gather_by_gid(dist_run(edges, n, 3, fn))
    assert (got[~allowed] == NOT_VISITED).all()
    # Compare against BFS on the induced subgraph.
    G = digraph_from_edges(n, edges).subgraph(np.flatnonzero(allowed).tolist())
    expect = np.full(n, NOT_VISITED, dtype=np.int64)
    for v, d in nx.single_source_shortest_path_length(G, root).items():
        expect[v] = d
    assert (got == expect).all()


def test_root_outside_restrict_reaches_nothing(small_web):
    n, edges = small_web

    def fn(comm, g):
        mask = np.zeros(g.n_total, dtype=bool)
        lev = reference_bfs(comm, g, 0, "out", restrict=mask)
        return int((lev >= 0).sum())

    assert sum(dist_run(edges, n, 2, fn)) == 0


def test_max_levels_cap(small_web):
    """The oracle's level cap keeps exactly the engine's levels below it."""
    n, edges = small_web
    root = int(edges[0, 0])

    def fn(comm, g):
        capped = reference_bfs(comm, g, root, "both", max_levels=2)
        full = distributed_bfs(comm, g, root, "both")
        return g.unmap[: g.n_loc], capped, full

    outs = dist_run(edges, n, 2, fn)
    got, full = gather_by_gid(outs), gather_by_gid(outs, 2)
    assert got.max() <= 1  # levels 0 and 1 settled before the cap
    # Vertices discovered at the cap stay QUEUED (-1), the rest unvisited.
    queued = np.where(full == 2, QUEUED, NOT_VISITED)
    assert (got == np.where(full <= 1, full, queued)).all()
    assert (full > 1).any()


def test_isolated_root(small_web):
    n, edges = small_web
    # Vertex with no edges at all (webcrawl zero_fraction guarantees some).
    deg = np.bincount(edges.reshape(-1), minlength=n)
    isolated = int(np.flatnonzero(deg == 0)[0])

    def fn(comm, g):
        lev = distributed_bfs(comm, g, isolated, "both")
        return g.unmap[: g.n_loc], lev

    got = gather_by_gid(dist_run(edges, n, 2, fn))
    assert got[isolated] == 0
    assert (got[np.arange(n) != isolated] == NOT_VISITED).all()


def test_invalid_inputs(small_web):
    n, edges = small_web
    from repro.runtime import SpmdError

    with pytest.raises(SpmdError):
        dist_run(edges, n, 1, lambda c, g: distributed_bfs(c, g, n + 5, "out"))
    with pytest.raises(SpmdError):
        dist_run(edges, n, 1, lambda c, g: distributed_bfs(c, g, 0, "sideways"))
    # The oracle's generalizations are not options of the engine.
    for kw in ({"restrict": np.ones(n, dtype=bool)}, {"max_levels": 2}):
        with pytest.raises(SpmdError):
            dist_run(edges, n, 1,
                     lambda c, g: distributed_bfs(c, g, 0, "out", **kw))
