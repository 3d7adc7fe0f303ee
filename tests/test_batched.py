"""Batched multi-query analytics vs. looped single-source references.

The serving-layer kernels (multi-source BFS, blocked personalized
PageRank, batched closeness) must be *exactly* equivalent to running a
single-source reference in a loop — batching is a communication
optimization, never an approximation.  The BFS-like kernels are checked
against the reference loop in ``bfs_reference.py`` (``distributed_bfs``
is itself the engine's k = 1 case, so looping it would be a tautology),
PPR against looped ``pagerank``; across 1–4 ranks and all three
partitionings, plus NetworkX references.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from bfs_reference import reference_bfs, reference_closeness
from conftest import PARTITION_KINDS, dist_run, gather_by_gid
from repro.analytics import (
    NOT_VISITED,
    QUEUED,
    batched_closeness,
    batched_personalized_pagerank,
    closeness_centrality,
    multi_source_bfs,
    pagerank,
)
from repro.baselines import digraph_from_edges
from repro.runtime import SpmdError

RANKS = (1, 2, 4)


def _sources(n, k=5, seed=0):
    return np.random.default_rng(seed).integers(0, n, k).astype(np.int64)


# ---------------------------------------------------------------------------
# multi-source BFS
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("p", RANKS)
@pytest.mark.parametrize("part", PARTITION_KINDS)
@pytest.mark.parametrize("direction", ("out", "in", "both"))
def test_multi_source_bfs_equals_looped(small_web, p, part, direction):
    n, edges = small_web
    sources = _sources(n)

    def fn(comm, g):
        batched = multi_source_bfs(comm, g, sources, direction=direction)
        looped = np.stack(
            [reference_bfs(comm, g, s, direction=direction)
             for s in sources], axis=1)
        assert np.array_equal(batched, looped)
        return True

    assert all(dist_run(edges, n, p, fn, part))


@pytest.mark.parametrize("p", (1, 3))
def test_multi_source_bfs_matches_networkx(small_web, p):
    n, edges = small_web
    sources = _sources(n, k=4, seed=3)

    def fn(comm, g):
        lev = multi_source_bfs(comm, g, sources, direction="out")
        return g.unmap[: g.n_loc], lev

    lev = gather_by_gid(dist_run(edges, n, p, fn))
    G = digraph_from_edges(n, edges)
    for j, s in enumerate(sources):
        ref = np.full(n, NOT_VISITED, dtype=np.int64)
        for v, d in nx.single_source_shortest_path_length(G, int(s)).items():
            ref[v] = d
        assert np.array_equal(lev[:, j], ref)


def test_multi_source_bfs_duplicate_and_empty(small_web):
    n, edges = small_web

    def fn(comm, g):
        # Duplicate sources get identical independent columns.
        lev = multi_source_bfs(comm, g, np.array([7, 7]))
        assert np.array_equal(lev[:, 0], lev[:, 1])
        # k = 0 is legal and returns an (n_loc, 0) matrix.
        empty = multi_source_bfs(comm, g, np.empty(0, dtype=np.int64))
        assert empty.shape == (g.n_loc, 0)
        return True

    assert all(dist_run(edges, n, 2, fn))


def test_multi_source_bfs_max_levels(small_web):
    """The engine has no level cap; the oracle's capped columns are the
    engine's columns cut below the cap."""
    n, edges = small_web
    sources = _sources(n, k=3, seed=5)

    def fn(comm, g):
        full = multi_source_bfs(comm, g, sources)
        capped = np.stack([reference_bfs(comm, g, s, max_levels=2)
                           for s in sources], axis=1)
        cut = np.where(full == 2, QUEUED, NOT_VISITED)  # found, unsettled
        assert np.array_equal(capped, np.where(full <= 1, full, cut))
        assert not (capped > 1).any()
        return True

    assert all(dist_run(edges, n, 2, fn))
    with pytest.raises(SpmdError):
        dist_run(edges, n, 1, lambda c, g: multi_source_bfs(
            c, g, sources, max_levels=2))


def test_multi_source_bfs_rejects_bad_input(small_web):
    n, edges = small_web
    with pytest.raises(SpmdError):
        dist_run(edges, n, 1,
                 lambda c, g: multi_source_bfs(c, g, np.array([n + 5])))
    with pytest.raises(SpmdError):
        dist_run(edges, n, 1,
                 lambda c, g: multi_source_bfs(c, g, np.array([0]),
                                               direction="sideways"))


# ---------------------------------------------------------------------------
# blocked personalized PageRank
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("p", RANKS)
@pytest.mark.parametrize("part", PARTITION_KINDS)
def test_batched_ppr_equals_looped(small_web, p, part):
    n, edges = small_web
    seeds = _sources(n, k=3, seed=9)

    def fn(comm, g):
        res = batched_personalized_pagerank(comm, g, seeds, max_iters=200,
                                            tol=1e-13)
        for j, s in enumerate(seeds):
            w = np.zeros(g.n_loc)
            owned = g.partition.owner_of(np.array([s]))[0] == comm.rank
            if owned:
                w[g.partition.to_local(comm.rank, np.array([s]))[0]] = 1.0
            ref = pagerank(comm, g, max_iters=200, tol=1e-13,
                           personalization=w)
            assert np.abs(res.scores[:, j] - ref.scores).max() < 1e-12
        return True

    assert all(dist_run(edges, n, p, fn, part))


@pytest.mark.parametrize("p", (1, 2, 3))
@pytest.mark.parametrize("part", PARTITION_KINDS)
def test_batched_ppr_column_is_independent_of_its_batch(small_web, p, part):
    """With a fixed iteration count, column j's bits depend on seed j
    alone: the same at k = 1, at k = 5 (a duplicated seed included) and
    with the seeds permuted — and equal to a single-seed ``pagerank``
    with that seed's indicator as personalization, since both sum every
    row sequentially over one operator and every column as a 1-D array."""
    n, edges = small_web
    seeds = np.array([3, 77, 3, 410, 9], dtype=np.int64)
    perm = np.array([3, 0, 4, 2, 1])

    def fn(comm, g):
        def ppr(s):
            return batched_personalized_pagerank(comm, g, s,
                                                 max_iters=25).scores

        block, permuted = ppr(seeds), ppr(seeds[perm])
        for j, s in enumerate(seeds):
            w = np.zeros(g.n_loc)
            if g.partition.owner_of(np.array([s]))[0] == comm.rank:
                w[g.partition.to_local(comm.rank, np.array([s]))[0]] = 1.0
            single = pagerank(comm, g, max_iters=25,
                              personalization=w).scores
            col = block[:, j].tobytes()
            assert col == ppr([s])[:, 0].tobytes()
            assert col == permuted[:, np.flatnonzero(perm == j)[0]].tobytes()
            assert col == single.tobytes()
        return True

    assert all(dist_run(edges, n, p, fn, part))


@pytest.mark.parametrize("p", (1, 3))
def test_batched_ppr_matches_networkx(small_web, p):
    n, edges = small_web
    seeds = _sources(n, k=2, seed=4)

    def fn(comm, g):
        res = batched_personalized_pagerank(comm, g, seeds, max_iters=500,
                                            tol=1e-13)
        return g.unmap[: g.n_loc], res.scores

    scores = gather_by_gid(dist_run(edges, n, p, fn, "rand"))
    G = digraph_from_edges(n, edges)
    for j, s in enumerate(seeds):
        pers = {i: 1.0 if i == int(s) else 0.0 for i in range(n)}
        ref = nx.pagerank(G, alpha=0.85, tol=1e-12, max_iter=1000,
                          personalization=pers, dangling=pers)
        ref_vec = np.array([ref[i] for i in range(n)])
        assert np.abs(scores[:, j] - ref_vec).max() < 1e-8


def test_batched_ppr_columns_sum_to_one(small_web):
    n, edges = small_web
    seeds = _sources(n, k=4, seed=1)

    def fn(comm, g):
        res = batched_personalized_pagerank(comm, g, seeds, max_iters=50)
        return res.scores.sum(axis=0)

    outs = dist_run(edges, n, 3, fn)
    totals = np.sum(outs, axis=0)
    assert np.allclose(totals, 1.0, atol=1e-9)


def test_batched_ppr_rejects_bad_input(small_web):
    n, edges = small_web
    with pytest.raises(SpmdError):
        dist_run(edges, n, 1, lambda c, g: batched_personalized_pagerank(
            c, g, np.empty(0, dtype=np.int64)))
    with pytest.raises(SpmdError):
        dist_run(edges, n, 1, lambda c, g: batched_personalized_pagerank(
            c, g, np.array([0]), damping=1.5))
    with pytest.raises(SpmdError):
        dist_run(edges, n, 1, lambda c, g: batched_personalized_pagerank(
            c, g, np.array([n + 1])))


# ---------------------------------------------------------------------------
# batched closeness
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("p", RANKS)
@pytest.mark.parametrize("part", PARTITION_KINDS)
def test_batched_closeness_equals_looped(small_web, p, part):
    n, edges = small_web
    vertices = _sources(n, k=4, seed=2)

    def fn(comm, g):
        batched = batched_closeness(comm, g, vertices)
        for j, v in enumerate(vertices):
            single = closeness_centrality(comm, g, int(v))
            want = reference_closeness(comm, g, int(v))
            assert batched[j] == single == want
        return True

    assert all(dist_run(edges, n, p, fn, part))


def test_batched_closeness_matches_networkx(small_web):
    n, edges = small_web
    vertices = _sources(n, k=3, seed=8)

    def fn(comm, g):
        return [r.score for r in batched_closeness(comm, g, vertices)]

    scores = dist_run(edges, n, 2, fn)[0]
    G = digraph_from_edges(n, edges)
    for j, v in enumerate(vertices):
        assert scores[j] == pytest.approx(
            nx.closeness_centrality(G, int(v)), abs=1e-12)
