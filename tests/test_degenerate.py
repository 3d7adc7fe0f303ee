"""Degenerate configurations: more ranks than vertices, empty ranks,
single-vertex graphs.  Every analytic must survive ranks that own nothing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analytics import (
    approx_kcore,
    betweenness_centrality,
    delta_stepping,
    distributed_bfs,
    distributed_bfs_dirop,
    estimate_diameter,
    exact_kcore,
    harmonic_centrality,
    label_propagation,
    largest_scc,
    pagerank,
    sssp,
    top_degree_vertices,
    triangle_count,
    wcc,
)
from repro.graph import build_dist_graph
from repro.partition import VertexBlockPartition
from repro.runtime import run_spmd

# A 3-vertex graph distributed over 5 ranks: two ranks own nothing.
N = 3
EDGES = np.array([[0, 1], [1, 2], [2, 0]], dtype=np.int64)
P = 5


def run_all(comm):
    part = VertexBlockPartition(N, comm.size)
    chunk = np.array_split(EDGES, comm.size)[comm.rank]
    g = build_dist_graph(comm, chunk, part)
    g.validate()

    out = {}
    out["pr"] = pagerank(comm, g, max_iters=5).scores
    out["lp"] = label_propagation(comm, g, n_iters=3).labels
    out["wcc"] = wcc(comm, g).labels
    out["scc"] = largest_scc(comm, g).size
    out["hc"] = harmonic_centrality(comm, g, 0).score
    out["kcore"] = approx_kcore(comm, g, max_stage=5).stage_removed
    out["exact_kcore"] = exact_kcore(comm, g).coreness
    out["bfs"] = distributed_bfs(comm, g, 0, "out")
    out["dirop"] = distributed_bfs_dirop(comm, g, 0)
    out["sssp"] = sssp(comm, g, 0).reached
    out["delta"] = delta_stepping(comm, g, 0).reached
    out["tri"] = triangle_count(comm, g).total
    out["bc"] = betweenness_centrality(comm, g).scores
    out["diam"] = estimate_diameter(comm, g).lower_bound
    out["top"] = top_degree_vertices(comm, g, 2).tolist()
    out["gids"] = g.unmap[: g.n_loc]
    return out


def test_more_ranks_than_vertices():
    outs = run_spmd(P, run_all)
    # Scalars agree on all ranks.
    assert all(o["scc"] == 3 for o in outs)
    assert all(o["tri"] == 1 for o in outs)  # undirected 3-cycle = triangle
    assert all(o["sssp"] == 3 for o in outs)
    assert all(o["delta"] == 3 for o in outs)
    # hc(0): vertices 1 and 2 reach 0 at distances 2 and 1 (directed).
    assert outs[0]["hc"] == pytest.approx(1.0 + 0.5)
    assert outs[0]["diam"] >= 1
    # Per-vertex arrays reassemble to n entries.
    total = sum(len(o["gids"]) for o in outs)
    assert total == N


def test_triangle_value_on_cycle():
    outs = run_spmd(P, run_all)
    # Undirected view of the 3-cycle is a triangle.
    assert all(o["tri"] == 1 for o in outs)


def test_single_vertex_graph():
    def job(comm):
        part = VertexBlockPartition(1, comm.size)
        g = build_dist_graph(comm, np.empty((0, 2), dtype=np.int64), part)
        pr = pagerank(comm, g, max_iters=3)
        w = wcc(comm, g)
        lev = distributed_bfs(comm, g, 0, "both")
        return pr.scores.sum(), len(w.labels), (lev == 0).sum()

    outs = run_spmd(3, job)
    assert sum(o[0] for o in outs) == pytest.approx(1.0)
    assert sum(o[1] for o in outs) == 1
    assert sum(o[2] for o in outs) == 1


def test_self_loop_only_graph():
    edges = np.array([[0, 0], [1, 1]], dtype=np.int64)

    def job(comm):
        part = VertexBlockPartition(2, comm.size)
        chunk = np.array_split(edges, comm.size)[comm.rank]
        g = build_dist_graph(comm, chunk, part)
        pr = pagerank(comm, g, max_iters=5)
        tri = triangle_count(comm, g)
        scc = largest_scc(comm, g)
        return pr.scores.sum(), tri.total, scc.size

    outs = run_spmd(2, job)
    assert sum(o[0] for o in outs) == pytest.approx(1.0)
    assert outs[0][1] == 0
    assert outs[0][2] >= 1  # a self-loop vertex is its own SCC


def test_two_ranks_one_edge():
    edges = np.array([[0, 1]], dtype=np.int64)

    def job(comm):
        part = VertexBlockPartition(2, comm.size)
        chunk = np.array_split(edges, comm.size)[comm.rank]
        g = build_dist_graph(comm, chunk, part)
        lev = distributed_bfs(comm, g, 0, "out")
        return g.unmap[: g.n_loc], lev

    outs = run_spmd(2, job)
    levels = np.concatenate([o[1] for o in outs])
    gids = np.concatenate([o[0] for o in outs])
    assert levels[np.argsort(gids)].tolist() == [0, 1]
