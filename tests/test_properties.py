"""Property-based end-to-end tests on random graphs (hypothesis).

The central invariant of the whole system: for ANY graph, ANY rank count
and ANY partitioning, the distributed analytics agree with single-threaded
references.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import dist_run, gather_by_gid
from repro.analytics import distributed_bfs, largest_scc, pagerank, scc, wcc
from repro.baselines import (
    digraph_from_edges,
    pagerank_ref,
    wcc_labels_ref,
)
from repro.graph import build_dist_graph
from repro.partition import RandomHashPartition
from repro.runtime import run_spmd

graph_strategy = st.tuples(
    st.integers(min_value=1, max_value=40),  # n
    st.integers(min_value=0, max_value=120),  # m
    st.integers(min_value=0, max_value=10_000),  # seed
    st.integers(min_value=1, max_value=4),  # nranks
)


def random_graph(n, m, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, size=(m, 2), dtype=np.int64)


common = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@common
@given(graph_strategy)
def test_wcc_matches_reference_on_random_graphs(params):
    n, m, seed, p = params
    edges = random_graph(n, m, seed)

    def fn(comm, g):
        return g.unmap[: g.n_loc], wcc(comm, g).labels

    labels = gather_by_gid(dist_run(edges, n, p, fn, "rand"))
    assert (labels == wcc_labels_ref(n, edges)).all()


@common
@given(graph_strategy, st.sampled_from(["vblock", "rand"]))
def test_scc_matches_reference_on_random_graphs(params, kind):
    """Random multigraphs (self-loops, duplicate edges, isolated vertices):
    ``scc()`` gives NetworkX's components under min-id labels, and
    ``largest_scc()`` exactly the component of its pivot — the pivot
    heuristic is "almost surely largest", not largest, on such graphs."""
    n, m, seed, p = params
    edges = random_graph(n, m, seed)

    def fn(comm, g):
        big = largest_scc(comm, g)
        return (g.unmap[: g.n_loc], scc(comm, g), big.in_scc, big.size,
                big.pivot, big.n_trimmed)

    outs = dist_run(edges, n, p, fn, kind)
    expect = np.empty(n, dtype=np.int64)
    for comp in nx.strongly_connected_components(digraph_from_edges(n, edges)):
        expect[list(comp)] = min(comp)
    assert (gather_by_gid(outs) == expect).all()

    mask = gather_by_gid(outs, 2).astype(bool)
    _, _, _, size, pivot, n_trimmed = outs[0]
    if pivot < 0:  # every vertex trimmed: no cycle, not even a self-loop
        assert size == 0 and n_trimmed == n and not mask.any()
        assert (expect == np.arange(n)).all()
    else:
        assert (mask == (expect == expect[pivot])).all()
        assert size == mask.sum() <= n - n_trimmed


@common
@given(graph_strategy)
def test_pagerank_mass_conserved_on_random_graphs(params):
    n, m, seed, p = params
    edges = random_graph(n, m, seed)

    def fn(comm, g):
        return g.unmap[: g.n_loc], pagerank(comm, g, max_iters=20).scores

    scores = gather_by_gid(dist_run(edges, n, p, fn, "rand"))
    assert scores.sum() == pytest.approx(1.0, abs=1e-9)
    assert (scores > 0).all()


@common
@given(
    st.integers(min_value=2, max_value=30),
    st.integers(min_value=0, max_value=80),
    st.integers(min_value=0, max_value=10_000),
)
def test_bfs_triangle_inequality(n, m, seed):
    """BFS levels of adjacent vertices differ by at most 1 (both-direction)."""
    edges = random_graph(n, m, seed)

    def fn(comm, g):
        lev = distributed_bfs(comm, g, 0, "both")
        return g.unmap[: g.n_loc], lev

    lev = gather_by_gid(dist_run(edges, n, 2, fn)).astype(np.float64)
    lev[lev < 0] = np.inf
    for u, v in edges:
        if np.isfinite(lev[u]) or np.isfinite(lev[v]):
            assert abs(
                (lev[u] if np.isfinite(lev[u]) else 1e18)
                - (lev[v] if np.isfinite(lev[v]) else 1e18)
            ) <= 1 or not (np.isfinite(lev[u]) and np.isfinite(lev[v]))
    # Connectivity: a finite-level vertex's neighbors are finite too.
    for u, v in edges:
        assert np.isfinite(lev[u]) == np.isfinite(lev[v])


@common
@given(
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=0, max_value=150),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=4),
)
def test_build_conserves_edges_on_random_graphs(n, m, seed, p):
    edges = random_graph(n, m, seed)

    def job(comm):
        part = RandomHashPartition(n, comm.size, seed=seed)
        chunk = np.array_split(edges, comm.size)[comm.rank]
        g = build_dist_graph(comm, chunk, part)
        g.validate()
        return g.m_out, g.m_in, g.n_loc

    outs = run_spmd(p, job)
    assert sum(o[0] for o in outs) == m
    assert sum(o[1] for o in outs) == m
    assert sum(o[2] for o in outs) == n


@common
@given(graph_strategy)
def test_triangles_rank_invariant_on_random_graphs(params):
    n, m, seed, p = params
    edges = random_graph(n, m, seed)
    from repro.analytics import triangle_count

    def fn(comm, g):
        r = triangle_count(comm, g)
        return g.unmap[: g.n_loc], r.local_triangles, r.total

    base = dist_run(edges, n, 1, fn)
    multi = dist_run(edges, n, p, fn, "rand")
    assert base[0][2] == multi[0][2]
    assert (gather_by_gid(base) == gather_by_gid(multi)).all()


@common
@given(graph_strategy)
def test_sssp_bounded_by_bfs_on_random_graphs(params):
    """Hashed weights lie in [1, 10): BFS-level ≤ dist ≤ 10 x BFS-level."""
    n, m, seed, p = params
    edges = random_graph(n, m, seed)
    from repro.analytics import sssp

    def fn(comm, g):
        lev = distributed_bfs(comm, g, 0, "out")
        d = sssp(comm, g, 0).distances
        return g.unmap[: g.n_loc], lev, d

    outs = dist_run(edges, n, p, fn, "rand")
    lev = gather_by_gid(outs, 1).astype(np.float64)
    d = gather_by_gid(outs, 2)
    reached = lev >= 0
    assert (np.isfinite(d) == reached).all()
    assert (d[reached] >= lev[reached] - 1e-12).all()
    assert (d[reached] <= 10.0 * np.maximum(lev[reached], 0) + 1e-12).all()


@common
@given(graph_strategy)
def test_kcore_stage_bounds_on_random_graphs(params):
    """Approximate stages dominate exact coreness (no LCC filtering)."""
    n, m, seed, p = params
    edges = random_graph(n, m, seed)
    from repro.analytics import approx_kcore, exact_kcore

    def fn(comm, g):
        exact = exact_kcore(comm, g).coreness
        stages = approx_kcore(comm, g, max_stage=12,
                              lcc_restrict=False).stage_removed
        ub = (1 << stages.astype(np.int64)) - 1
        assert (exact <= ub).all()
        return True

    assert all(dist_run(edges, n, p, fn, "rand"))
