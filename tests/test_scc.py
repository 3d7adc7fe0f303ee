"""SCC extraction (FW–BW) vs. the NetworkX oracle."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

import spmd_kernels as K
from conftest import PARTITION_KINDS, dist_run, gather_by_gid
from repro.analytics import largest_scc, scc
from repro.baselines import digraph_from_edges, largest_scc_ref
from repro.generators import rmat_edges
from repro.runtime import run_spmd
from test_scc_oracle import chained_pairs


def run_largest(edges, n, p, kind="vblock"):
    def fn(comm, g):
        res = largest_scc(comm, g)
        return g.unmap[: g.n_loc], res.in_scc, res.size, res.pivot, res.n_trimmed

    outs = dist_run(edges, n, p, fn, kind)
    mask = gather_by_gid(outs)
    return mask.astype(bool), outs[0][2], outs[0][3], outs[0][4]


@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("kind", PARTITION_KINDS)
def test_matches_networkx(small_web, p, kind):
    n, edges = small_web
    mask, size, pivot, _ = run_largest(edges, n, p, kind)
    ref = largest_scc_ref(n, edges)
    assert (mask == ref).all()
    assert size == int(ref.sum())
    assert mask[pivot]


def test_trimming_counts(small_web):
    n, edges = small_web
    _, size, _, n_trimmed = run_largest(edges, n, 3)
    assert 0 < size <= n
    assert 0 <= n_trimmed <= n - size


def test_acyclic_graph_has_singleton_sccs():
    # A DAG: the "largest" SCC degenerates to a single vertex.
    edges = np.array([[0, 1], [1, 2], [0, 2], [2, 3]], dtype=np.int64)
    mask, size, _, n_trimmed = run_largest(edges, 4, 2)
    assert size <= 1
    assert n_trimmed >= 3


def test_single_cycle():
    k = 7
    edges = np.array([[i, (i + 1) % k] for i in range(k)], dtype=np.int64)
    mask, size, _, _ = run_largest(edges, k, 2)
    assert size == k
    assert mask.all()


def test_two_cycles_largest_wins():
    # A 5-cycle and a 3-cycle, disconnected.
    edges = [[i, (i + 1) % 5] for i in range(5)]
    edges += [[5 + i, 5 + ((i + 1) % 3)] for i in range(3)]
    mask, size, _, _ = run_largest(np.array(edges, dtype=np.int64), 8, 2)
    assert size == 5
    assert mask[:5].all() and not mask[5:].any()


@pytest.mark.parametrize("p", [1, 3])
def test_full_decomposition_matches_networkx(small_web, p):
    n, edges = small_web

    def fn(comm, g):
        return g.unmap[: g.n_loc], scc(comm, g)

    labels = gather_by_gid(dist_run(edges, n, p, fn))
    G = digraph_from_edges(n, edges)
    expect = np.empty(n, dtype=np.int64)
    for comp in nx.strongly_connected_components(G):
        m = min(comp)
        for v in comp:
            expect[v] = m
    assert (labels == expect).all()


def test_full_decomposition_small_cycles():
    edges = []
    for c in range(5):
        b = 4 * c
        edges += [(b, b + 1), (b + 1, b + 2), (b + 2, b + 3), (b + 3, b)]
    edges = np.array(edges, dtype=np.int64)

    def fn(comm, g):
        return g.unmap[: g.n_loc], scc(comm, g)

    labels = gather_by_gid(dist_run(edges, 20, 2, fn))
    assert (labels == (np.arange(20) // 4) * 4).all()


def test_empty_graph():
    mask, size, pivot, _ = run_largest(np.empty((0, 2), dtype=np.int64), 4, 2)
    assert size == 0
    assert pivot == -1
    assert not mask.any()


def test_rank_count_invariance(small_web):
    n, edges = small_web
    m1, s1, _, _ = run_largest(edges, n, 1)
    m4, s4, _, _ = run_largest(edges, n, 4)
    assert s1 == s4
    assert (m1 == m4).all()


@pytest.mark.parametrize("part", PARTITION_KINDS)
@pytest.mark.parametrize("nranks", [1, 2, 4])
@pytest.mark.parametrize("graph", ["web", "rmat"])
def test_closure_work_is_bounded(small_web, graph, nranks, part):
    """A peel or reach closure reads a stored entry of the adjacencies it
    walks at most once; over a whole decomposition the peels together read
    each forward and backward entry at most once, because a vertex dies
    once (trimmed or labelled) and degrees are carried across rounds.
    ``propagate_min`` reads every alive row once and re-reads a row only
    when its vertex's label fell again."""
    n, edges = small_web if graph == "web" else (
        128, rmat_edges(7, edge_factor=4.0, seed=5))
    cfg = {"edges": edges, "n": n, "part": part}
    outs = run_spmd(nranks, K.kern_scc_work, cfg, backend="threads")
    for calls, labels_agree, driven, counted, (fields, bumped), falls_ok \
            in outs:
        assert labels_agree and falls_ok
        rounds = driven[2]
        assert [c[0] for c in calls] == (
            ["peel", "reach", "reach"]
            + ["peel", "propagate", "reach"] * (rounds + 1))
        for kind, _, scanned, entries in calls:
            if kind != "propagate":
                assert scanned <= entries
        peels = [c for c in calls if c[0] == "peel"]
        assert sum(c[2] for c in peels) <= peels[0][3]
        if nranks == 1:
            # One superstep does the work, one confirms the fixed point.
            assert all(ss <= 2 for _, ss, _, _ in calls)
        # Result fields, trace counters and the driven closures agree.
        assert driven == counted
        assert driven[:2] == (sum(c[1] for c in calls),
                              sum(c[2] for c in calls))
        assert fields == bumped
    assert len({(o[2][0], o[2][2], o[4][0][0]) for o in outs}) == 1  # global


@pytest.mark.parametrize("part", PARTITION_KINDS)
@pytest.mark.parametrize("nranks", [1, 3])
def test_multi_root_reach_is_union_of_single_root_reaches(nranks, part):
    edges = rmat_edges(7, edge_factor=1.5, seed=9)
    roots = [3, 40, 77, 126]
    cfg = {"edges": edges, "n": 128, "part": part, "roots": roots}
    outs = run_spmd(nranks, K.kern_reach_roots, cfg, backend="threads")
    for direction in ("out", "in", "both"):
        together, *alone = [
            gather_by_gid([(o[0], o[1][direction][i][0]) for o in outs])
            for i in range(len(roots) + 1)]
        assert (together == np.logical_or.reduce(alone)).all()
        assert together[roots].all() and not together.all()
        for o in outs:  # the returned count is the global owned count
            assert o[1][direction][0][1] == together.sum()


def test_more_sccs_than_a_pivot_budget():
    """10 001 chained 2-cycles survive the trim whole.  One pivot per round
    needed 10 001 rounds (the old loop gave up after 10 000); with the
    links running from higher to lower ids every pair is a color root, so
    one coloring round takes out all the pairs the giant's FW–BW left."""
    n, edges = chained_pairs(10_001, ascending=False)

    def fn(comm, g):
        before = comm.trace.counters.get("scc.rounds", 0)
        labels = scc(comm, g)
        return g.unmap[: g.n_loc], labels, \
            comm.trace.counters["scc.rounds"] - before

    outs = dist_run(edges, n, 2, fn)
    assert (gather_by_gid(outs) == np.arange(n) // 2 * 2).all()
    assert [o[2] for o in outs] == [1, 1]
