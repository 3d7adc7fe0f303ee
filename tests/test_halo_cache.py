"""One retained-queue halo exchange per graph: :func:`halo_of` and the
lifetime rule of ``DistGraph.derived``.

A graph's halo is built by its first collective use and shared by every
later kernel on it; ``sort_adjacency`` drops it; another world rebuilds
it, except a later job's world of the same rank session (the serving
engine), which rebinds it with no setup; every epoch view of a delta
graph with one ghost set shares the delta graph's halo, and a pinned view
keeps a working halo after the ghost set grows.  Setups are counted as
the ``alltoallv`` events tagged ``halo.setup``.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from conftest import dist_run
from spmd_kernels import halo_setups
from repro.analytics import (
    approx_kcore,
    halo_of,
    label_propagation,
    pagerank,
    scc,
    validate_pagerank,
    wcc,
)
from repro.graph import build_dist_graph
from repro.partition import VertexBlockPartition
from repro.runtime import run_spmd
from repro.runtime.backends import get_backend
from repro.stream import DELETE, INSERT, DynamicDistGraph, UpdateBatch


@pytest.mark.parametrize("p", [1, 2, 3])
def test_kernels_on_one_graph_make_one_setup(small_web, p):
    n, edges = small_web

    def fn(comm, g):
        pr = pagerank(comm, g, max_iters=5)
        halo = g.derived["halo"]
        label_propagation(comm, g, n_iters=3)
        wcc(comm, g)
        scc(comm, g)
        approx_kcore(comm, g)
        bad = validate_pagerank(comm, g, pr.scores, tol=1.0)
        return (halo_setups(comm.trace.events), halo_of(comm, g) is halo,
                bad)

    for setups, shared, bad in dist_run(edges, n, p, fn):
        assert setups == 1 and shared and not bad


def test_second_world_rebuilds(small_web):
    n, edges = small_web
    part = VertexBlockPartition(n, 2)

    def first(comm):
        chunk = np.array_split(edges, comm.size)[comm.rank]
        g = build_dist_graph(comm, chunk, part)
        scores = pagerank(comm, g, max_iters=5).scores
        return g, g.derived["halo"], scores

    worlds = run_spmd(2, first, backend="threads")

    def second(comm):
        g, halo, scores = worlds[comm.rank]
        again = pagerank(comm, g, max_iters=5).scores
        return (halo_setups(comm.trace.events),
                g.derived["halo"] is not halo,
                g.derived["halo"].comm is comm,
                again.tobytes() == scores.tobytes())

    assert all(out == (1, True, True, True)
               for out in run_spmd(2, second, backend="threads"))


def test_sort_adjacency_drops_the_halo(small_web):
    n, edges = small_web

    def fn(comm, g):
        pagerank(comm, g, max_iters=3)
        g.sort_adjacency()
        dropped = "halo" not in g.derived
        wcc(comm, g)
        return dropped, halo_setups(comm.trace.events)

    assert all(out == (True, 2) for out in dist_run(edges, n, 2, fn))


def _path_graph(comm, n):
    """A directed path 0 → 1 → … → n-1 under a vertex-block partition."""
    path = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    chunk = np.array_split(path, comm.size)[comm.rank]
    return path, build_dist_graph(comm, chunk,
                                  VertexBlockPartition(n, comm.size))


def _apply(comm, dyn, src, dst, op):
    """Apply one global batch, given whole on rank 0."""
    mine = slice(None) if comm.rank == 0 else slice(0)
    return dyn.apply(UpdateBatch(np.asarray(src)[mine], np.asarray(dst)[mine],
                                 np.asarray(op)[mine]))


def test_views_share_the_delta_graph_halo():
    def job(comm):
        n = 16
        _, g = _path_graph(comm, n)
        dyn = DynamicDistGraph(comm, g, compact_threshold=100.0)
        v0 = dyn.view()
        # A parallel copy of an existing edge: no endpoint is new anywhere.
        same = _apply(comm, dyn, [1], [2], [INSERT])
        v1 = dyn.view()
        steps = [("same ghosts", not same.ghosts_changed
                  and v1 is not v0 and v0.derived["halo"] is dyn.halo
                  and v1.derived["halo"] is dyn.halo)]
        grown = _apply(comm, dyn, [0], [n - 1], [INSERT])
        v2 = dyn.view()
        steps.append(("ghost growth", grown.ghosts_changed
                      and v2.derived["halo"] is dyn.halo
                      and dyn.halo is not v1.derived["halo"]))
        dyn.compact_threshold = 1e-9
        compacted = _apply(comm, dyn, [0], [n - 1], [DELETE])
        v3 = dyn.view()
        steps.append(("compaction", compacted.compacted
                      and v3.derived["halo"] is dyn.halo
                      and dyn.halo is not v2.derived["halo"]))
        before = len(comm.trace.events)
        wcc(comm, v3)
        pagerank(comm, v3, max_iters=3)
        steps.append(("kernels reuse it",
                      halo_setups(comm.trace.events[before:]) == 0))
        return steps

    for steps in run_spmd(2, job, backend="threads"):
        assert all(ok for _, ok in steps), steps


def test_pinned_view_survives_ghost_growth():
    """A query on a view pinned at epoch e, after ghost growth at e + 1,
    still runs and equals a from-scratch rebuild of epoch e bitwise."""
    n = 24

    def job(comm):
        path, g = _path_graph(comm, n)
        dyn = DynamicDistGraph(comm, g)
        # Ghost growth before the pin too: the pinned view's halo is then
        # one the delta graph rebuilt over its own (growing) arrays.
        first = _apply(comm, dyn, [3], [20], [INSERT])
        pinned_epoch = dyn.pin_epoch()
        pinned = dyn.view()
        grown = _apply(comm, dyn, [0, 5], [n - 1, n - 2], [INSERT, INSERT])
        pr = pagerank(comm, pinned, max_iters=8, tol=1e-12)
        labels = wcc(comm, pinned).labels
        dyn.release_epoch(pinned_epoch)

        epoch_edges = np.concatenate((path, [[3, 20]]))
        chunk = np.array_split(epoch_edges, comm.size)[comm.rank]
        rebuilt = build_dist_graph(
            comm, chunk, VertexBlockPartition(n, comm.size)).sort_adjacency()
        want_pr = pagerank(comm, rebuilt, max_iters=8, tol=1e-12)
        want_labels = wcc(comm, rebuilt).labels
        return (first.ghosts_changed and grown.ghosts_changed,
                pr.scores.tobytes() == want_pr.scores.tobytes(),
                pr.n_iters == want_pr.n_iters,
                np.array_equal(labels, want_labels))

    assert all(out == (True, True, True, True)
               for out in run_spmd(2, job, backend="threads"))


def test_graph_is_freed_without_the_cycle_collector(small_web):
    """The cached halo holds the arrays it reads, not the graph: with the
    cycle collector off, a graph that ran PageRank and WCC is freed as
    soon as its last reference goes."""
    n, edges = small_web

    def job(comm):
        chunk = np.array_split(edges, comm.size)[comm.rank]
        g = build_dist_graph(comm, chunk, VertexBlockPartition(n, comm.size))
        pagerank(comm, g, max_iters=3)
        wcc(comm, g)
        cached = "halo" in g.derived
        ref = weakref.ref(g)
        del g
        return cached and ref() is None

    gc.collect()
    gc.disable()
    try:
        freed = run_spmd(2, job, backend="threads")
    finally:
        gc.enable()
    assert all(freed)


@pytest.mark.parametrize("backend", ["threads", "procs"])
def test_serving_queries_share_one_setup(small_web, backend):
    """Two PageRank queries on one serving epoch make one halo setup:
    each job runs on a fresh world of the engine's session, and the
    second rebinds the resident graph's halo with no communication.
    After an update batch the epoch view carries the delta graph's
    halo, so queries on it make none."""
    n, edges = small_web
    query = {"factory": "_make_pagerank", "payload": {"max_iters": 6}}
    apply = {"factory": "_make_stream_apply", "payload": {
        "src": np.array([0, 1]), "dst": np.array([n - 1, n - 2]),
        "op": np.array([INSERT, INSERT]), "values": None}}
    sess = get_backend(backend).start_session(2, verify=True, sanitize=False)
    try:
        build = sess.run(("spmd_kernels", "make_resident_graph",
                          {"edges": edges, "n": n}), 120.0)
        assert not build.errors
        runs = [sess.run(("spmd_kernels", "make_engine_job", job), 120.0)
                for job in (query, query, apply, query, query)]
    finally:
        sess.close()
    assert not any(run.errors for run in runs)
    q1, q2, _, q3, q4 = ([r[1:] for r in run.results] for run in runs)
    for rank in range(2):
        assert (q1[rank][0], q2[rank][0], q3[rank][0], q4[rank][0]) \
            == (1, 0, 0, 0)
        assert q1[rank][1] == q2[rank][1] and q3[rank][1] == q4[rank][1]
        assert all(q[rank][2] for q in (q1, q2, q3, q4))
    first, second = runs[0].results[0][0], runs[1].results[0][0]
    assert first["scores"].tobytes() == second["scores"].tobytes()
