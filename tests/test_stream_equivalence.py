"""Streaming equivalence: incremental analytics vs rebuild + static.

The stream subsystem's headline contract (an ISSUE acceptance criterion):
after *every* applied batch of randomized inserts and deletes, the
streaming PageRank / WCC kernels and maintained degrees on the
:class:`~repro.stream.DynamicDistGraph` are **bitwise identical** to the
static kernels run on a from-scratch rebuild of the updated edge list on
the same partition.  Exercised on RMAT and Erdos-Renyi graphs across
1/2/4/8 ranks with the collective-schedule verifier on (conftest default),
through compaction, ghost growth, missing deletes, and duplicate edges.
"""

from collections import Counter

import numpy as np
import pytest

from conftest import make_partition
from repro.analytics import approx_kcore, pagerank, wcc
from repro.generators import erdos_renyi_edges, rmat_edges
from repro.graph import build_dist_graph
from repro.runtime import run_spmd
from repro.stream import (
    DynamicDistGraph,
    IncrementalKCore,
    IncrementalPageRank,
    IncrementalWCC,
    UpdateBatch,
)


def make_schedule(base_edges, n, n_epochs, n_ops, seed):
    """Random insert/delete epochs plus the exact logical edge multiset
    after each one (deletes consume one stored copy, misses no-op)."""
    rng = np.random.default_rng(seed)
    counts = Counter((int(u), int(v)) for u, v in base_edges)
    epochs, state_edges = [], []
    for _ in range(n_epochs):
        ops = []
        present = [k for k, c in counts.items() for _ in range(c)]
        for _ in range(n_ops):
            kind = rng.integers(0, 3)
            if kind == 0 and present:
                u, v = present[rng.integers(0, len(present))]
                ops.append((u, v, -1))
            elif kind == 1:  # delete of a (likely) absent edge
                ops.append((int(rng.integers(0, n)),
                            int(rng.integers(0, n)), -1))
            else:
                ops.append((int(rng.integers(0, n)),
                            int(rng.integers(0, n)), 1))
        for u, v, op in ops:
            if op == 1:
                counts[(u, v)] += 1
            elif counts[(u, v)] > 0:
                counts[(u, v)] -= 1
        epochs.append(np.array(ops, dtype=np.int64))
        cur = np.array([k for k, c in counts.items() for _ in range(c)],
                       dtype=np.int64).reshape(-1, 2)
        state_edges.append(cur)
    return epochs, state_edges


def run_equivalence(edges, n, nranks, epochs, state_edges,
                    part_kind="vblock", compact_threshold=0.3,
                    check_kcore=False, pr_iters=12):
    """One SPMD world checking every epoch bitwise; returns per-rank
    (apply outcomes, pagerank stats, wcc stats)."""

    def job(comm):
        chunk = np.array_split(edges, comm.size)[comm.rank]
        part = make_partition(part_kind, comm, n, chunk)
        g = build_dist_graph(comm, chunk, part)
        dyn = DynamicDistGraph(comm, g, compact_threshold=compact_threshold)
        ipr = IncrementalPageRank(comm, dyn, max_iters=pr_iters, tol=1e-10)
        iwcc = IncrementalWCC(comm, dyn)
        ikc = IncrementalKCore(comm, dyn) if check_kcore else None
        outcomes = []
        for e, ops in enumerate(epochs):
            my = np.array_split(ops, comm.size)[comm.rank]
            res = dyn.apply(UpdateBatch(my[:, 0], my[:, 1], my[:, 2]))

            # From-scratch rebuild of the post-epoch edge list on the
            # same partition: the ground truth for this epoch.
            rchunk = np.array_split(state_edges[e], comm.size)[comm.rank]
            rg = build_dist_graph(comm, rchunk, part).sort_adjacency()
            assert dyn.m_global == rg.m_global

            s_pr = pagerank(comm, rg, max_iters=pr_iters, tol=1e-10)
            i_pr = ipr.run()
            assert np.array_equal(s_pr.scores, i_pr.scores), (
                "pagerank not bitwise at epoch", e,
                float(np.abs(s_pr.scores - i_pr.scores).max()))
            assert s_pr.n_iters == i_pr.n_iters

            s_w = wcc(comm, rg)
            i_w = iwcc.run()
            assert np.array_equal(s_w.labels, i_w.labels), ("wcc", e)

            assert np.array_equal(dyn.out_degrees(), rg.out_degrees()), (
                "outdeg", e)
            assert np.array_equal(dyn.in_degrees(), rg.in_degrees()), (
                "indeg", e)

            if ikc is not None:
                s_k = approx_kcore(comm, rg)
                i_k = ikc.run()
                assert np.array_equal(s_k.stage_removed,
                                      i_k.stage_removed), ("kcore", e)
                assert s_k.survivors == i_k.survivors

            outcomes.append((res.compacted, res.ghosts_changed, i_w.mode))
        return outcomes, dict(ipr.stats), dict(iwcc.stats)

    return run_spmd(nranks, job, timeout=300.0)


@pytest.mark.parametrize("nranks", [1, 2, 4])
def test_rmat_random_mutations_bitwise(nranks):
    edges = rmat_edges(7, edge_factor=4.0, seed=5)  # n=128, skewed degrees
    n = 128
    epochs, states = make_schedule(edges, n, n_epochs=6, n_ops=30, seed=3)
    outs = run_equivalence(edges, n, nranks, epochs, states,
                           compact_threshold=0.15)
    outcomes, pr_stats, _ = outs[0]
    # The schedule must actually exercise the interesting paths.
    assert any(comp for comp, _, _ in outcomes), "no epoch compacted"
    assert pr_stats["runs"] == len(epochs)


def test_er_8_ranks_bitwise():
    n = 160
    edges = erdos_renyi_edges(n, m=900, seed=9)
    epochs, states = make_schedule(edges, n, n_epochs=4, n_ops=40, seed=13)
    outs = run_equivalence(edges, n, 8, epochs, states, check_kcore=True)
    outcomes = outs[0][0]
    assert any(gh for _, gh, _ in outcomes), "no epoch grew ghosts"


@pytest.mark.parametrize("part_kind", ["eblock", "rand"])
def test_nonuniform_partitions_bitwise(part_kind):
    """Owner routing follows any Partition, not just vertex blocks."""
    n = 96
    edges = rmat_edges(6, seed=2, m=480)
    epochs, states = make_schedule(edges, n, n_epochs=3, n_ops=24, seed=21)
    run_equivalence(edges, n, 3, epochs, states, part_kind=part_kind)


def test_insert_only_stream_stays_incremental():
    """Insert-only epochs keep WCC on its union-find repair path; PageRank
    reports every run as a full run over every owned row."""
    n = 200
    rng = np.random.default_rng(4)
    edges = erdos_renyi_edges(n, m=1200, seed=4)
    epochs, states = [], []
    counts = Counter((int(u), int(v)) for u, v in edges)
    for _ in range(4):
        ins = rng.integers(0, n, size=(12, 2), dtype=np.int64)
        for u, v in ins:
            counts[(int(u), int(v))] += 1
        epochs.append(np.column_stack(
            (ins, np.ones(len(ins), dtype=np.int64))))
        states.append(np.array(
            [k for k, c in counts.items() for _ in range(c)],
            dtype=np.int64).reshape(-1, 2))
    outs = run_equivalence(edges, n, 4, epochs, states,
                           compact_threshold=10.0)
    outcomes, pr_stats, wcc_stats = outs[0]
    assert not any(comp for comp, _, _ in outcomes)
    assert pr_stats["full_runs"] == pr_stats["runs"] == len(epochs)
    assert pr_stats["rows_recomputed"] == pr_stats["rows_total"]
    # Σ over ranks of n_loc · iterations: every row of every iteration.
    assert sum(o[1]["rows_total"] for o in outs) == n * pr_stats["iters"]
    # After the seeding full pass, insert-only batches never split
    # components: WCC stays on the union-find repair path.
    assert all(mode == "incremental" for _, _, mode in outcomes[1:])
    assert wcc_stats["full_runs"] <= 1


def test_pagerank_refresh_runs_the_static_schedule():
    """A refresh is the static kernel on the epoch's view: through ghost
    growth and compaction it records exactly the collectives (op and
    bytes sent) of ``pagerank`` on ``dyn.view()`` with the retained
    halo, and returns the same scores."""
    n = 128
    edges = rmat_edges(7, edge_factor=4.0, seed=5)
    epochs, _ = make_schedule(edges, n, n_epochs=5, n_ops=30, seed=3)

    def job(comm):
        chunk = np.array_split(edges, comm.size)[comm.rank]
        g = build_dist_graph(comm, chunk, make_partition(
            "vblock", comm, n, chunk))
        dyn = DynamicDistGraph(comm, g, compact_threshold=0.15)
        ipr = IncrementalPageRank(comm, dyn, max_iters=8, tol=1e-10)
        events = comm.trace.events
        compacted = []
        for ops in epochs:
            my = np.array_split(ops, comm.size)[comm.rank]
            compacted.append(dyn.apply(
                UpdateBatch(my[:, 0], my[:, 1], my[:, 2])).compacted)
            n0 = len(events)
            got = ipr.run()
            n1 = len(events)
            want = pagerank(comm, dyn.view(), max_iters=8, tol=1e-10)
            assert [(e.op, e.bytes_sent) for e in events[n0:n1]] == \
                [(e.op, e.bytes_sent) for e in events[n1:]]
            assert np.array_equal(got.scores, want.scores)
        return compacted

    for compacted in run_spmd(2, job, timeout=120.0):
        assert any(compacted), "no epoch compacted"


def test_wcc_refresh_after_a_deletion_runs_the_static_schedule():
    """An epoch whose journal holds an effective deletion refreshes with
    exactly the collectives (op and bytes sent) of ``wcc`` on
    ``dyn.view()``: the journal is read before any label exchange."""
    n = 128
    edges = rmat_edges(7, edge_factor=4.0, seed=5)
    ops = np.array([[edges[0, 0], edges[0, 1], -1], [3, 90, 1],
                    [edges[7, 0], edges[7, 1], -1], [100, 5, 1]],
                   dtype=np.int64)

    def job(comm):
        chunk = np.array_split(edges, comm.size)[comm.rank]
        g = build_dist_graph(comm, chunk, make_partition(
            "vblock", comm, n, chunk))
        dyn = DynamicDistGraph(comm, g)
        iwcc = IncrementalWCC(comm, dyn)
        iwcc.run()  # the seeding full run
        my = np.array_split(ops, comm.size)[comm.rank]
        assert dyn.apply(UpdateBatch(my[:, 0], my[:, 1], my[:, 2])
                         ).n_deleted == 2
        events = comm.trace.events
        n0 = len(events)
        got = iwcc.run()
        n1 = len(events)
        want = wcc(comm, dyn.view())
        assert got.mode == "full"
        assert [(e.op, e.bytes_sent) for e in events[n0:n1]] == \
            [(e.op, e.bytes_sent) for e in events[n1:]]
        assert np.array_equal(got.labels, want.labels)
        return True

    assert all(run_spmd(2, job, timeout=120.0))


def test_pagerank_rejects_negative_max_iters(tiny_multi):
    n, edges = tiny_multi

    def job(comm):
        g = build_dist_graph(comm, edges, make_partition(
            "vblock", comm, n, edges))
        dyn = DynamicDistGraph(comm, g)
        with pytest.raises(ValueError, match="max_iters"):
            IncrementalPageRank(comm, dyn, max_iters=-1)
        return True

    assert all(run_spmd(1, job))


def test_procs_backend_stream_bitwise():
    """The incremental-vs-rebuild contract holds on spawned-process ranks
    too (same kernel, shipped by reference; sanitizer on)."""
    from spmd_kernels import kern_stream_equiv

    n = 96
    edges = rmat_edges(6, seed=2, m=480)
    epochs, states = make_schedule(edges, n, n_epochs=3, n_ops=24, seed=21)
    cfg = {"edges": edges, "n": n, "epochs": epochs, "state_edges": states,
           "compact": 0.15}
    t = run_spmd(2, kern_stream_equiv, cfg, timeout=300.0, sanitize=True)
    p = run_spmd(2, kern_stream_equiv, cfg, backend="procs", timeout=300.0,
                 sanitize=True)
    assert t == p
    assert all(all(o) for o in p)


def test_weighted_stream_view_matches_rebuild(tiny_multi):
    """Weighted inserts materialize bitwise-identical weighted views.

    Weights are a pure function of the endpoints so duplicate copies of
    an edge share a weight — which relative order duplicates land in is
    builder-internal and must not affect the comparison.
    """
    n, edges = tiny_multi

    def weight_of(e):
        return 0.5 + (e[:, 0] * 31 + e[:, 1]) % 7 / 4.0

    new = np.array([[1, 50], [50, 1], [3, 3]], dtype=np.int64)

    def job(comm):
        part = make_partition("vblock", comm, n, None)
        sl = np.array_split(np.arange(len(edges)), comm.size)[comm.rank]
        g = build_dist_graph(comm, edges[sl], part,
                             edge_values=weight_of(edges[sl]))
        dyn = DynamicDistGraph(comm, g)
        msl = np.array_split(np.arange(len(new)), comm.size)[comm.rank]
        dyn.apply(UpdateBatch.inserts(new[msl], weight_of(new[msl])))

        alle = np.concatenate((edges, new))
        asl = np.array_split(np.arange(len(alle)), comm.size)[comm.rank]
        rg = build_dist_graph(comm, alle[asl], part,
                              edge_values=weight_of(alle[asl])
                              ).sort_adjacency()
        v = dyn.view()
        assert np.array_equal(v.out_indexes, rg.out_indexes)
        assert np.array_equal(v.unmap[v.out_edges],
                              rg.unmap[rg.out_edges])
        assert np.array_equal(v.out_values, rg.out_values)
        assert np.array_equal(v.in_values, rg.in_values)
        s = pagerank(comm, rg, max_iters=10, tol=1e-12)
        d = pagerank(comm, v, max_iters=10, tol=1e-12)
        assert np.array_equal(s.scores, d.scores)
        return True

    assert all(run_spmd(3, job, timeout=120.0))
