"""Epoch-journal replay as replica catch-up (serving-tier satellite).

A replica that joins (or falls behind) catches up by replaying the
group's sequenced update log through its own engine — the same
owner-routed :meth:`DynamicDistGraph.apply` path the live replica took.
The contract under test: a graph that **replays** K recorded batches
back-to-back is bitwise-equal — view structure, PageRank, WCC — to one
that applied them **live** with serving reads (and an MVCC epoch pin)
interleaved between batches.  Exercised across all partition kinds
(including ``grid`` with fallback idle ranks at a prime rank count) and
across the threads and procs backends.
"""

import numpy as np
import pytest

from conftest import make_partition
from repro.analytics import pagerank, wcc
from repro.generators import erdos_renyi_edges, rmat_edges
from repro.graph import build_dist_graph
from repro.runtime import run_spmd
from repro.stream import DynamicDistGraph, UpdateBatch
from test_stream_equivalence import make_schedule
from spmd_kernels import kern_replay_catchup


def _batches(n=96, m=480, k=4, seed=7):
    edges = rmat_edges(6, seed=2, m=m)
    epochs, _ = make_schedule(edges, n, n_epochs=k, n_ops=28, seed=seed)
    return edges, n, epochs


def _check_outs(outs):
    for out in outs:
        assert out["epoch"][0] == out["epoch"][1]
        assert out["m_global"][0] == out["m_global"][1]
        assert out["same_struct"]
        assert out["pr_bitwise"]
        assert out["wcc_bitwise"]


@pytest.mark.parametrize("part_kind", ["vblock", "eblock", "rand", "grid"])
def test_replay_catchup_bitwise(part_kind):
    edges, n, epochs = _batches()
    cfg = {"edges": edges, "n": n, "part": part_kind, "batches": epochs,
           "compact": 0.2}
    _check_outs(run_spmd(3, kern_replay_catchup, cfg, timeout=300.0))


def test_replay_catchup_grid_fallback_idle_ranks():
    """Prime rank count: the 2x2 grid leaves rank 4 idle (fallback),
    and replay must still be bitwise-equal on every rank."""
    edges, n, epochs = _batches(k=3)
    cfg = {"edges": edges, "n": n, "part": "grid", "batches": epochs,
           "compact": 0.2}
    outs = run_spmd(5, kern_replay_catchup, cfg, timeout=300.0)
    _check_outs(outs)
    assert any(len(o["own_gids"]) == 0 for o in outs), "no idle rank"


def test_replay_catchup_procs_matches_threads():
    """Catch-up replay is backend-independent: spawned-process ranks
    produce the same bitwise-equal replay, and the same results as the
    threads backend (sanitizer on)."""
    edges, n, epochs = _batches(n=96, m=400, k=3)
    cfg = {"edges": edges, "n": n, "part": "vblock", "batches": epochs,
           "compact": 0.2}
    t = run_spmd(2, kern_replay_catchup, cfg, timeout=300.0, sanitize=True)
    p = run_spmd(2, kern_replay_catchup, cfg, backend="procs",
                 timeout=300.0, sanitize=True)
    _check_outs(t)
    _check_outs(p)
    for a, b in zip(t, p):
        assert np.array_equal(a["own_gids"], b["own_gids"])
        assert np.array_equal(a["pr"], b["pr"])
        assert np.array_equal(a["wcc"], b["wcc"])


def test_partial_replay_prefix_equivalence():
    """A replica that already applied a prefix finishes catch-up from
    the middle of the log and still converges bitwise (threads, inline
    closure; the straggler-join path of the serving tier)."""
    n = 120
    edges = erdos_renyi_edges(n, m=700, seed=5)
    epochs, _ = make_schedule(edges, n, n_epochs=5, n_ops=24, seed=17)

    def job(comm):
        chunk = np.array_split(edges, comm.size)[comm.rank]
        part = make_partition("vblock", comm, n, chunk)

        def fresh():
            return DynamicDistGraph(
                comm, build_dist_graph(comm, chunk, part),
                compact_threshold=0.2)

        full, lag = fresh(), fresh()
        for i, ops in enumerate(epochs):
            my = np.array_split(ops, comm.size)[comm.rank]
            full.apply(UpdateBatch(my[:, 0], my[:, 1], my[:, 2]))
            if i < 2:  # the straggler only saw the first two batches live
                lag.apply(UpdateBatch(my[:, 0], my[:, 1], my[:, 2]))
        for ops in epochs[2:]:  # ...then replays the tail of the log
            my = np.array_split(ops, comm.size)[comm.rank]
            lag.apply(UpdateBatch(my[:, 0], my[:, 1], my[:, 2]))

        va, vb = full.view(), lag.view()
        assert full.epoch == lag.epoch and full.m_global == lag.m_global
        assert np.array_equal(va.out_indexes, vb.out_indexes)
        assert np.array_equal(va.unmap[va.out_edges], vb.unmap[vb.out_edges])
        pa = pagerank(comm, va, max_iters=8, tol=1e-12)
        pb = pagerank(comm, vb, max_iters=8, tol=1e-12)
        assert np.array_equal(pa.scores, pb.scores)
        wa = wcc(comm, va)
        wb = wcc(comm, vb)
        assert np.array_equal(wa.labels, wb.labels)
        return True

    assert all(run_spmd(3, job, timeout=300.0))
