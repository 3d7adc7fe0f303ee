"""MVCC snapshot isolation: pinned-epoch reads under streaming writes.

The serving tier's acceptance criterion: a query pinned to epoch E
returns results **bitwise-equal** to a frozen copy of the graph at E
while at least three update batches stream in concurrently — on both
the threads and the procs backend.  Plus the machinery behind it:
snapshot leases through the replica group, compaction deferral while an
epoch is pinned (and resumption on release), and the
:class:`~repro.stream.PinnedEpochError` guard that refuses to compact
over a live pin even if the deferral logic were bypassed.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from conftest import make_partition
from repro.graph import build_dist_graph
from repro.runtime import run_spmd
from repro.serve import ReplicaGroup
from repro.service import AnalyticsEngine, SnapshotUnavailableError
from repro.stream import DynamicDistGraph, PinnedEpochError, UpdateBatch


@pytest.fixture(scope="module")
def snap_graph():
    rng = np.random.default_rng(14)
    n = 220
    return n, rng.integers(0, n, size=(1200, 2), dtype=np.int64)


def _insert_batches(n, k=3, size=40, seed=15):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, n, size=(size, 2), dtype=np.int64)
            for _ in range(k)]


@pytest.mark.parametrize("backend", ["threads", "procs"])
def test_snapshot_isolation_under_streaming(snap_graph, backend):
    """The acceptance criterion, per backend.

    ``frozen`` is a second engine on the same inputs that never sees an
    update — the literal frozen copy of the graph at E.  Both engines
    pin (pinning promotes and canonicalizes the resident graph), so
    equality below is bitwise, not approximate.
    """
    n, edges = snap_graph
    batches = _insert_batches(n)
    with AnalyticsEngine(2, edges=edges, n=n, backend=backend) as eng, \
            AnalyticsEngine(2, edges=edges, n=n, backend=backend) as frozen:
        epoch = eng.pin_snapshot()
        assert epoch == 0
        frozen.pin_snapshot()
        ref_pr = frozen.query("pagerank", max_iters=8)
        ref_bfs = frozen.query("bfs", source=5)

        errors: list[Exception] = []

        def stream():
            try:
                for b in batches:
                    eng.apply_updates(b[:, 0], b[:, 1])
            except Exception as exc:  # surfaced below
                errors.append(exc)

        writer = threading.Thread(target=stream)
        writer.start()
        # Pinned reads race the writer: every one must answer for E.
        for _ in range(5):
            got = eng.query("pagerank", max_iters=8, at_epoch=epoch)
            assert np.array_equal(got["scores"], ref_pr["scores"])
        writer.join(timeout=120.0)
        assert not writer.is_alive() and not errors

        # All three batches landed; the pin still answers for E.
        assert eng.epoch == len(batches)
        got = eng.query("pagerank", max_iters=8, at_epoch=epoch)
        assert np.array_equal(got["scores"], ref_pr["scores"])
        got_bfs = eng.query("bfs", source=5, at_epoch=epoch)
        assert np.array_equal(got_bfs["levels"], ref_bfs["levels"])
        live = eng.query("pagerank", max_iters=8)
        assert not np.array_equal(live["scores"], ref_pr["scores"])
        assert eng.status()["snapshots"]["pinned"] == {epoch: 1}

        res = eng.release_snapshot(epoch)
        assert res["dropped"]
        with pytest.raises(SnapshotUnavailableError):
            eng.query("pagerank", max_iters=8, at_epoch=epoch)


def test_group_snapshot_reads_pin_queries(snap_graph):
    """Through the replica group: ``snapshot_reads`` stamps each query
    with a leased epoch, so a read submitted before a write burst
    answers for its epoch even though the catch-up threads may apply
    the burst before the query executes."""
    n, edges = snap_graph
    batches = _insert_batches(n)
    with AnalyticsEngine(2, edges=edges, n=n) as frozen:
        frozen.pin_snapshot()
        ref = frozen.query("pagerank", max_iters=8)

    with ReplicaGroup(2, replicas=2, snapshot_reads=True,
                      edges=edges, n=n) as group:
        t0 = group.submit("pagerank", max_iters=8)
        assert t0.at_epoch == 0
        for b in batches:
            group.apply_updates(b[:, 0], b[:, 1], wait="none")
        r0 = group.result(t0, timeout=120.0)
        assert np.array_equal(r0["scores"], ref["scores"])

        assert group.sync(timeout=120.0)
        t1 = group.submit("pagerank", max_iters=8)
        assert t1.at_epoch == len(batches)
        r1 = group.result(t1, timeout=120.0)
        assert not np.array_equal(r1["scores"], ref["scores"])

        st = group.status()
        assert st["group"]["snapshot_reads"] >= 2
        # Every lease was released on completion: no epoch older than the
        # current one stays pinned (the current one is kept for the next
        # reader), and no lease is live.
        for rep in st["per_replica"]:
            assert set(rep["snapshots"]["pinned"]) <= {len(batches)}
            assert rep["snapshots"]["registry"]["live"] == {}
        # An idle pin does not survive the next sync (or write).
        assert group.sync(timeout=120.0)
        assert all(rep["snapshots"]["pinned"] == {}
                   for rep in group.status()["per_replica"])


def test_group_pins_live_per_epoch_and_never_defer_compaction_idle(
        snap_graph):
    """Pin lifetime through the group: N solo reads at one epoch cost one
    engine pin; the catch-up thread retires an idle pin *before* the
    apply, so it never defers a compaction — only a live lease does, and
    compaction resumes once that lease is gone."""
    n, edges = snap_graph

    def deletes(lo, hi):
        cut = edges[lo:hi]
        group.apply_updates(cut[:, 0], cut[:, 1],
                            op=np.full(len(cut), -1, dtype=np.int64),
                            wait="all", timeout=120.0)
        rep = group.status()["per_replica"][0]
        return rep["stream"], rep["snapshots"]

    with ReplicaGroup(2, replicas=1, snapshot_reads=True, cache_capacity=0,
                      edges=edges, n=n) as group:
        first = group.query("pagerank", max_iters=6)
        for _ in range(4):  # sequential: no lease is live in between
            again = group.query("pagerank", max_iters=6)
            assert np.array_equal(again["scores"], first["scores"])
        snaps = group.status()["per_replica"][0]["snapshots"]
        assert snaps["pinned"] == {0: 1}
        assert snaps["registry"]["engine_pins"] == 1
        assert snaps["registry"]["acquired"] == 5
        assert snaps["registry"]["held"] == 1

        # Idle pin + a write far past the compaction threshold: retired
        # first, so the apply compacts.
        stream, snaps = deletes(0, 480)
        assert (stream["compactions"], stream["compactions_deferred"]) \
            == (1, 0)
        assert snaps["pinned"] == {} and snaps["registry"]["retired"] == 1

        # A live lease across the write: the pin stays, compaction waits.
        ticket = group.submit("pagerank", max_iters=6)
        assert ticket.at_epoch == 1
        stream, snaps = deletes(480, 800)
        assert (stream["compactions"], stream["compactions_deferred"]) \
            == (1, 1)
        assert snaps["pinned"] == {1: 1}
        pinned_read = group.result(ticket, timeout=120.0)
        # The last holder of a passed epoch gives the pin back itself.
        snaps = group.status()["per_replica"][0]["snapshots"]
        assert snaps["pinned"] == {} and snaps["registry"]["retired"] == 1

        stream, _ = deletes(800, 840)
        assert (stream["compactions"], stream["compactions_deferred"]) \
            == (2, 1)
        # The pinned read answered for epoch 1, not for what came after.
        with AnalyticsEngine(2, edges=edges, n=n) as ref:
            ref.apply_updates(edges[:480, 0], edges[:480, 1],
                              op=np.full(480, -1, dtype=np.int64))
            want = ref.query("pagerank", max_iters=6)
        assert np.allclose(pinned_read["scores"], want["scores"],
                           rtol=0, atol=1e-12)


def test_compaction_deferred_while_pinned(snap_graph):
    """A pinned epoch defers delta-CSR compaction (counted, reported in
    the apply result) and compaction resumes after release."""
    n, edges = snap_graph
    with AnalyticsEngine(2, edges=edges, n=n) as eng:
        epoch = eng.pin_snapshot()
        ref = eng.query("pagerank", max_iters=6, at_epoch=epoch)
        # Tombstone 40% of the graph: far past the compaction threshold.
        cut = edges[:480]
        out = eng.apply_updates(cut[:, 0], cut[:, 1],
                                op=np.full(len(cut), -1, dtype=np.int64))
        assert out["compaction_deferred"] and not out["compacted"]
        assert eng.status()["stream"]["compactions_deferred"] >= 1
        got = eng.query("pagerank", max_iters=6, at_epoch=epoch)
        assert np.array_equal(got["scores"], ref["scores"])

        eng.release_snapshot(epoch)
        more = edges[480:520]
        out = eng.apply_updates(more[:, 0], more[:, 1],
                                op=np.full(len(more), -1, dtype=np.int64))
        assert out["compacted"] and not out["compaction_deferred"]


def test_pin_epoch_guard_is_spmd_safe(snap_graph):
    """The deltagraph-level guard, independent of the registry: direct
    compaction under a pin raises :class:`PinnedEpochError`; asymmetric
    pins (one rank only) still defer symmetrically (the decision is
    allreduced); release re-enables compaction everywhere."""
    n, edges = snap_graph

    def job(comm):
        chunk = np.array_split(edges, comm.size)[comm.rank]
        part = make_partition("vblock", comm, n, chunk)
        dyn = DynamicDistGraph(comm, build_dist_graph(comm, chunk, part),
                               compact_threshold=0.2)
        with pytest.raises(ValueError, match="cannot pin"):
            dyn.pin_epoch(epoch=7)
        with pytest.raises(ValueError, match="not pinned"):
            dyn.release_epoch(0)

        if comm.rank == 0:  # asymmetric pin: only one rank holds it
            dyn.pin_epoch()
        cut = np.array_split(edges[:480], comm.size)[comm.rank]
        res = dyn.apply(UpdateBatch.deletes(cut))
        assert res.compaction_deferred and not res.compacted

        if comm.rank == 0:
            # The guard fires before any collective, so the pinned rank
            # can probe it alone without skewing the schedule.
            with pytest.raises(PinnedEpochError, match="pinned epoch"):
                dyn._compact()
            dyn.release_epoch(0)
            assert dyn.pinned_epochs() == {}
        else:
            assert dyn.pinned_epochs() == {}
        cut2 = np.array_split(edges[480:520], comm.size)[comm.rank]
        res = dyn.apply(UpdateBatch.deletes(cut2))
        assert res.compacted and not res.compaction_deferred
        return True

    assert all(run_spmd(2, job, timeout=120.0))
