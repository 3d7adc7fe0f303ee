"""Serving-tier units and the replica group end to end.

Covers the pieces bottom-up — consistent-hash ring (determinism, balance,
minimal remap), router (cache affinity, spill, shed, freshness floor),
update log (sequencing, truncation), snapshot registry (shared leases) —
then a real two-replica :class:`~repro.serve.ReplicaGroup` over
thread-backed engines: routed reads, replicated writes, read-your-writes
tokens, admission-control sheds, and aggregated status (including the
per-replica cache hit/miss/eviction counters).
"""

from __future__ import annotations

import sys
import threading
from collections import Counter

import numpy as np
import pytest

from repro.serve import (
    GLOBAL_KINDS,
    POINT_KINDS,
    HashRing,
    ReplicaGroup,
    Router,
    ShedError,
    SnapshotRegistry,
    UpdateLog,
)


# ---------------------------------------------------------------------------
# HashRing
# ---------------------------------------------------------------------------
def test_hashring_deterministic_and_balanced():
    a = HashRing([0, 1, 2, 3])
    b = HashRing([3, 1, 0, 2])  # insertion order must not matter
    keys = [f"bfs:source={i}" for i in range(400)]
    assert [a.node_for(k) for k in keys] == [b.node_for(k) for k in keys]
    share = Counter(a.node_for(k) for k in keys)
    assert set(share) == {0, 1, 2, 3}
    assert min(share.values()) > 400 / 4 / 4  # no starved node

def test_hashring_walk_covers_all_nodes_once():
    ring = HashRing([0, 1, 2])
    order = list(ring.walk("some-key"))
    assert sorted(order) == [0, 1, 2]
    assert order[0] == ring.node_for("some-key")


def test_hashring_minimal_remap_on_add():
    ring = HashRing([0, 1, 2])
    keys = [f"k{i}" for i in range(600)]
    before = {k: ring.node_for(k) for k in keys}
    ring.add(3)
    moved = sum(ring.node_for(k) != before[k] for k in keys)
    # Consistent hashing: ~1/4 of keys move to the new node, the rest
    # stay put (modulo vnode placement noise).
    assert 600 * 0.10 < moved < 600 * 0.45
    assert all(ring.node_for(k) == 3 or ring.node_for(k) == before[k]
               for k in keys)


def test_hashring_remove_and_errors():
    ring = HashRing([0, 1])
    ring.remove(0)
    assert all(ring.node_for(f"k{i}") == 1 for i in range(50))
    with pytest.raises(ValueError):
        ring.add(1)
    with pytest.raises(ValueError):
        HashRing(vnodes=0)
    with pytest.raises(LookupError):
        HashRing([]).node_for("x")


# ---------------------------------------------------------------------------
# Router (stub replicas: only the serving signals matter here)
# ---------------------------------------------------------------------------
class StubReplica:
    def __init__(self, rid, *, max_inflight=2, applied_seq=0, ewma=0.05):
        self.id = rid
        self.max_inflight = max_inflight
        self.inflight = 0
        self.applied_seq = applied_seq
        self.ewma_latency_s = ewma

    def try_begin(self):
        if self.inflight >= self.max_inflight:
            return False
        self.inflight += 1
        return True


def _route(router, kind, params, **kw):
    """Route one query and hand its reserved slot straight back."""
    rep = router.route(kind, params, **kw)
    rep.inflight -= 1
    return rep


def test_router_point_affinity_and_spill():
    reps = [StubReplica(i) for i in range(3)]
    router = Router(reps, vnodes=32)
    params = {"source": 17}
    primary = _route(router, "bfs", params)
    assert all(_route(router, "bfs", params) is primary for _ in range(5))
    # route() reserves the slot it checked: two held routes fill the
    # primary (max_inflight=2) and the third spills.
    assert router.route("bfs", params) is primary
    assert router.route("bfs", params) is primary
    assert primary.inflight == 2
    assert router.route("bfs", params) is not primary
    for r in reps:
        r.inflight = 0
    # at_epoch is per-replica state, not query identity: same placement.
    assert router.routing_key("bfs", params) == router.routing_key(
        "bfs", dict(params, at_epoch=3))

    primary.inflight = primary.max_inflight  # saturate the primary
    spill = _route(router, "bfs", params)
    assert spill is not primary
    assert _route(router, "bfs", params) is spill  # sticky spill target
    assert router.stats()["spills"] >= 2


def test_router_global_least_loaded():
    reps = [StubReplica(i) for i in range(3)]
    reps[0].inflight = 2
    reps[1].inflight = 1
    router = Router(reps)
    assert _route(router, "pagerank", {}) is reps[2]
    reps[2].inflight = 1
    reps[2].ewma_latency_s = 0.5
    assert _route(router, "wcc", {}) is reps[1]  # EWMA tie-break
    assert router.stats()["global"] == 2
    assert POINT_KINDS.isdisjoint(GLOBAL_KINDS)


def test_router_sheds_with_retry_after():
    reps = [StubReplica(i, max_inflight=1, ewma=0.2) for i in range(2)]
    for r in reps:
        r.inflight = 1
    router = Router(reps)
    with pytest.raises(ShedError) as exc:
        router.route("bfs", {"source": 1})
    assert exc.value.retry_after_s >= 0.2
    assert router.stats()["sheds"] == 1


def test_router_freshness_floor():
    stale = StubReplica(0, applied_seq=2)
    fresh = StubReplica(1, applied_seq=5)
    router = Router([stale, fresh])
    for _ in range(6):
        assert _route(router, "bfs", {"source": 9}, min_seq=4) is fresh
    with pytest.raises(ShedError, match="no replica has applied"):
        router.route("bfs", {"source": 9}, min_seq=6)


# ---------------------------------------------------------------------------
# UpdateLog
# ---------------------------------------------------------------------------
def test_updatelog_sequencing_and_truncation():
    log = UpdateLog()
    e0 = log.append([1, 2], [3, 4])
    e1 = log.append(np.array([5.0]), np.array([6.0]),
                    op=[-1], values=[2.5])
    assert (e0.seq, e1.seq) == (0, 1)
    assert e0.op.dtype == np.int64 and e0.op.tolist() == [1, 1]
    assert e1.src.dtype == np.int64 and e1.values.dtype == np.float64
    assert not e0.src.flags.writeable  # replicas replay identical bytes
    assert [e.seq for e in log.since(0)] == [0, 1]
    assert log.head_seq == 2

    assert log.truncate_below(1) == 1
    assert [e.seq for e in log.since(1)] == [1]
    with pytest.raises(LookupError, match="truncated"):
        log.since(0)
    st = log.stats()
    assert st == {"appended": 2, "head_seq": 2, "tail_seq": 1,
                  "retained": 1}


# ---------------------------------------------------------------------------
# SnapshotRegistry (fake engine: lease sharing is pure bookkeeping)
# ---------------------------------------------------------------------------
class FakeEngine:
    def __init__(self):
        self.epoch = 0
        self.pinned: list[int] = []
        self.released: list[int] = []

    def pin_snapshot(self, *, timeout=None):
        self.pinned.append(self.epoch)
        return self.epoch

    def release_snapshot(self, epoch, *, timeout=None):
        self.released.append(epoch)
        return {"epoch": epoch, "dropped": True}


def test_registry_shares_one_engine_pin():
    eng = FakeEngine()
    reg = SnapshotRegistry(eng)
    leases = [reg.acquire() for _ in range(4)]
    assert eng.pinned == [0]  # one round-trip serves all four queries
    assert reg.live_epochs() == {0: 4}
    for lease in leases:
        lease.release()
        lease.release()  # idempotent
    # The replica is still at epoch 0, so the pin stays for the next read.
    assert eng.released == [] and reg.live_epochs() == {}
    assert reg.stats()["held"] == 1
    for _ in range(5):  # sequential solo reads: no lease live in between
        reg.acquire().release()
    assert eng.pinned == [0] and eng.released == []
    st = reg.stats()
    assert st["acquired"] == 9 and st["engine_pins"] == 1

    reg.retire_idle()  # what the catch-up thread does before an apply
    assert eng.released == [0]
    assert reg.stats()["held"] == 0 and reg.stats()["retired"] == 1
    reg.retire_idle()  # nothing left: no second release
    assert eng.released == [0]
    reg.acquire().release()
    assert eng.pinned == [0, 0]  # retired, so the next read pins again


def test_registry_new_epoch_new_pin():
    eng = FakeEngine()
    reg = SnapshotRegistry(eng)
    a = reg.acquire()
    reg.retire_idle()  # a live lease keeps its pin through a write
    assert eng.released == []
    eng.epoch = 3  # replica caught up past the pinned epoch
    b = reg.acquire()
    assert (a.epoch, b.epoch) == (0, 3)
    assert eng.pinned == [0, 3]
    b.release()  # current epoch: held for the next reader
    a.release()  # the replica has moved past 0: given back at once
    assert eng.released == [0]
    assert reg.stats()["held"] == 1 and reg.stats()["retired"] == 0
    with pytest.raises(ValueError):
        reg.release(0)


# ---------------------------------------------------------------------------
# ReplicaGroup end to end (real engines, threads backend)
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def serve_graph():
    rng = np.random.default_rng(8)
    n = 200
    return n, rng.integers(0, n, size=(1100, 2), dtype=np.int64)


def test_group_routes_reads_and_replicates_writes(serve_graph):
    n, edges = serve_graph
    rng = np.random.default_rng(9)
    with ReplicaGroup(2, replicas=2, max_inflight=4,
                      edges=edges, n=n) as group:
        r1 = group.query("bfs", source=7)
        r2 = group.query("bfs", source=7)  # same replica, cache hit
        assert np.array_equal(r1["levels"], r2["levels"])
        st = group.status()
        assert st["router"]["point"] >= 2
        assert st["cache_totals"]["hits"] >= 1
        # Affinity: both hits landed on one replica's cache.
        assert sum(1 for rep in st["per_replica"]
                   if rep["cache"]["hits"] > 0) == 1

        new = rng.integers(0, n, size=(30, 2), dtype=np.int64)
        out = group.apply_updates(new[:, 0], new[:, 1], wait="all")
        assert out["synced"] and out["seq"] == 0
        st = group.status()
        fps = {rep["fingerprint"] for rep in st["per_replica"]}
        assert len(fps) == 1  # both replicas converged bitwise
        assert all(rep["epoch"] == 1 and rep["applied_seq"] == 1
                   for rep in st["per_replica"])
        assert st["log"]["retained"] == 0  # truncated at the slowest

        r3 = group.query("bfs", source=7)
        assert r3["levels"].shape == (n,)
        pr_a = group.query("pagerank", max_iters=6)
        pr_b = group.query("pagerank", max_iters=6)
        assert np.array_equal(pr_a["scores"], pr_b["scores"])


def test_group_read_your_writes_token(serve_graph):
    n, edges = serve_graph
    with ReplicaGroup(2, replicas=2, edges=edges, n=n) as group:
        out = group.apply_updates([0, 1], [2, 3], wait="none")
        assert out["synced"] is False
        token = out["seq"] + 1
        # min_seq restricts routing to caught-up replicas; a shed here
        # means "retry after the replay", which sync() guarantees.
        assert group.sync(timeout=60.0)
        res = group.query("bfs", source=0, min_seq=token)
        assert res["levels"][2] == 1  # the inserted 0 -> 2 edge is visible


def test_group_sheds_when_saturated(serve_graph):
    n, edges = serve_graph
    with ReplicaGroup(2, replicas=1, max_inflight=1,
                      edges=edges, n=n) as group:
        t = group.submit("bfs", source=1)
        with pytest.raises(ShedError) as exc:
            group.submit("bfs", source=1)
        assert exc.value.retry_after_s > 0
        group.result(t, timeout=60.0)
        group.query("bfs", source=1)  # slot reopened after the reap
        st = group.status()
        assert st["router"]["sheds"] == 1
        assert st["group"]["completed"] == 2


def test_admission_bound_holds_under_concurrent_submitters(serve_graph):
    """Check and increment are one step (``Replica.try_begin``): eight
    submitters racing for two slots of a paused engine never push the
    replica past ``max_inflight``, round after round."""
    n, edges = serve_graph
    rounds, n_threads, bound = 20, 8, 2
    with ReplicaGroup(1, replicas=1, max_inflight=bound,
                      edges=edges, n=n) as group:
        rep = group.replicas[0]
        tickets, errors = [], []
        start = threading.Barrier(n_threads)

        def submit_one(source):
            try:
                start.wait(timeout=30.0)
                tickets.append(group.submit("bfs", source=source))
            except ShedError:
                pass
            except Exception as exc:  # surfaced below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for r in range(rounds):
                rep.engine.pause()  # admitted queries stay in flight
                threads = [threading.Thread(target=submit_one,
                                            args=((r * n_threads + k) % n,))
                           for k in range(n_threads)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60.0)
                assert not errors and not any(t.is_alive() for t in threads)
                assert rep.inflight == len(tickets) == bound
                rep.engine.resume()
                while tickets:
                    group.result(tickets.pop(), timeout=60.0)
        finally:
            sys.setswitchinterval(old)
        st = group.status()
        assert st["router"]["routed"] == rounds * bound
        assert st["router"]["routed"] + st["router"]["sheds"] \
            == rounds * n_threads
        assert st["per_replica"][0]["started"] == st["router"]["routed"]
        assert rep.inflight == 0


def test_group_constructor_validation_and_shutdown(serve_graph):
    n, edges = serve_graph
    with pytest.raises(ValueError):
        ReplicaGroup(2, replicas=0, edges=edges, n=n)
    group = ReplicaGroup(2, replicas=1, edges=edges, n=n)
    group.shutdown()
    group.shutdown()  # idempotent
    with pytest.raises(RuntimeError):
        group.query("bfs", source=0)
    with pytest.raises(RuntimeError):
        group.apply_updates([0], [1])
