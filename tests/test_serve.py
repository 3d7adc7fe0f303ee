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


def test_router_point_affinity_and_spill():
    reps = [StubReplica(i) for i in range(3)]
    router = Router(reps, vnodes=32)
    params = {"source": 17}
    primary = router.route("bfs", params)
    assert all(router.route("bfs", params) is primary for _ in range(5))
    # at_epoch is per-replica state, not query identity: same placement.
    assert router.routing_key("bfs", params) == router.routing_key(
        "bfs", dict(params, at_epoch=3))

    primary.inflight = primary.max_inflight  # saturate the primary
    spill = router.route("bfs", params)
    assert spill is not primary
    assert router.route("bfs", params) is spill  # sticky spill target
    assert router.stats()["spills"] >= 2


def test_router_global_least_loaded():
    reps = [StubReplica(i) for i in range(3)]
    reps[0].inflight = 2
    reps[1].inflight = 1
    router = Router(reps)
    assert router.route("pagerank", {}) is reps[2]
    reps[2].inflight = 1
    reps[2].ewma_latency_s = 0.5
    assert router.route("wcc", {}) is reps[1]  # EWMA tie-break
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
        assert router.route("bfs", {"source": 9}, min_seq=4) is fresh
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
    for lease in leases[:3]:
        lease.release()
        lease.release()  # idempotent
    assert eng.released == []  # last holder still live
    leases[3].release()
    assert eng.released == [0]
    assert reg.live_epochs() == {}
    assert reg.stats()["acquired"] == 4 and reg.stats()["engine_pins"] == 1


def test_registry_new_epoch_new_pin():
    eng = FakeEngine()
    reg = SnapshotRegistry(eng)
    a = reg.acquire()
    eng.epoch = 3  # replica caught up past the pinned epoch
    b = reg.acquire()
    assert (a.epoch, b.epoch) == (0, 3)
    assert eng.pinned == [0, 3]
    b.release()
    a.release()
    assert eng.released == [3, 0]
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
