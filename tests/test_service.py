"""Serving layer: engine robustness, result cache, scheduler admission.

The headline property (an ISSUE acceptance criterion): a deliberately
failing job aborts *only itself* — the rank world, graph shards, and
dispatcher keep serving subsequent queries with no rebuild.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.service import (
    AdmissionError,
    AnalyticsEngine,
    EngineClosedError,
    Job,
    JobFailedError,
    JobScheduler,
    ResultCache,
    SERVING_KINDS,
    cache_key,
    canonical_params,
)
from repro.service.engine import JobTimeoutError


@pytest.fixture(scope="module")
def engine(small_web):
    n, edges = small_web
    eng = AnalyticsEngine(3, edges=edges, n=n, partition="rand",
                          default_timeout=120.0)
    yield eng
    eng.shutdown()


# ---------------------------------------------------------------------------
# engine basics
# ---------------------------------------------------------------------------
def test_engine_serves_every_kind(engine, small_web):
    n, _ = small_web
    pr = engine.query("pagerank", max_iters=5)
    assert pr["scores"].shape == (n,)
    bfs = engine.query("bfs", source=0)
    assert bfs["levels"].shape == (n,) and bfs["levels"][0] == 0
    wcc = engine.query("wcc")
    assert wcc["labels"].shape == (n,)
    clo = engine.query("closeness", vertex=3)
    assert 0.0 <= clo["score"] <= 1.0
    ppr = engine.query("ppr", seed=5, max_iters=30)
    assert ppr["scores"].shape == (n,)
    assert ppr["scores"].sum() == pytest.approx(1.0, abs=1e-9)
    tri = engine.query("triangles")
    assert tri["total"] >= 0
    assert set(SERVING_KINDS) == {
        "pagerank", "wcc", "triangles", "bfs", "closeness", "ppr"}


def test_engine_matches_direct_run(engine, small_web):
    """Served BFS equals a plain dist_run of the same analytic."""
    from conftest import dist_run, gather_by_gid
    from repro.analytics import distributed_bfs

    n, edges = small_web
    served = engine.query("bfs", source=11)["levels"]

    def fn(comm, g):
        return g.unmap[: g.n_loc], distributed_bfs(comm, g, 11)

    direct = gather_by_gid(dist_run(edges, n, 3, fn, "rand"))
    assert np.array_equal(served, direct)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("part", ["vblock", "eblock", "rand"])
def test_served_results_ship_values_only(small_web, p, part):
    """A served result is one ``gatherv`` of values: rank r's owned
    vertices are its partition's ``owned_gids(r)`` in order, and rank 0
    places each block by that list, which equals assembling by gid."""
    from conftest import dist_run, gather_by_gid
    from repro.analytics import (
        batched_personalized_pagerank,
        multi_source_bfs,
        wcc,
    )
    from repro.service.engine import _make_bfs, _make_ppr, _make_wcc

    n, edges = small_web
    jobs = {"bfs": _make_bfs({"sources": [0, 11, 11], "direction": "out"}),
            "ppr": _make_ppr({"seeds": [5, 40], "max_iters": 20}),
            "wcc": _make_wcc({})}

    def fn(comm, g):
        assert np.array_equal(g.unmap[:g.n_loc],
                              g.partition.owned_gids(comm.rank))
        served, gathers = {}, {}
        for name, job in jobs.items():
            mark = len(comm.trace.events)
            served[name] = job(comm, {"graph": g})
            gathers[name] = [e.op for e in comm.trace.events[mark:]
                             ].count("gatherv")
        direct = {
            "bfs": multi_source_bfs(comm, g, [0, 11, 11]),
            "ppr": batched_personalized_pagerank(
                comm, g, np.array([5, 40]), max_iters=20,
                tol=1e-10).scores,
            "wcc": wcc(comm, g).labels}
        return g.unmap[:g.n_loc], direct, served, gathers

    outs = dist_run(edges, n, p, fn, part)
    served = outs[0][2]
    assert all(o[2] == {"bfs": None, "ppr": None, "wcc": None}
               for o in outs[1:])
    assert all(o[3] == {"bfs": 1, "ppr": 1, "wcc": 1} for o in outs)
    want = {name: gather_by_gid([(o[0], o[1][name]) for o in outs])
            for name in jobs}
    assert served["bfs"].tobytes() == want["bfs"].tobytes()
    assert served["ppr"]["scores"].tobytes() == want["ppr"].tobytes()
    assert served["wcc"]["labels"].tobytes() == want["wcc"].tobytes()


def test_failing_job_leaves_engine_serving(engine):
    """ISSUE acceptance criterion: failure aborts the job, not the world."""
    before = engine.query("bfs", source=21)["levels"]
    for fail_rank in (0, 2):
        with pytest.raises(JobFailedError, match="injected failure"):
            engine.query("_debug_fail", fail_rank=fail_rank)
        # Same engine, same resident shards — and identical answers.
        after = engine.query("bfs", source=21)["levels"]
        assert np.array_equal(before, after)
    st = engine.status()
    assert st["jobs"]["failed"] >= 2
    assert st["pending"] == 0


def test_job_timeout_aborts_only_that_job(engine):
    with pytest.raises(JobTimeoutError):
        engine.query("_debug_sleep", seconds=30.0, timeout=0.3)
    assert engine.query("closeness", vertex=9)["vertex"] == 9


def test_cache_hit_returns_identical_array(engine):
    h0 = engine.cache.stats()["hits"]
    a = engine.query("pagerank", max_iters=7)
    b = engine.query("pagerank", max_iters=7)
    assert engine.cache.stats()["hits"] == h0 + 1
    assert b["scores"] is a["scores"]  # served by reference, no recompute
    # Different params are a different key.
    c = engine.query("pagerank", max_iters=8)
    assert c["scores"] is not a["scores"]


def test_batching_coalesces_compatible_queries(engine, small_web):
    n, _ = small_web
    d0 = engine.status()["jobs"]["batches"]
    engine.pause()
    ids = [engine.submit("bfs", source=100 + i) for i in range(4)]
    engine.resume()
    levels = [engine.result(j)["levels"] for j in ids]
    st = engine.status()
    # 4 compatible queries ran as one collective dispatch.
    assert st["jobs"]["batches"] == d0 + 1
    assert st["jobs"]["max_batch_size"] >= 4
    for i, lev in enumerate(levels):
        assert lev[100 + i] == 0


def test_backlog_behind_a_running_job_coalesces(engine):
    """Work-conserving dispatch: the batch is what queued while the world
    was busy — no pause(), no timer."""
    alone = {s: engine.query("bfs", source=s)["levels"] for s in range(60, 64)}
    alone_ppr = engine.query("ppr", seed=60, max_iters=15)["scores"]
    engine.cache.clear()
    before = engine.status()["jobs"]
    hold = engine.submit("_debug_sleep", seconds=0.5)
    deadline = time.monotonic() + 30.0
    while engine.job(hold).dispatched_at is None:  # the world is busy now
        assert time.monotonic() < deadline
        time.sleep(0.005)
    ids = [engine.submit("bfs", source=s) for s in range(60, 64)]
    ppr = engine.submit("ppr", seed=60, max_iters=15)
    engine.result(hold)
    for s, jid in zip(range(60, 64), ids):
        assert np.array_equal(engine.result(jid)["levels"], alone[s])
    assert np.array_equal(engine.result(ppr)["scores"], alone_ppr)
    after = engine.status()["jobs"]
    # The sleeper's batch, then exactly two more: 4 x bfs and 1 x ppr.
    assert after["batches"] == before["batches"] + 3
    assert after["max_batch_size"] >= 4
    # Lower bounds the sleeper guarantees: it held the world >= 0.25 s
    # while five jobs sat queued behind it.
    assert after["exec_s"] - before["exec_s"] >= 0.2
    assert after["queue_wait_s"] - before["queue_wait_s"] >= 0.2


def test_duplicate_queries_in_a_batch_run_once(small_web):
    """Identical jobs sharing a batch ride one column: same result object
    for every job of the key, one cache entry, counted as ``deduped``."""
    n, edges = small_web
    with AnalyticsEngine(2, edges=edges, n=n) as eng:
        ref = {s: eng.query("bfs", source=s)["levels"] for s in (7, 8)}
        ref_ppr = eng.query("ppr", seed=7, max_iters=12)["scores"]
        ref_clo = eng.query("closeness", vertex=7)
        eng.cache.clear()
        eng.pause()
        bfs = [eng.submit("bfs", source=s) for s in (7, 8, 7, 7)]
        ppr = [eng.submit("ppr", seed=7, max_iters=12) for _ in range(2)]
        clo = [eng.submit("closeness", vertex=7) for _ in range(3)]
        eng.resume()
        got = [eng.result(j) for j in bfs]
        assert got[0] is got[2] is got[3] and got[0] is not got[1]
        for s, res in zip((7, 8, 7, 7), got):
            assert np.array_equal(res["levels"], ref[s])
        p0, p1 = (eng.result(j) for j in ppr)
        assert p0 is p1 and np.array_equal(p0["scores"], ref_ppr)
        assert all(eng.result(j) == ref_clo for j in clo)
        st = eng.status()
        assert st["jobs"]["deduped"] == 2 + 1 + 2
        assert st["jobs"]["max_batch_size"] == 4
        assert st["cache"]["size"] == 4  # bfs 7, bfs 8, ppr 7, closeness 7
        assert eng.query("bfs", source=7) is got[0]  # the cached entry


def test_resume_dispatches_at_once_and_shutdown_while_paused(small_web):
    """pause() parks the dispatcher on the scheduler's condition (no poll):
    resume() wakes it; shutdown() while paused fails each queued job once."""
    n, edges = small_web
    eng = AnalyticsEngine(2, edges=edges, n=n)
    try:
        eng.pause()
        jid = eng.submit("bfs", source=1)
        time.sleep(0.05)
        assert eng.job(jid).dispatched_at is None and eng.status()["pending"] == 1
        eng.resume()
        assert eng.result(jid, timeout=30.0)["levels"][1] == 0
        eng.pause()
        queued = [eng.job(eng.submit("bfs", source=s)) for s in (2, 3)]
    finally:
        eng.shutdown()
    assert not eng._dispatcher.is_alive()
    for job in queued:
        assert job.done.is_set() and isinstance(job.error, EngineClosedError)
        assert job.dispatched_at is None  # failed by the drain, never ran


def test_batching_linger_keyword_is_gone(small_web):
    n, edges = small_web
    gone = {"batch_" + "window": 0.0}  # the knob this PR deleted
    with pytest.raises(TypeError):
        JobScheduler(max_pending=4, **gone)
    with pytest.raises(TypeError):
        AnalyticsEngine(1, edges=edges, n=n, **gone)


def test_incompatible_directions_do_not_coalesce(engine):
    engine.pause()
    j_out = engine.submit("bfs", source=40, direction="out")
    j_in = engine.submit("bfs", source=40, direction="in")
    engine.resume()
    out = engine.result(j_out)["levels"]
    inn = engine.result(j_in)["levels"]
    assert out[40] == 0 and inn[40] == 0
    assert not np.array_equal(out, inn)


def test_admission_bound_rejects(small_web):
    n, edges = small_web
    with AnalyticsEngine(2, edges=edges, n=n, max_pending=2,
                         cache_capacity=0) as eng:
        eng.pause()
        eng.submit("bfs", source=1)
        eng.submit("bfs", source=2)
        with pytest.raises(AdmissionError):
            eng.submit("bfs", source=3)
        # Rejected submissions leave no ghost jobs behind.
        assert eng.status()["jobs"]["submitted"] == 2
        eng.resume()


def test_status_and_shutdown(small_web):
    n, edges = small_web
    eng = AnalyticsEngine(2, edges=edges, n=n)
    st = eng.status()
    assert st["nranks"] == 2 and st["n_global"] == n
    assert st["built_from"] == "build"
    assert len(st["fingerprint"]) == 16
    eng.query("wcc")
    st = eng.status()
    assert st["comm"]["n_collectives"] > 0
    assert st["jobs"]["completed"] == 1
    eng.shutdown()
    with pytest.raises(EngineClosedError):
        eng.submit("wcc")
    eng.shutdown()  # idempotent


def test_fingerprint_tracks_graph_identity(small_web):
    n, edges = small_web
    with AnalyticsEngine(2, edges=edges, n=n) as a, \
            AnalyticsEngine(2, edges=edges[:-10], n=n) as b:
        assert a.fingerprint != b.fingerprint


def test_engine_rejects_unknown_kind(engine):
    with pytest.raises(ValueError, match="unknown analytic kind"):
        engine.submit("pagerankk")


# ---------------------------------------------------------------------------
# ResultCache
# ---------------------------------------------------------------------------
def test_cache_lru_eviction_and_counters():
    c = ResultCache(capacity=2)
    c.put("a", 1)
    c.put("b", 2)
    assert c.get("a") == (True, 1)  # refreshes "a"
    c.put("c", 3)  # evicts "b", the least recently used
    assert c.get("b") == (False, None)
    assert c.get("a") == (True, 1)
    assert c.get("c") == (True, 3)
    s = c.stats()
    assert (s["hits"], s["misses"], s["evictions"]) == (3, 1, 1)
    assert s["size"] == 2
    c.clear()
    assert len(c) == 0 and c.stats()["size"] == 0


def test_cache_capacity_zero_disables():
    c = ResultCache(capacity=0)
    c.put("a", 1)
    assert c.get("a") == (False, None)


def test_canonical_params_order_and_numpy():
    p1 = canonical_params({"b": np.int64(2), "a": 1.0})
    p2 = canonical_params({"a": 1.0, "b": 2})
    assert p1 == p2
    k1 = cache_key("fp", "bfs", {"source": np.int64(4)})
    k2 = cache_key("fp", "bfs", {"source": 4})
    assert k1 == k2
    assert cache_key("fp", "bfs", {"source": 5}) != k1
    assert cache_key("other", "bfs", {"source": 4}) != k1
    # Array-valued params participate by content.
    ka = cache_key("fp", "ppr", {"seeds": np.array([1, 2])})
    kb = cache_key("fp", "ppr", {"seeds": np.array([1, 2])})
    kc = cache_key("fp", "ppr", {"seeds": np.array([2, 1])})
    assert ka == kb and ka != kc


# ---------------------------------------------------------------------------
# JobScheduler
# ---------------------------------------------------------------------------
def _job(i, batch_key=None):
    return Job(id=i, kind="t", params={}, batch_key=batch_key, timeout=None)


def test_scheduler_fifo_and_bound():
    s = JobScheduler(max_pending=2)
    s.submit(_job(1))
    s.submit(_job(2))
    with pytest.raises(AdmissionError):
        s.submit(_job(3))
    assert [j.id for j in s.next_batch()] == [1]
    assert [j.id for j in s.next_batch()] == [2]
    assert s.pending() == 0


def test_scheduler_coalesces_by_batch_key():
    s = JobScheduler(max_pending=16, max_batch=3)
    for i in range(4):
        s.submit(_job(i, batch_key=("bfs",)))
    s.submit(_job(9, batch_key=("other",)))
    b1 = s.next_batch()
    assert [j.id for j in b1] == [0, 1, 2]  # max_batch caps the coalesce
    b2 = s.next_batch()
    assert [j.id for j in b2] == [3]  # different key blocks further merging
    assert [j.id for j in s.next_batch()] == [9]


def test_scheduler_solo_job_returns_without_lingering():
    s = JobScheduler(max_pending=4)
    s.submit(_job(1, batch_key=("bfs",)))
    t0 = time.monotonic()
    assert [j.id for j in s.next_batch(poll_timeout=10)] == [1]
    assert time.monotonic() - t0 < 1.0  # nowhere near the poll timeout


def test_scheduler_bounded_reordering():
    """A batch is anchored at the oldest job, so a job of another key is
    overtaken by at most one batch however many mates keep arriving."""
    s = JobScheduler(max_pending=16, max_batch=8)
    s.submit(_job(0, batch_key=("a",)))
    s.submit(_job(1, batch_key=("b",)))
    s.submit(_job(2, batch_key=("a",)))
    assert [j.id for j in s.next_batch()] == [0, 2]  # 2 overtakes 1 once
    s.submit(_job(3, batch_key=("a",)))
    assert [j.id for j in s.next_batch()] == [1]  # now 1 is the anchor
    assert [j.id for j in s.next_batch()] == [3]


def test_scheduler_pause_holds_batches_until_resume():
    s = JobScheduler(max_pending=4)
    s.pause()
    s.submit(_job(1))
    assert s.next_batch(poll_timeout=0.01) == [] and s.pending() == 1
    got = []
    t = threading.Thread(target=lambda: got.extend(s.next_batch(None)))
    t.start()
    s.resume()
    t.join(timeout=10.0)
    assert not t.is_alive() and [j.id for j in got] == [1]
    s.pause()
    s.submit(_job(2))
    s.close()  # a paused, closed scheduler hands nothing out
    assert s.next_batch(None) == [] and [j.id for j in s.drain()] == [2]


def test_scheduler_none_key_never_batches():
    s = JobScheduler(max_pending=16)
    s.submit(_job(1))
    s.submit(_job(2))
    assert [j.id for j in s.next_batch()] == [1]


def test_scheduler_close_and_drain():
    s = JobScheduler(max_pending=4)
    s.submit(_job(1))
    s.close()
    with pytest.raises(RuntimeError, match="closed"):
        s.submit(_job(2))
    assert [j.id for j in s.drain()] == [1]
    assert s.next_batch(poll_timeout=0.01) == []


def test_scheduler_concurrent_submitters():
    s = JobScheduler(max_pending=64)
    errs = []

    def feed(base):
        try:
            for i in range(8):
                s.submit(_job(base + i))
        except Exception as e:  # pragma: no cover
            errs.append(e)

    ts = [threading.Thread(target=feed, args=(100 * k,)) for k in range(3)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    assert not errs
    seen = []
    while s.pending():
        seen.extend(j.id for j in s.next_batch())
    assert len(seen) == 24 and len(set(seen)) == 24
