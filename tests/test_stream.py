"""Unit tests for the streaming-update subsystem.

Covers the ingestion layer (:class:`UpdateBatch` / :class:`UpdateRouter` /
text parsing), the delta-graph batch semantics (duplicate copies,
oldest-first delete consumption, same-batch cancellation, missing
deletes, ghosts, compaction, journal), the merged-adjacency query paths,
and the rollback union-find.  End-to-end bitwise equivalence against
rebuilds lives in ``test_stream_equivalence.py``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

from conftest import make_partition
from repro.graph import build_dist_graph
from repro.partition import VertexBlockPartition
from repro.runtime import run_spmd
from repro.stream import (
    DELETE,
    INSERT,
    DynamicDistGraph,
    UnionFindRollback,
    UpdateBatch,
    UpdateRouter,
    read_updates_text,
    split_batch,
)
from repro.service import ResultCache


# ---------------------------------------------------------------------------
# UpdateBatch
# ---------------------------------------------------------------------------
def test_batch_basics_and_counts():
    b = UpdateBatch([1, 2, 3], [4, 5, 6], [INSERT, DELETE, INSERT])
    assert (b.n, b.n_inserts, b.n_deletes) == (3, 2, 1)
    assert b.src.dtype == np.int64 and b.values is None
    e = UpdateBatch.empty()
    assert e.n == 0
    ins = UpdateBatch.inserts(np.array([[1, 2], [3, 4]]))
    assert ins.n_inserts == 2 and ins.n_deletes == 0
    dele = UpdateBatch.deletes(np.array([[1, 2]]))
    assert dele.n_deletes == 1


def test_batch_validation():
    with pytest.raises(ValueError, match="matching 1-D"):
        UpdateBatch([1, 2], [3], [INSERT, INSERT])
    with pytest.raises(ValueError, match="one entry per edge"):
        UpdateBatch([1], [2], [INSERT, INSERT])
    with pytest.raises(ValueError, match="INSERT"):
        UpdateBatch([1], [2], [7])
    with pytest.raises(ValueError, match="values"):
        UpdateBatch([1], [2], [INSERT], values=[1.0, 2.0])


def test_batch_concat_and_split():
    a = UpdateBatch.inserts(np.array([[1, 2], [3, 4], [5, 6]]))
    b = UpdateBatch.deletes(np.array([[1, 2]]))
    cat = UpdateBatch.concat([a, b])
    assert cat.n == 4
    assert list(cat.op) == [INSERT] * 3 + [DELETE]
    parts = split_batch(cat, 3)
    assert [p.n for p in parts] == [3, 1]
    assert np.array_equal(np.concatenate([p.src for p in parts]), cat.src)
    with pytest.raises(ValueError, match="size"):
        split_batch(cat, 0)
    w = UpdateBatch.inserts(np.array([[0, 1]]), values=[2.0])
    with pytest.raises(ValueError, match="weighted"):
        UpdateBatch.concat([a, w])
    ww = UpdateBatch.concat([w, w])
    assert np.array_equal(ww.values, [2.0, 2.0])


def test_read_updates_text(tmp_path):
    p = tmp_path / "updates.txt"
    p.write_text(
        "# comment line\n"
        "1 2\n"
        "+ 3 4 0.5\n"
        "- 5 6\n"
        "\n"
        "7 8 1.5  # trailing comment\n")
    b = read_updates_text(p)
    assert list(b.src) == [1, 3, 5, 7]
    assert list(b.op) == [INSERT, INSERT, DELETE, INSERT]
    assert b.values is not None and b.values[1] == 0.5
    p.write_text("+ 1\n")
    with pytest.raises(ValueError, match="expected"):
        read_updates_text(p)


# ---------------------------------------------------------------------------
# UpdateRouter
# ---------------------------------------------------------------------------
def test_router_owner_routing_and_plan_reuse():
    n = 40

    def job(comm):
        part = VertexBlockPartition(n, comm.size)
        router = UpdateRouter(comm, part)
        rng = np.random.default_rng(17 + comm.rank)
        for round_ in range(3):  # growing batches exercise plan refit
            k = 5 * (round_ + 1)
            batch = UpdateBatch(
                rng.integers(0, n, size=k), rng.integers(0, n, size=k),
                np.where(rng.random(k) < 0.5, INSERT, DELETE))
            routed = router.route(batch)
            assert (part.owner_of(routed.out_src) == comm.rank).all()
            assert (part.owner_of(routed.in_dst) == comm.rank).all()
        # One persistent plan per direction, refit across all batches.
        assert set(router._plans) == {"out", "in"}
        return len(routed.out_src), len(routed.in_src)

    outs = run_spmd(4, job)
    assert sum(o[0] for o in outs) == 15 * 4  # every update lands once
    assert sum(o[1] for o in outs) == 15 * 4


def test_router_rejects_partition_mismatch():
    def job(comm):
        with pytest.raises(ValueError, match="parts"):
            UpdateRouter(comm, VertexBlockPartition(10, comm.size + 1))
        return True

    assert all(run_spmd(2, job))


def test_router_preserves_weights_bitwise():
    n = 16
    vals = np.array([0.1, -2.5, 3.75, 1e-300])

    def job(comm):
        part = VertexBlockPartition(n, comm.size)
        router = UpdateRouter(comm, part)
        if comm.rank == 0:
            batch = UpdateBatch([1, 5, 9, 13], [2, 6, 10, 14],
                                [INSERT] * 4, values=vals)
        else:
            batch = UpdateBatch.empty(weighted=True)
        routed = router.route(batch)
        return routed.out_src, routed.out_values

    outs = run_spmd(2, job)
    got = {int(s): float(v) for srcs, vs in outs for s, v in zip(srcs, vs)}
    assert got == {1: 0.1, 5: -2.5, 9: 3.75, 13: 1e-300}


# ---------------------------------------------------------------------------
# DynamicDistGraph semantics (single- and multi-rank micro-graphs)
# ---------------------------------------------------------------------------
def _dyn(comm, edges, n, **kw):
    part = VertexBlockPartition(n, comm.size)
    chunk = np.array_split(np.asarray(edges, dtype=np.int64),
                           comm.size)[comm.rank]
    g = build_dist_graph(comm, chunk, part)
    return DynamicDistGraph(comm, g, **kw)


def test_duplicate_copies_and_oldest_first_deletes():
    # Base stores (0, 1) twice; one delete removes exactly one copy, a
    # second batch's two deletes remove the last copy and report a miss.
    def job(comm):
        dyn = _dyn(comm, [[0, 1], [0, 1], [1, 2]], n=4)
        assert dyn.m_global == 3
        one = (UpdateBatch.deletes(np.array([[0, 1]]))
               if comm.rank == 0 else UpdateBatch.empty())
        r1 = dyn.apply(one)
        assert (r1.n_deleted, r1.n_missing, r1.m_global) == (1, 0, 2)
        two = (UpdateBatch.deletes(np.array([[0, 1], [0, 1]]))
               if comm.rank == 0 else UpdateBatch.empty())
        r2 = dyn.apply(two)
        assert (r2.n_deleted, r2.n_missing, r2.m_global) == (1, 1, 1)
        v = dyn.view()
        assert v.m_global == 1
        return True

    for p in (1, 2):
        assert all(run_spmd(p, job))


def test_same_batch_insert_then_delete_cancels():
    def job(comm):
        dyn = _dyn(comm, [[0, 1]], n=4)
        if comm.rank == 0:
            b = UpdateBatch([2, 2], [3, 3], [INSERT, DELETE])
        else:
            b = UpdateBatch.empty()
        r = dyn.apply(b)
        # The delete consumes the batch's own insert: net nothing, and
        # no counter moves (a cancel is neither an insert nor a delete
        # of a stored copy).
        assert (r.n_inserted, r.n_deleted, r.n_missing) == (0, 0, 0)
        assert r.m_global == 1
        return True

    assert all(run_spmd(2, job))


def test_same_batch_delete_before_insert_misses():
    def job(comm):
        dyn = _dyn(comm, [[0, 1]], n=4)
        if comm.rank == 0:
            b = UpdateBatch([2, 2], [3, 3], [DELETE, INSERT])
        else:
            b = UpdateBatch.empty()
        r = dyn.apply(b)
        # Arrival order matters: the delete precedes any copy, so it
        # misses and the insert survives.
        assert (r.n_inserted, r.n_deleted, r.n_missing) == (1, 0, 1)
        assert r.m_global == 2
        return True

    assert all(run_spmd(2, job))


def test_ghost_growth_and_compaction_gc():
    def job(comm):
        dyn = _dyn(comm, [[0, 1], [4, 5]], n=8, compact_threshold=0.5)
        halo0 = dyn.halo
        gst0 = dyn.n_gst
        # rank 0 owns 0..3: an edge to vertex 7 creates a new ghost there.
        b = (UpdateBatch.inserts(np.array([[0, 7]]))
             if comm.rank == 0 else UpdateBatch.empty())
        r = dyn.apply(b)
        assert r.ghosts_changed
        assert r.compacted  # tiny base, overlay fraction >= 0.5
        assert dyn.halo is not halo0  # halo rebuilt collectively
        if comm.rank == 0:
            assert dyn.n_gst == gst0 + 1
        # Deleting that edge and compacting again GCs the ghost.
        b = (UpdateBatch.deletes(np.array([[0, 7]]))
             if comm.rank == 0 else UpdateBatch.empty())
        r = dyn.apply(b)
        assert r.compacted
        if comm.rank == 0:
            assert dyn.n_gst == gst0
        assert len(dyn._out.ins_row) == 0 and dyn._out.n_tomb == 0
        return True

    assert all(run_spmd(2, job))


def test_out_of_range_update_raises_everywhere():
    def job(comm):
        dyn = _dyn(comm, [[0, 1]], n=4)
        b = (UpdateBatch.inserts(np.array([[0, 99]]))
             if comm.rank == 0 else UpdateBatch.empty())
        with pytest.raises(ValueError, match="out-of-range"):
            dyn.apply(b)  # collective: raises on every rank
        return True

    assert all(run_spmd(2, job))


def test_compact_threshold_validation(tiny_multi):
    n, edges = tiny_multi

    def job(comm):
        part = VertexBlockPartition(n, comm.size)
        g = build_dist_graph(comm, edges, part)
        with pytest.raises(ValueError, match="positive"):
            DynamicDistGraph(comm, g, compact_threshold=0.0)
        return True

    assert all(run_spmd(1, job))


def test_journal_window_semantics():
    def job(comm):
        dyn = _dyn(comm, [[0, 1], [1, 2]], n=4, compact_threshold=100.0)
        for e in range(3):
            dyn.apply(UpdateBatch.inserts(np.array([[e, e + 1]])))
        assert dyn.journal_since(3) == []
        recs = dyn.journal_since(0)
        assert [r.epoch for r in recs] == [1, 2, 3]
        assert dyn.journal_since(1)[0].epoch == 2
        # A window reaching before the retained journal reports a gap.
        assert dyn.journal_since(-1) is None
        return True

    assert all(run_spmd(1, job))


def _merged_by_lexsort(st):
    """Oracle for ``_DirState.merged``: concatenate surviving base and
    overlay entries and stable-sort by (row, gid) — ties keep base copies
    first and overlay copies in sequence order."""
    from repro.graph.csr import expand_rows

    n_rows = len(st.indptr) - 1
    keep = ~st.tomb
    rows = np.concatenate((expand_rows(st.indptr)[keep], st.ins_row))
    lids = np.concatenate((st.lids[keep], st.ins_lid))
    gids = np.concatenate((st.gids[keep], st.ins_gid))
    order = np.lexsort((gids, rows))
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    vals = None
    if st.vals is not None:
        vals = np.concatenate((st.vals[keep], st.ins_val))[order]
    return indptr, lids[order], gids[order], vals


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=hst.integers(0, 10_000), weighted=hst.booleans(),
       nranks=hst.sampled_from([1, 2, 3]))
def test_merged_splice_matches_lexsort_oracle(seed, weighted, nranks):
    """The linear splice equals the sort it replaced, bit for bit, on
    histories with tombstones, duplicate (row, gid) copies in base and
    overlay, deletes that cancel inserts of their own batch, deletes that
    miss, distinct weights per copy, and a compaction half-way."""
    rng = np.random.default_rng(seed)
    n = 10  # small id space: duplicates and repeat deletes are the norm
    edges = rng.integers(0, n, size=(40, 2), dtype=np.int64)
    batches = []
    live = [tuple(e) for e in edges]
    for _ in range(6):
        ins = rng.integers(0, n, size=(int(rng.integers(0, 12)), 2),
                           dtype=np.int64)
        pool = np.array(live + [tuple(e) for e in ins]
                        + [(0, 0)], dtype=np.int64)  # (0, 0) may miss
        dele = pool[rng.integers(0, len(pool), int(rng.integers(0, 10)))]
        both = np.concatenate((ins, dele))
        op = np.concatenate((np.full(len(ins), INSERT),
                             np.full(len(dele), DELETE)))
        order = rng.permutation(len(both))
        batches.append((both[order], op[order], rng.random(len(both))))
        live += [tuple(e) for e in ins]

    def check(dyn):
        for st in (dyn._out, dyn._in):
            for got, want in zip(st.merged(), _merged_by_lexsort(st)):
                if want is None:
                    assert got is None
                else:
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want)

    def job(comm):
        part = VertexBlockPartition(n, comm.size)
        sl = np.array_split(np.arange(len(edges)), comm.size)[comm.rank]
        g = build_dist_graph(
            comm, edges[sl], part,
            edge_values=rng.random(len(edges))[sl] if weighted else None)
        dyn = DynamicDistGraph(comm, g, compact_threshold=100.0)
        check(dyn)
        compacted = []
        for e, (pairs, op, w) in enumerate(batches):
            dyn.compact_threshold = 1e-9 if e == 3 else 100.0
            sl = np.array_split(np.arange(len(pairs)), comm.size)[comm.rank]
            res = dyn.apply(UpdateBatch(pairs[sl, 0], pairs[sl, 1], op[sl],
                                        w[sl] if weighted else None))
            compacted.append(res.compacted)
            check(dyn)
            v = dyn.view()
            assert np.array_equal(v.in_edges, _merged_by_lexsort(dyn._in)[1])
        return compacted

    for compacted in run_spmd(nranks, job):
        assert compacted[3] and not any(compacted[:3])


def test_in_direction_merged_once_per_epoch():
    """view() merges the in-direction once per epoch, however often it is
    read; apply() drops the cached view."""
    rng = np.random.default_rng(15)
    n = 20
    edges = rng.integers(0, n, size=(80, 2), dtype=np.int64)

    def job(comm):
        dyn = _dyn(comm, edges, n, compact_threshold=100.0)
        merges = []
        real = dyn._in.merged
        dyn._in.merged = lambda: merges.append(dyn.epoch) or real()
        for e in range(3):
            ins = rng.integers(0, n, size=(9, 2), dtype=np.int64)
            dyn.apply(UpdateBatch.concat([
                UpdateBatch.inserts(ins),
                UpdateBatch.deletes(edges[2 * e:2 * e + 2])]))
            v = dyn.view()
            assert dyn.view() is v
            assert np.array_equal(v.in_edges, _merged_by_lexsort(dyn._in)[1])
        assert merges == [1, 2, 3]
        return True

    assert all(run_spmd(1, job))


def test_maintained_degrees_track_updates():
    def job(comm):
        dyn = _dyn(comm, [[0, 1], [0, 2], [3, 0]], n=4,
                   compact_threshold=100.0)
        dyn.apply(UpdateBatch.inserts(np.array([[0, 3], [2, 0]])))
        dyn.apply(UpdateBatch.deletes(np.array([[0, 1]])))
        v = dyn.view()
        assert np.array_equal(dyn.out_degrees(), v.out_degrees())
        assert np.array_equal(dyn.in_degrees(), v.in_degrees())
        return True

    assert all(run_spmd(1, job))


# ---------------------------------------------------------------------------
# UnionFindRollback
# ---------------------------------------------------------------------------
def test_union_find_rollback():
    uf = UnionFindRollback()
    assert uf.union(5, 9)
    assert uf.find(9) == 5
    assert not uf.union(9, 5)  # already merged
    mark = uf.checkpoint()
    assert uf.union(9, 2)  # root becomes 2 (union-by-min)
    assert uf.find(5) == 2
    olds, news = uf.mapping()
    assert list(olds) == [5, 9] and list(news) == [2, 2]
    uf.rollback(mark)
    assert uf.find(5) == 5 and uf.find(9) == 5
    assert uf.find(2) == 2
    olds, news = uf.mapping()
    assert list(olds) == [9] and list(news) == [5]


def test_union_find_nested_checkpoints():
    uf = UnionFindRollback()
    m0 = uf.checkpoint()
    uf.union(1, 2)
    m1 = uf.checkpoint()
    uf.union(3, 4)
    uf.rollback(m1)
    assert uf.find(4) == 4 and uf.find(2) == 1
    uf.rollback(m0)
    assert uf.find(2) == 2


# ---------------------------------------------------------------------------
# ResultCache tag invalidation (the stream -> serving integration hook)
# ---------------------------------------------------------------------------
def test_cache_tag_invalidation():
    c = ResultCache(capacity=8)
    c.put(("a",), 1, tags=("graph",))
    c.put(("b",), 2, tags=("graph", "pagerank"))
    c.put(("c",), 3)  # untagged: survives any invalidation
    assert c.invalidate(()) == 0
    assert c.invalidate(("pagerank",)) == 1
    assert c.get(("b",)) == (False, None)
    assert c.invalidate(("graph",)) == 1
    assert c.get(("a",)) == (False, None)
    assert c.get(("c",)) == (True, 3)
    assert c.stats()["invalidations"] == 2
