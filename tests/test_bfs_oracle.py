"""The one BFS engine against the reference loop in ``bfs_reference.py``.

``multi_source_bfs`` (per column), ``distributed_bfs`` (its k = 1 case) and
``distributed_bfs_dirop`` (whose top-down levels run the engine's step) must
give levels bitwise equal to the reference single-traversal loop, and the
harmonic / closeness results — batched and single — must equal scores
derived from the reference levels with ``==``.  Checked over random
multigraphs (self-loops, duplicate edges, isolated vertices), a web crawl
and an R-MAT graph × 1–4 ranks × vblock/eblock/rand × out/in/both ×
k ∈ {0, 1, several, duplicated sources}.

The frontier-word engine has its own matrix: k on both sides of every
64-bit word boundary (0, 1, 2, 63, 64, 65, 130) with duplicated and
isolated sources × out/in/both × 1–3 ranks × vblock/eblock/rand, with one
reverse-halo ``alltoallv`` per level (plus at most one trailing empty
level), no reduction, each execute's bytes equal to the ghost slots plus
the peer flags times the word width, and the ``bfs.levels`` /
``bfs.ghost_words`` trace counters checked against the executes and the
bytes shipped.  It follows ``REPRO_BACKEND``, so the procs backend runs
it too.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse

import spmd_kernels as K
from bfs_reference import reference_bfs, reference_closeness, reference_harmonic
from conftest import PARTITION_KINDS, dist_run
from repro.analytics import (
    batched_closeness,
    bfs_dirop,
    closeness_centrality,
    distributed_bfs,
    distributed_bfs_dirop,
    harmonic_centrality,
    harmonic_centrality_many,
    multi_source_bfs,
)
from repro.generators import rmat_edges, webcrawl_edges
from repro.runtime import run_spmd

DIRECTIONS = ("out", "in", "both")
# distributed_bfs_dirop modes: the default heuristic, never bottom-up
# (alpha = 0 never passes the switch test) and bottom-up from the first
# level with any frontier edge (huge alpha; beta = inf never switches back).
DIROP_MODES = ({}, {"alpha": 0.0}, {"alpha": 1e18, "beta": np.inf})


def _sources(n, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "none":
        return np.empty(0, dtype=np.int64)
    if kind == "one":
        return rng.integers(0, n, 1)
    if kind == "several":
        return rng.integers(0, n, 4)
    s = rng.integers(0, n, 2)
    return np.array([s[0], s[1], s[0], s[0]], dtype=np.int64)  # duplicated


def _check_all(comm, g, sources, direction):
    """Every engine entry point against the reference, on this rank."""
    want = [reference_bfs(comm, g, s, direction) for s in sources]
    lev = multi_source_bfs(comm, g, sources, direction)
    assert lev.shape == (g.n_loc, len(sources)) and lev.dtype == np.int64
    for j, s in enumerate(sources):
        assert np.array_equal(lev[:, j], want[j])
        assert np.array_equal(distributed_bfs(comm, g, s, direction), want[j])
    if direction == "out":
        for s, w in zip(sources, want):
            for mode in DIROP_MODES:
                got = distributed_bfs_dirop(comm, g, int(s), **mode)
                assert np.array_equal(got, w), mode
    if direction == "in":
        hc = [reference_harmonic(comm, g, s) for s in sources]
        cc = [reference_closeness(comm, g, s) for s in sources]
        assert harmonic_centrality_many(comm, g, sources) == hc
        assert batched_closeness(comm, g, sources) == cc
        for s, h, c in zip(sources, hc, cc):
            assert harmonic_centrality(comm, g, int(s)) == h
            assert closeness_centrality(comm, g, int(s)) == c
    return True


def _random_multigraph(n, m, seed):
    """Self-loops, duplicate edges and isolated vertices included."""
    rng = np.random.default_rng(seed)
    return n, rng.integers(0, n, size=(m, 2), dtype=np.int64)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(st.builds(_random_multigraph, st.integers(1, 40), st.integers(0, 120),
                 st.integers(0, 10_000)),
       st.integers(1, 4), st.sampled_from(PARTITION_KINDS),
       st.sampled_from(DIRECTIONS),
       st.sampled_from(["none", "one", "several", "dup"]),
       st.integers(0, 1_000))
def test_engine_matches_reference_on_random_multigraphs(graph, nranks, part,
                                                        direction, k_kind,
                                                        seed):
    n, edges = graph
    sources = _sources(n, k_kind, seed)
    assert all(dist_run(edges, n, nranks, lambda c, g: _check_all(
        c, g, sources, direction), part))


def _web():
    n = 300
    return n, webcrawl_edges(n, avg_degree=6, seed=5)


def _rmat():
    return 256, rmat_edges(8, edge_factor=4.0, seed=3)


@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("part", PARTITION_KINDS)
@pytest.mark.parametrize("graph", [_web, _rmat], ids=["web", "rmat"])
def test_engine_matches_reference_on_web_and_rmat(graph, p, part):
    n, edges = graph()
    deg = np.bincount(edges.reshape(-1), minlength=n)
    hubs = np.argsort(-deg, kind="stable")[:3]
    sources = np.concatenate([hubs, hubs[:1]])  # a duplicated source too

    def fn(comm, g):
        return all(_check_all(comm, g, sources, d) for d in DIRECTIONS)

    assert all(dist_run(edges, n, p, fn, part))


WORD_KS = (0, 1, 2, 63, 64, 65, 130)


def _word_graph():
    """A crawl on 0..149 with self-loops and duplicate edges added, and
    vertices 150..159 isolated."""
    rng = np.random.default_rng(17)
    crawl = webcrawl_edges(150, avg_degree=4, seed=9)
    extra = rng.integers(0, 150, size=(60, 2))
    loops = np.repeat(rng.integers(0, 150, size=(5, 1)), 2, axis=1)
    return 160, np.concatenate([crawl, extra, extra[:10], loops])


def _word_sources(n):
    """130 sources whose every prefix of two or more repeats one, whose
    prefixes from three on hold an isolated vertex (it reaches nothing and
    nothing reaches it), and with a duplicate that straddles the first
    word boundary (sources 63 and 64)."""
    s = np.random.default_rng(4).integers(0, 150, 130)
    s[1] = s[0]
    s[2] = n - 3
    s[64] = s[63]
    return s


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("part", PARTITION_KINDS)
def test_word_engine_matches_reference(p, part):
    n, edges = _word_graph()
    sources = _word_sources(n)
    outs = run_spmd(p, K.kern_bfs_words,
                    {"edges": edges, "n": n, "part": part,
                     "sources": sources, "ks": WORD_KS}, timeout=300.0)
    assert sum(len(gids) for gids, _, _ in outs) == n
    for key in outs[0][2]:
        direction, k = key
        per_rank = [(n_gst, res[key]) for _, n_gst, res in outs]
        n_levels = max(int(r[1].max(initial=-1)) for _, r in per_rank) + 1
        assert (n_levels == 0) == (k == 0), key
        # A level ships one bool per ghost slot and peer flag at k = 1,
        # and one word row of 8-byte words per slot and flag above it.
        width = 1 if k == 1 else 8 * -(-k // 64)
        executes = {len(r[2]) for _, r in per_rank}
        assert len(executes) == 1, key  # the same schedule on every rank
        for n_gst, (levels, want, ops, bumped_levels,
                    ghost_words) in per_rank:
            assert levels.dtype == np.int64 and levels.shape == want.shape
            assert levels.tobytes() == want.tobytes(), key
            # One reverse-plan execute per level plus at most one trailing
            # empty level, and no reduction; the batch's shared levels
            # are counted once.
            assert len(ops) - n_levels in ((0,) if k == 0 else (0, 1)), key
            assert bumped_levels == len(ops), key
            assert ops == [("alltoallv", (n_gst + p - 1) * width)] * len(ops)
            # bfs.ghost_words counts the words those bytes hold.
            assert ghost_words * (1 if k == 1 else 8) == sum(
                b for _, b in ops), key
            if p == 1:
                assert ghost_words == 0
        if k > 1 and p > 1:
            assert sum(r[1][4] for r in per_rank) > 0, key
    # The isolated source is alone at level 0 in its column.
    col = np.concatenate([res["out", 63][0][:, 2] for _, _, res in outs])
    assert np.count_nonzero(col == 0) == 1 and (col[col != 0] == -2).all()


def _star_with_isolated():
    """Hub 0 → every leaf 1..39 and back, vertices 40..59 isolated: from
    the hub, level 1 is every leaf, and after it no unvisited vertex has
    an in-entry, so the last level pulls over rows with no entries."""
    leaves = np.arange(1, 40, dtype=np.int64)
    hub = np.zeros_like(leaves)
    return 60, np.concatenate([np.stack([hub, leaves], axis=1),
                               np.stack([leaves, hub], axis=1)])


def _dirop_graphs():
    n, edges = _rmat()
    deg = np.bincount(edges[:, 0], minlength=n)
    sources = np.concatenate([np.argsort(-deg, kind="stable")[:2], [7]])
    yield "rmat", n, edges, sources
    n, edges = _web()
    yield "web", n, edges, np.array([0, 150], dtype=np.int64)
    n, edges = _star_with_isolated()
    yield "star", n, edges, np.array([0, 5, 45], dtype=np.int64)


def test_pull_spellings_agree(monkeypatch):
    """``_pull`` on random CSRs and flag masks: the rows it returns hold a
    flagged entry, and its gathered and product spellings (forced by the
    share constant) return the same rows.  The candidates' share of the
    entries falls on both sides of ``DENSE_PULL_SHARE``, and every CSR is
    also pulled over no candidate at all."""
    rng = np.random.default_rng(43)
    picked = set()
    for _ in range(200):
        n_rows, n_cols = (int(x) for x in rng.integers(1, 40, size=2))
        lens = rng.integers(1, 6, size=n_rows) * (rng.random(n_rows) < 0.7)
        indptr = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
        adj = rng.integers(0, n_cols, size=int(indptr[-1]))
        op = sparse.csr_array((np.ones(len(adj)), adj, indptr),
                              shape=(n_rows, n_cols))
        flags = rng.random(n_cols) < rng.random()
        nonempty = np.flatnonzero(lens)
        some = np.sort(rng.choice(nonempty, replace=False,
                                  size=int(rng.integers(len(nonempty) + 1))))
        for rows in (some, nonempty[:0]):
            want = np.array([r for r in rows
                             if flags[adj[indptr[r]:indptr[r + 1]]].any()],
                            dtype=np.int64)
            got, dense = bfs_dirop._pull(op, rows, flags)
            assert got.tobytes() == want.tobytes()
            assert dense == (lens[rows].sum()
                             > bfs_dirop.DENSE_PULL_SHARE * len(adj))
            picked.add(dense)
            for share, spelling in ((-1.0, len(adj) > 0), (np.inf, False)):
                with monkeypatch.context() as m:
                    m.setattr(bfs_dirop, "DENSE_PULL_SHARE", share)
                    assert bfs_dirop._pull(op, rows, flags)[1] == spelling
                    assert bfs_dirop._pull(op, rows, flags)[0].tobytes() \
                        == want.tobytes()
    assert picked == {False, True}


@pytest.mark.parametrize("p, part", [
    (p, part) for p in (1, 2, 3) for part in PARTITION_KINDS + ("grid",)
] + [(5, "grid")])
def test_dirop_push_pull_matches_reference(p, part):
    """Dir-opt BFS on both layouts: levels equal the reference loop; each
    level is one ``allreduce`` plus one ``alltoallv`` (top-down exchange
    or bottom-up flag halo) on 1-D, and one column gather, one row
    reduce and one ``allreduce`` on the grid (p = 5 runs a 2 × 2
    fallback grid with rank 4 idle: world reductions only, every level
    a push over nothing); ``bfs.push_levels + bfs.pull_levels ==
    bfs.levels`` on every rank, both local branches run, and so do both
    spellings of a pull (``bfs.dense_pulls`` counts the products)."""
    grid = part == "grid"
    spellings = np.zeros(2, dtype=np.int64)  # (gathered, product) pulls
    for name, n, edges, sources in _dirop_graphs():
        outs = run_spmd(p, K.kern_dirop_oracle,
                        {"edges": edges, "n": n, "part": part,
                         "sources": sources, "modes": DIROP_MODES},
                        timeout=300.0)
        gids = np.concatenate([o[0] for o in outs])
        assert np.array_equal(np.sort(gids), np.arange(n)), name
        want_gids = np.concatenate([o[1][0] for o in outs])
        want = np.concatenate([o[1][1] for o in outs])[np.argsort(want_gids)]
        pulls = {}
        for (mode, s), _ in outs[0][2].items():
            per_rank = [o[2][mode, s] for o in outs]
            got = np.concatenate([r[0] for r in per_rank])[np.argsort(gids)]
            j = list(sources).index(s)
            assert got.tobytes() == want[:, j].tobytes(), (name, mode, s)
            n_levels = int(want[:, j].max(initial=-1)) + 1
            for levels, world, col, row, lv, push, pull, dense in per_rank:
                assert (lv, push + pull) == (n_levels, n_levels)
                assert 0 <= dense <= pull
                spellings += (pull - dense, dense)
                if grid:
                    assert world == ["allreduce[SUM]"] * (n_levels + 1)
                    assert col in ([], ["allgatherv"] * n_levels)
                    assert row in ([], ["allreduce[BOR]"] * n_levels)
                    assert (col == []) == (row == [])
                else:
                    assert world == ["allreduce[SUM]"] + [
                        "alltoallv", "allreduce[SUM]"] * n_levels
            pulls[mode] = pulls.get(mode, 0) + sum(r[6] for r in per_rank)
            if grid and p == 5:  # the fallback grid's idle rank
                idle = [r for r in per_rank if r[2] == []]
                assert len(idle) == 1 and idle[0][5] == n_levels
        pushes = {mode: sum(o[2][key][5] for o in outs
                            for key in o[2] if key[0] == mode)
                  for mode in range(len(DIROP_MODES))}
        assert all(pushes.values()), name
        # Bottom-up levels pull where the unvisited rows are the cheaper
        # side; alpha = 0 never leaves top-down on 1-D, every level of
        # a grid traversal picks a side.
        assert pulls[1] == 0 or grid, name
        assert pulls[2] > 0, name
        if grid:
            assert pulls[0] > 0 and pulls[1] > 0, name
    # A pull gathers its rows or, when they hold more than
    # DENSE_PULL_SHARE of the block's entries, takes one product: both
    # run in every case.
    assert spellings.all(), spellings
