"""The packed-key Label Propagation counter against the ``lexsort`` oracle.

``label_propagation`` counts neighbour labels with one sort of packed
``row * n_global + label`` keys; ``lp_reference`` is the two-``lexsort``
counter it replaced.  Both implement the same tie rule — most frequent
label, then largest hash, then largest label — so labels, iteration counts
and change counts must be bitwise equal for every graph shape, rank count,
partition kind and mode, and on both sides of the ``int32`` key bound
``n_loc · n_global = 2**31``.  ``test_matches_reference_on_backend``
follows ``REPRO_BACKEND``, so the procs backend runs it too.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import spmd_kernels as K
from conftest import PARTITION_KINDS, dist_run
from lp_reference import lp, reference_label_propagation, reference_max_count_labels
from repro.analytics import halo_of, label_propagation
from repro.generators import webcrawl_edges
from repro.graph import build_dist_graph
from repro.partition import ExplicitPartition
from repro.runtime import run_spmd


def _random_multigraph(n, m, seed):
    """Self-loops, duplicate edges and isolated vertices included."""
    rng = np.random.default_rng(seed)
    return n, rng.integers(0, n, size=(m, 2), dtype=np.int64)


def _cycle(k):
    return k, np.array([(i, (i + 1) % k) for i in range(k)], dtype=np.int64)


def _star(k):
    return k + 1, np.array([(0, i) for i in range(1, k + 1)], dtype=np.int64)


def _complete_bipartite(a, b):
    return a + b, np.array([(i, a + j) for i in range(a) for j in range(b)],
                           dtype=np.int64)


graphs = st.one_of(
    st.builds(_random_multigraph, st.integers(1, 40), st.integers(0, 120),
              st.integers(0, 10_000)),
    st.builds(_cycle, st.integers(1, 30)),
    st.builds(_star, st.integers(1, 30)),
    st.builds(_complete_bipartite, st.integers(1, 8), st.integers(1, 8)),
)
modes = st.one_of(st.just(("sync", 4)),
                  st.tuples(st.just("async"), st.integers(1, 4)))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(graphs, st.integers(1, 4), st.sampled_from(["vblock", "eblock", "rand"]),
       modes, st.integers(0, 1_000), st.integers(0, 6))
def test_matches_lexsort_oracle(graph, nranks, part, mode, seed, n_iters):
    n, edges = graph
    mode, n_sweeps = mode

    def fn(comm, g):
        got = label_propagation(comm, g, n_iters=n_iters, seed=seed,
                                mode=mode, n_sweeps=n_sweeps)
        want = reference_label_propagation(comm, g, n_iters=n_iters,
                                           seed=seed, mode=mode,
                                           n_sweeps=n_sweeps)
        return got, want

    for got, (labels, iters, last) in dist_run(edges, n, nranks, fn, part):
        assert got.labels.dtype == labels.dtype
        assert np.array_equal(got.labels, labels)
        assert (got.n_iters, got.last_changed) == (iters, last)
        assert len(got.changed_per_iter) == got.n_iters
        assert got.changed_per_iter[-1:] == ((last,) if iters else ())


def test_constant_hash_gives_largest_tied_label(monkeypatch):
    """With every hash equal, the largest of the most frequent labels wins
    — in the production counter and in the oracle alike."""
    monkeypatch.setattr(lp, "_tie_hash",
                        lambda gids, labels, it, seed: np.zeros(len(labels),
                                                                np.uint64))
    rng = np.random.default_rng(7)
    n_rows, n_global = 60, 12
    rows = np.sort(rng.integers(0, n_rows, 600))
    labels = rng.integers(0, n_global, len(rows))
    row_gids = np.arange(n_rows, dtype=np.int64)

    win_rows, win_labels, n_tied = lp._max_count_labels(
        rows, rows * n_global, labels, row_gids, 0, 0)
    chosen, has_any = reference_max_count_labels(
        rows, labels, n_rows, row_gids, 0, 0)

    want, tied = {}, 0
    for r in np.unique(rows):
        counts = Counter(labels[rows == r].tolist())
        best = max(counts.values())
        top = [lab for lab, c in counts.items() if c == best]
        want[int(r)] = max(top)
        tied += len(top) > 1
    assert dict(zip(win_rows.tolist(), win_labels.tolist())) == want
    assert np.flatnonzero(has_any).tolist() == sorted(want)
    assert chosen[has_any].tolist() == [want[r] for r in sorted(want)]
    assert n_tied == tied > 0


@pytest.mark.parametrize("nranks", [1, 3])
def test_work_counters_and_change_counts(nranks):
    """``changed_per_iter`` is the global change count of each iteration;
    ``lp.entries_counted`` / ``lp.tied_rows`` are rank-local and sum to the
    whole graph's.  One iteration on a star with k leaves: every leaf sees
    the hub's label alone and adopts it, the hub sees k distinct labels
    once each (one tied row)."""
    k = 9
    n, edges = _star(k)

    def fn(comm, g):
        res = label_propagation(comm, g, n_iters=1, seed=3)
        c = comm.trace.counters
        return res.changed_per_iter, c["lp.entries_counted"], c["lp.tied_rows"]

    outs = dist_run(edges, n, nranks, fn)
    assert {o[0] for o in outs} == {(k + 1,)}  # every vertex changed
    assert sum(o[1] for o in outs) == 2 * k
    assert sum(o[2] for o in outs) == 1


def test_converged_iteration_skips_the_halo_refresh():
    """A star whose hub carries 20 self-loops converges after one
    iteration: every leaf adopts the hub's label, which the hub keeps.
    The second iteration's global change count is 0, so it issues the
    count ``allreduce`` and no halo ``alltoallv``: the labels did not
    change, so the ghosts are already current."""
    n, edges = _star(7)
    edges = np.concatenate([edges, np.zeros((20, 2), dtype=np.int64)])

    def fn(comm, g):
        # the graph's halo and its int32 label plan set up outside the call
        halo_of(comm, g).exchange(np.zeros(g.n_total, dtype=np.int32))
        mark = len(comm.trace.events)
        res = label_propagation(comm, g, n_iters=10, seed=3)
        return (res.changed_per_iter, res.labels,
                [e.op for e in comm.trace.events[mark:]])

    for changed, labels, ops in dist_run(edges, n, 2, fn):
        assert changed == (7, 0)
        assert not labels.any()
        assert ops == ["allreduce[SUM]", "alltoallv", "allreduce[SUM]"]


def test_key_overflow_rejected():
    from repro.runtime import SpmdError

    class Huge:
        """A graph whose packed key cannot fit in an int64."""
        n_loc, n_global = 1 << 32, 1 << 32

    with pytest.raises(SpmdError, match="overflows"):
        dist_run(np.zeros((0, 2), dtype=np.int64), 1, 1,
                 lambda c, g: label_propagation(c, Huge()))


def test_key_dtype_bound():
    """``int32`` keys exactly while every ``row * n_global + label`` fits;
    a rank that owns no vertex counts as one row."""
    assert lp._key_dtype(46_340, 46_340) is np.int32  # 2_147_395_600
    assert lp._key_dtype(46_341, 46_341) is np.int64  # 2_147_488_281
    assert lp._key_dtype(1, 2**31 - 1) is np.int32
    assert lp._key_dtype(2, 2**30) is np.int64
    assert lp._key_dtype(0, 2**31) is np.int64


@pytest.mark.parametrize("n", [46_340, 46_341, 50_000])
def test_matches_oracle_across_the_int32_key_bound(n):
    """``n_loc · n_global`` lies just below (one rank owns 46 340 of
    46 340 vertices) or just above (46 341) ``2**31``, or on both sides
    of it at once (two ranks own 45 000 and 5 000 of 50 000): the counter
    runs on ``int32`` and ``int64`` keys, and every rank gives the
    oracle's labels.  The ranks of the last case count at different key
    widths but ship labels of one dtype, or the verifier raises
    ``CollectiveMismatchError`` on the halo plan."""
    owned = (45_000, 5_000) if n == 50_000 else (n,)
    rng = np.random.default_rng(n)
    if len(owned) == 1:
        # Sparse, with a dense block so that counts and ties vary.
        edges = np.concatenate([rng.integers(0, n, size=(60_000, 2)),
                                rng.integers(n - 200, n, size=(4_000, 2))])
    else:
        edges = rng.integers(0, n, size=(100_000, 2))
    part = ExplicitPartition(np.repeat(np.arange(len(owned)), owned))

    def job(comm):
        chunk = np.array_split(edges, comm.size)[comm.rank]
        g = build_dist_graph(comm, chunk, part)
        got = label_propagation(comm, g, n_iters=4, seed=2)
        want = reference_label_propagation(comm, g, n_iters=4, seed=2)
        return lp._key_dtype(g.n_loc, g.n_global), got, want

    outs = run_spmd(len(owned), job, backend="threads")
    assert [key for key, _, _ in outs] == [
        np.int32 if k * n < 2**31 else np.int64 for k in owned]
    for _, got, (labels, iters, last) in outs:
        assert got.labels.dtype == np.int64
        assert got.labels.tobytes() == labels.tobytes()
        assert (got.n_iters, got.last_changed) == (iters, last)


LP_GRAPHS = {
    "web": (300, webcrawl_edges(300, avg_degree=6, seed=8)),
    "bipartite": _complete_bipartite(5, 7),
    "star": _star(12),
    "multigraph": _random_multigraph(40, 160, 3),
}


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("part", PARTITION_KINDS)
def test_matches_reference_on_backend(p, part):
    """Labels bitwise vs the reference on the selected backend, and each
    iteration run issues exactly one change-count ``allreduce`` and one
    halo ``alltoallv`` on a graph whose halo is already set up, except
    that a converged last iteration issues the ``allreduce`` alone."""
    outs = run_spmd(p, K.kern_lp_oracle, {"graphs": LP_GRAPHS, "part": part},
                    timeout=300.0)
    for key in outs[0]:
        for labels, iters, last, ops, ref_labels, ref_iters, ref_last in (
                o[key] for o in outs):
            assert labels.dtype == ref_labels.dtype == np.int64, key
            assert labels.tobytes() == ref_labels.tobytes(), key
            assert (iters, last) == (ref_iters, ref_last), key
            expect = ["allreduce[SUM]", "alltoallv"] * iters
            if last == 0:  # the converged iteration skips the refresh
                expect.pop()
            assert ops == expect, key
