"""Distributed PageRank vs. the NetworkX oracle."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import PARTITION_KINDS, dist_run, gather_by_gid
from repro.analytics import HaloExchange, pagerank
from repro.analytics.common import csr_operator
from repro.baselines import pagerank_ref
from repro.runtime import SUM, SpmdError


def run_pr(edges, n, p, kind="vblock", **kw):
    def fn(comm, g):
        res = pagerank(comm, g, **kw)
        return g.unmap[: g.n_loc], res.scores, res.n_iters, res.final_delta

    outs = dist_run(edges, n, p, fn, kind)
    return gather_by_gid(outs), outs[0][2], outs[0][3]


@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("kind", PARTITION_KINDS)
def test_matches_networkx(small_web, p, kind):
    n, edges = small_web
    scores, _, _ = run_pr(edges, n, p, kind, max_iters=500, tol=1e-13)
    # The bound is set by NetworkX's own stopping tolerance, not ours.
    assert np.abs(scores - pagerank_ref(n, edges)).max() < 1e-8


def test_scores_sum_to_one(small_web):
    n, edges = small_web
    scores, _, _ = run_pr(edges, n, 3, max_iters=50)
    assert abs(scores.sum() - 1.0) < 1e-9
    assert (scores > 0).all()


def test_rank_count_invariance(small_web):
    n, edges = small_web
    s1, _, _ = run_pr(edges, n, 1, max_iters=20)
    s4, _, _ = run_pr(edges, n, 4, max_iters=20)
    assert np.abs(s1 - s4).max() < 1e-12


def test_partition_invariance(small_web):
    n, edges = small_web
    a, _, _ = run_pr(edges, n, 3, "vblock", max_iters=15)
    b, _, _ = run_pr(edges, n, 3, "rand", max_iters=15)
    assert np.abs(a - b).max() < 1e-12


def test_tolerance_stops_early(small_web):
    n, edges = small_web
    _, iters, delta = run_pr(edges, n, 2, max_iters=500, tol=1e-6)
    assert iters < 500
    assert delta < 1e-6


def test_fixed_iteration_budget(small_web):
    n, edges = small_web
    _, iters, _ = run_pr(edges, n, 2, max_iters=7)
    assert iters == 7


def test_dangling_mass_not_lost():
    """A sink-heavy chain graph: total mass must remain 1."""
    edges = np.array([[0, 1], [1, 2], [2, 3], [4, 3]], dtype=np.int64)
    scores, _, _ = run_pr(edges, 5, 2, max_iters=200, tol=1e-14)
    assert abs(scores.sum() - 1.0) < 1e-9
    assert np.abs(scores - pagerank_ref(5, edges)).max() < 1e-9


def test_graph_with_no_edges():
    edges = np.empty((0, 2), dtype=np.int64)
    scores, _, _ = run_pr(edges, 6, 2, max_iters=10)
    assert np.allclose(scores, 1.0 / 6.0)


def test_multi_edges_weight_contributions(tiny_multi):
    """Parallel edges carry mass per occurrence (documented behaviour)."""
    n, edges = tiny_multi
    scores, _, _ = run_pr(edges, n, 2, max_iters=100, tol=1e-13)
    # Compare against a dense power iteration honoring multiplicity.
    A = np.zeros((n, n))
    np.add.at(A, (edges[:, 0], edges[:, 1]), 1.0)
    outdeg = A.sum(axis=1)
    x = np.full(n, 1.0 / n)
    for _ in range(300):
        contrib = np.where(outdeg > 0, x / np.maximum(outdeg, 1), 0.0)
        dangling = x[outdeg == 0].sum()
        x = 0.15 / n + 0.85 * (A.T @ contrib + dangling / n)
    assert np.abs(scores - x).max() < 1e-9


def test_invalid_damping(small_web):
    n, edges = small_web
    with pytest.raises(SpmdError):
        dist_run(edges, n, 1, lambda c, g: pagerank(c, g, damping=1.5))


def test_zero_iters_returns_uniform(small_web):
    n, edges = small_web
    scores, iters, _ = run_pr(edges, n, 2, max_iters=0)
    assert iters == 0
    assert np.allclose(scores, 1.0 / n)


def _two_allreduce_pagerank(comm, g, damping=0.85, max_iters=10, tol=None,
                            personalization=None):
    """The power iteration with the dangling mass and the L1 change
    reduced separately, two allreduces per iteration: the schedule
    ``pagerank`` fuses into one, on the same in-edge operator (the sums
    must match bit for bit).  Returns ``(scores, n_iters, delta)``."""
    halo = HaloExchange(comm, g)
    n_loc, n = g.n_loc, g.n_global
    if personalization is None:
        teleport = np.full(n_loc, 1.0 / n)
    else:
        teleport = personalization / comm.allreduce(
            float(personalization.sum()), SUM)
    outdeg = np.zeros(g.n_total)
    outdeg[:n_loc] = g.out_degrees()
    x = np.full(g.n_total, 1.0 / n)
    x[:n_loc] = teleport
    halo.exchange_many(outdeg, x)
    base = (1.0 - damping) * teleport
    dangling_local = outdeg[:n_loc] == 0
    safe_outdeg = np.where(outdeg > 0, outdeg, 1.0)
    n_iters, delta = 0, float("inf")
    for _ in range(max_iters):
        contrib = x / safe_outdeg
        contrib[outdeg == 0] = 0.0
        sums = csr_operator(g, "in") @ contrib
        dangling = comm.allreduce(float(x[:n_loc][dangling_local].sum()), SUM)
        x_new = base + damping * (sums + dangling * teleport)
        delta = comm.allreduce(float(np.abs(x_new - x[:n_loc]).sum()), SUM)
        x[:n_loc] = x_new
        halo.exchange(x)
        n_iters += 1
        if tol is not None and delta < tol:
            break
    return x[:n_loc].copy(), n_iters, delta


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("kw", [
    {"max_iters": 12},
    {"max_iters": 500, "tol": 1e-9},
    {"max_iters": 40, "personalized": True},
], ids=["fixed", "tol", "personalized"])
def test_one_allreduce_per_iteration_is_bitwise_equal(small_web, p, kw):
    """Scores, ``n_iters`` and ``final_delta`` equal the two-allreduce
    schedule bit for bit, and each iteration runs one allreduce fewer."""
    n, edges = small_web
    kw = dict(kw)
    personalized = kw.pop("personalized", False)

    def fn(comm, g):
        args = dict(kw)  # one per rank: the ranks are threads
        if personalized:
            args["personalization"] = (g.unmap[: g.n_loc] % 7).astype(float)
        def reductions(call):
            start = len(comm.trace.events)
            out = call()
            return out, sum(e.op.startswith("allreduce")
                            for e in comm.trace.events[start:])

        want, ref_reductions = reductions(
            lambda: _two_allreduce_pagerank(comm, g, **args))
        res, new_reductions = reductions(lambda: pagerank(comm, g, **args))
        got = (res.scores, res.n_iters, res.final_delta)
        return (got[0].tobytes() == want[0].tobytes(), got[1:] == want[1:],
                ref_reductions - new_reductions, res.n_iters)

    for scores_same, counts_same, saved, n_iters in dist_run(edges, n, p, fn):
        assert scores_same and counts_same
        # One allreduce saved per iteration, less the dangling sum that
        # moved before the loop.
        assert saved == n_iters - 1
