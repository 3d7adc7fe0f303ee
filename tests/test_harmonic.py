"""Harmonic centrality vs. the NetworkX oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import PARTITION_KINDS, dist_run
from repro.analytics import (
    harmonic_centrality,
    harmonic_centrality_many,
    top_degree_vertices,
)
from repro.baselines import harmonic_ref


@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("kind", PARTITION_KINDS)
def test_matches_networkx(small_web, p, kind):
    n, edges = small_web
    v = int(edges[0, 1])
    expect = harmonic_ref(n, edges, v)

    def fn(comm, g):
        return harmonic_centrality(comm, g, v).score

    scores = dist_run(edges, n, p, fn, kind)
    assert all(abs(s - expect) < 1e-9 for s in scores)


def test_multiple_vertices(small_web):
    n, edges = small_web
    targets = np.unique(edges[:4, 1])[:3]

    def fn(comm, g):
        return [r.score for r in harmonic_centrality_many(comm, g, targets)]

    scores = dist_run(edges, n, 2, fn)[0]
    for v, s in zip(targets, scores):
        assert abs(s - harmonic_ref(n, edges, int(v))) < 1e-9


def test_isolated_vertex_scores_zero(small_web):
    n, edges = small_web
    deg = np.bincount(edges.reshape(-1), minlength=n)
    isolated = int(np.flatnonzero(deg == 0)[0])

    def fn(comm, g):
        r = harmonic_centrality(comm, g, isolated)
        return r.score, r.n_reaching

    score, n_reaching = dist_run(edges, n, 2, fn)[0]
    assert score == 0.0 and n_reaching == 0


def test_result_statistics(small_web):
    n, edges = small_web
    v = int(edges[0, 1])

    def fn(comm, g):
        r = harmonic_centrality(comm, g, v)
        return r.n_reaching, r.eccentricity

    n_reaching, ecc = dist_run(edges, n, 3, fn)[0]
    assert n_reaching > 0
    assert ecc >= 1


def test_star_centrality():
    """Hub of an in-star: every leaf at distance 1 -> score = k."""
    k = 9
    edges = np.array([[i, 0] for i in range(1, k + 1)], dtype=np.int64)

    def fn(comm, g):
        return harmonic_centrality(comm, g, 0).score

    assert dist_run(edges, k + 1, 2, fn)[0] == pytest.approx(k)


def test_chain_distances():
    """0 -> 1 -> 2 -> 3: hc(3) = 1 + 1/2 + 1/3."""
    edges = np.array([[0, 1], [1, 2], [2, 3]], dtype=np.int64)

    def fn(comm, g):
        return harmonic_centrality(comm, g, 3).score

    assert dist_run(edges, 4, 2, fn)[0] == pytest.approx(1 + 0.5 + 1 / 3)


@pytest.mark.parametrize("p", [1, 3])
def test_top_degree_vertices(small_web, p):
    n, edges = small_web
    deg = np.bincount(edges.reshape(-1), minlength=n)

    def fn(comm, g):
        return top_degree_vertices(comm, g, 5).tolist()

    outs = dist_run(edges, n, p, fn)
    assert all(o == outs[0] for o in outs)  # identical on every rank
    got = outs[0]
    # Top-degree set by the same (degree desc, id asc) ordering.
    order = np.lexsort((np.arange(n), -deg))
    assert got == order[:5].tolist()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 60), st.integers(0, 200), st.integers(0, 10_000),
       st.integers(1, 4), st.sampled_from(PARTITION_KINDS),
       st.integers(1, 8))
def test_top_degree_ties_break_by_id(n, m, seed, p, kind, k):
    """Ties at the k-th degree keep the lower ids whatever the rank count
    and partition: the result is the global (degree desc, id asc) order."""
    edges = np.random.default_rng(seed).integers(0, n, size=(m, 2),
                                                 dtype=np.int64)
    deg = np.bincount(edges.reshape(-1), minlength=n)
    want = np.lexsort((np.arange(n), -deg))[:k].tolist()
    outs = dist_run(edges, n, p,
                    lambda c, g: top_degree_vertices(c, g, k).tolist(), kind)
    assert all(o == want for o in outs)


def test_out_of_range_vertex(small_web):
    from repro.runtime import SpmdError

    n, edges = small_web
    with pytest.raises(SpmdError):
        dist_run(edges, n, 1, lambda c, g: harmonic_centrality(c, g, -1))
