"""The one BFS engine against the reference loop in ``bfs_reference.py``.

``multi_source_bfs`` (per column), ``distributed_bfs`` (its k = 1 case) and
``distributed_bfs_dirop`` (whose top-down levels run the engine's step) must
give levels bitwise equal to the reference single-traversal loop, and the
harmonic / closeness results — batched and single — must equal scores
derived from the reference levels with ``==``.  Checked over random
multigraphs (self-loops, duplicate edges, isolated vertices), a web crawl
and an R-MAT graph × 1–4 ranks × vblock/eblock/rand × out/in/both ×
k ∈ {0, 1, several, duplicated sources}.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bfs_reference import reference_bfs, reference_closeness, reference_harmonic
from conftest import PARTITION_KINDS, dist_run
from repro.analytics import (
    batched_closeness,
    closeness_centrality,
    distributed_bfs,
    distributed_bfs_dirop,
    harmonic_centrality,
    harmonic_centrality_many,
    multi_source_bfs,
)
from repro.generators import rmat_edges, webcrawl_edges

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
