"""Distributed result validators: pass on correct outputs, catch corruption."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import dist_run
from repro.analytics import (
    distributed_bfs,
    pagerank,
    sssp,
    validate_bfs_levels,
    validate_components,
    validate_distances,
    validate_pagerank,
    wcc,
)


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("direction", ["out", "in", "both"])
def test_bfs_validator_accepts_correct(small_web, p, direction):
    n, edges = small_web
    root = int(edges[0, 0])

    def fn(comm, g):
        lev = distributed_bfs(comm, g, root, direction)
        return validate_bfs_levels(comm, g, lev, root, direction)

    for out in dist_run(edges, n, p, fn):
        assert out == []


def test_bfs_validator_catches_shifted_levels(small_web):
    n, edges = small_web
    root = int(edges[0, 0])

    def fn(comm, g):
        lev = distributed_bfs(comm, g, root, "out")
        bad = lev.copy()
        bad[bad >= 1] += 1  # skip a level
        return validate_bfs_levels(comm, g, bad, root, "out")

    assert dist_run(edges, n, 2, fn)[0] != []


def test_bfs_validator_catches_wrong_root(small_web):
    n, edges = small_web
    root = int(edges[0, 0])

    def fn(comm, g):
        lev = distributed_bfs(comm, g, root, "out")
        bad = lev.copy()
        owner = g.partition.owner_of(np.array([root]))[0]
        if owner == comm.rank:
            lid = g.partition.to_local(comm.rank, np.array([root]))[0]
            bad[lid] = 3
        return validate_bfs_levels(comm, g, bad, root, "out")

    violations = dist_run(edges, n, 2, fn)[0]
    assert any("root" in v for v in violations)


def test_bfs_validator_catches_unreached_with_parent(small_web):
    n, edges = small_web
    root = int(edges[0, 0])

    def fn(comm, g):
        lev = distributed_bfs(comm, g, root, "out")
        bad = lev.copy()
        # Mark some genuinely-reached vertex as unreached.
        cand = np.flatnonzero(bad >= 1)
        if len(cand):
            bad[cand[0]] = -2
        return validate_bfs_levels(comm, g, bad, root, "out")

    assert dist_run(edges, n, 1, fn)[0] != []


@pytest.mark.parametrize("p", [1, 3])
def test_component_validator(small_web, p):
    n, edges = small_web

    def fn(comm, g):
        labels = wcc(comm, g).labels
        good = validate_components(comm, g, labels)
        bad_labels = labels.copy()
        if len(bad_labels):
            bad_labels[0] = n + 100  # break one label
        bad = validate_components(comm, g, bad_labels)
        return good, bad

    for good, bad in dist_run(edges, n, p, fn):
        assert good == []
    # At least the owning rank's copy must flag the corruption (vertex 0
    # has neighbors in this graph).
    outs = dist_run(edges, n, p, fn)
    assert any(o[1] != [] for o in outs)


@pytest.mark.parametrize("p", [1, 2])
def test_pagerank_validator(small_web, p):
    n, edges = small_web

    def fn(comm, g):
        scores = pagerank(comm, g, max_iters=300, tol=1e-12).scores
        good = validate_pagerank(comm, g, scores)
        bad = validate_pagerank(comm, g, scores * 2)  # mass violation
        early = pagerank(comm, g, max_iters=1).scores
        not_converged = validate_pagerank(comm, g, early, tol=1e-9)
        return good, bad, not_converged

    for good, bad, nc in dist_run(edges, n, p, fn):
        assert good == []
        assert any("sum" in v for v in bad)
        assert any("residual" in v for v in nc)


@pytest.mark.parametrize("p", [1, 3])
def test_distance_validator(small_web, p):
    n, edges = small_web
    root = int(edges[0, 0])

    def fn(comm, g):
        d = sssp(comm, g, root).distances
        good = validate_distances(comm, g, d, root)
        bad = d.copy()
        finite = np.flatnonzero(np.isfinite(bad) & (bad > 0))
        if len(finite):
            bad[finite[0]] *= 3  # now some edge into it is relaxable
        return good, validate_distances(comm, g, bad, root)

    outs = dist_run(edges, n, p, fn)
    for good, _ in outs:
        assert good == []
    assert any(o[1] != [] for o in outs)


@pytest.mark.parametrize("p", [1, 3])
def test_distance_validator_needs_tight_predecessors(small_web, p):
    """Too-small distances relax no edge; only the tight-predecessor rule
    (``dist[u] + w == dist[v]`` for some in-edge) rejects them."""
    n, edges = small_web
    root = int(edges[0, 0])

    def fn(comm, g):
        d = sssp(comm, g, root).distances
        return (validate_distances(comm, g, np.zeros_like(d), root),
                validate_distances(comm, g, d * 0.5, root))

    for zeros, halved in dist_run(edges, n, p, fn):
        assert any("no tight in-edge" in v for v in zeros)
        assert any("no tight in-edge" in v for v in halved)


def test_validators_identical_on_all_ranks(small_web):
    n, edges = small_web
    root = int(edges[0, 0])

    def fn(comm, g):
        lev = distributed_bfs(comm, g, root, "out")
        bad = lev.copy()
        bad[bad >= 1] += 1
        return validate_bfs_levels(comm, g, bad, root, "out")

    outs = dist_run(edges, n, 3, fn)
    assert outs[0] == outs[1] == outs[2]
