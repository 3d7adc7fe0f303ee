"""Weakly connected components (Multistep) vs. the NetworkX oracle."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import PARTITION_KINDS, dist_run, gather_by_gid
from repro.analytics import wcc
from repro.baselines import wcc_labels_ref


def run_wcc(edges, n, p, kind="vblock"):
    def fn(comm, g):
        res = wcc(comm, g)
        return g.unmap[: g.n_loc], res.labels, res.giant_label, res.supersteps

    outs = dist_run(edges, n, p, fn, kind)
    return gather_by_gid(outs), outs[0][2]


@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("kind", PARTITION_KINDS)
def test_matches_networkx(small_web, p, kind):
    n, edges = small_web
    labels, _ = run_wcc(edges, n, p, kind)
    assert (labels == wcc_labels_ref(n, edges)).all()


def test_giant_label_is_biggest_component(small_web):
    n, edges = small_web
    labels, giant = run_wcc(edges, n, 3)
    uniq, counts = np.unique(labels, return_counts=True)
    assert giant == uniq[np.argmax(counts)]


def test_labels_canonical_min_member(small_web):
    n, edges = small_web
    labels, _ = run_wcc(edges, n, 2)
    for lab in np.unique(labels):
        members = np.flatnonzero(labels == lab)
        assert lab == members.min()


def test_isolated_vertices_are_singletons():
    edges = np.array([[0, 1], [1, 2]], dtype=np.int64)
    labels, _ = run_wcc(edges, 6, 2)
    assert labels.tolist() == [0, 0, 0, 3, 4, 5]


def test_direction_ignored():
    """Anti-parallel chains still form one weak component."""
    edges = np.array([[1, 0], [1, 2], [3, 2], [3, 4]], dtype=np.int64)
    labels, _ = run_wcc(edges, 5, 2)
    assert len(np.unique(labels)) == 1


def test_many_small_components():
    """Pure coloring-phase exercise: no giant component at all."""
    # 20 disjoint 3-cycles.
    edges = []
    for c in range(20):
        b = 3 * c
        edges += [(b, b + 1), (b + 1, b + 2), (b + 2, b)]
    edges = np.array(edges, dtype=np.int64)
    labels, _ = run_wcc(edges, 60, 3)
    expect = (np.arange(60) // 3) * 3
    assert (labels == expect).all()


def test_empty_graph():
    labels, giant = run_wcc(np.empty((0, 2), dtype=np.int64), 5, 2)
    assert labels.tolist() == [0, 1, 2, 3, 4]


def test_multi_edges_and_self_loops(tiny_multi):
    n, edges = tiny_multi
    labels, _ = run_wcc(edges, n, 3)
    assert (labels == wcc_labels_ref(n, edges)).all()


def test_rank_count_invariance(small_web):
    n, edges = small_web
    l1, _ = run_wcc(edges, n, 1)
    l5, _ = run_wcc(edges, n, 5)
    assert (l1 == l5).all()
