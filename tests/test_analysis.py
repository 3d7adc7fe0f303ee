"""Community and coreness post-analysis (Table V, Figs 5-6 machinery)."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import dist_run
from repro.analysis import (
    community_size_distribution,
    community_stats,
    coreness_distribution,
    coreness_percentile,
    label_counts,
)
from repro.analytics import approx_kcore, label_propagation


def brute_stats(n, edges, labels, lab):
    members = np.flatnonzero(labels == lab)
    src_l, dst_l = labels[edges[:, 0]], labels[edges[:, 1]]
    m_in = int(((src_l == lab) & (dst_l == lab)).sum())
    m_cut = int(((src_l == lab) != (dst_l == lab)).sum())
    return len(members), m_in, m_cut, int(members.min())


@pytest.mark.parametrize("p", [1, 2, 4])
def test_community_stats_match_brute_force(small_web, p):
    n, edges = small_web
    # Fixed ground-truth labels (independent of LP): group ids by blocks.
    labels = (np.arange(n) // 37).astype(np.int64) * 37

    def fn(comm, g):
        local = labels[g.unmap[: g.n_loc]]
        return community_stats(comm, g, local, top_k=5)

    outs = dist_run(edges, n, p, fn)
    assert all(o == outs[0] for o in outs)  # identical on all ranks
    for cs in outs[0]:
        n_in, m_in, m_cut, rep = brute_stats(n, edges, labels, cs.label)
        assert (cs.n_in, cs.m_in, cs.m_cut, cs.representative) == \
            (n_in, m_in, m_cut, rep)
    # Ordered by size descending.
    sizes = [cs.n_in for cs in outs[0]]
    assert sizes == sorted(sizes, reverse=True)


def test_community_stats_with_a_ghostless_rank():
    """A rank with no ghosts still joins the label refresh: the one cut
    edge 2 → 4 gives ghosts to ranks 1 and 2 only."""
    n, edges = 6, np.array([[2, 4]], dtype=np.int64)
    labels = np.array([0, 0, 2, 2, 2, 5], dtype=np.int64)

    def fn(comm, g):
        return g.n_gst, community_stats(comm, g, labels[g.unmap[: g.n_loc]])

    outs = dist_run(edges, n, 3, fn)
    assert [n_gst for n_gst, _ in outs] == [0, 1, 1]
    for cs in outs[0][1]:
        assert (cs.n_in, cs.m_in, cs.m_cut, cs.representative) == \
            brute_stats(n, edges, labels, cs.label)


def test_label_counts_merge(small_web):
    n, edges = small_web
    labels = np.arange(n) % 7

    def fn(comm, g):
        local = labels[g.unmap[: g.n_loc]]
        return label_counts(comm, local)

    keys, counts = dist_run(edges, n, 3, fn)[0]
    expect_keys, expect_counts = np.unique(labels, return_counts=True)
    assert (keys == expect_keys).all()
    assert (counts == expect_counts).all()


def test_size_distribution(small_web):
    n, edges = small_web
    labels = np.zeros(n, dtype=np.int64)
    labels[:10] = np.arange(10)  # 9 singletons + one community of n-9

    def fn(comm, g):
        local = labels[g.unmap[: g.n_loc]]
        return community_size_distribution(comm, local)

    sizes, freq = dist_run(edges, n, 2, fn)[0]
    assert dict(zip(sizes.tolist(), freq.tolist())) == {1: 9, n - 9: 1}


@pytest.mark.parametrize("p", [1, 3])
def test_lp_pipeline_stats_consistent(small_web, p):
    """community_stats over real LP labels: edge totals must balance."""
    n, edges = small_web

    def fn(comm, g):
        res = label_propagation(comm, g, n_iters=5, seed=1)
        stats = community_stats(comm, g, res.labels, top_k=3)
        return stats

    stats = dist_run(edges, n, p, fn)[0]
    for cs in stats:
        assert cs.n_in >= 1
        assert cs.m_in >= 0 and cs.m_cut >= 0
        assert cs.representative <= cs.label or True  # representative is a gid
        assert 0 <= cs.representative < n


def test_coreness_distribution(small_web):
    n, edges = small_web

    def fn(comm, g):
        res = approx_kcore(comm, g, max_stage=15)
        return coreness_distribution(comm, res.stage_removed)

    k, frac = dist_run(edges, n, 2, fn)[0]
    assert (np.diff(frac) >= 0).all()  # cumulative
    assert frac[-1] == pytest.approx(1.0)
    assert k.tolist() == [(1 << i) - 1 for i in range(1, len(k) + 1)]


def test_coreness_percentile():
    k = np.array([1, 3, 7, 15])
    frac = np.array([0.2, 0.6, 0.9, 1.0])
    assert coreness_percentile(k, frac, 0.5) == 3
    assert coreness_percentile(k, frac, 0.95) == 15
    assert coreness_percentile(k, frac, 1.0) == 15
    with pytest.raises(ValueError):
        coreness_percentile(k, frac, 0.0)


def test_community_stats_rejects_bad_length(small_web):
    from repro.runtime import SpmdError

    n, edges = small_web
    with pytest.raises(SpmdError):
        dist_run(edges, n, 2,
                 lambda c, g: community_stats(c, g, np.zeros(3, np.int64)))
