"""End-to-end pipeline: file → striped ingest → build → all six analytics.

This mirrors the paper's end-to-end methodology (§III): the binary edge
file is read in parallel, redistributed, converted to the distributed CSR,
and all six analytics run over the same in-memory graph, reusing its one
cached halo exchange.  Results must be identical for every rank count and partitioning.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import PARTITION_KINDS, gather_by_gid, make_partition
from repro.analysis import community_stats, coreness_distribution
from repro.analytics import (
    approx_kcore,
    halo_of,
    harmonic_centrality,
    label_propagation,
    largest_scc,
    pagerank,
    top_degree_vertices,
    wcc,
)
from repro.baselines import largest_scc_ref, pagerank_ref, wcc_labels_ref
from repro.generators import webcrawl_edges
from repro.graph import build_dist_graph_with_stats
from repro.io import striped_read, write_edges
from repro.runtime import run_spmd


@pytest.fixture(scope="module")
def crawl_file(tmp_path_factory):
    n = 800
    edges = np.unique(webcrawl_edges(n, avg_degree=7, seed=13), axis=0)
    path = tmp_path_factory.mktemp("data") / "crawl.bin"
    write_edges(path, edges, width=32)
    return n, edges, path


def full_pipeline(comm, n, path, part_kind):
    chunk, info = striped_read(comm, path)
    part = make_partition(part_kind, comm, n, chunk)
    g, stats = build_dist_graph_with_stats(comm, chunk, part)

    pr = pagerank(comm, g, max_iters=300, tol=1e-13)
    lp = label_propagation(comm, g, n_iters=5, seed=2)
    w = wcc(comm, g)
    s = largest_scc(comm, g)
    top = top_degree_vertices(comm, g, 3)
    hc = harmonic_centrality(comm, g, int(top[0]))
    kc = approx_kcore(comm, g, max_stage=12)

    return {
        "gids": g.unmap[: g.n_loc],
        "pr": pr.scores,
        "lp": lp.labels,
        "wcc": w.labels,
        "scc": s.in_scc,
        "scc_size": s.size,
        "hc": hc.score,
        "kcore": kc.stage_removed,
        "read_edges": info.count,
    }


@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("kind", PARTITION_KINDS)
def test_end_to_end_all_analytics(crawl_file, p, kind):
    n, edges, path = crawl_file
    outs = run_spmd(p, full_pipeline, n, path, kind)

    tup = [(o["gids"], o["pr"], o["lp"], o["wcc"], o["scc"], o["kcore"])
           for o in outs]
    pr = gather_by_gid(tup, 1)
    lp = gather_by_gid(tup, 2)
    w = gather_by_gid(tup, 3)
    scc_mask = gather_by_gid(tup, 4).astype(bool)
    kcore = gather_by_gid(tup, 5)

    assert np.abs(pr - pagerank_ref(n, edges)).max() < 1e-8
    assert (w == wcc_labels_ref(n, edges)).all()
    assert (scc_mask == largest_scc_ref(n, edges)).all()
    assert sum(o["read_edges"] for o in outs) == len(edges)
    assert outs[0]["scc_size"] == int(scc_mask.sum())

    # Cross-configuration invariance: stash the single-rank vblock result
    # and compare everything else against it.
    key = "baseline"
    cache = test_end_to_end_all_analytics.__dict__.setdefault("cache", {})
    if key not in cache:
        cache[key] = (pr, lp, w, scc_mask, kcore, outs[0]["hc"])
    else:
        b_pr, b_lp, b_w, b_scc, b_kc, b_hc = cache[key]
        assert np.abs(pr - b_pr).max() < 1e-9
        assert (lp == b_lp).all()
        assert (w == b_w).all()
        assert (scc_mask == b_scc).all()
        assert (kcore == b_kc).all()
        assert outs[0]["hc"] == pytest.approx(b_hc)


def test_shared_halo_across_analytics(crawl_file):
    """Reusing the graph's one cached halo across analytics is safe."""
    n, edges, path = crawl_file

    def job(comm):
        chunk, _ = striped_read(comm, path)
        part = make_partition("vblock", comm, n, chunk)
        g, _ = build_dist_graph_with_stats(comm, chunk, part)
        a = pagerank(comm, g, max_iters=10).scores
        halo = halo_of(comm, g)
        _ = wcc(comm, g)
        b = pagerank(comm, g, max_iters=10).scores
        assert (a == b).all()
        assert halo_of(comm, g) is halo
        return True

    assert all(run_spmd(3, job))


def test_community_pipeline(crawl_file):
    """LP → community stats → representative sanity (Table V path)."""
    n, edges, path = crawl_file

    def job(comm):
        chunk, _ = striped_read(comm, path)
        part = make_partition("rand", comm, n, chunk)
        g, _ = build_dist_graph_with_stats(comm, chunk, part)
        res = label_propagation(comm, g, n_iters=10, seed=1)
        return community_stats(comm, g, res.labels, top_k=5)

    stats = run_spmd(2, job)[0]
    assert len(stats) == 5
    assert stats[0].n_in >= stats[-1].n_in
    total_members = sum(cs.n_in for cs in stats)
    assert total_members <= n


def test_coreness_pipeline(crawl_file):
    n, edges, path = crawl_file

    def job(comm):
        chunk, _ = striped_read(comm, path)
        part = make_partition("vblock", comm, n, chunk)
        g, _ = build_dist_graph_with_stats(comm, chunk, part)
        kc = approx_kcore(comm, g, max_stage=10)
        return coreness_distribution(comm, kc.stage_removed)

    k, frac = run_spmd(2, job)[0]
    assert frac[-1] == pytest.approx(1.0)
