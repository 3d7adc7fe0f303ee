#!/usr/bin/env python
"""End-to-end web-crawl analysis — the paper's full §III methodology.

Pipeline: synthesize a hyperlink graph → write it as a binary edge file →
striped parallel ingestion → distributed CSR construction → all six
analytics (PageRank, Label Propagation, WCC, SCC, Harmonic Centrality,
approximate k-core) → structural report (top communities, coreness
distribution, bow-tie sizes), mirroring the paper's §VI crawl analysis.

Run:  python examples/web_analysis.py [--n 30000] [--ranks 4]
      [--partition vblock|eblock|rand] [--keep FILE]
"""

from __future__ import annotations

import argparse
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import run_spmd
from repro.analysis import (
    community_stats,
    coreness_distribution,
    coreness_percentile,
)
from repro.analytics import (
    approx_kcore,
    harmonic_centrality,
    label_propagation,
    largest_scc,
    pagerank,
    top_degree_vertices,
    wcc,
)
from repro.generators import webcrawl
from repro.graph import build_dist_graph_with_stats
from repro.io import striped_read, write_edges
from repro.partition import (
    EdgeBlockPartition,
    RandomHashPartition,
    VertexBlockPartition,
)
from repro.runtime import MAX, SUM


def analyze(comm, n: int, path: Path, partition: str) -> dict:
    """The SPMD body: ingest, build, run all six analytics (timed)."""
    times: dict[str, float] = {}

    def timed(name, fn):
        comm.barrier()
        t0 = time.perf_counter()
        out = fn()
        comm.barrier()
        times[name] = time.perf_counter() - t0
        return out

    chunk, _info = timed("read", lambda: striped_read(comm, path))

    def make_partition():
        if partition == "vblock":
            return VertexBlockPartition(n, comm.size)
        if partition == "eblock":
            return EdgeBlockPartition.from_edge_chunks(comm, chunk[:, 0], n)
        return RandomHashPartition(n, comm.size, seed=7)

    part = make_partition()
    g, _stats = timed("build",
                      lambda: build_dist_graph_with_stats(comm, chunk, part))

    pr = timed("pagerank (10 it)",
               lambda: pagerank(comm, g, max_iters=10))
    lp = timed("label propagation (10 it)",
               lambda: label_propagation(comm, g, n_iters=10, seed=1))
    comp = timed("wcc", lambda: wcc(comm, g))
    s = timed("scc", lambda: largest_scc(comm, g))
    hub = int(top_degree_vertices(comm, g, 1)[0])
    hc = timed("harmonic centrality (1 vtx)",
               lambda: harmonic_centrality(comm, g, hub))
    kc = timed("k-core (27 stages)",
               lambda: approx_kcore(comm, g, max_stage=27))

    communities = community_stats(comm, g, lp.labels, top_k=10)
    k_vals, cum = coreness_distribution(comm, kc.stage_removed)

    # Bow-tie style summary: giant WCC/SCC sizes.
    wcc_giant = comm.allreduce(
        int((comp.labels == comp.giant_label).sum()), SUM)
    top_pr_local = (float(pr.scores.max()) if len(pr.scores) else 0.0,
                    int(g.unmap[np.argmax(pr.scores)]) if len(pr.scores) else -1)
    top_score = comm.allreduce(top_pr_local[0], MAX)

    return {
        "times": times,
        "wcc_giant": wcc_giant,
        "scc_size": s.size,
        "scc_trimmed": s.n_trimmed,
        "hub": hub,
        "hc": hc.score,
        "hc_reach": hc.n_reaching,
        "communities": communities,
        "coreness": (k_vals, cum),
        "top_pagerank": top_score,
        "m_local": g.m_out,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=30_000)
    ap.add_argument("--ranks", type=int, default=4)
    ap.add_argument("--partition", choices=["vblock", "eblock", "rand"],
                    default="vblock")
    ap.add_argument("--keep", type=Path, default=None,
                    help="write the crawl file here instead of a temp file")
    args = ap.parse_args()

    wc = webcrawl(args.n, avg_degree=16, seed=1)
    print(f"synthesized crawl: {wc.n:,} pages, {wc.m:,} links, "
          f"{wc.n_communities:,} hosts")

    with tempfile.TemporaryDirectory() as td:
        path = args.keep or Path(td) / "crawl.bin"
        nbytes = write_edges(path, wc.edges, width=32)
        print(f"wrote {nbytes / 1e6:.1f} MB binary edge file -> {path}")

        t0 = time.perf_counter()
        out = run_spmd(args.ranks, analyze, args.n, path, args.partition)[0]
        wall = time.perf_counter() - t0

    print(f"\n=== stage times ({args.ranks} ranks, "
          f"{args.partition} partitioning) ===")
    for name, dt in out["times"].items():
        print(f"  {name:<28s} {dt:8.3f} s")
    print(f"  {'TOTAL (wall)':<28s} {wall:8.3f} s")

    print("\n=== global structure (paper §VI style) ===")
    print(f"  largest WCC: {out['wcc_giant']:,} pages "
          f"({100 * out['wcc_giant'] / args.n:.1f}%)")
    print(f"  largest SCC: {out['scc_size']:,} pages "
          f"({out['scc_trimmed']:,} trimmed as trivial)")
    print(f"  top hub: page {out['hub']} — harmonic centrality "
          f"{out['hc']:.1f} over {out['hc_reach']:,} reaching pages")
    k_vals, cum = out["coreness"]
    q75 = coreness_percentile(k_vals, cum, 0.75)
    print(f"  coreness: 75% of pages have coreness <= {q75}")

    print("\n=== top 10 communities after 10 LP iterations (Table V) ===")
    print(f"  {'n_in':>7} {'m_in':>9} {'m_cut':>9}  representative")
    for cs in out["communities"]:
        host = wc.community[cs.representative]
        print(f"  {cs.n_in:>7,} {cs.m_in:>9,} {cs.m_cut:>9,}  "
              f"page {cs.representative} (host {host})")


if __name__ == "__main__":
    main()
