#!/usr/bin/env python
"""Web-structure report: bow-tie, degrees, distances, clustering (§VI+).

Produces the kind of global structural study the paper's §VI performs on
the real crawl (and that Meusel et al. performed at full scale): bow-tie
region sizes, degree-distribution statistics, a diameter estimate, triangle
counts, and the most central pages by three different centralities.

Run:  python examples/structure_report.py [--n 20000] [--ranks 4]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro import run_spmd
from repro.analysis import bowtie_decomposition, degree_stats
from repro.analytics import (
    betweenness_centrality,
    estimate_diameter,
    harmonic_centrality_many,
    pagerank,
    top_degree_vertices,
    triangle_count,
)
from repro.generators import webcrawl
from repro.graph import build_dist_graph
from repro.partition import VertexBlockPartition
from repro.runtime import MAXLOC


def study(comm, n, edges):
    part = VertexBlockPartition(n, comm.size)
    chunk = np.array_split(edges, comm.size)[comm.rank]
    g = build_dist_graph(comm, chunk, part)

    bt = bowtie_decomposition(comm, g)
    deg_in = degree_stats(comm, g, "in")
    deg_out = degree_stats(comm, g, "out")
    diam = estimate_diameter(comm, g, sweeps=4)
    tri = triangle_count(comm, g)

    # Centralities: PageRank (full), harmonic (top-5 hubs), betweenness
    # (sampled estimate).
    pr = pagerank(comm, g, max_iters=30, tol=1e-10)
    hubs = top_degree_vertices(comm, g, 5)
    hc = harmonic_centrality_many(comm, g, hubs)
    bc = betweenness_centrality(comm, g, k=8, seed=1)

    def global_top(values):
        """(value, gid) of the global maximum of a local array."""
        if len(values):
            i = int(np.argmax(values))
            cand = (float(values[i]), int(g.unmap[i]))
        else:
            cand = (-1.0, g.n_global)
        return comm.allreduce(cand, MAXLOC)

    return {
        "bowtie": bt.fractions(n),
        "deg_in": deg_in,
        "deg_out": deg_out,
        "diameter_lb": diam.lower_bound,
        "diam_pair": diam.endpoints,
        "triangles": tri.total,
        "gcc": tri.global_clustering,
        "top_pr": global_top(pr.scores),
        "top_bc": global_top(bc.scores),
        "hc": [(r.vertex, r.score) for r in hc],
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=20_000)
    ap.add_argument("--ranks", type=int, default=4)
    args = ap.parse_args()

    wc = webcrawl(args.n, avg_degree=14, seed=1)
    print(f"crawl stand-in: {wc.n:,} pages, {wc.m:,} links, "
          f"{wc.n_communities:,} hosts")

    out = run_spmd(args.ranks, study, args.n, wc.edges)[0]

    print("\n=== bow-tie structure (Meusel-style) ===")
    for region, frac in sorted(out["bowtie"].items(), key=lambda kv: -kv[1]):
        print(f"  {region:<13} {100 * frac:6.2f}%")

    print("\n=== degrees ===")
    for name, st in (("in", out["deg_in"]), ("out", out["deg_out"])):
        print(f"  {name:<4} mean {st.mean:6.2f}  max {st.max:>7,}  "
              f"p99 {st.p99:>5}  skew {st.skew():8.1f}  "
              f"zero {100 * st.zero_fraction:.1f}%")

    print("\n=== distances & clustering ===")
    a, b = out["diam_pair"]
    print(f"  diameter >= {out['diameter_lb']} (witness pages {a} .. {b})")
    print(f"  triangles: {out['triangles']:,}  "
          f"global clustering: {out['gcc']:.4f}")

    print("\n=== central pages ===")
    pr_v, pr_g = out["top_pr"]
    bc_v, bc_g = out["top_bc"]
    print(f"  top PageRank:    page {pr_g}  ({pr_v:.2e})")
    print(f"  top betweenness: page {bc_g}  ({bc_v:.1f}, sampled)")
    print("  harmonic centrality of the 5 biggest hubs:")
    for v, s in out["hc"]:
        print(f"    page {v:>8}  {s:10.1f}")


if __name__ == "__main__":
    main()
