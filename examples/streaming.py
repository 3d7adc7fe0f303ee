#!/usr/bin/env python
"""Streaming tour: live edge updates with exact incremental analytics.

Builds a synthetic crawl, wraps it in a
:class:`~repro.stream.DynamicDistGraph` (per-rank delta-CSR overlays on
the immutable base), then streams batches of edge mutations through it:

1. insert-only batches — each epoch materializes its view once, the
   streaming PageRank runs the static kernel on it, and the scores are
   checked *bitwise* against PageRank on a from-scratch rebuild;
2. a mixed insert/delete batch — tombstones, missing-delete accounting,
   and the WCC rollback path;
3. the serving integration — :meth:`AnalyticsEngine.apply_updates`
   between queries, with fingerprint evolution and cache invalidation.

Run:  python examples/streaming.py [--n 20000] [--ranks 4]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.analytics import pagerank
from repro.generators import webcrawl_edges
from repro.graph import build_dist_graph
from repro.partition import VertexBlockPartition
from repro.runtime import run_spmd
from repro.service import AnalyticsEngine
from repro.stream import (
    DynamicDistGraph,
    IncrementalPageRank,
    IncrementalWCC,
    UpdateBatch,
)


def spmd_tour(n: int, ranks: int, edges: np.ndarray) -> None:
    """Inside one SPMD job: apply batches, refresh, verify bitwise."""
    rng = np.random.default_rng(7)
    batches = [rng.integers(0, n, size=(500, 2), dtype=np.int64)
               for _ in range(3)]

    def job(comm):
        part = VertexBlockPartition(n, comm.size)
        chunk = np.array_split(edges, comm.size)[comm.rank]
        g = build_dist_graph(comm, chunk, part)
        dyn = DynamicDistGraph(comm, g)
        ipr = IncrementalPageRank(comm, dyn, max_iters=15)
        iwcc = IncrementalWCC(comm, dyn)
        log = []
        current = edges
        for new in batches:
            sl = np.array_split(np.arange(len(new)), comm.size)[comm.rank]
            res = dyn.apply(UpdateBatch.inserts(new[sl]))
            current = np.concatenate((current, new))

            t0 = time.perf_counter()
            view = dyn.view()  # merged once per epoch, cached
            t_view = time.perf_counter() - t0
            t0 = time.perf_counter()
            pr = ipr.run()  # the static kernel on that view
            t_pr = time.perf_counter() - t0

            # Ground truth: the same kernel on a from-scratch rebuild of
            # the updated edge list, same partition.
            rchunk = np.array_split(current, comm.size)[comm.rank]
            rebuilt = build_dist_graph(comm, rchunk, part).sort_adjacency()
            ref = pagerank(comm, rebuilt, max_iters=15)
            assert np.array_equal(pr.scores, ref.scores)  # bitwise

            w = iwcc.run()
            log.append((res.epoch, res.m_global, len(view.in_edges),
                        t_view, t_pr, w.mode))

        # A mixed batch: delete some original edges, one of them twice
        # (the second copy usually misses and is reported, not fatal).
        dele = np.concatenate((edges[:200], edges[:1]))
        sl = np.array_split(np.arange(len(dele)), comm.size)[comm.rank]
        res = dyn.apply(UpdateBatch.deletes(dele[sl]))
        w = iwcc.run()
        return log, res, w.mode

    log, res, wmode = run_spmd(ranks, job, timeout=600.0)[0]
    for epoch, m, m_in, t_view, t_pr, wmode_e in log:
        print(f"  epoch {epoch}: m={m:,}  view {t_view * 1e3:6.1f} ms "
              f"({m_in:,} in-edges on rank 0)  pagerank "
              f"{t_pr * 1e3:7.1f} ms (bitwise equal to a rebuild)  "
              f"wcc={wmode_e}")
    print(f"  delete epoch {res.epoch}: -{res.n_deleted} "
          f"(missing {res.n_missing}) m={res.m_global:,}  wcc={wmode}")


def serving_tour(n: int, ranks: int, edges: np.ndarray) -> None:
    rng = np.random.default_rng(11)
    with AnalyticsEngine(ranks, edges=edges, n=n) as eng:
        pr0 = eng.query("pagerank", max_iters=10)["scores"]
        fp0 = eng.fingerprint
        new = rng.integers(0, n, size=(300, 2), dtype=np.int64)
        out = eng.apply_updates(new[:, 0], new[:, 1])
        print(f"  applied {len(new)} updates: epoch {out['epoch']}, "
              f"m={out['m_global']:,}, fingerprint {fp0} -> "
              f"{eng.fingerprint}")
        pr1 = eng.query("pagerank", max_iters=10)["scores"]
        moved = int(np.count_nonzero(pr0 != pr1))
        st = eng.status()["stream"]
        print(f"  post-update pagerank: {moved:,}/{n:,} scores moved; "
              f"cache entries invalidated: {st['cache_invalidated']}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=20_000, help="number of pages")
    ap.add_argument("--ranks", type=int, default=4, help="SPMD ranks")
    args = ap.parse_args()

    edges = webcrawl_edges(args.n, avg_degree=12, seed=1)
    print(f"generated crawl: {args.n:,} pages, {len(edges):,} links")

    print("== dynamic graph inside one SPMD job ==")
    spmd_tour(args.n, args.ranks, edges)

    print("== streaming through the serving engine ==")
    serving_tour(args.n, args.ranks, edges)


if __name__ == "__main__":
    main()
