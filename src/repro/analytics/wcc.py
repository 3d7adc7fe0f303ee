"""Distributed weakly connected components via Multistep (paper §III-D).

The paper parallelizes the Multistep algorithm (Slota et al., IPDPS 2014)
in distributed memory; it "has stages belonging to both classes":

1. **BFS phase** (BFS-like in the paper; no level is read, so it runs as
   one undirected :meth:`~repro.analytics.closure.ClosureAdjacency.reach_from`
   closure): everything the highest-degree vertex reaches is the giant
   component that dominates web-scale graphs.
2. **Coloring phase** (PageRank-like): the remaining vertices repeatedly
   adopt the minimum label among themselves and their neighbors until a
   fixed point — a handful of iterations for the small leftover
   components.

Labels are canonical: every vertex ends with the *minimum global vertex
id* of its weak component, so results are partition- and rank-count-
independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import expand_rows
from ..graph.distgraph import DistGraph, GridGraph
from ..runtime import MIN, SUM, Communicator
from .closure import ClosureAdjacency
from .common import global_max_degree_vertex
from .exchange import HaloExchange

__all__ = ["WCCResult", "wcc"]


@dataclass(frozen=True)
class WCCResult:
    """Per-rank weak-connectivity output."""

    labels: np.ndarray  # min-gid component label per local vertex
    n_color_iters: int  # iterations of the coloring phase
    giant_label: int  # label of the BFS-captured component (-1 if empty graph)


def wcc(
    comm: Communicator,
    g: DistGraph | GridGraph,
    halo: HaloExchange | None = None,
    max_color_iters: int = 10_000,
) -> WCCResult:
    """Label every vertex with the minimum global id of its weak component."""
    if isinstance(g, GridGraph):
        from .frontier2d import grid_wcc

        return grid_wcc(comm, g, max_color_iters=max_color_iters)
    with comm.region("wcc"):
        if halo is None:
            halo = HaloExchange(comm, g)
        n_loc = g.n_loc
        und = ClosureAdjacency(comm, g, halo)

        # --- Phase 1: reach of the max-degree vertex (giant component). ---
        pivot, pivot_deg = global_max_degree_vertex(comm, g)
        labels = g.unmap.astype(np.int64).copy()
        giant_label = -1
        visited = np.zeros(g.n_total, dtype=bool)
        if pivot >= 0 and pivot_deg > 0:
            visited, _ = und.reach_from(pivot)
            mine = visited[:n_loc]
            # Canonical label: global minimum id inside the component.
            local_min = (int(g.unmap[:n_loc][mine].min()) if mine.any()
                         else g.n_global)
            giant_label = int(comm.allreduce(local_min, MIN))
            # The mask's ghost part is current: ghost labels need no exchange.
            labels[visited] = giant_label

        # --- Phase 2: min-label coloring of the leftover vertices. ---
        # Their entries, grouped by row as the adjacency stores them.
        rows = expand_rows(und.indptr)
        keep = ~visited[rows]
        nbrs = und.adj[keep]
        rows, starts = np.unique(rows[keep], return_index=True)
        n_iters = 0
        while n_iters < max_color_iters:
            new_local = labels[:n_loc].copy()
            new_local[rows] = np.minimum(
                new_local[rows], np.minimum.reduceat(labels[nbrs], starts))
            changed = comm.allreduce(
                int(np.count_nonzero(new_local != labels[:n_loc])), SUM)
            if changed == 0:
                break
            labels[:n_loc] = new_local
            # tol=0 delta: late coloring rounds touch few labels, so most
            # iterations ship a sparse (index, label) trickle.
            halo.exchange_delta(labels)
            n_iters += 1

        return WCCResult(labels=labels[:n_loc].copy(), n_color_iters=n_iters,
                         giant_label=giant_label)
