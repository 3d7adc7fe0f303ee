"""Distributed weakly connected components via Multistep (paper §III-D).

The paper parallelizes the Multistep algorithm (Slota et al., IPDPS 2014)
in distributed memory; it "has stages belonging to both classes":

1. **BFS phase** (BFS-like in the paper; no level is read, so it runs as
   one undirected :meth:`~repro.analytics.closure.ClosureAdjacency.reach_from`
   closure): everything the highest-degree vertex reaches is the giant
   component that dominates web-scale graphs.
2. **Coloring phase** (PageRank-like in the paper): the remaining
   vertices adopt the minimum label among themselves and their
   neighbors until a fixed point.  Min-label propagation is a monotone
   closure, so it runs as one
   :meth:`~repro.analytics.closure.ClosureAdjacency.propagate_min` over
   the leftover vertices: local fixed points between halo exchanges, a
   row read again only when its vertex's label fell, instead of every
   leftover row re-reduced once per iteration.

Labels are canonical: every vertex ends with the *minimum global vertex
id* of its weak component, so results are partition- and rank-count-
independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.distgraph import DistGraph, GridGraph
from ..runtime import MIN, Communicator
from .closure import ClosureAdjacency
from .common import global_max_degree_vertex

__all__ = ["WCCResult", "wcc"]


@dataclass(frozen=True)
class WCCResult:
    """Per-rank weak-connectivity output."""

    labels: np.ndarray  # min-gid component label per local vertex
    supersteps: int  # synchronization points of the call (see ``wcc``)
    giant_label: int  # label of the BFS-captured component (-1 if empty graph)


def wcc(
    comm: Communicator,
    g: DistGraph | GridGraph,
) -> WCCResult:
    """Label every vertex with the minimum global id of its weak component.

    ``supersteps`` counts the closures' supersteps (the giant's reach and
    the coloring); on a :class:`GridGraph` it is
    :func:`~repro.analytics.frontier2d.grid_wcc`'s coloring iterations.
    """
    if isinstance(g, GridGraph):
        from .frontier2d import grid_wcc

        return grid_wcc(comm, g)
    with comm.region("wcc"):
        n_loc = g.n_loc
        und = ClosureAdjacency(comm, g)

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
        # The giant is a whole component: no leftover row reaches it.
        und.keep_only(~visited)
        und.propagate_min(labels)
        return WCCResult(labels=labels[:n_loc].copy(),
                         supersteps=und.supersteps, giant_label=giant_label)
