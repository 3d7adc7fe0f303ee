"""Shared helpers for the distributed analytics."""

from __future__ import annotations

import numpy as np

from ..graph.csr import expand_rows
from ..graph.distgraph import DistGraph
from ..runtime import MAXLOC, SUM, Communicator

__all__ = [
    "NOT_VISITED",
    "QUEUED",
    "combined_adjacency",
    "global_max_degree_vertex",
]

# Status-array encoding of the paper's Algorithm 2.
NOT_VISITED = -2
QUEUED = -1


def combined_adjacency(g: DistGraph, direction: str) -> tuple[np.ndarray, np.ndarray]:
    """(rows, neighbors) flat adjacency pairs of local vertices.

    ``direction`` selects out-edges, in-edges, or the concatenation of both
    (the undirected view used by WCC, Label Propagation and k-core).
    """
    if direction == "out":
        return expand_rows(g.out_indexes), g.out_edges
    if direction == "in":
        return expand_rows(g.in_indexes), g.in_edges
    if direction == "both":
        rows = np.concatenate(
            [expand_rows(g.out_indexes), expand_rows(g.in_indexes)])
        nbrs = np.concatenate([g.out_edges, g.in_edges])
        return rows, nbrs
    raise ValueError(f"direction must be 'out', 'in' or 'both', got {direction!r}")


def global_max_degree_vertex(
    comm: Communicator,
    g: DistGraph,
    restrict: np.ndarray | None = None,
) -> tuple[int, int]:
    """Global id and degree of the highest-total-degree vertex.

    ``restrict`` optionally masks local vertices (e.g. "still alive" in
    FW–BW trimming or k-core peeling).  Ties break to the lowest global id.
    Returns ``(-1, -1)`` if no vertex is eligible anywhere.
    """
    deg = g.total_degrees()
    if restrict is not None:
        deg = np.where(restrict[: g.n_loc], deg, -1)
    if len(deg):
        i = int(np.argmax(deg))
        local_best = (int(deg[i]), int(g.unmap[i]))
    else:
        local_best = (-1, g.n_global)  # worse than any real candidate
    # MAXLOC keeps the lowest "index" (here: global id) on value ties.
    best_deg, best_gid = comm.allreduce(local_best, MAXLOC)
    if best_deg < 0:
        return -1, -1
    return int(best_gid), int(best_deg)


def global_sum(comm: Communicator, value) -> int:
    """Convenience allreduce(SUM) for scalar counters."""
    return comm.allreduce(value, SUM)
