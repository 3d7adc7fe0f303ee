"""Shared helpers for the distributed analytics."""

from __future__ import annotations

import numpy as np

from ..graph.distgraph import DistGraph
from ..runtime import MAXLOC, Communicator

__all__ = [
    "NOT_VISITED",
    "QUEUED",
    "global_max_degree_vertex",
]

# Status-array encoding of the paper's Algorithm 2.
NOT_VISITED = -2
QUEUED = -1


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

