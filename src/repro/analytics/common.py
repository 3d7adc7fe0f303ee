"""Shared helpers for the distributed analytics."""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ..graph.distgraph import DistGraph
from ..runtime import MAXLOC, Communicator

__all__ = [
    "NOT_VISITED",
    "QUEUED",
    "csr_operator",
    "global_max_degree_vertex",
]

# Status-array encoding of the paper's Algorithm 2.
NOT_VISITED = -2
QUEUED = -1


def csr_operator(g: DistGraph, direction: str) -> sparse.csr_array:
    """The propagation operator of ``g`` along ``direction`` (``"in"`` or
    ``"out"``): a CSR matrix with one row per owned vertex, one column per
    owned or ghost vertex and a unit entry per stored edge, over the
    graph's own index arrays (only the unit data is allocated).

    ``A @ x`` is the per-row sum of ``x`` over the row's neighbours, and
    ``A @ X`` the same for every column of an ``(n_total, k)`` block.
    SciPy's CSR product sums each row sequentially in stored order, column
    by column, so a column's result does not depend on ``k`` or on its
    batch-mates.  Built on first use and cached on ``g`` beside the closure
    rows (:meth:`DistGraph.sort_adjacency` drops it).
    """
    op = g.derived.get(("operator", direction))
    if op is None:
        if direction == "in":
            indptr, adj = g.in_indexes, g.in_edges
        elif direction == "out":
            indptr, adj = g.out_indexes, g.out_edges
        else:
            raise ValueError(
                f"direction must be 'in' or 'out', got {direction!r}")
        op = g.derived[("operator", direction)] = sparse.csr_array(
            (np.ones(len(adj)), adj, indptr), shape=(g.n_loc, g.n_total),
            copy=False)
    return op


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

