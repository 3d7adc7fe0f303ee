"""Shared helpers for the distributed analytics."""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ..graph.distgraph import DistGraph, GridGraph
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


def csr_operator(g: DistGraph | GridGraph,
                 direction: str) -> sparse.csr_array:
    """The propagation operator of ``g`` along ``direction``: a CSR matrix
    with a unit entry per stored edge, over the graph's own index arrays
    (only the unit data is allocated).

    On a :class:`DistGraph` the direction is ``"in"`` or ``"out"``: one
    row per owned vertex, one column per owned or ghost vertex.  On a
    :class:`GridGraph` it is ``"bu"``, the block's bottom-up CSR: one row
    per row-slice vertex, one column per column-slice vertex (the grid
    BFS pulls through it).

    ``A @ x`` is the per-row sum of ``x`` over the row's neighbours, and
    ``A @ X`` the same for every column of an ``(n_total, k)`` block.
    SciPy's CSR product sums each row sequentially in stored order, column
    by column, so a column's result does not depend on ``k`` or on its
    batch-mates.  Built on first use and cached on ``g`` beside the closure
    rows (:meth:`DistGraph.sort_adjacency` drops it).
    """
    op = g.derived.get(("operator", direction))
    if op is None:
        if isinstance(g, GridGraph) and direction == "bu":
            indptr, adj, shape = g.bu_indexes, g.bu_edges, (g.n_row, g.n_col)
        elif isinstance(g, DistGraph) and direction in ("in", "out"):
            indptr, adj = ((g.in_indexes, g.in_edges) if direction == "in"
                           else (g.out_indexes, g.out_edges))
            shape = (g.n_loc, g.n_total)
        else:
            raise ValueError(f"no {direction!r} operator on a "
                             f"{type(g).__name__}")
        op = g.derived[("operator", direction)] = sparse.csr_array(
            (np.ones(len(adj)), adj, indptr), shape=shape, copy=False)
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

