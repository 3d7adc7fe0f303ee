"""Direction-optimizing distributed BFS (Beamer-style; paper §III-D2).

The paper deliberately "omit[s] BFS-specific optimizations in our current
work" and cites the Graph500 line of research; this module supplies the
most important of those optimizations as the natural extension: switching
from *top-down* frontier expansion to *bottom-up* parent search when the
frontier covers a large fraction of the graph.

Top-down (Algorithm 2): every frontier vertex scans its out-edges; cost
∝ edges out of the frontier.
Bottom-up: every unvisited vertex scans its in-edges for any frontier
member and claims a level if one is found; cost ∝ edges into the
unvisited set, which is far smaller near the traversal's peak levels.

The distributed twist: bottom-up needs each rank to know which of its
*ghosts* are in the current frontier, so each level in bottom-up mode
refreshes a frontier flag array with a retained-queue halo exchange instead
of shipping discovered vertices.  A top-down level is the BFS engine's own
step (:func:`~repro.analytics.bfs._top_down_step` at k = 1), so only the
bottom-up search and the switching heuristic live here.  Levels are
identical to :func:`~repro.analytics.bfs.distributed_bfs` and to the
oracle in ``tests/bfs_reference.py`` in every mode (asserted by tests).
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import segment_max
from ..graph.distgraph import DistGraph, GridGraph
from ..runtime import SUM, Communicator
from .bfs import _top_down_step
from .common import NOT_VISITED, QUEUED
from .exchange import HaloExchange

__all__ = ["distributed_bfs_dirop"]


def distributed_bfs_dirop(
    comm: Communicator,
    g: DistGraph | GridGraph,
    root_global: int,
    alpha: float = 15.0,
    beta: float = 20.0,
    halo: HaloExchange | None = None,
) -> np.ndarray:
    """Direction-optimizing BFS over out-edges from one root.

    Parameters
    ----------
    alpha:
        Switch to bottom-up once (frontier out-edges) × alpha exceeds the
        unvisited vertices' edge mass (Beamer's heuristic, simplified to
        global counts).
    beta:
        Switch back to top-down once the frontier shrinks below
        ``n / beta``.

    Returns
    -------
    Per-local-vertex levels, identical to the top-down kernel's output.
    """
    if isinstance(g, GridGraph):
        # 2-D checkerboard block: same heuristic, row/column-subgroup
        # frontier exchanges instead of halo/alltoallv (lazy import; the
        # grid kernels live beside the other frontier-idiom ports).
        from .frontier2d import grid_bfs_dirop

        return grid_bfs_dirop(comm, g, root_global, alpha=alpha, beta=beta)
    if not (0 <= root_global < g.n_global):
        raise ValueError("root out of range")
    if halo is None:
        halo = HaloExchange(comm, g)
    n_loc, n_tot = g.n_loc, g.n_total
    n_global = g.n_global

    status = np.full(n_tot, NOT_VISITED, dtype=np.int64)
    in_frontier = np.zeros(n_tot, dtype=bool)

    if g.partition.owner_of(np.array([root_global]))[0] == comm.rank:
        lid = int(g.partition.to_local(comm.rank, np.array([root_global]))[0])
        frontier = np.array([lid], dtype=np.int64)
        status[lid] = QUEUED
    else:
        frontier = np.empty(0, dtype=np.int64)

    out_deg = g.out_degrees()
    level = 0
    bottom_up = False
    global_front = comm.allreduce(len(frontier), SUM)

    while global_front > 0:
        # --- heuristic: pick the direction for the *next* expansion. ---
        front_edges = comm.allreduce(int(out_deg[frontier].sum()), SUM)
        unvisited = comm.allreduce(
            int(np.count_nonzero(status[:n_loc] == NOT_VISITED)), SUM)
        if not bottom_up and front_edges * alpha > max(unvisited, 1):
            bottom_up = True
        elif bottom_up and global_front < n_global / beta:
            bottom_up = False

        if bottom_up:
            # Settle, publish frontier membership to ghosts, then let every
            # unvisited vertex search its in-edges for a frontier parent.
            status[frontier] = level
            in_frontier[:] = False
            in_frontier[frontier] = True
            halo.exchange(in_frontier)
            candidates = status[:n_loc] == NOT_VISITED
            if g.m_in:
                hit = segment_max(
                    g.in_indexes, in_frontier[g.in_edges].astype(np.int8),
                    empty_value=np.int8(0)).astype(bool)
            else:
                hit = np.zeros(n_loc, dtype=bool)
            next_frontier = np.flatnonzero(candidates & hit).astype(np.int64)
            status[next_frontier] = QUEUED
            frontier = next_frontier
        else:
            frontier, = _top_down_step(comm, g, status[None], [frontier],
                                       "out", level)

        level += 1
        global_front = comm.allreduce(len(frontier), SUM)

    return status[:n_loc]
