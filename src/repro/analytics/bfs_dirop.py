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
step (:func:`~repro.analytics.bfs._top_down_step` at k = 1, on the same
one-word ``seen`` array the bottom-up levels mark), so only the bottom-up
search and the switching heuristic live here.  Levels are
identical to :func:`~repro.analytics.bfs.distributed_bfs` and to the
oracle in ``tests/bfs_reference.py`` in every mode (asserted by tests).
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import segment_max
from ..graph.distgraph import DistGraph, GridGraph
from ..runtime import SUM, Communicator
from .bfs import _top_down_step
from .common import NOT_VISITED
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

    levels = np.full(n_loc, NOT_VISITED, dtype=np.int64)
    seen = np.zeros((n_tot, 1), dtype=np.uint64)  # the engine's k = 1 words
    in_frontier = np.zeros(n_tot, dtype=bool)

    frontier = g.to_local(np.array([root_global], dtype=np.int64))
    frontier = frontier[(frontier >= 0) & (frontier < n_loc)]  # owned here
    seen[frontier] = 1

    out_deg = g.out_degrees()
    level = 0
    bottom_up = False
    global_front = comm.allreduce(len(frontier), SUM)

    while global_front > 0:
        # --- heuristic: pick the direction for the *next* expansion. ---
        front_edges = comm.allreduce(int(out_deg[frontier].sum()), SUM)
        unseen = seen[:n_loc, 0] == 0
        unvisited = comm.allreduce(int(np.count_nonzero(unseen)), SUM)
        if not bottom_up and front_edges * alpha > max(unvisited, 1):
            bottom_up = True
        elif bottom_up and global_front < n_global / beta:
            bottom_up = False

        levels[frontier] = level  # settle
        if bottom_up:
            # Publish frontier membership to ghosts, then let every
            # unvisited vertex search its in-edges for a frontier parent.
            in_frontier[:] = False
            in_frontier[frontier] = True
            halo.exchange(in_frontier)
            if g.m_in:
                hit = segment_max(
                    g.in_indexes, in_frontier[g.in_edges].astype(np.int8),
                    empty_value=np.int8(0)).astype(bool)
            else:
                hit = np.zeros(n_loc, dtype=bool)
            frontier = np.flatnonzero(unseen & hit).astype(np.int64)
            seen[frontier] = 1
        else:
            frontier, _ = _top_down_step(comm, g, seen, frontier, None, "out")

        level += 1
        global_front = comm.allreduce(len(frontier), SUM)

    comm.trace.bump("bfs.levels", level)
    return levels
