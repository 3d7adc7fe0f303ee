"""Distributed level-synchronous BFS (paper Algorithm 2).

The BFS-like class of analytics expands a frontier of vertices level by
level.  This kernel serves the ones that read levels (Harmonic Centrality,
closeness, betweenness, diameter); SCC, k-core and phase 1 of Multistep WCC
need only the reached set (:mod:`repro.analytics.closure`).  Per the
paper: a task-local queue holds the frontier; a ``Status`` array encodes
unvisited (−2), queued (−1), or the visit level; off-rank discoveries are
shipped to their owners with one ``alltoallv`` per level; and the loop
terminates when an ``allreduce`` of frontier sizes hits zero.

This implementation adds three generalizations the downstream analytics
need: multiple roots (multi-source BFS), a traversal direction selector
(out-edges, in-edges, or both for undirected connectivity), and an optional
``restrict`` mask limiting the traversal to an induced subgraph (used by
the k-core oracle, ``tests/kcore_reference.py``).
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import sorted_unique
from ..graph.distgraph import DistGraph
from ..runtime import SUM, Communicator
from .common import NOT_VISITED, QUEUED

__all__ = ["distributed_bfs"]


def _frontier_neighbors(
    g: DistGraph, frontier: np.ndarray, direction: str
) -> np.ndarray:
    """Concatenated neighbor local-ids of all frontier vertices."""
    chunks = []
    if direction in ("out", "both"):
        indptr, adj = g.out_indexes, g.out_edges
        chunks.append(_gather_ranges(adj, indptr[frontier], indptr[frontier + 1]))
    if direction in ("in", "both"):
        indptr, adj = g.in_indexes, g.in_edges
        chunks.append(_gather_ranges(adj, indptr[frontier], indptr[frontier + 1]))
    if not chunks:
        raise ValueError(f"invalid direction {direction!r}")
    return np.concatenate(chunks) if len(chunks) > 1 else chunks[0]


def _gather_ranges(adj: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate ``adj[starts[i]:ends[i]]`` for all i, vectorized."""
    lens = ends - starts
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=adj.dtype)
    # Index trick: offsets within each range via a running counter.
    out_offsets = np.concatenate(([0], np.cumsum(lens)[:-1]))
    idx = np.arange(total, dtype=np.int64)
    idx += np.repeat(starts - out_offsets, lens)
    return adj[idx]


def distributed_bfs(
    comm: Communicator,
    g: DistGraph,
    roots_global,
    direction: str = "out",
    restrict: np.ndarray | None = None,
    max_levels: int | None = None,
) -> np.ndarray:
    """Level-synchronous BFS from one or more global root vertices.

    Parameters
    ----------
    roots_global:
        Scalar or array of global vertex ids to start from (level 0).
    direction:
        ``"out"`` follows out-edges (distances *from* the roots),
        ``"in"`` follows in-edges (distances *to* the roots along original
        edge directions), ``"both"`` treats edges as undirected.
    restrict:
        Optional boolean mask over local + ghost vertices; only ``True``
        vertices are traversed (roots must satisfy it where owned).
        Ghost entries must be current (halo-exchanged by the caller).
    max_levels:
        Stop after this many levels even if the frontier is non-empty.

    Returns
    -------
    status:
        Int64 array over **local** vertices: the BFS level (≥0) of every
        reached vertex, ``NOT_VISITED`` (−2) for unreached ones.
    """
    if direction not in ("out", "in", "both"):
        raise ValueError(f"direction must be 'out', 'in' or 'both', got {direction!r}")
    n_loc, n_tot = g.n_loc, g.n_total
    status = np.full(n_tot, NOT_VISITED, dtype=np.int64)

    roots = np.atleast_1d(np.asarray(roots_global, dtype=np.int64))
    if len(roots) and (roots.min() < 0 or roots.max() >= g.n_global):
        raise ValueError("root id out of range")
    my_roots = roots[g.partition.owner_of(roots) == comm.rank]
    frontier = g.partition.to_local(comm.rank, my_roots)
    if restrict is not None:
        frontier = frontier[restrict[frontier]]
    status[frontier] = QUEUED

    level = 0
    global_size = comm.allreduce(len(frontier), SUM)
    while global_size > 0:
        if max_levels is not None and level >= max_levels:
            break
        # Settle this level.
        status[frontier] = level

        nbrs = _frontier_neighbors(g, frontier, direction)
        mask = status[nbrs] == NOT_VISITED
        if restrict is not None:
            mask &= restrict[nbrs]
        discovered = sorted_unique(nbrs[mask])
        status[discovered] = QUEUED

        local_next = discovered[discovered < n_loc]
        ghosts = discovered[discovered >= n_loc]

        # Ship ghost discoveries to their owners as global ids.
        owners = g.ghost_tasks[ghosts - n_loc]
        order = np.argsort(owners, kind="stable")
        counts = np.bincount(owners, minlength=comm.size)
        recv_gids, _ = comm.alltoallv_flat(g.unmap[ghosts[order]], counts)

        if len(recv_gids):
            recv_lids = sorted_unique(g.map.get(recv_gids))
            keep = status[recv_lids] == NOT_VISITED
            if restrict is not None:
                keep &= restrict[recv_lids]
            recv_new = recv_lids[keep]
            status[recv_new] = QUEUED
            frontier = np.concatenate([local_next, recv_new])
        else:
            frontier = local_next

        level += 1
        global_size = comm.allreduce(len(frontier), SUM)

    return status[:n_loc]
