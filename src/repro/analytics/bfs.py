"""Distributed level-synchronous BFS (paper Algorithm 2) — the one engine.

The BFS-like class of analytics expands a frontier of vertices level by
level.  This engine serves the ones that read levels (Harmonic Centrality,
closeness, betweenness, diameter, the serving layer's batched BFS and the
top-down levels of direction-optimizing BFS); SCC, k-core and phase 1 of
Multistep WCC need only the reached set (:mod:`repro.analytics.closure`).
Per the paper: a task-local queue holds the frontier; a ``Status`` array
encodes unvisited (−2), queued (−1), or the visit level; off-rank
discoveries are shipped to their owners with one ``alltoallv`` per level;
and the loop terminates when an ``allreduce`` of frontier sizes hits zero.

:func:`multi_source_bfs` runs k independent traversals at once — one
``Status`` row and one frontier per source — and shares each level's
``alltoallv`` and termination ``allreduce`` across the batch.
:func:`distributed_bfs` is its k = 1 case, and
:func:`~repro.analytics.bfs_dirop.distributed_bfs_dirop` calls the same
per-level step (:func:`_top_down_step`) for its top-down levels.  The
single-traversal loop this engine replaced — with merged multi-root
traversal, an induced-subgraph mask and a level cap — is kept as the test
oracle ``tests/bfs_reference.py``.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import bucket_order, sorted_unique
from ..graph.distgraph import DistGraph
from ..runtime import SUM, Communicator
from .common import NOT_VISITED, QUEUED

__all__ = ["distributed_bfs", "multi_source_bfs"]


_EMPTY = np.empty(0, dtype=np.int64)


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


def _concat(chunks: list[np.ndarray]) -> np.ndarray:
    """One array of ``chunks`` (a lone chunk is returned uncopied)."""
    if len(chunks) == 1:
        return chunks[0]
    return np.concatenate(chunks) if chunks else _EMPTY


def _top_down_step(
    comm: Communicator,
    g: DistGraph,
    status: np.ndarray,
    frontiers: list[np.ndarray],
    direction: str,
    level: int,
) -> list[np.ndarray]:
    """Settle the frontiers at ``level`` and return the next ones.

    ``status`` has one row per source over local + ghost vertices, and
    ``frontiers[j]`` holds source j's frontier (local ids).  Each source
    gathers its frontier's neighbours, keeps the unvisited ones once each
    and marks them ``QUEUED``.  Ghost discoveries of every source travel to
    their owners in one ``alltoallv`` as ``j * n_global + gid`` codes;
    sorted codes group by source, so the receiver splits them with one
    ``searchsorted``.  At k = 1 a code is the gid itself and neither the
    arithmetic nor the split runs: every single-root BFS takes this path.
    """
    n_loc, n = g.n_loc, g.n_global
    k = len(frontiers)
    nxt = [_EMPTY] * k
    owner_chunks: list[np.ndarray] = []
    code_chunks: list[np.ndarray] = []
    for j, f in enumerate(frontiers):
        if not len(f):
            continue
        row = status[j]
        row[f] = level
        nbrs = _frontier_neighbors(g, f, direction)
        discovered = sorted_unique(nbrs[row[nbrs] == NOT_VISITED])
        row[discovered] = QUEUED
        nxt[j] = discovered[discovered < n_loc]
        ghosts = discovered[discovered >= n_loc]
        if len(ghosts):
            owner_chunks.append(g.ghost_tasks[ghosts - n_loc])
            code_chunks.append(g.unmap[ghosts] + j * n if j else g.unmap[ghosts])

    order, offsets = bucket_order(_concat(owner_chunks), comm.size)
    recv, _ = comm.alltoallv_flat(_concat(code_chunks)[order],
                                  np.diff(offsets))

    if len(recv):
        recv = sorted_unique(recv)  # the same pair may arrive from many ranks
        bounds = (np.searchsorted(recv, np.arange(k + 1) * n) if k > 1
                  else (0, len(recv)))
        for j in range(k):
            codes = recv[bounds[j]:bounds[j + 1]]
            if not len(codes):
                continue
            row = status[j]
            lids = g.map.get(codes - j * n if j else codes)
            new = lids[row[lids] == NOT_VISITED]
            row[new] = QUEUED
            nxt[j] = np.concatenate([nxt[j], new])
    return nxt


def _bfs_status(
    comm: Communicator, g: DistGraph, sources: np.ndarray, direction: str
) -> np.ndarray:
    """Run one traversal per source; return the ``(k, n_total)`` status."""
    if direction not in ("out", "in", "both"):
        raise ValueError(
            f"direction must be 'out', 'in' or 'both', got {direction!r}")
    k, n = len(sources), g.n_global
    if k and (sources.min() < 0 or sources.max() >= n):
        raise ValueError("source id out of range")
    if k and n and k > (2**62) // n:
        raise ValueError("batch too large to pack (source, vertex) codes")
    status = np.full((k, g.n_total), NOT_VISITED, dtype=np.int64)

    # Seed each frontier with its source if this rank owns it.
    mine = np.flatnonzero(g.partition.owner_of(sources) == comm.rank)
    frontiers = [_EMPTY] * k
    for j, lid in zip(mine, g.partition.to_local(comm.rank, sources[mine])):
        frontiers[j] = np.array([lid], dtype=np.int64)

    level = 0
    global_size = comm.allreduce(sum(map(len, frontiers)), SUM)
    while global_size > 0:
        frontiers = _top_down_step(comm, g, status, frontiers, direction,
                                   level)
        level += 1
        global_size = comm.allreduce(sum(map(len, frontiers)), SUM)
    return status


def multi_source_bfs(
    comm: Communicator,
    g: DistGraph,
    sources_global,
    direction: str = "out",
) -> np.ndarray:
    """Level-synchronous BFS from ``k`` global roots simultaneously.

    Every source gets its own independent level column; the k traversals
    share each level's frontier exchange and termination reduction, and
    each source's expansion work is that of a single-source run.

    Parameters
    ----------
    sources_global:
        Array of k global vertex ids (duplicates allowed; each gets its
        own column; k = 0 is legal).
    direction:
        ``"out"`` follows out-edges (distances *from* the sources),
        ``"in"`` follows in-edges (distances *to* the sources along
        original edge directions), ``"both"`` treats edges as undirected.

    Returns
    -------
    levels:
        ``(n_loc, k)`` int64 matrix; ``levels[v, j]`` is the BFS level of
        local vertex ``v`` from source j, or ``NOT_VISITED`` (−2).
    """
    sources = np.atleast_1d(np.asarray(sources_global, dtype=np.int64))
    status = _bfs_status(comm, g, sources, direction)
    return np.ascontiguousarray(status[:, :g.n_loc].T)


def distributed_bfs(
    comm: Communicator, g: DistGraph, root_global: int, direction: str = "out"
) -> np.ndarray:
    """Level-synchronous BFS from one global root: :func:`multi_source_bfs`
    with k = 1.

    Returns the int64 level (≥ 0) of every **local** vertex, or
    ``NOT_VISITED`` (−2) for unreached ones.
    """
    sources = np.array([int(root_global)], dtype=np.int64)
    return _bfs_status(comm, g, sources, direction)[0, :g.n_loc]
