"""Distributed level-synchronous BFS (paper Algorithm 2) — the one engine.

The BFS-like class of analytics expands a frontier of vertices level by
level.  This engine serves the ones that read levels (Harmonic Centrality,
closeness, betweenness, diameter, the serving layer's batched BFS and the
top-down levels of direction-optimizing BFS); SCC, k-core and phase 1 of
Multistep WCC need only the reached set (:mod:`repro.analytics.closure`).
Per the paper: a task-local queue holds the frontier; off-rank discoveries
are shipped to their owners with one ``alltoallv`` per level; and the loop
terminates when an ``allreduce`` of frontier sizes hits zero.

:func:`multi_source_bfs` runs k independent traversals at once on 64-bit
frontier words (Buluç & Madduri's bitmap frontier): bit j of a vertex's
``seen`` word row is set once source j's traversal has reached it, and
the frontier is one list of vertices, each with the word row of the
sources that reached it at this level.  A level gathers the neighbour
rows of the *union* frontier once, keeps ``words & ~seen[nbr]`` and
OR-reduces it by target, so k sources cost one traversal's gathers plus
word arithmetic.  Ghost discoveries travel to their owners as ``(gid,
words)`` rows in the one shared ``alltoallv`` (Sharma's compressed
frontier exchange), where the owner OR-merges them.  Each level's
frontier words are ORed into one bit plane per set bit of the level
number, and the levels are decoded from the planes once, after the last
level.  At k = 1 every word is 1, so the step
carries no word arrays and ships bare gids: :func:`distributed_bfs`,
betweenness, diameter and
:func:`~repro.analytics.bfs_dirop.distributed_bfs_dirop` (whose top-down
levels call :func:`_top_down_step`) keep the single-traversal cost and
wire format.  The single-traversal loop this engine replaced — with merged
multi-root traversal, an induced-subgraph mask and a level cap — is kept
as the test oracle ``tests/bfs_reference.py``.

The trace counters ``bfs.levels`` (levels per traversal, shared by a
batch) and ``bfs.ghost_words`` (ghost-discovery words shipped; one per gid
at k = 1) are bumped into ``comm.trace.counters``.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import bucket_order, sorted_unique
from ..graph.distgraph import DistGraph
from ..runtime import SUM, Communicator
from .common import NOT_VISITED

__all__ = ["distributed_bfs", "multi_source_bfs"]


_WORD = 64  # sources per frontier word


def _adjacencies(g: DistGraph, direction: str):
    """The ``(indptr, adj)`` CSRs a traversal in ``direction`` follows."""
    if direction == "out":
        return ((g.out_indexes, g.out_edges),)
    if direction == "in":
        return ((g.in_indexes, g.in_edges),)
    if direction == "both":
        return ((g.out_indexes, g.out_edges), (g.in_indexes, g.in_edges))
    raise ValueError(f"invalid direction {direction!r}")


def _frontier_neighbors(
    g: DistGraph, frontier: np.ndarray, direction: str
) -> np.ndarray:
    """Concatenated neighbor local-ids of all frontier vertices."""
    return _concat([_gather_ranges(adj, indptr[frontier],
                                   indptr[frontier + 1])
                    for indptr, adj in _adjacencies(g, direction)])


def _frontier_words(
    g: DistGraph, frontier: np.ndarray, words: np.ndarray, direction: str
) -> np.ndarray:
    """Each neighbour of :func:`_frontier_neighbors`, in its order, paired
    with the word row of the frontier vertex it was reached from."""
    return _concat([np.repeat(words, indptr[frontier + 1] - indptr[frontier],
                              axis=0)
                    for indptr, _ in _adjacencies(g, direction)])


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
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def _nonzero_rows(words: np.ndarray) -> np.ndarray:
    """Indices of the rows of ``words`` with any bit set."""
    acc = words[:, 0]
    for w in range(1, words.shape[1]):
        acc = acc | words[:, w]
    # flatnonzero scans a bool array far faster than a uint64 one
    return np.flatnonzero(acc != 0)


def _or_into(
    seen: np.ndarray, lids: np.ndarray, words: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """OR the word rows ``words`` into ``seen`` at ``lids`` (repeats
    allowed); return the distinct lids that gained a bit, each with the
    bits it gained.

    No sort: the representative of a lid is the entry whose index
    survives a scatter of the entry indices (whichever survives), and the
    OR is one unbuffered ``bitwise_or.at``.
    """
    if not len(lids):
        return lids, words
    idx = np.arange(len(lids))
    pos = np.empty(len(seen), dtype=np.int64)
    pos[lids] = idx
    distinct = lids[np.flatnonzero(pos[lids] == idx)]
    before = np.take(seen, distinct, axis=0)
    np.bitwise_or.at(seen, lids, words)
    gained = np.take(seen, distinct, axis=0)
    gained &= ~before
    keep = _nonzero_rows(gained)
    return distinct[keep], np.take(gained, keep, axis=0)


def _top_down_step(
    comm: Communicator,
    g: DistGraph,
    seen: np.ndarray,
    lids: np.ndarray,
    words: np.ndarray | None,
    direction: str,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Expand the frontier ``(lids, words)`` one level; return the next.

    ``seen`` is the ``(n_total, W)`` ``uint64`` word array over local +
    ghost vertices; ``words[i]`` holds the sources whose traversal reached
    owned vertex ``lids[i]`` at this level (distinct ``lids``).  The union
    frontier's neighbours keep ``words & ~seen[nbr]``; the ghost entries
    are OR-merged into ``seen`` and go to their owners as one ``(gid,
    words)`` ``uint64`` row per ghost in one ``alltoallv``, and the owner
    OR-merges what it receives together with its own entries.  A ghost's
    bits in ``seen`` only ever mean "already shipped".

    ``words=None`` is the k = 1 frontier, whose every word is 1: the step
    keeps no word arrays, ``seen`` is read as one flag per vertex and the
    ghost discoveries travel as bare gids.
    """
    n_loc = g.n_loc
    nbrs = _frontier_neighbors(g, lids, direction)
    if words is None:
        flags = seen.reshape(-1)
        found = sorted_unique(nbrs[flags[nbrs] == 0])
        flags[found] = 1
        cut = int(np.searchsorted(found, n_loc))
        nxt, ghosts = found[:cut], found[cut:]
        send = g.unmap[ghosts]
    else:
        fresh = _frontier_words(g, lids, words, direction)
        fresh &= ~np.take(seen, nbrs, axis=0)
        keep = _nonzero_rows(fresh)
        nbrs, fresh = nbrs[keep], np.take(fresh, keep, axis=0)
        ghost = nbrs >= n_loc
        mine, theirs = np.flatnonzero(~ghost), np.flatnonzero(ghost)
        nxt, nxt_words = nbrs[mine], np.take(fresh, mine, axis=0)
        ghosts, ghost_words = _or_into(seen, nbrs[theirs],
                                       np.take(fresh, theirs, axis=0))
        send = np.empty((len(ghosts), 1 + seen.shape[1]), dtype=np.uint64)
        send[:, 0] = g.unmap[ghosts]
        send[:, 1:] = ghost_words
    comm.trace.bump("bfs.ghost_words", len(ghosts) * seen.shape[1])
    order, offsets = bucket_order(g.ghost_tasks[ghosts - n_loc], comm.size)
    recv, _ = comm.alltoallv_flat(send[order], np.diff(offsets))

    if words is None:
        if len(recv):
            # The same gid may arrive from many ranks.
            new = g.map.get(sorted_unique(recv))
            new = new[flags[new] == 0]
            flags[new] = 1
            nxt = np.concatenate([nxt, new])
        return nxt, None
    if len(recv):
        nxt = np.concatenate([nxt, g.map.get(recv[:, 0].astype(np.int64))])
        nxt_words = np.concatenate([nxt_words, recv[:, 1:]])
    return _or_into(seen, nxt, nxt_words)


def _settle(levels: np.ndarray, planes: list[np.ndarray], lids: np.ndarray,
            words: np.ndarray | None, level: int) -> None:
    """Record ``level`` for every (vertex, source) bit of the frontier.

    At k = 1 the level is written to ``levels`` directly.  Otherwise bit
    p of ``level`` is ORed into ``planes[p]``, a word array over the owned
    vertices, for each set bit p: per level that is a few word rows per
    frontier vertex, not k level cells, and :func:`_decode_levels` turns
    the planes into levels once, after the last level.
    """
    if words is None:
        levels.reshape(-1)[lids] = level
        return
    for p in range(level.bit_length()):
        if p == len(planes):
            planes.append(np.zeros((len(levels), words.shape[1]),
                                   dtype=np.uint64))
        if level >> p & 1:
            planes[p][lids] |= words


def _decode_levels(levels: np.ndarray, planes: list[np.ndarray],
                   reached: np.ndarray) -> None:
    """Fill ``levels`` from the bit planes of :func:`_settle` wherever the
    owned vertices' ``seen`` words (``reached``) say a source got there."""
    k = levels.shape[1]

    def bits(words: np.ndarray) -> np.ndarray:
        return np.unpackbits(words.astype("<u8", copy=False).view(np.uint8),
                             axis=1, count=k, bitorder="little")

    decoded = np.zeros(levels.shape, dtype=np.int64)
    for p, plane in enumerate(planes):
        decoded += bits(plane).astype(np.int64) << p
    np.copyto(levels, decoded, where=bits(reached).view(bool))


def _bfs_levels(
    comm: Communicator, g: DistGraph, sources: np.ndarray, direction: str
) -> np.ndarray:
    """Run one traversal per source; return the ``(n_loc, k)`` levels."""
    if direction not in ("out", "in", "both"):
        raise ValueError(
            f"direction must be 'out', 'in' or 'both', got {direction!r}")
    k, n = len(sources), g.n_global
    if k and (sources.min() < 0 or sources.max() >= n):
        raise ValueError("source id out of range")
    levels = np.full((g.n_loc, k), NOT_VISITED, dtype=np.int64)
    seen = np.zeros((g.n_total, -(-k // _WORD)), dtype=np.uint64)

    # Seed the frontier with the sources this rank owns (local id < n_loc).
    lids = g.to_local(sources)
    mine = np.flatnonzero((lids >= 0) & (lids < g.n_loc))
    lids = lids[mine]
    words = None
    if k == 1:
        seen[lids] = 1
    else:
        words = np.zeros((len(mine), seen.shape[1]), dtype=np.uint64)
        words[np.arange(len(mine)), mine // _WORD] = (
            np.uint64(1) << (mine % _WORD).astype(np.uint64))
        lids, words = _or_into(seen, lids, words)  # duplicated sources

    level = 0
    planes: list[np.ndarray] = []
    global_size = comm.allreduce(len(lids), SUM)
    while global_size > 0:
        _settle(levels, planes, lids, words, level)
        lids, words = _top_down_step(comm, g, seen, lids, words, direction)
        level += 1
        global_size = comm.allreduce(len(lids), SUM)
    comm.trace.bump("bfs.levels", level)
    if k > 1:
        _decode_levels(levels, planes, seen[:g.n_loc])
    return levels


def multi_source_bfs(
    comm: Communicator,
    g: DistGraph,
    sources_global,
    direction: str = "out",
) -> np.ndarray:
    """Level-synchronous BFS from ``k`` global roots simultaneously.

    Every source gets its own independent level column; the k traversals
    share each level's neighbour gather, frontier exchange and
    termination reduction (one ``alltoallv`` and one ``allreduce`` per
    level at any k).

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
    return _bfs_levels(comm, g, sources, direction)


def distributed_bfs(
    comm: Communicator, g: DistGraph, root_global: int, direction: str = "out"
) -> np.ndarray:
    """Level-synchronous BFS from one global root: :func:`multi_source_bfs`
    with k = 1.

    Returns the int64 level (≥ 0) of every **local** vertex, or
    ``NOT_VISITED`` (−2) for unreached ones.
    """
    sources = np.array([int(root_global)], dtype=np.int64)
    return _bfs_levels(comm, g, sources, direction).reshape(-1)
