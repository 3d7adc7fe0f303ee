"""Distributed level-synchronous BFS (paper Algorithm 2) — the one engine.

The BFS-like class of analytics expands a frontier of vertices level by
level.  This engine serves the ones that read levels (Harmonic Centrality,
closeness, betweenness, diameter, the serving layer's batched BFS and the
top-down levels of direction-optimizing BFS); SCC, k-core and phase 1 of
Multistep WCC need only the reached set (:mod:`repro.analytics.closure`).
The paper ships off-rank discoveries to their owners with one
``alltoallv`` per level and ends the loop when an ``allreduce`` of
frontier sizes hits zero.  Here a level is one collective: the ghost
slots travel back to their owners over the halo's retained queues
(:meth:`~repro.analytics.exchange.HaloExchange.reverse`), dense, one
value per ghost slot, aligned with the owner's retained send list, so
the owner needs no id translation; and the flag row each rank sends
every peer in the same execute ("I discovered something") ends the
loop.  A set flag whose discoveries all turn out known to their owners
costs one trailing empty level.

:func:`multi_source_bfs` runs k independent traversals at once on 64-bit
frontier words (Buluç & Madduri's bitmap frontier): bit j of a vertex's
``seen`` word row is set once source j's traversal has reached it, and
the frontier is one list of vertices, each with the word row of the
sources that reached it at this level.  A level gathers the neighbour
rows of the *union* frontier once, keeps ``words & ~seen[nbr]`` and
OR-reduces it by target, so k sources cost one traversal's gathers plus
word arithmetic.  Each ghost slot ships the word row of the bits it
newly gained (zero for the rest), and the owner OR-merges what it
receives.  Each level's frontier words are ORed into one bit plane per
set bit of the level number, and the levels are decoded from the planes
once, after the last level.  At k = 1 every word is 1, so ``seen`` is
one bool per vertex, a level's discoveries are a bool mask and the ghost
slots ship as bool flags: :func:`distributed_bfs`, betweenness, diameter
and :func:`~repro.analytics.bfs_dirop.distributed_bfs_dirop` (whose
top-down levels call :func:`_top_down_step`) take that step.  The
single-traversal loop this engine replaced — with merged multi-root
traversal, an induced-subgraph mask and a level cap — is kept as the
test oracle ``tests/bfs_reference.py``.

The trace counters ``bfs.levels`` (levels expanded per traversal, a
trailing empty one included, shared by a batch) and ``bfs.ghost_words``
(words shipped to peers: ghost slots plus peer flags per level, times
the words per row; a word is one bool at k = 1) are bumped into
``comm.trace.counters``.
"""

from __future__ import annotations

import numpy as np

from ..graph.distgraph import DistGraph
from ..runtime import Communicator
from .common import NOT_VISITED
from .exchange import HaloExchange, halo_of

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
    g: DistGraph,
    halo: HaloExchange,
    seen: np.ndarray,
    lids: np.ndarray,
    words: np.ndarray | None,
    direction: str,
) -> tuple[np.ndarray, np.ndarray | None, bool]:
    """Expand the frontier ``(lids, words)`` one level; return the next
    and whether any rank discovered anything.

    ``seen`` is the ``(n_total, W)`` ``uint64`` word array over local +
    ghost vertices; ``words[i]`` holds the sources whose traversal reached
    owned vertex ``lids[i]`` at this level (distinct ``lids``).  The union
    frontier's neighbours keep ``words & ~seen[nbr]``; the ghost entries
    are OR-merged into ``seen``, and every ghost slot's newly gained bits
    go back to its owner in one :meth:`HaloExchange.reverse` (zero rows
    for the rest), aligned with the owner's retained send list, so the
    owner reads them with no id translation and OR-merges them together
    with its own entries.  A ghost's bits in ``seen`` only ever mean
    "already shipped".  The same execute carries each rank's flag, "I
    discovered something"; when no flag is set the traversal is over.  A
    set flag can still lead to one empty level, when every discovery was
    a ghost its owner already had.

    ``words=None`` is the k = 1 frontier, whose every word is 1: ``seen``
    is one bool per vertex, the level's discoveries are a bool mask and
    the ghost slots ship as bool flags.
    """
    n_loc = g.n_loc
    nbrs = _frontier_neighbors(g, lids, direction)
    if words is None:
        hit = np.zeros(len(seen), dtype=bool)
        hit[nbrs] = True
        hit &= ~seen
        seen |= hit
        rows, flags = halo.reverse(hit[n_loc:], hit.any())
        got = halo.send_lids[rows]
        got = got[~seen[got]]
        hit[got] = True
        seen[got] = True
        return np.flatnonzero(hit[:n_loc]), None, bool(flags.any())

    fresh = _frontier_words(g, lids, words, direction)
    fresh &= ~np.take(seen, nbrs, axis=0)
    keep = _nonzero_rows(fresh)
    nbrs, fresh = nbrs[keep], np.take(fresh, keep, axis=0)
    ghost = nbrs >= n_loc
    mine, theirs = np.flatnonzero(~ghost), np.flatnonzero(ghost)
    ghosts, ghost_words = _or_into(seen, nbrs[theirs],
                                   np.take(fresh, theirs, axis=0))
    out = np.zeros((g.n_gst, seen.shape[1]), dtype=np.uint64)
    out[ghosts - n_loc] = ghost_words
    rows, flags = halo.reverse(out, len(nbrs) > 0)
    got = _nonzero_rows(rows)
    nxt = np.concatenate([nbrs[mine], halo.send_lids[got]])
    nxt_words = np.concatenate([np.take(fresh, mine, axis=0),
                                np.take(rows, got, axis=0)])
    return (*_or_into(seen, nxt, nxt_words), bool(flags.any()))


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


def _owned(g: DistGraph, gids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions in ``gids`` of the ids this rank owns, and their
    local ids, by partition arithmetic (owned local ids follow the
    partition's ascending owned list)."""
    mine = np.flatnonzero(g.partition.owner_of(gids) == g.rank)
    return mine, g.partition.to_local(g.rank, gids[mine])


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
    if not k:
        return levels
    halo = halo_of(comm, g)

    # Seed the frontier with the sources this rank owns.
    mine, lids = _owned(g, sources)
    words = None
    if k == 1:
        seen = np.zeros(g.n_total, dtype=bool)
        seen[lids] = True
    else:
        seen = np.zeros((g.n_total, -(-k // _WORD)), dtype=np.uint64)
        words = np.zeros((len(mine), seen.shape[1]), dtype=np.uint64)
        words[np.arange(len(mine)), mine // _WORD] = (
            np.uint64(1) << (mine % _WORD).astype(np.uint64))
        lids, words = _or_into(seen, lids, words)  # duplicated sources

    level = 0
    planes: list[np.ndarray] = []
    more = True  # a valid source starts every traversal
    while more:
        _settle(levels, planes, lids, words, level)
        lids, words, more = _top_down_step(g, halo, seen, lids, words,
                                           direction)
        level += 1
    comm.trace.bump("bfs.levels", level)
    comm.trace.bump("bfs.ghost_words",
                    level * (g.n_gst + comm.size - 1) * -(-k // _WORD))
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
