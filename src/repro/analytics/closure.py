"""Monotone closures by local-fixed-point supersteps (k-core primitives).

Both halves of the k-core sweep — "peel every vertex whose alive degree is
below ``k``" and "the component containing the pivot" — are *monotone
closures*: a flag per vertex flips one way only, a flip can only enable
further flips, and the final set is a function of the graph alone, not of
the order flips are discovered in.  A BSP kernel discovers one hop per
collective round; because the result is order-independent, a rank may
instead run its part of the closure to a **local fixed point** with no
communication, and only then synchronize — the block-centric schedule
Ammar & Özsu measured ahead of vertex-centric engines (PAPERS.md), with
the bucketed-frontier peeling of Dhulipala et al.: every stored edge is
touched O(1) times per closure instead of once per round.

:class:`UndirectedAdjacency` is the data structure both closures walk: one
CSR over ``n_loc + n_gst`` rows.  An owned row lists the vertex's out- and
in-neighbours; a *ghost* row lists the owned vertices adjacent to that
ghost.  Information crosses ranks in one direction only — owner to ghost
copy, the halo exchange — and the ghost rows let the receiving rank carry
a flipped ghost's consequences to its own vertices.  (The cut edge is
stored on both sides, so neither side ever needs to write to a ghost.)

**Superstep protocol** (identical for both closures)::

    loop:
        run the frontier to a local fixed point      # no communication
        total = allreduce(owned flips this superstep, SUM)
        if total == 0: break                         # global fixed point
        halo.exchange(flag array)                    # owners -> ghosts
        frontier = ghosts that flipped in the exchange

The exit test is the allreduced count, so every rank leaves at the same
superstep and the collective schedule is identical everywhere.  On a
single rank the first superstep does all the work and the second one's
zero count confirms it.
"""

from __future__ import annotations

import numpy as np

from ..graph.distgraph import DistGraph
from ..runtime import SUM, Communicator
from .bfs import _gather_ranges
from .exchange import HaloExchange

__all__ = ["UndirectedAdjacency"]

#: Degree stored for ghost rows: never below any threshold, so a ghost is
#: never selected for peeling locally (only its owner may remove it).
_GHOST_DEGREE = np.iinfo(np.int64).max // 2


class UndirectedAdjacency:
    """Undirected view of ``g`` plus the alive/degree state of a sweep.

    Built per kernel call (a temporary — nothing is cached on the graph).
    ``alive`` covers owned and ghost vertices and is current on both at
    every closure's return; ``degree[v]`` is, for every alive owned ``v``,
    the number of entries in its row (out + in, with multiplicity) whose
    neighbour is alive — maintained by decrement, never recomputed.

    ``supersteps`` and ``edges_scanned`` accumulate over the instance's
    closures; each closure reads every stored entry at most once (a row is
    gathered when its vertex flips, and a vertex flips once).
    """

    def __init__(self, comm: Communicator, g: DistGraph, halo: HaloExchange):
        self.comm = comm
        self.g = g
        self.halo = halo
        n_loc, n_tot = g.n_loc, g.n_total
        out_ptr, in_ptr = g.out_indexes, g.in_indexes
        m_out, m_in = len(g.out_edges), len(g.in_edges)

        # Owned rows: out-run then in-run of each vertex.  Entry e of the
        # out-CSR (row r) lands at e + in_ptr[r], entry e of the in-CSR at
        # e + out_ptr[r + 1] — pure index arithmetic, no sort.
        own_ptr = out_ptr + in_ptr
        own_adj = np.empty(m_out + m_in, dtype=np.int64)
        own_adj[np.arange(m_out, dtype=np.int64)
                + np.repeat(in_ptr[:-1], np.diff(out_ptr))] = g.out_edges
        own_adj[np.arange(m_in, dtype=np.int64)
                + np.repeat(out_ptr[1:], np.diff(in_ptr))] = g.in_edges

        # Ghost rows: the owned endpoint of every cut entry, grouped by
        # ghost with a stable sort of the cut entries only.
        cut = np.flatnonzero(own_adj >= n_loc)
        ghost = own_adj[cut] - n_loc
        order = np.argsort(ghost, kind="stable")
        cut_rows = np.searchsorted(own_ptr, cut[order], side="right") - 1
        ghost_ptr = np.cumsum(np.bincount(ghost, minlength=g.n_gst))

        self.indptr = np.concatenate((own_ptr, own_ptr[-1] + ghost_ptr))
        self.adj = np.concatenate((own_adj, cut_rows))
        self.alive = np.ones(n_tot, dtype=bool)
        self.degree = np.full(n_tot, _GHOST_DEGREE, dtype=np.int64)
        self.degree[:n_loc] = np.diff(own_ptr)
        self.supersteps = 0
        self.edges_scanned = 0
        self._slot = np.empty(n_tot, dtype=np.int64)

    @property
    def n_entries(self) -> int:
        """Stored undirected entries, ghost rows included."""
        return len(self.adj)

    # ------------------------------------------------------------------
    def _neighbors(self, rows: np.ndarray) -> np.ndarray:
        """Concatenated rows of ``rows`` (each read counted once)."""
        nbrs = _gather_ranges(self.adj, self.indptr[rows],
                              self.indptr[rows + 1])
        self.edges_scanned += len(nbrs)
        return nbrs

    def _distinct(self, lids: np.ndarray) -> np.ndarray:
        """``lids`` without repeats, in O(len) — each position claims its
        id's slot and exactly one claimant per id reads its own mark back.
        (``np.unique`` sorts; this was the closure's top cost.)"""
        if len(lids) < 2:
            return lids
        mark = np.arange(len(lids), dtype=np.int64)
        self._slot[lids] = mark
        return lids[self._slot[lids] == mark]

    def _synchronize(self, flags: np.ndarray, n_flipped: int
                     ) -> tuple[int, np.ndarray]:
        """End one superstep: agree on how many owned vertices flipped
        and, when any did anywhere, refresh the ghost ``flags`` from their
        owners.  Returns ``(global flips, local ids of ghosts that
        changed)``; a zero count is the global fixed point."""
        self.supersteps += 1
        total = int(self.comm.allreduce(n_flipped, SUM))
        if total == 0:
            return 0, np.empty(0, dtype=np.int64)
        n_loc = self.g.n_loc
        before = flags[n_loc:].copy()
        self.halo.exchange(flags)
        return total, n_loc + np.flatnonzero(before != flags[n_loc:])

    # ------------------------------------------------------------------
    def peel_below(self, k: int) -> tuple[np.ndarray, int]:
        """Remove alive vertices of alive degree ``< k`` to the global
        fixed point: what stays is the ``k``-core of what was alive.

        Returns ``(owned local ids removed here, global removal count)``.
        Degrees are decremented only along the rows of vertices that just
        died; no edge of a surviving vertex is read.
        """
        n_loc = self.g.n_loc
        alive, degree = self.alive, self.degree
        rows = np.flatnonzero(alive[:n_loc] & (degree[:n_loc] < k))
        alive[rows] = False
        removed = [rows]
        n_flipped = len(rows)
        n_removed = 0
        while True:
            while len(rows):
                nbrs = self._neighbors(rows)
                np.subtract.at(degree, nbrs, 1)
                # Ghost degrees are a sentinel, so only owned rows qualify.
                rows = self._distinct(
                    nbrs[alive[nbrs] & (degree[nbrs] < k)])
                alive[rows] = False
                removed.append(rows)
                n_flipped += len(rows)
            total, rows = self._synchronize(alive, n_flipped)
            if total == 0:
                break
            n_removed += total
            n_flipped = 0
        return np.concatenate(removed), n_removed

    def reach_from(self, pivot_gid: int) -> tuple[np.ndarray, int]:
        """Alive vertices connected to ``pivot_gid`` through alive ones.

        Returns ``(mask over owned + ghost vertices, global owned count)``;
        the ghost part of the mask is current on return.  A negative or
        dead pivot reaches nothing.
        """
        g = self.g
        n_loc = g.n_loc
        reached = np.zeros(g.n_total, dtype=bool)
        # Owned, alive, not yet reached: the only vertices a row may claim.
        unclaimed = self.alive.copy()
        unclaimed[n_loc:] = False
        # Every rank that stores the pivot — its owner, and each rank
        # holding it as a ghost — starts expanding in the first superstep.
        rows = np.empty(0, dtype=np.int64)
        if pivot_gid >= 0:
            lid = g.map.get(np.array([pivot_gid], dtype=np.int64),
                            default=-1)
            lid = lid[lid >= 0]
            rows = lid[self.alive[lid]]
        unclaimed[rows] = False
        reached[rows] = True
        n_flipped = int(np.count_nonzero(rows < n_loc))
        n_reached = 0
        while True:
            while len(rows):
                nbrs = self._neighbors(rows)
                rows = self._distinct(nbrs[unclaimed[nbrs]])
                unclaimed[rows] = False
                reached[rows] = True
                n_flipped += len(rows)
            total, rows = self._synchronize(reached, n_flipped)
            if total == 0:
                break
            n_reached += total
            n_flipped = 0
        return reached, n_reached

    def keep_only(self, mask: np.ndarray) -> None:
        """Restrict ``alive`` to ``mask`` (owned + ghost, ghost part
        current).  Valid without touching ``degree`` when the vertices
        dropped are whole connected components of the alive graph — no
        survivor has an edge to them."""
        self.alive &= mask
