"""Monotone closures by local-fixed-point supersteps.

The level-less traversals — "peel every vertex whose alive degree is
below ``k``" (k-core stages, SCC trimming), "everything the roots reach"
(FW–BW sweeps, WCC's giant component, the bow-tie wings; optionally
inside one label class, SCC coloring's backward closure) and "the least
label that reaches each vertex" (SCC and WCC coloring; with a per-vertex
floor, the k-core sweep's widest paths from its pivot) — are *monotone
closures*: a flag per vertex flips one way only (a label only falls), a
flip can only enable further flips, and the final state is a function of
the graph alone, not of the order flips are discovered in.  A BSP kernel
discovers one hop per collective round; because the result is
order-independent, a rank may instead run its part of the closure to a
**local fixed point** with no communication, and only then synchronize —
the block-centric schedule Ammar & Özsu measured ahead of vertex-centric
engines (PAPERS.md), with the bucketed-frontier peeling of Dhulipala et
al.: a peel or reach touches every stored edge O(1) times per closure
instead of once per round, and the label closure reads a row again only
when its vertex's label fell again.

:class:`ClosureAdjacency` is the data structure the closures walk: a CSR
of owned rows plus a CSR of *ghost* rows, for one traversal direction —
the immutable :class:`ClosureRows`, built once per (graph, direction)
and shared by every kernel run on that graph — plus one run's
``alive``/``degree`` state.
An owned row lists the vertices its vertex leads to (out-neighbours,
in-neighbours, or both); a ghost row lists the owned vertices that ghost
leads to.  Information crosses ranks in one direction only — owner to
ghost copy, the halo exchange — and the ghost rows let the receiving rank
carry a flipped ghost's consequences to its own vertices.  (The cut edge
is stored on both sides, so neither side ever needs to write to a ghost.)

**Superstep protocol** (identical for all three closures)::

    loop:
        run the frontier to a local fixed point      # no communication
        total = allreduce(owned flips this superstep, SUM)
        if total == 0: break                         # global fixed point
        halo.exchange(flag or label array)           # owners -> ghosts
        frontier = ghosts that changed in the exchange

The exit test is the allreduced count, so every rank leaves at the same
superstep and the collective schedule is identical everywhere.  On a
single rank the first superstep does all the work and the second one's
zero count confirms it.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import bucket_order, expand_rows
from ..graph.distgraph import DistGraph
from ..runtime import SUM, Communicator
from .bfs import _gather_ranges
from .exchange import halo_of

__all__ = ["ClosureAdjacency", "undirected_rows"]

#: Degree stored for ghost rows: never below any threshold, so a ghost is
#: never selected for peeling locally (only its owner may remove it).
_GHOST_DEGREE = np.iinfo(np.int64).max // 2


def _undirected(g: DistGraph) -> tuple[np.ndarray, np.ndarray]:
    """The out-run then the in-run of each owned vertex, by index
    arithmetic: entry e of the out-CSR (row r) lands at
    ``e + in_ptr[r]``, entry e of the in-CSR at ``e + out_ptr[r + 1]``."""
    out_ptr, in_ptr = g.out_indexes, g.in_indexes
    m_out, m_in = len(g.out_edges), len(g.in_edges)
    adj = np.empty(m_out + m_in, dtype=np.int64)
    adj[np.arange(m_out, dtype=np.int64)
        + np.repeat(in_ptr[:-1], np.diff(out_ptr))] = g.out_edges
    adj[np.arange(m_in, dtype=np.int64)
        + np.repeat(out_ptr[1:], np.diff(in_ptr))] = g.in_edges
    return out_ptr + in_ptr, adj


class ClosureRows:
    """The immutable part of a :class:`ClosureAdjacency`: one traversal
    direction's owned rows, ghost rows and base degrees.

    ``direction`` is ``"out"`` (rows follow out-edges), ``"in"`` or
    ``"both"`` (the undirected view).  For ``"out"``/``"in"`` the owned
    rows *are* the graph's CSR, not a copy.  A ghost's row — the owned
    vertices it leads to — is read off the *reverse* CSR: ghost ``u``
    leads to owned ``v`` exactly when ``u`` appears in ``v``'s reverse
    row, so the cut entries of the reverse CSR, grouped by ghost with one
    ``bucket_order`` of the cut only, are the ghost rows.  ``degree[v]``
    (owned ``v``) is the length of ``v``'s reverse row: the number of
    vertices that lead *to* ``v``, with multiplicity.

    Obtain one with :func:`closure_rows`, which builds it once per
    (graph, direction) and keeps it on the graph object: every closure
    kernel run on the same graph shares it, and it is freed with the
    graph.  The arrays built here are read-only.
    """

    __slots__ = ("indptr", "adj", "ghost_indptr", "ghost_adj", "degree")

    def __init__(self, g: DistGraph, direction: str):
        n_loc = g.n_loc
        if direction == "both":
            rows = reverse = _undirected(g)
        elif direction == "out":
            rows = g.out_indexes, g.out_edges
            reverse = g.in_indexes, g.in_edges
        elif direction == "in":
            rows = g.in_indexes, g.in_edges
            reverse = g.out_indexes, g.out_edges
        else:
            raise ValueError(
                f"direction must be 'out', 'in' or 'both', got {direction!r}")
        self.indptr, self.adj = rows
        rev_ptr, rev_adj = reverse
        cut = np.flatnonzero(rev_adj >= n_loc)
        order, self.ghost_indptr = bucket_order(rev_adj[cut] - n_loc, g.n_gst)
        self.ghost_adj = expand_rows(rev_ptr)[cut][order]
        self.degree = np.diff(rev_ptr)
        built = [self.ghost_indptr, self.ghost_adj, self.degree]
        if direction == "both":
            built += rows
        for a in built:
            a.flags.writeable = False


def closure_rows(g: DistGraph, direction: str = "both") -> ClosureRows:
    """The :class:`ClosureRows` of ``g`` in ``direction``, built on first
    use and cached on ``g`` (:meth:`DistGraph.sort_adjacency` drops it)."""
    rows = g.derived.get(("closure", direction))
    if rows is None:
        rows = g.derived[("closure", direction)] = ClosureRows(g, direction)
    return rows


def undirected_rows(g: DistGraph) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, adj)`` of the owned vertices' undirected rows: the
    out-run then the in-run of each vertex, with multiplicity.  These are
    the shared ``"both"`` closure rows of ``g``; do not write to them."""
    rows = closure_rows(g, "both")
    return rows.indptr, rows.adj


class ClosureAdjacency:
    """One traversal direction of ``g`` plus the alive/degree state of a
    sweep.

    The rows are the graph's shared :class:`ClosureRows` for
    ``direction`` (``"out"``, ``"in"`` or ``"both"``), so constructing
    one costs two per-vertex arrays once the rows exist; the state below
    belongs to this instance.

    ``alive`` covers owned and ghost vertices and is current on both at
    every closure's return; pass another adjacency's ``alive`` to share it
    (SCC trims over a forward and a backward adjacency at once), or a
    fresh mask to run closures inside a subset of the vertices.
    ``degree[v]`` is, for every alive owned ``v``, the number of alive
    vertices that lead *to* ``v`` (entries of its reverse row, with
    multiplicity; for ``"both"`` that is its own row) — correct only while
    everything outside ``alive`` died by :meth:`peel_below`, maintained by
    decrement along the rows of vertices that die, never recomputed.

    ``supersteps`` and ``edges_scanned`` accumulate over the instance's
    closures; a peel or reach reads every stored entry at most once (a row
    is gathered when its vertex flips, and a vertex flips once), and
    ``propagate_min`` once plus once per fall of the row's label.
    """

    def __init__(self, comm: Communicator, g: DistGraph,
                 direction: str = "both", alive: np.ndarray | None = None):
        self.comm = comm
        self.g = g
        self.halo = halo_of(comm, g)
        n_loc, n_tot = g.n_loc, g.n_total
        rows = closure_rows(g, direction)
        self.indptr, self.adj = rows.indptr, rows.adj
        self.ghost_indptr, self.ghost_adj = rows.ghost_indptr, rows.ghost_adj
        self.alive = np.ones(n_tot, dtype=bool) if alive is None else alive
        self.degree = np.full(n_tot, _GHOST_DEGREE, dtype=np.int64)
        self.degree[:n_loc] = rows.degree
        self.supersteps = 0
        self.edges_scanned = 0
        self._slot = np.empty(n_tot, dtype=np.int64)

    @property
    def n_entries(self) -> int:
        """Stored entries, ghost rows included."""
        return len(self.adj) + len(self.ghost_adj)

    # ------------------------------------------------------------------
    def _neighbors(self, rows: np.ndarray, ghost: bool = False,
                   tags: np.ndarray | None = None):
        """Concatenated rows of the owned local ids ``rows`` — or, with
        ``ghost``, of the ghost local ids ``rows`` (each read counted
        once).  With ``tags`` (an array over owned + ghost vertices) the
        return is ``(neighbours, tags[row] of each entry's row)``."""
        if not len(rows):  # every local phase ends on an empty frontier
            return rows if tags is None else (rows, tags[rows])
        if ghost:
            indptr, adj, at = (self.ghost_indptr, self.ghost_adj,
                               rows - self.g.n_loc)
        else:
            indptr, adj, at = self.indptr, self.adj, rows
        starts, ends = indptr[at], indptr[at + 1]
        nbrs = _gather_ranges(adj, starts, ends)
        self.edges_scanned += len(nbrs)
        if tags is None:
            return nbrs
        return nbrs, np.repeat(tags[rows], ends - starts)

    def _seed_neighbors(self, lids: np.ndarray,
                        tags: np.ndarray | None = None):
        """Rows of a closure's starting set: ascending local ids that may
        mix owned and ghost vertices (inside a closure a frontier is one
        or the other).  ``tags`` as for :meth:`_neighbors`."""
        n_own = int(np.searchsorted(lids, self.g.n_loc))
        owned = self._neighbors(lids[:n_own], tags=tags)
        if n_own == len(lids):
            return owned
        ghost = self._neighbors(lids[n_own:], ghost=True, tags=tags)
        if tags is None:
            return np.concatenate((owned, ghost))
        return tuple(np.concatenate(p) for p in zip(owned, ghost))

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
    def peel_below(self, k: int, *others: "ClosureAdjacency",
                   dead: np.ndarray | None = None
                   ) -> tuple[np.ndarray, int]:
        """Remove alive vertices of alive degree ``< k`` to the global
        fixed point: what stays is the ``k``-core of what was alive.

        ``others`` are further adjacencies over the same ``alive`` array;
        a vertex goes when its degree in *any* of them is below ``k``, and
        a death is charged along its row in each.  Over a forward and a
        backward adjacency, ``peel_below(1, bwd)`` is directed trimming.

        ``dead`` (mask over owned + ghost vertices, ghost part current)
        is removed first — a labelled SCC, say — and the peel runs on
        what that leaves; those vertices are not part of the return value.

        Returns ``(owned local ids peeled here, global peel count)``.
        Degrees are decremented only along the rows of vertices that just
        died; no edge of a surviving vertex is read.
        """
        adjs = (self, *others)
        if any(a.alive is not self.alive for a in others):
            raise ValueError("adjacencies peeled together must share alive")
        n_loc = self.g.n_loc
        alive = self.alive
        if dead is not None:
            died = np.flatnonzero(dead & alive)
            alive[died] = False
            for a in adjs:
                np.subtract.at(a.degree, a._seed_neighbors(died), 1)
        low = self.degree[:n_loc] < k
        for a in others:
            low |= a.degree[:n_loc] < k
        rows = np.flatnonzero(alive[:n_loc] & low)
        alive[rows] = False
        removed = [rows]
        n_flipped = len(rows)
        n_removed = 0
        nbrs = [a._neighbors(rows) for a in adjs]
        while True:
            while any(len(n) for n in nbrs):
                for a, n in zip(adjs, nbrs):
                    np.subtract.at(a.degree, n, 1)
                # Ghost degrees are a sentinel, so only owned rows qualify.
                rows = self._distinct(np.concatenate(
                    [n[alive[n] & (a.degree[n] < k)]
                     for a, n in zip(adjs, nbrs)]))
                alive[rows] = False
                removed.append(rows)
                n_flipped += len(rows)
                nbrs = [a._neighbors(rows) for a in adjs]
            total, ghosts = self._synchronize(alive, n_flipped)
            if total == 0:
                break
            n_removed += total
            n_flipped = 0
            nbrs = [a._neighbors(ghosts, ghost=True) for a in adjs]
        return np.concatenate(removed), n_removed

    def reach_from(self, roots, within: np.ndarray | None = None
                   ) -> tuple[np.ndarray, int]:
        """Alive vertices the ``roots`` lead to through alive ones.

        ``roots`` is one global id or an array; the closure is of the
        union over ranks.  A rank passes at least the roots it owns; roots
        it holds as ghosts start expanding a superstep earlier if passed,
        others (and negative or dead ids) are skipped.

        ``within`` (an array over owned + ghost vertices, ghost part
        current) restricts every hop to equal values: a vertex joins only
        from a row whose ``within`` value is its own, so each root reaches
        inside its own class.  SCC coloring passes its colors.

        Returns ``(mask over owned + ghost vertices, global owned count)``;
        the ghost part of the mask is current on return.
        """
        g = self.g
        n_loc = g.n_loc
        reached = np.zeros(g.n_total, dtype=bool)
        # Owned, alive, not yet reached: the only vertices a row may claim.
        unclaimed = self.alive.copy()
        unclaimed[n_loc:] = False
        roots = np.atleast_1d(np.asarray(roots, dtype=np.int64))
        lids = g.map.get(roots[roots >= 0], default=-1)
        lids = lids[lids >= 0]
        reached[lids[self.alive[lids]]] = True
        seeds = np.flatnonzero(reached)
        unclaimed[seeds] = False
        n_flipped = int(np.searchsorted(seeds, n_loc))
        n_reached = 0

        def same_class(read):
            if within is None:
                return read
            nbrs, tags = read
            return nbrs[within[nbrs] == tags]

        nbrs = same_class(self._seed_neighbors(seeds, within))
        while True:
            while len(nbrs):
                rows = self._distinct(nbrs[unclaimed[nbrs]])
                unclaimed[rows] = False
                reached[rows] = True
                n_flipped += len(rows)
                nbrs = same_class(self._neighbors(rows, tags=within))
            total, ghosts = self._synchronize(reached, n_flipped)
            if total == 0:
                break
            n_reached += total
            n_flipped = 0
            nbrs = same_class(self._neighbors(ghosts, ghost=True,
                                              tags=within))
        return reached, n_reached

    def propagate_min(self, labels: np.ndarray,
                      floor: np.ndarray | None = None,
                      seeds: np.ndarray | None = None) -> None:
        """Lower each alive owned vertex's ``labels`` entry, in place, to
        the minimum over the alive vertices that lead to it through alive
        ones (itself included).

        ``labels`` covers owned and ghost vertices, ghost part current on
        entry and on return; entries of dead vertices are left alone.  The
        closure is monotone — a label only falls — so it runs on the
        superstep protocol with "label fell" as the flip.  The ``seeds``
        rows are read in the first superstep; after that a row is read
        again only when its vertex's label fell again (locally or in the
        halo exchange), so the entries read are at most the stored ones
        times one plus the falls of their row's vertex.

        ``floor`` (an array over owned + ghost vertices) bounds the new
        label of each target from below: a label arriving over an entry
        is raised to the target's floor before it is compared.  With
        ``label = top − width`` and ``floor = top − capacity`` the closure
        computes widest paths: each vertex ends at the largest, over the
        paths reaching it, of the smallest capacity on the path.

        ``seeds`` (ascending local ids, owned and ghost, ghost labels
        current) are the rows that start the closure; the default is every
        alive row, which is what a closure needs when every vertex starts
        with its own label.  Passing only the vertices whose label is
        below the rest's start value saves reading the other rows first.
        """
        n_loc = self.g.n_loc
        # Owned and alive: the only vertices a row may lower.
        target = self.alive.copy()
        target[n_loc:] = False
        n_fell = 0
        seeds = (np.flatnonzero(self.alive) if seeds is None
                 else seeds[self.alive[seeds]])
        nbrs, cand = self._seed_neighbors(seeds, labels)
        while True:
            while len(nbrs):
                if floor is not None:
                    cand = np.maximum(cand, floor[nbrs])
                lower = target[nbrs] & (cand < labels[nbrs])
                nbrs = nbrs[lower]
                np.minimum.at(labels, nbrs, cand[lower])
                rows = self._distinct(nbrs)
                n_fell += len(rows)
                nbrs, cand = self._neighbors(rows, tags=labels)
            total, ghosts = self._synchronize(labels, n_fell)
            if total == 0:
                return
            n_fell = 0
            nbrs, cand = self._neighbors(ghosts, ghost=True, tags=labels)

    def keep_only(self, mask: np.ndarray) -> None:
        """Restrict ``alive`` to ``mask`` (owned + ghost, ghost part
        current).  Valid without touching ``degree`` when the vertices
        dropped are whole connected components of the alive graph — no
        survivor has an edge to them."""
        self.alive &= mask
