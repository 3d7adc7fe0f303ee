"""Communication-avoiding frontier kernels on the 2-D grid distribution.

The 1-D kernels exchange frontier state with *all* ``p`` ranks (ghost halo
exchanges and discovered-vertex ``alltoallv``).  On a
:class:`~repro.graph.distgraph.GridGraph` every frontier phase instead runs
two subgroup collectives of ``≈ √p`` participants each (Buluç & Madduri):

1. **column gather** — each rank packs its owned chunk of the frontier
   into a ``np.packbits`` bitmap (1 bit/vertex) and allgathers it over
   ``comm.cols()``; unpacking the per-member segments yields the full
   column-slice frontier every block in the column needs;
2. **local expansion** — *push* scans the td CSR rows of the column
   frontier, *pull* reads only the bu CSR rows of unvisited row-slice
   targets with a bu entry (an array built once per traversal and
   trimmed each level), gathered or — past :data:`~repro.analytics.
   bfs_dirop.DENSE_PULL_SHARE` of the block's entries — as one product
   of the cached ``csr_operator(g, "bu")``; each block picks the side
   with fewer entries, with no collective (the push/pull identity of
   :mod:`~repro.analytics.bfs_dirop`);
3. **row reduce** — candidate targets are packed into a row-slice bitmap
   and OR-combined with one ``allreduce(BOR)`` over ``comm.rows()``; every
   row member learns the complete next frontier of its row slice and
   slices out its own chunk.

The wire format is the same on both sides — a packed bitmap column
gather plus a packed bitmap row reduce per level, and one ``allreduce``
of the frontier size — so the BFS has no global direction heuristic.
WCC and delta-stepping SSSP reuse the same :class:`Frontier2D` plumbing
with dense label/distance payloads instead of bitmaps; Δ-stepping reads
the graph's cached relaxation plan (:func:`~repro.analytics.
delta_stepping.relax_plan`), as the 1-D kernel does.

Results are bitwise-identical to the 1-D kernels (asserted by tests):
levels, component labels, and shortest distances do not depend on the
partitioning.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import segment_min
from ..graph.distgraph import GridGraph
from ..runtime import BOR, MAXLOC, MIN, SUM, Communicator, ReduceOp
from .bfs import _gather_ranges
from .bfs_dirop import _pull
from .common import NOT_VISITED, csr_operator
from .delta_stepping import (
    DeltaSteppingResult,
    _bucket_minima,
    _run_buckets,
    relax_plan,
)
from .wcc import WCCResult

__all__ = ["Frontier2D", "grid_bfs_dirop", "grid_wcc",
           "grid_delta_stepping"]

INF = np.inf


class Frontier2D:
    """Reusable row/column exchange plumbing for one :class:`GridGraph`.

    Holds the (cached) grid sub-communicators and the preallocated
    column-slice / row-slice buffers, so per-level work allocates nothing
    beyond the packed wire payloads.  Idle ranks of a fallback grid hold
    ``None`` sub-communicators and all methods degrade to empty no-ops —
    but such ranks must still participate in the *world* collectives of
    the kernels below, which they do because every kernel loop is driven
    by ``comm.allreduce`` results.
    """

    def __init__(self, comm: Communicator, g: GridGraph):
        part = g.partition
        self.comm = comm
        self.g = g
        self.row_comm = comm.rows(part.grid_rows, part.grid_cols)
        self.col_comm = comm.cols(part.grid_rows, part.grid_cols)
        self._col_mask = np.zeros(g.n_col, dtype=bool)
        self._empty_row = np.zeros(0, dtype=bool)

    # ------------------------------------------------------------------
    def gather_frontier(self, own_mask: np.ndarray) -> np.ndarray:
        """Column-slice frontier bitmap from every member's owned chunk.

        Each member contributes ``ceil(n_own/8)`` bytes (``np.packbits``);
        the concatenated segments unpack — in grid-row order, which *is*
        column-slice order — into the shared column-mask buffer.
        """
        if self.col_comm is None:
            return self._col_mask
        data, counts = self.col_comm.allgatherv(np.packbits(own_mask))
        out = self._col_mask
        off = 0
        byte_off = 0
        for size, nbytes in zip(self.g.col_counts, counts):
            size, nbytes = int(size), int(nbytes)
            seg = np.unpackbits(data[byte_off:byte_off + nbytes], count=size)
            out[off:off + size] = seg
            off += size
            byte_off += nbytes
        return out

    def reduce_candidates(self, cand: np.ndarray) -> np.ndarray:
        """OR-combine row-slice candidate bitmaps across the grid row.

        Packs to 1 bit/vertex, ``allreduce(BOR)`` over ``comm.rows()``,
        unpacks; every member sees the union for the whole row slice.
        """
        if self.row_comm is None:
            return self._empty_row
        merged = self.row_comm.allreduce(np.packbits(cand), BOR)
        return np.unpackbits(merged, count=self.g.n_row).astype(bool)

    # ------------------------------------------------------------------
    # dense payload variants (labels, distances)
    # ------------------------------------------------------------------
    def gather_values(self, own_values: np.ndarray) -> np.ndarray:
        """Column-slice array of a per-owned-vertex array (dense gather)."""
        if self.col_comm is None:
            return own_values[:0]
        data, _ = self.col_comm.allgatherv(own_values)
        return data

    def reduce_rows(self, row_values: np.ndarray, op: ReduceOp) -> np.ndarray:
        """Element-wise ``op`` over the grid row's row-slice arrays."""
        if self.row_comm is None:
            return row_values
        return self.row_comm.allreduce(row_values, op)


def grid_bfs_dirop(
    comm: Communicator,
    g: GridGraph,
    root_global: int,
    f2: Frontier2D | None = None,
) -> np.ndarray:
    """Direction-optimizing BFS on the 2-D grid distribution.

    Same levels as :func:`~repro.analytics.bfs_dirop.
    distributed_bfs_dirop` (bitwise-equal to the 1-D result for the same
    partition chunks); returns the per-*owned*-vertex level array.  A
    level is one column gather, one row reduce and one ``allreduce`` of
    the frontier size.  The wire format does not depend on the direction,
    so there is no global heuristic: each block expands by push (the td
    rows of the column frontier) or pull (the bu rows of the unvisited
    row-slice targets), whichever reads fewer entries.  Trace counters as
    on 1-D: ``bfs.levels``, ``bfs.push_levels``, ``bfs.pull_levels`` and
    ``bfs.dense_pulls``.
    """
    if not (0 <= root_global < g.n_global):
        raise ValueError("root out of range")
    if f2 is None:
        f2 = Frontier2D(comm, g)
    n_own, own_lo, row_off = g.n_own, g.own_lo, g.own_row_off

    status = np.full(n_own, NOT_VISITED, dtype=np.int64)
    own_mask = np.zeros(n_own, dtype=bool)
    visited_row = np.zeros(g.n_row, dtype=bool)
    cand = np.zeros(g.n_row, dtype=bool)
    if own_lo <= root_global < own_lo + n_own:
        own_mask[root_global - own_lo] = True
    if g.is_active and g.row_lo <= root_global < g.row_lo + g.n_row:
        visited_row[root_global - g.row_lo] = True

    deg_td, deg_bu = g.td_degrees(), g.bu_degrees()
    # The unvisited row-slice targets a pull can reach: those with a bu
    # entry, trimmed of the visited ones before each expansion.
    rows = np.flatnonzero(deg_bu > 0)
    level = pushes = dense_pulls = 0
    global_front = comm.allreduce(int(own_mask.sum()), SUM)

    while global_front > 0:
        status[own_mask] = level

        # Column phase: packed-bitmap frontier gather.
        col_mask = f2.gather_frontier(own_mask)

        # Local expansion into row-slice candidates, by the cheaper side.
        fr = np.flatnonzero(col_mask)
        rows = rows[~visited_row[rows]]
        cand[:] = False
        if deg_td[fr].sum() <= deg_bu[rows].sum():
            cand[_gather_ranges(g.td_edges, g.td_indexes[fr],
                                g.td_indexes[fr + 1])] = True
            cand &= ~visited_row
            pushes += 1
        else:
            hits, dense = _pull(csr_operator(g, "bu"), rows, col_mask)
            cand[hits] = True
            dense_pulls += dense

        # Row phase: packed-bitmap OR-reduce; every member sees the full
        # next frontier of its row slice and keeps its own chunk.
        row_all = f2.reduce_candidates(cand)
        visited_row |= row_all
        own_mask = row_all[row_off:row_off + n_own].copy()

        level += 1
        global_front = comm.allreduce(int(own_mask.sum()), SUM)

    comm.trace.bump("bfs.levels", level)
    comm.trace.bump("bfs.push_levels", pushes)
    comm.trace.bump("bfs.pull_levels", level - pushes)
    comm.trace.bump("bfs.dense_pulls", dense_pulls)
    return status


def grid_wcc(
    comm: Communicator,
    g: GridGraph,
    max_color_iters: int = 10_000,
) -> WCCResult:
    """Weakly connected components on the grid (Multistep structure).

    Needs a graph built with ``symmetrize=True`` so in-neighbor scans see
    the undirected adjacency.  Labels are the canonical per-component
    minimum global id, bitwise-equal to the 1-D :func:`~repro.analytics.
    wcc.wcc` labels; the BFS phase captures the same giant component
    (``supersteps`` counts this coloring loop's iterations — a plain
    Bellman-style fixpoint — so it differs from the 1-D count).
    """
    if not g.symmetrized:
        raise ValueError(
            "grid_wcc needs a GridGraph built with symmetrize=True")
    with comm.region("wcc2d"):
        f2 = Frontier2D(comm, g)
        n_own, own_lo, row_off = g.n_own, g.own_lo, g.own_row_off

        # Total degree of owned vertices: the symmetrized bu in-degree of
        # v, summed across the grid row, is exactly in(v) + out(v).
        deg_row = f2.reduce_rows(g.bu_degrees().astype(np.int64), SUM)
        deg_own = deg_row[row_off:row_off + n_own]
        if n_own:
            i = int(np.argmax(deg_own))
            local_best = (int(deg_own[i]), int(own_lo + i))
        else:
            local_best = (-1, g.n_global)
        pivot_deg, pivot = comm.allreduce(local_best, MAXLOC)

        labels = np.arange(own_lo, own_lo + n_own, dtype=np.int64)
        giant_label = -1
        if pivot_deg > 0:
            lev = grid_bfs_dirop(comm, g, int(pivot), f2=f2)
            visited = lev >= 0
            local_min = int(labels[visited].min()) if visited.any() \
                else g.n_global
            giant_label = int(comm.allreduce(local_min, MIN))
            labels[visited] = giant_label

        # Coloring: min-label fixpoint (column gather + row MIN-reduce).
        n_iters = 0
        while n_iters < max_color_iters:
            labels_col = f2.gather_values(labels)
            if g.m_block:
                cand = segment_min(g.bu_indexes, labels_col[g.bu_edges],
                                   empty_value=np.int64(g.n_global))
            else:
                cand = np.full(g.n_row, g.n_global, dtype=np.int64)
            all_row = f2.reduce_rows(cand, MIN)
            new_labels = np.minimum(labels, all_row[row_off:row_off + n_own])
            changed = comm.allreduce(
                int(np.count_nonzero(new_labels != labels)), SUM)
            if changed == 0:
                break
            labels = new_labels
            n_iters += 1

        return WCCResult(labels=labels, supersteps=n_iters,
                         giant_label=giant_label)


def grid_delta_stepping(
    comm: Communicator,
    g: GridGraph,
    root_global: int,
    delta: float | None = None,
    weights: np.ndarray | None = None,
    max_rounds: int = 100_000,
) -> DeltaSteppingResult:
    """Delta-stepping SSSP on the grid distribution.

    Same bucket schedule and work-efficient rounds as
    :func:`~repro.analytics.delta_stepping.delta_stepping` (Bellman–Ford
    at Δ = ∞).  Each round gathers the column slice's distances (dense
    float64); a column slot turns ``fresh`` where the gather shows its
    distance fell, and only fresh bucket members' ``bu_edges`` entries
    feed a light round's row MIN-reduce.  Distances are bitwise-equal to
    the 1-D kernel for the same weights.
    """
    if not (0 <= root_global < g.n_global):
        raise ValueError("root out of range")
    with comm.region("delta_stepping2d"):
        f2 = Frontier2D(comm, g)
        n_own, own_lo, row_off = g.n_own, g.own_lo, g.own_row_off
        plan = relax_plan(comm, g, delta, weights)

        dist = np.full(n_own, INF, dtype=np.float64)
        if own_lo <= root_global < own_lo + n_own:
            dist[root_global - own_lo] = 0.0

        new_row = np.full(g.n_row, INF, dtype=np.float64)
        seen_col = np.full(g.n_col, INF, dtype=np.float64)
        fresh_col = np.zeros(g.n_col, dtype=bool)

        def relax(bucket_lo: float, bucket_hi: float, is_light: bool) -> int:
            """One round over the bucket's column sources; returns the
            global number of improved owned vertices."""
            dist_col = f2.gather_values(dist)
            new_row[:] = INF
            if g.m_block:
                fresh_col[dist_col < seen_col] = True
                seen_col[:] = dist_col
                r, best = _bucket_minima(
                    dist_col, fresh_col if is_light else None, bucket_lo,
                    bucket_hi, plan.light if is_light else plan.heavy)
                new_row[r] = best
            all_row = f2.reduce_rows(new_row, MIN)
            new_own = np.minimum(dist, all_row[row_off:row_off + n_own])
            improved = comm.allreduce(
                int(np.count_nonzero(new_own < dist)), SUM)
            dist[:] = new_own
            return improved

        n_phases, n_rounds = _run_buckets(comm, dist, plan.delta, relax,
                                          max_rounds)
        reached = comm.allreduce(
            int(np.count_nonzero(np.isfinite(dist))), SUM)
        return DeltaSteppingResult(distances=dist, n_phases=n_phases,
                                   n_relax_rounds=n_rounds, reached=reached)
