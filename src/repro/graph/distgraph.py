"""Per-rank distributed graph representation (paper §III-C, Table II).

Each rank owns a subset of vertices and stores *all* incoming and outgoing
edges of those vertices in CSR form.  Vertices are relabeled: owned
("local") vertices take ids ``0..n_loc-1`` (ascending global order) and
ghost vertices — off-rank vertices adjacent to a local vertex — take ids
``n_loc..n_loc+n_gst-1``.  Adjacency arrays hold these compact local ids,
so any per-vertex datum lives in an ``(n_loc + n_gst)``-length array.

The structure stores exactly the paper's Table II fields::

    n_global, m_global           global counts
    n_loc, n_gst                 local and ghost vertex counts
    out_edges / out_indexes      CSR of out-edges of local vertices
    in_edges  / in_indexes       CSR of in-edges of local vertices
    map                          global id -> local id (linear-probing hash)
    unmap                        local id -> global id array
    ghost_tasks                  owning rank of each ghost ("tasks")
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..partition.base import Partition
from ..partition.grid import GridEdgePartition
from .csr import csr_row_lengths, expand_rows, radix_order
from .hashmap import IntHashMap

__all__ = ["DistGraph", "GridGraph"]


@dataclass
class DistGraph:
    """One rank's share of a distributed directed graph."""

    rank: int
    nparts: int
    n_global: int
    m_global: int
    partition: Partition
    out_indexes: np.ndarray  # (n_loc + 1,)
    out_edges: np.ndarray  # (m_out,) local ids
    in_indexes: np.ndarray  # (n_loc + 1,)
    in_edges: np.ndarray  # (m_in,) local ids
    unmap: np.ndarray  # (n_loc + n_gst,) global ids
    ghost_tasks: np.ndarray  # (n_gst,) owner rank per ghost
    map: IntHashMap = field(repr=False)
    out_values: np.ndarray | None = None  # optional per-out-edge weights
    in_values: np.ndarray | None = None  # optional per-in-edge weights
    #: Per-graph structures the kernels share, with one lifetime rule:
    #: an entry is built on first (collective) use, dropped by
    #: :meth:`sort_adjacency`, and dies with this object — for an epoch
    #: view of a delta graph, with the view.  The halo exchange
    #: (``"halo"``, via :func:`~repro.analytics.exchange.halo_of`) is
    #: also checked against the communicator on every use.  Beside it:
    #: the closure rows, the propagation operators, Δ-stepping's
    #: relaxation plan and, on rank 0 of a serving engine, the owned-gid
    #: order served results are placed by.  Entries hold arrays, never
    #: this object.
    derived: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    # ------------------------------------------------------------------
    @property
    def n_loc(self) -> int:
        """Number of locally-owned vertices."""
        return len(self.out_indexes) - 1

    @property
    def n_gst(self) -> int:
        """Number of ghost vertices."""
        return len(self.ghost_tasks)

    @property
    def n_total(self) -> int:
        """Local + ghost vertex count (length of per-vertex arrays)."""
        return self.n_loc + self.n_gst

    @property
    def m_out(self) -> int:
        return len(self.out_edges)

    @property
    def m_in(self) -> int:
        return len(self.in_edges)

    # ------------------------------------------------------------------
    def to_local(self, gids: np.ndarray) -> np.ndarray:
        """Global → local ids via the hash map (−1 if unknown here)."""
        return self.map.get(gids, default=-1)

    def to_global(self, lids: np.ndarray) -> np.ndarray:
        """Local → global ids via the unmap array."""
        return self.unmap[lids]

    def is_ghost(self, lids: np.ndarray) -> np.ndarray:
        """Boolean: is each local id a ghost (not owned here)?"""
        return np.asarray(lids) >= self.n_loc

    def owner_of_local(self, lids: np.ndarray) -> np.ndarray:
        """Owning rank of each local id (self for owned, tasks[] for ghosts)."""
        lids = np.asarray(lids, dtype=np.int64)
        out = np.full(len(lids), self.rank, dtype=np.int64)
        ghosts = lids >= self.n_loc
        out[ghosts] = self.ghost_tasks[lids[ghosts] - self.n_loc]
        return out

    # ------------------------------------------------------------------
    def out_neighbors(self, v: int) -> np.ndarray:
        """Local ids of out-neighbors of local vertex ``v``."""
        return self.out_edges[self.out_indexes[v] : self.out_indexes[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        """Local ids of in-neighbors of local vertex ``v``."""
        return self.in_edges[self.in_indexes[v] : self.in_indexes[v + 1]]

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every local vertex."""
        return csr_row_lengths(self.out_indexes)

    def in_degrees(self) -> np.ndarray:
        """In-degree of every local vertex."""
        return csr_row_lengths(self.in_indexes)

    def total_degrees(self) -> np.ndarray:
        """in + out degree of every local vertex."""
        return self.out_degrees() + self.in_degrees()

    # ------------------------------------------------------------------
    def sort_adjacency(self) -> "DistGraph":
        """Sort every adjacency row by neighbor *global* id, in place.

        :func:`~repro.graph.build.build_dist_graph` preserves the input
        edge order within each row, which depends on how the edge list was
        generated and exchanged.  The streaming subsystem needs a
        *canonical* row order so that a :class:`~repro.stream.deltagraph.
        DynamicDistGraph` (base rows merged with sorted delta rows) and a
        from-scratch rebuild of the same logical graph produce bitwise
        identical analytics: the propagation operator
        (:func:`~repro.analytics.common.csr_operator`) sums each row
        sequentially, so the summation order must match.  Sorting
        by global id (local ids mix owned and ghost numbering, which
        differs across representations) with a stable sort gives that
        canonical order: two stable radix passes, by neighbour gid and
        then by row.  Edge values, when present, travel with their
        edges.  Returns ``self``.
        """
        self.derived.clear()
        for ind, name in ((self.out_indexes, "out"), (self.in_indexes, "in")):
            adj = getattr(self, f"{name}_edges")
            vals = getattr(self, f"{name}_values")
            if not len(adj):
                continue
            rows = expand_rows(ind)
            order = radix_order(self.unmap[adj], self.n_global)
            order = order[radix_order(rows[order], self.n_loc)]
            setattr(self, f"{name}_edges", adj[order])
            if vals is not None:
                setattr(self, f"{name}_values", vals[order])
        return self

    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Approximate resident bytes of this rank's graph structures."""
        total = (
            self.out_indexes.nbytes
            + self.out_edges.nbytes
            + self.in_indexes.nbytes
            + self.in_edges.nbytes
            + self.unmap.nbytes
            + self.ghost_tasks.nbytes
        )
        total += self.map.capacity * 16  # key + value words
        return total

    @property
    def is_weighted(self) -> bool:
        """True when per-edge values were carried through construction."""
        return self.out_values is not None

    def validate(self) -> None:
        """Internal consistency checks (used by tests and after build)."""
        n_loc, n_tot = self.n_loc, self.n_total
        if (self.out_values is None) != (self.in_values is None):
            raise AssertionError("edge values must exist in both directions")
        if self.out_values is not None:
            if len(self.out_values) != self.m_out:
                raise AssertionError("out_values length != m_out")
            if len(self.in_values) != self.m_in:
                raise AssertionError("in_values length != m_in")
        if len(self.in_indexes) != n_loc + 1:
            raise AssertionError("in/out index length mismatch")
        if len(self.unmap) != n_tot:
            raise AssertionError("unmap length != n_loc + n_gst")
        for name, adj in (("out", self.out_edges), ("in", self.in_edges)):
            if len(adj) and (adj.min() < 0 or adj.max() >= n_tot):
                raise AssertionError(f"{name}_edges contains invalid local ids")
        if not np.all(np.diff(self.out_indexes) >= 0):
            raise AssertionError("out_indexes not monotone")
        if not np.all(np.diff(self.in_indexes) >= 0):
            raise AssertionError("in_indexes not monotone")
        # map and unmap must be mutually inverse.
        back = self.map.get(self.unmap)
        if not np.array_equal(back, np.arange(n_tot)):
            raise AssertionError("map/unmap are not inverse")
        # Ghost owners must be consistent with the partition, never self.
        if self.n_gst:
            owners = self.partition.owner_of(self.unmap[n_loc:])
            if not np.array_equal(owners, self.ghost_tasks):
                raise AssertionError("ghost_tasks disagree with partition")
            if (self.ghost_tasks == self.rank).any():
                raise AssertionError("ghost owned by self")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DistGraph(rank={self.rank}/{self.nparts}, "
            f"n_loc={self.n_loc}, n_gst={self.n_gst}, "
            f"m_out={self.m_out}, m_in={self.m_in}, "
            f"n_global={self.n_global}, m_global={self.m_global})"
        )


@dataclass
class GridGraph:
    """One rank's edge block of a 2-D checkerboard-distributed graph.

    Rank ``(i, j)`` of the process grid stores every edge ``u → v`` with
    ``owner(u)`` in grid column ``j`` and ``owner(v)`` in grid row ``i``,
    in two CSR views of the same block:

    * ``td_*`` ("top-down"): rows are **column-slice** source indices,
      entries are **row-slice** target indices;
    * ``bu_*`` ("bottom-up"): rows are row-slice target indices, entries
      are column-slice source indices.

    The row slice (grid row ``i``'s vertices) is a contiguous global
    range ``[row_lo, row_lo + n_row)``; the column slice (grid column
    ``j``'s vertices) is a strided union of chunks, one per grid row,
    concatenated in grid-row order — exactly the order of an allgatherv
    over ``comm.cols()``, so a gathered per-own-vertex array *is* a
    column-slice array.  ``col_unmap`` maps column-slice index → gid.

    Idle ranks of a fallback grid hold an empty block (all sizes zero,
    ``grid_row == grid_col == -1``) and skip row/column collectives.
    """

    rank: int
    nparts: int
    n_global: int
    m_global: int
    partition: GridEdgePartition
    grid_row: int
    grid_col: int
    row_lo: int  # first gid of the (contiguous) row slice
    td_indexes: np.ndarray  # (n_col + 1,)
    td_edges: np.ndarray  # (m_block,) row-slice indices
    bu_indexes: np.ndarray  # (n_row + 1,)
    bu_edges: np.ndarray  # (m_block,) column-slice indices
    col_counts: np.ndarray  # (grid_rows,) column-slice chunk sizes
    col_unmap: np.ndarray  # (n_col,) column-slice index -> gid
    td_values: np.ndarray | None = None  # optional weights, td order
    bu_values: np.ndarray | None = None  # optional weights, bu order
    symmetrized: bool = False  # True when built with reversed edges added
    #: Per-graph structures the kernels share (Δ-stepping's relaxation
    #: plan), under :attr:`DistGraph.derived`'s lifetime rule.
    derived: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    # ------------------------------------------------------------------
    @property
    def is_active(self) -> bool:
        return self.grid_row >= 0

    @property
    def n_row(self) -> int:
        """Row-slice size (number of bu CSR rows)."""
        return len(self.bu_indexes) - 1

    @property
    def n_col(self) -> int:
        """Column-slice size (number of td CSR rows)."""
        return len(self.td_indexes) - 1

    @property
    def m_block(self) -> int:
        return len(self.td_edges)

    @property
    def n_own(self) -> int:
        """Vertices owned by this rank (its chunk of the vertex range)."""
        return self.partition.n_owned(self.rank)

    @property
    def own_lo(self) -> int:
        """First owned gid."""
        return int(self.partition.boundaries[self.rank])

    @property
    def own_row_off(self) -> int:
        """Offset of the owned chunk inside the row slice."""
        return self.own_lo - self.row_lo

    @property
    def own_col_off(self) -> int:
        """Offset of the owned chunk inside the column slice."""
        return int(self.col_counts[:self.grid_row].sum()) \
            if self.is_active else 0

    def td_degrees(self) -> np.ndarray:
        """Block-local out-degree of every column-slice vertex."""
        return csr_row_lengths(self.td_indexes)

    def bu_degrees(self) -> np.ndarray:
        """Block-local in-degree of every row-slice vertex."""
        return csr_row_lengths(self.bu_indexes)

    def memory_bytes(self) -> int:
        """Approximate resident bytes of this rank's block structures."""
        return (self.td_indexes.nbytes + self.td_edges.nbytes
                + self.bu_indexes.nbytes + self.bu_edges.nbytes
                + self.col_counts.nbytes + self.col_unmap.nbytes)

    def validate(self) -> None:
        """Internal consistency checks (used by tests and after build)."""
        p = self.partition
        if not self.is_active:
            if self.n_row or self.n_col or self.m_block or self.n_own:
                raise AssertionError("idle rank holds a non-empty block")
            return
        lo, hi = p.row_range(self.grid_row)
        if lo != self.row_lo or hi - lo != self.n_row:
            raise AssertionError("row slice disagrees with partition")
        if not np.array_equal(p.col_chunk_counts(self.grid_col),
                              self.col_counts):
            raise AssertionError("col chunks disagree with partition")
        if len(self.col_unmap) != int(self.col_counts.sum()):
            raise AssertionError("col_unmap length != column-slice size")
        if len(self.td_edges) != len(self.bu_edges):
            raise AssertionError("td/bu edge count mismatch")
        if len(self.td_edges) and (
            self.td_edges.min() < 0 or self.td_edges.max() >= self.n_row
        ):
            raise AssertionError("td_edges contains invalid row indices")
        if len(self.bu_edges) and (
            self.bu_edges.min() < 0 or self.bu_edges.max() >= self.n_col
        ):
            raise AssertionError("bu_edges contains invalid column indices")
        for name in ("td_indexes", "bu_indexes"):
            if not np.all(np.diff(getattr(self, name)) >= 0):
                raise AssertionError(f"{name} not monotone")
        if (self.td_values is None) != (self.bu_values is None):
            raise AssertionError("edge values must exist in both views")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GridGraph(rank={self.rank}/{self.nparts}, "
            f"grid=({self.grid_row},{self.grid_col}), "
            f"n_row={self.n_row}, n_col={self.n_col}, "
            f"m_block={self.m_block}, n_global={self.n_global}, "
            f"m_global={self.m_global})"
        )
