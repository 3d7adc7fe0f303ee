"""2-D (checkerboard) edge-block partitioning (Buluç & Madduri style).

The paper chooses a 1-D representation (§III-A) and leaves the 2-D
alternative to the cost model in :mod:`repro.perf.twod`.  This module makes
it runnable: ranks form an ``r × c`` process grid, the global vertex range
is cut into ``r*c`` contiguous chunks (optionally degree-balanced, like
:class:`~repro.partition.edge_block.EdgeBlockPartition`), and rank
``k = i*c + j`` owns chunk ``k``.  Edge ``u → v`` is stored on the block in
*grid row* ``row_of(owner(v))`` and *grid column* ``col_of(owner(u))``, so

* a frontier over the **column slice** (the union of chunks owned by the
  ranks in grid column ``j``) covers every edge source the block can scan,
  and is assembled with a ``c``-free allgather among the ``r`` ranks of the
  column (``comm.cols``);
* discovered targets live in the **row slice** (the contiguous range owned
  by grid row ``i``) and are combined with a reduction among the ``c``
  ranks of the row (``comm.rows``).

Per frontier phase each rank therefore talks to ``r - 1 + c - 1 ≈ 2√p``
peers instead of up to ``p - 1`` — the communication-avoiding property the
2-D literature (Buluç & Madduri; Yoo et al.) quantifies.

As a :class:`~repro.partition.block.ContiguousPartition` the grid partition
is also a valid 1-D contiguous partition (chunk ``k`` → rank ``k``), so every
1-D kernel runs on it unchanged; the grid structure only adds the
row/column view on top.
"""

from __future__ import annotations

import numpy as np

from ..runtime import SUM, Communicator
from .block import ContiguousPartition

__all__ = ["GridShapeError", "grid_shape", "GridEdgePartition"]


class GridShapeError(ValueError):
    """``p`` has no non-degenerate ``r × c = p`` factorization."""


def grid_shape(p: int, fallback: bool = False) -> tuple[int, int]:
    """Most-square factorization ``rows × cols`` with ``rows*cols <= p``.

    For composite ``p`` (and for ``p <= 3``) this is the classic exact
    most-square factorization ``rows * cols == p`` (``16 → 4×4``,
    ``8 → 2×4``).  A prime ``p >= 5`` only factors as ``1 × p``, which
    degenerates to 1-D; by default that raises :class:`GridShapeError`.
    With ``fallback=True`` the largest non-degenerate grid with
    ``rows*cols <= p`` is returned instead (``7 → 2×3``) and the trailing
    ``p - rows*cols`` ranks sit the grid out as *idle* ranks: they own no
    vertices and no edge block, but still participate in world-level
    collectives.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    r = int(np.sqrt(p))
    while p % r:
        r -= 1
    if r == 1 and p >= 5:
        if not fallback:
            raise GridShapeError(
                f"p={p} is prime: the only grid is 1x{p}, which is just a "
                f"1-D layout; pass fallback=True to run a smaller grid "
                f"with idle ranks, or choose a composite rank count")
        # Largest q < p with a non-degenerate factorization (q = p - 1 is
        # even, so this terminates immediately for any prime p >= 5).
        for q in range(p - 1, 3, -1):
            rq = int(np.sqrt(q))
            while q % rq:
                rq -= 1
            if rq > 1:
                return rq, q // rq
        return 2, 2
    return r, p // r


class GridEdgePartition(ContiguousPartition):
    """Contiguous vertex chunks laid out on an ``r × c`` process grid.

    Parameters
    ----------
    degrees:
        Global per-vertex (out-)degree array; chunk boundaries equalize
        cumulative degree across the ``rows*cols`` active ranks (pass
        ``np.ones(n)`` for plain vertex-balanced chunks).
    nparts:
        World size ``p``.  When ``grid_shape(p, fallback)`` yields
        ``rows*cols < p``, ranks ``rows*cols .. p-1`` are idle.
    """

    def __init__(self, degrees: np.ndarray, nparts: int,
                 fallback: bool = False):
        degrees = np.asarray(degrees, dtype=np.int64)
        super().__init__(len(degrees), nparts)
        if len(degrees) and degrees.min() < 0:
            raise ValueError("degrees must be non-negative")
        self.grid_rows, self.grid_cols = grid_shape(nparts, fallback=fallback)
        self.n_active = self.grid_rows * self.grid_cols

        cum = np.cumsum(degrees)
        m = int(cum[-1]) if len(cum) else 0
        targets = (np.arange(1, self.n_active, dtype=np.float64) * m) \
            / self.n_active
        cuts = np.searchsorted(cum, targets, side="left") + 1
        bounds = np.concatenate(
            ([0], np.minimum(cuts, self.n_global), [self.n_global])
        ).astype(np.int64)
        np.maximum.accumulate(bounds, out=bounds)
        # Idle ranks (nparts > n_active) own the empty tail range.
        self.boundaries = np.concatenate(
            [bounds, np.full(nparts - self.n_active, self.n_global,
                             dtype=np.int64)])

    # ------------------------------------------------------------------
    # collective construction (mirrors EdgeBlockPartition)
    # ------------------------------------------------------------------
    @classmethod
    def from_edge_chunks(
        cls, comm: Communicator, src_gids: np.ndarray, n_global: int,
        fallback: bool = False,
    ) -> "GridEdgePartition":
        """Build collectively from each rank's ingested edge chunk."""
        local = np.bincount(
            np.asarray(src_gids, dtype=np.int64), minlength=n_global
        ).astype(np.int64)
        degrees = comm.allreduce(local, SUM)
        return cls(degrees, comm.size, fallback=fallback)

    # ------------------------------------------------------------------
    # grid structure
    # ------------------------------------------------------------------
    def is_active(self, rank: int) -> bool:
        """False for idle ranks of a fallback grid (they own nothing)."""
        self._check_rank(rank)
        return rank < self.n_active

    def grid_coords(self, rank: int) -> tuple[int, int]:
        """Grid ``(row, col)`` of an active rank; ``(-1, -1)`` when idle."""
        self._check_rank(rank)
        if rank >= self.n_active:
            return (-1, -1)
        return rank // self.grid_cols, rank % self.grid_cols

    def row_range(self, i: int) -> tuple[int, int]:
        """Global id range ``[lo, hi)`` of grid row ``i``'s (contiguous)
        row slice — the union of the chunks owned by ranks ``i*c .. i*c+c-1``."""
        if not (0 <= i < self.grid_rows):
            raise ValueError(f"grid row {i} out of range")
        c = self.grid_cols
        return int(self.boundaries[i * c]), int(self.boundaries[(i + 1) * c])

    def col_chunk_counts(self, j: int) -> np.ndarray:
        """Chunk sizes (one per grid row) of grid column ``j``'s column
        slice — the *strided* union of the chunks owned by ranks
        ``{i*c + j}``, ordered by grid row."""
        if not (0 <= j < self.grid_cols):
            raise ValueError(f"grid col {j} out of range")
        owners = np.arange(self.grid_rows, dtype=np.int64) * self.grid_cols + j
        return (self.boundaries[owners + 1] - self.boundaries[owners]) \
            .astype(np.int64)

    def col_slice_gids(self, j: int) -> np.ndarray:
        """Global ids of grid column ``j``'s column slice, in slice order."""
        owners = np.arange(self.grid_rows, dtype=np.int64) * self.grid_cols + j
        parts = [np.arange(self.boundaries[k], self.boundaries[k + 1],
                           dtype=np.int64) for k in owners]
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    def col_index_of(self, j: int, gids: np.ndarray) -> np.ndarray:
        """Column-slice-local index of each gid in column ``j``'s slice.

        Every gid must be owned by a rank of grid column ``j``.
        """
        gids = np.asarray(gids, dtype=np.int64)
        owners = self.owner_of(gids)
        if len(gids) and not np.all(owners % self.grid_cols == j):
            raise ValueError(f"ids outside grid column {j}")
        offsets = np.concatenate(
            ([0], np.cumsum(self.col_chunk_counts(j))))
        i = owners // self.grid_cols
        return (offsets[i] + gids - self.boundaries[owners]).astype(np.int64)
