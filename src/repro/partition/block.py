"""Vertex-block partitioning (paper §III-B, "WC-np").

Each rank receives a contiguous range of ``~n/p`` vertex ids in natural
ordering.  This retains whatever locality the input vertex numbering has
(for the web crawl, pages of a host are numbered together), at the cost of
potentially severe *edge* imbalance on skewed graphs.

:class:`ContiguousPartition` is the range arithmetic every contiguous
partition shares (vertex-block, edge-block and the 2-D grid's chunks).
"""

from __future__ import annotations

import numpy as np

from .base import Partition

__all__ = ["ContiguousPartition", "VertexBlockPartition"]


class ContiguousPartition(Partition):
    """Rank ``r`` owns ids ``[boundaries[r], boundaries[r+1])``.

    Subclasses set ``boundaries`` (``nparts + 1`` non-decreasing entries
    from 0 to ``n_global``); ownership and the global↔local conversions
    are arithmetic on it.
    """

    boundaries: np.ndarray

    def owner_of(self, gids: np.ndarray) -> np.ndarray:
        gids = np.asarray(gids, dtype=np.int64)
        if len(np.atleast_1d(gids)) and (
            np.min(gids) < 0 or np.max(gids) >= self.n_global
        ):
            raise ValueError("global ids out of range")
        return (np.searchsorted(self.boundaries, gids, side="right") - 1).astype(
            np.int64
        )

    def owned_gids(self, rank: int) -> np.ndarray:
        self._check_rank(rank)
        return np.arange(self.boundaries[rank], self.boundaries[rank + 1],
                         dtype=np.int64)

    def n_owned(self, rank: int) -> int:
        self._check_rank(rank)
        return int(self.boundaries[rank + 1] - self.boundaries[rank])

    def to_local(self, rank: int, gids: np.ndarray) -> np.ndarray:
        self._check_rank(rank)
        gids = np.asarray(gids, dtype=np.int64)
        lo, hi = self.boundaries[rank], self.boundaries[rank + 1]
        if len(np.atleast_1d(gids)) and (np.min(gids) < lo or np.max(gids) >= hi):
            raise ValueError(f"ids not owned by rank {rank}")
        return (gids - lo).astype(np.int64)

    def to_global(self, rank: int, lids: np.ndarray) -> np.ndarray:
        self._check_rank(rank)
        lids = np.asarray(lids, dtype=np.int64)
        n_loc = self.n_owned(rank)
        if len(np.atleast_1d(lids)) and (np.min(lids) < 0 or np.max(lids) >= n_loc):
            raise ValueError(f"local ids out of range for rank {rank}")
        return lids + self.boundaries[rank]


class VertexBlockPartition(ContiguousPartition):
    """Contiguous equal-count vertex ranges.

    Rank ``r`` owns ids ``[boundaries[r], boundaries[r+1])`` where the first
    ``n % p`` ranks receive one extra vertex.
    """

    def __init__(self, n_global: int, nparts: int):
        super().__init__(n_global, nparts)
        base, extra = divmod(self.n_global, self.nparts)
        counts = np.full(self.nparts, base, dtype=np.int64)
        counts[:extra] += 1
        self.boundaries = np.zeros(self.nparts + 1, dtype=np.int64)
        np.cumsum(counts, out=self.boundaries[1:])
