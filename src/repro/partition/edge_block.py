"""Edge-block partitioning (paper §III-B, "WC-mp").

Each rank receives a contiguous vertex range chosen so that every range
carries approximately ``m/p`` (out-)edges.  This equalizes edge work at the
cost of potentially severe *vertex* imbalance.  Computing the ranges needs
the global degree distribution; during distributed ingestion each rank
counts degrees for its chunk and the histogram is combined with an
``allreduce`` (see :func:`from_edge_chunks`).
"""

from __future__ import annotations

import numpy as np

from ..runtime import SUM, Communicator
from .block import ContiguousPartition

__all__ = ["EdgeBlockPartition"]


class EdgeBlockPartition(ContiguousPartition):
    """Contiguous vertex ranges balanced by cumulative degree.

    Parameters
    ----------
    degrees:
        Global per-vertex (out-)degree array of length ``n_global``.
    """

    def __init__(self, degrees: np.ndarray, nparts: int):
        degrees = np.asarray(degrees, dtype=np.int64)
        super().__init__(len(degrees), nparts)
        if len(degrees) and degrees.min() < 0:
            raise ValueError("degrees must be non-negative")
        cum = np.cumsum(degrees)
        m = int(cum[-1]) if len(cum) else 0
        # Target the split points at j*m/p edges; each vertex goes to the
        # first range whose target its cumulative degree has not passed.
        targets = (np.arange(1, nparts, dtype=np.float64) * m) / nparts
        cuts = np.searchsorted(cum, targets, side="left") + 1
        self.boundaries = np.concatenate(
            ([0], np.minimum(cuts, self.n_global), [self.n_global])
        ).astype(np.int64)
        # Enforce monotonicity (degenerate distributions can collapse cuts).
        np.maximum.accumulate(self.boundaries, out=self.boundaries)

    @classmethod
    def from_edge_chunks(
        cls, comm: Communicator, src_gids: np.ndarray, n_global: int
    ) -> "EdgeBlockPartition":
        """Build collectively from each rank's ingested edge chunk.

        ``src_gids`` is the source-endpoint column of the rank's chunk; the
        global out-degree histogram is an ``allreduce(SUM)`` of per-chunk
        ``bincount`` s.
        """
        local = np.bincount(
            np.asarray(src_gids, dtype=np.int64), minlength=n_global
        ).astype(np.int64)
        degrees = comm.allreduce(local, SUM)
        return cls(degrees, comm.size)
