"""Blocked personalized PageRank — the serving layer's batched PPR kernel.

A long-lived serving deployment (``repro.service``) sees many small queries
against one resident graph.  Running k personalized PageRanks one at a time
costs k × (iterations × halo exchange); running them *together* shares
every exchange across the batch, which is exactly the regime where
Buluç & Madduri's batched techniques pay off at small message sizes (the
alpha term dominates).

:func:`batched_personalized_pagerank` is blocked power iteration for k
personalization seeds: the rank vector becomes an ``(n_tot, k)`` block;
each iteration is one sparse matrix–matrix product of the graph's cached
in-edge operator (:func:`~repro.analytics.common.csr_operator`) with the
whole block and *one* halo exchange of it (k values per ghost in one
message instead of k messages).  The product sums every row sequentially
per column and the column sums are taken one column at a time, so column
j's bits depend on seed j alone — not on k or on its batch-mates — and
with ``tol=None`` they equal a single-seed
:func:`~repro.analytics.pagerank.pagerank` run's.  It is validated against
looped single-seed runs in ``tests/test_batched.py``.

The batched BFS-like kernels live with their single-source forms:
:func:`~repro.analytics.bfs.multi_source_bfs` (of which
:func:`~repro.analytics.bfs.distributed_bfs` is the k = 1 case) and
:func:`~repro.analytics.closeness.batched_closeness`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.distgraph import DistGraph
from ..runtime import SUM, Communicator
from .common import csr_operator
from .exchange import halo_of

__all__ = ["batched_personalized_pagerank", "BatchedPPRResult"]


@dataclass(frozen=True)
class BatchedPPRResult:
    """Per-rank blocked personalized-PageRank output."""

    scores: np.ndarray  # (n_loc, k): column j is the PPR for seed j
    seeds: np.ndarray  # (k,) global seed vertex ids
    n_iters: int
    final_deltas: np.ndarray  # (k,) global L1 change of the last iteration


def batched_personalized_pagerank(
    comm: Communicator,
    g: DistGraph,
    seeds_global,
    damping: float = 0.85,
    max_iters: int = 20,
    tol: float | None = None,
) -> BatchedPPRResult:
    """Personalized PageRank for k teleport seeds in one blocked sweep.

    Column j solves the same fixed point as
    ``pagerank(..., personalization=indicator(seed_j))``: all teleport
    (and dangling) mass returns to the single seed vertex.  The k power
    iterations advance in lockstep, so every iteration costs one sparse
    product with the ``(n_tot, k)`` block and one ``(n_gst, k)`` halo
    exchange instead of k of each.  With ``tol`` given, the batch stops
    when its slowest column converges.

    Returns
    -------
    BatchedPPRResult
        Each column sums to 1 across ranks (up to floating-point error).
    """
    if not (0.0 < damping < 1.0):
        raise ValueError("damping must be in (0, 1)")
    if max_iters < 0:
        raise ValueError("max_iters must be non-negative")
    seeds = np.atleast_1d(np.asarray(seeds_global, dtype=np.int64))
    k = len(seeds)
    if k == 0:
        raise ValueError("need at least one seed")
    if seeds.min() < 0 or seeds.max() >= g.n_global:
        raise ValueError("seed id out of range")
    with comm.region("ppr.batched"):
        halo = halo_of(comm, g)
        n_loc, n_tot = g.n_loc, g.n_total

        # Teleport block: column j is the indicator of seed j (owned on
        # exactly one rank, so each column's global mass is exactly 1).
        teleport = np.zeros((n_loc, k), dtype=np.float64)
        mine = np.flatnonzero(g.partition.owner_of(seeds) == comm.rank)
        teleport[g.partition.to_local(comm.rank, seeds[mine]), mine] = 1.0

        outdeg = np.zeros(n_tot, dtype=np.float64)
        outdeg[:n_loc] = g.out_degrees()
        halo.exchange(outdeg)
        # x / inf = 0: a dangling vertex contributes nothing along edges.
        safe_outdeg = np.where(outdeg > 0, outdeg, np.inf)
        dangling_local = outdeg[:n_loc] == 0

        x = np.zeros((n_tot, k), dtype=np.float64)
        x[:n_loc] = teleport
        halo.exchange(x)
        base = (1.0 - damping) * teleport

        A = csr_operator(g, "in")
        n_iters = 0
        deltas = np.full(k, np.inf)
        # One allreduce per iteration, as in pagerank(): this iteration's
        # deltas ride with the next one's dangling mass.
        dangling = comm.allreduce(_column_sums(x[:n_loc][dangling_local]),
                                  SUM)
        for _ in range(max_iters):
            contrib = x / safe_outdeg[:, None]
            x_new = base + damping * (A @ contrib + teleport * dangling)
            deltas, dangling = comm.allreduce(
                np.stack((_column_sums(np.abs(x_new - x[:n_loc])),
                          _column_sums(x_new[dangling_local]))), SUM)
            x[:n_loc] = x_new
            halo.exchange(x)
            n_iters += 1
            if tol is not None and float(deltas.max()) < tol:
                break

        return BatchedPPRResult(scores=x[:n_loc].copy(), seeds=seeds.copy(),
                                n_iters=n_iters,
                                final_deltas=np.asarray(deltas, dtype=np.float64))


def _column_sums(block: np.ndarray) -> np.ndarray:
    """Sum of each column of ``block``, each summed as a contiguous 1-D
    array of its own — the order ``pagerank`` sums its one column in.
    NumPy's ``sum(axis=0)`` picks its summation order by the block's
    shape, which would tie a column's bits to ``k``."""
    return np.ascontiguousarray(block.T).sum(axis=1)
