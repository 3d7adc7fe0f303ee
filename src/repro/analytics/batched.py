"""Blocked personalized PageRank — the serving layer's batched PPR kernel.

A long-lived serving deployment (``repro.service``) sees many small queries
against one resident graph.  Running k personalized PageRanks one at a time
costs k × (iterations × halo exchange); running them *together* shares
every exchange across the batch, which is exactly the regime where
Buluç & Madduri's batched techniques pay off at small message sizes (the
alpha term dominates).

:func:`batched_personalized_pagerank` is blocked power iteration for k
personalization seeds: the rank vector becomes an ``(n_tot, k)`` block;
each iteration is one segmented sum over the in-CSR applied to all columns
and *one* halo exchange of the whole block (k values per ghost in one
message instead of k messages).  It is validated against looped
single-seed :func:`~repro.analytics.pagerank.pagerank` runs in
``tests/test_batched.py``.

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
from .exchange import HaloExchange

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
    halo: HaloExchange | None = None,
) -> BatchedPPRResult:
    """Personalized PageRank for k teleport seeds in one blocked sweep.

    Column j solves the same fixed point as
    ``pagerank(..., personalization=indicator(seed_j))``: all teleport
    (and dangling) mass returns to the single seed vertex.  The k power
    iterations advance in lockstep, so every iteration costs one blocked
    segment-sum and one ``(n_gst, k)`` halo exchange instead of k of each.

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
        if halo is None:
            halo = HaloExchange(comm, g)
        n_loc, n_tot = g.n_loc, g.n_total

        # Teleport block: column j is the indicator of seed j (owned on
        # exactly one rank, so each column's global mass is exactly 1).
        teleport = np.zeros((n_loc, k), dtype=np.float64)
        mine = np.flatnonzero(g.partition.owner_of(seeds) == comm.rank)
        teleport[g.partition.to_local(comm.rank, seeds[mine]), mine] = 1.0

        outdeg = np.zeros(n_tot, dtype=np.float64)
        outdeg[:n_loc] = g.out_degrees()
        halo.exchange(outdeg)
        safe_outdeg = np.where(outdeg > 0, outdeg, 1.0)
        dangling_local = outdeg[:n_loc] == 0

        x = np.zeros((n_tot, k), dtype=np.float64)
        x[:n_loc] = teleport
        halo.exchange(x)
        base = (1.0 - damping) * teleport

        n_iters = 0
        deltas = np.full(k, np.inf)
        # One allreduce per iteration, as in pagerank(): this iteration's
        # deltas ride with the next one's dangling mass.
        dangling = comm.allreduce(x[:n_loc][dangling_local].sum(axis=0), SUM)
        for _ in range(max_iters):
            contrib = x / safe_outdeg[:, None]
            contrib[outdeg == 0, :] = 0.0
            sums = _segment_sum_block(g.in_indexes, contrib[g.in_edges])
            x_new = base + damping * (sums + teleport * dangling)
            deltas, dangling = comm.allreduce(
                np.stack((np.abs(x_new - x[:n_loc]).sum(axis=0),
                          x_new[dangling_local].sum(axis=0))), SUM)
            x[:n_loc] = x_new
            halo.exchange(x)
            n_iters += 1
            if tol is not None and float(deltas.max()) < tol:
                break

        return BatchedPPRResult(scores=x[:n_loc].copy(), seeds=seeds.copy(),
                                n_iters=n_iters,
                                final_deltas=np.asarray(deltas, dtype=np.float64))


def _segment_sum_block(indptr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-row sum of an ``(nnz, k)`` block over a CSR (empty rows → 0)."""
    n = len(indptr) - 1
    out = np.zeros((n, values.shape[1]), dtype=np.float64)
    if len(values) == 0 or n == 0:
        return out
    nonempty = indptr[:-1] < indptr[1:]
    if not nonempty.any():
        return out
    starts = indptr[:-1][nonempty]
    out[nonempty] = np.add.reduceat(values, starts, axis=0)
    return out
