"""Distributed PageRank by power iteration (paper §III-D1).

The prototypical "PageRank-like" analytic: every iteration each vertex's
rank mass flows along its out-edges; ghost values are refreshed with one
retained-queue halo exchange per iteration.  The computation per rank is
one sparse matrix–vector product with the graph's cached in-edge operator
(:func:`~repro.analytics.common.csr_operator`) — the paper's inner loop
over adjacencies, each row summed sequentially in stored order.

Dangling vertices (zero out-degree, ubiquitous in web crawls) distribute
their mass uniformly, matching the standard formulation (and NetworkX, used
as the correctness oracle in tests).  The stopping criterion is either a
fixed iteration count (the paper reports fixed 10-iteration runs) or an
L1-error tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.distgraph import DistGraph
from ..runtime import SUM, Communicator
from .common import csr_operator
from .exchange import halo_of

__all__ = ["PageRankResult", "pagerank"]


@dataclass(frozen=True)
class PageRankResult:
    """Per-rank PageRank output."""

    scores: np.ndarray  # PageRank of each locally-owned vertex
    n_iters: int
    final_delta: float  # global L1 change of the last iteration


def pagerank(
    comm: Communicator,
    g: DistGraph,
    damping: float = 0.85,
    max_iters: int = 10,
    tol: float | None = None,
    personalization: np.ndarray | None = None,
) -> PageRankResult:
    """Compute PageRank of every vertex of the distributed graph.

    Parameters
    ----------
    damping:
        Teleport damping factor d; scores solve
        ``x = (1-d) t + d (P^T x + dangling · t)`` where ``t`` is the
        teleport distribution (uniform by default).
    max_iters:
        Iteration budget.
    tol:
        Optional global L1 convergence threshold; when given, iteration
        stops early once ``sum |x_new - x| < tol``.
    personalization:
        Optional non-negative teleport weight per *locally-owned* vertex
        (length ``n_loc``); normalized globally.  Dangling mass follows the
        same distribution, matching NetworkX's personalized PageRank.

    Returns
    -------
    PageRankResult
        Scores sum to 1 across all ranks (up to floating-point error).
    """
    if not (0.0 < damping < 1.0):
        raise ValueError("damping must be in (0, 1)")
    if max_iters < 0:
        raise ValueError("max_iters must be non-negative")
    with comm.region("pagerank"):
        halo = halo_of(comm, g)
        n_loc, n_tot, n = g.n_loc, g.n_total, g.n_global

        if personalization is None:
            teleport = np.full(n_loc, 1.0 / n, dtype=np.float64)
        else:
            personalization = np.asarray(personalization, dtype=np.float64)
            if personalization.shape != (n_loc,):
                raise ValueError(
                    f"personalization must have length n_loc={n_loc}")
            if len(personalization) and personalization.min() < 0:
                raise ValueError("personalization weights must be >= 0")
            total = comm.allreduce(float(personalization.sum()), SUM)
            if total <= 0:
                raise ValueError("personalization must have positive mass")
            teleport = personalization / total

        # Ghost out-degrees are needed to normalize contributions; fuse
        # their refresh with the initial score refresh (one collective).
        outdeg = np.zeros(n_tot, dtype=np.float64)
        outdeg[:n_loc] = g.out_degrees()
        x = np.full(n_tot, 1.0 / n, dtype=np.float64)
        x[:n_loc] = teleport  # start at the teleport distribution
        halo.exchange_many(outdeg, x)
        base = (1.0 - damping) * teleport
        dangling_local = outdeg[:n_loc] == 0

        A = csr_operator(g, "in")
        n_iters = 0
        delta = float("inf")
        # x / inf = 0: a dangling vertex contributes nothing along edges.
        safe_outdeg = np.where(outdeg > 0, outdeg, np.inf)
        # One allreduce per iteration: this iteration's |Δ| rides with the
        # next one's dangling mass (the first is reduced before the loop).
        dangling = comm.allreduce(float(x[:n_loc][dangling_local].sum()), SUM)
        for _ in range(max_iters):
            sums = A @ (x / safe_outdeg)
            x_new = base + damping * (sums + dangling * teleport)
            local = np.array([np.abs(x_new - x[:n_loc]).sum(),
                              x_new[dangling_local].sum()])
            delta, dangling = (float(v) for v in comm.allreduce(local, SUM))
            x[:n_loc] = x_new
            halo.exchange(x)
            n_iters += 1
            if tol is not None and delta < tol:
                break

        return PageRankResult(scores=x[:n_loc].copy(), n_iters=n_iters,
                              final_delta=float(delta))
