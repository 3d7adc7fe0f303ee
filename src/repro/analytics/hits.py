"""Distributed HITS — hubs and authorities (§VII extension).

Kleinberg's HITS is *the* classical hyperlink-graph analytic beside
PageRank, and another pure member of the paper's PageRank-like class: each
iteration the authority score pulls hub mass over in-edges, the hub score
pulls authority mass over out-edges — one product with the graph's cached
in- and out-edge operator each (:func:`~repro.analytics.common.csr_operator`)
— and one halo exchange per direction refreshes the ghosts.  Scores are
L2-normalized globally per iteration (NetworkX-compatible output is
L1-normalized at the end).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.distgraph import DistGraph
from ..runtime import SUM, Communicator
from .common import csr_operator
from .exchange import halo_of

__all__ = ["HITSResult", "hits"]


@dataclass(frozen=True)
class HITSResult:
    """Per-rank HITS output (L1-normalized, NetworkX convention)."""

    hubs: np.ndarray
    authorities: np.ndarray
    n_iters: int
    final_delta: float


def hits(
    comm: Communicator,
    g: DistGraph,
    max_iters: int = 100,
    tol: float | None = 1e-8,
) -> HITSResult:
    """Compute hub and authority scores of every vertex.

    Parameters
    ----------
    max_iters:
        Iteration budget.
    tol:
        Global L1 convergence threshold on the hub vector (per-iteration
        change); ``None`` runs the full budget.

    Returns
    -------
    HITSResult
        Hub and authority vectors each sum to 1 globally (matching
        ``networkx.hits``; tested against it).
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    with comm.region("hits"):
        halo = halo_of(comm, g)
        n_loc, n_tot = g.n_loc, g.n_total

        h = np.full(n_tot, 1.0 / max(g.n_global, 1), dtype=np.float64)
        a = np.zeros(n_tot, dtype=np.float64)
        A_in, A_out = csr_operator(g, "in"), csr_operator(g, "out")

        n_iters = 0
        delta = float("inf")
        for _ in range(max_iters):
            h_old = h[:n_loc].copy()
            # Authorities: sum of hub scores over in-edges.
            a_new = A_in @ h
            a[:n_loc] = a_new
            norm = np.sqrt(comm.allreduce(float((a_new**2).sum()), SUM))
            if norm > 0:
                a[:n_loc] /= norm
            halo.exchange(a)
            # Hubs: sum of authority scores over out-edges.
            h_new = A_out @ a
            h[:n_loc] = h_new
            norm = np.sqrt(comm.allreduce(float((h_new**2).sum()), SUM))
            if norm > 0:
                h[:n_loc] /= norm
            halo.exchange(h)
            n_iters += 1
            delta = comm.allreduce(
                float(np.abs(h[:n_loc] - h_old).sum()), SUM)
            if tol is not None and delta < tol:
                break

        # L1-normalize for the conventional (NetworkX) output scale.
        h_sum = comm.allreduce(float(h[:n_loc].sum()), SUM)
        a_sum = comm.allreduce(float(a[:n_loc].sum()), SUM)
        hubs = h[:n_loc] / h_sum if h_sum > 0 else h[:n_loc].copy()
        auth = a[:n_loc] / a_sum if a_sum > 0 else a[:n_loc].copy()
        return HITSResult(hubs=hubs, authorities=auth, n_iters=n_iters,
                          final_delta=float(delta))
