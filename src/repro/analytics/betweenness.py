"""Distributed betweenness centrality (Brandes, level-synchronous; §VII).

The heaviest member added to the paper's analytic collection: Brandes'
algorithm computes, per source vertex, shortest-path counts by a forward
level sweep and dependency accumulation by a backward level sweep.  Both
sweeps are expressible in the repository's bulk-synchronous idiom — one
segmented reduction per level plus one halo exchange — so betweenness is
"BFS-like" with a backward pass.

Exact betweenness needs every vertex as a source (O(nm)); web-scale use
samples ``k`` sources uniformly and scales the estimate (Brandes & Pich),
mirroring how the paper restricts Harmonic Centrality to top-degree seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import segment_sum
from ..graph.distgraph import DistGraph
from ..runtime import MAX, Communicator
from .bfs import distributed_bfs
from .exchange import halo_of

__all__ = ["BetweennessResult", "betweenness_centrality"]


@dataclass(frozen=True)
class BetweennessResult:
    """Per-rank betweenness output."""

    scores: np.ndarray  # per local vertex
    n_sources: int
    normalized: bool


def _accumulate_source(
    comm: Communicator,
    g: DistGraph,
    source: int,
    bc: np.ndarray,
) -> None:
    """Add source's dependencies into ``bc`` (Brandes inner loop)."""
    halo = halo_of(comm, g)
    n_loc, n_tot = g.n_loc, g.n_total

    levels = np.full(n_tot, -2, dtype=np.int64)
    levels[:n_loc] = distributed_bfs(comm, g, source, direction="out")
    halo.exchange(levels)
    local_max = int(levels[:n_loc].max()) if n_loc else -2
    max_level = int(comm.allreduce(local_max, MAX))
    if max_level < 1:
        return  # source unreachable from anything or isolated

    # Forward sweep: shortest-path counts per level.
    sigma = np.zeros(n_tot, dtype=np.float64)
    owner = g.partition.owner_of(np.array([source]))[0]
    if owner == comm.rank:
        sigma[g.partition.to_local(comm.rank, np.array([source]))[0]] = 1.0
    halo.exchange(sigma)
    for level in range(1, max_level + 1):
        from_prev = levels[g.in_edges] == level - 1
        contrib = np.where(from_prev, sigma[g.in_edges], 0.0)
        sums = segment_sum(g.in_indexes, contrib)
        at_level = levels[:n_loc] == level
        sigma[:n_loc][at_level] = sums[at_level]
        halo.exchange(sigma)

    # Backward sweep: dependency accumulation.
    delta = np.zeros(n_tot, dtype=np.float64)
    for level in range(max_level - 1, -1, -1):
        succ = levels[g.out_edges] == level + 1
        safe_sigma = np.maximum(sigma[g.out_edges], 1.0)
        contrib = np.where(succ, (1.0 + delta[g.out_edges]) / safe_sigma, 0.0)
        sums = segment_sum(g.out_indexes, contrib)
        at_level = levels[:n_loc] == level
        delta[:n_loc][at_level] = sigma[:n_loc][at_level] * sums[at_level]
        halo.exchange(delta)

    credit = delta[:n_loc].copy()
    if owner == comm.rank:
        credit[g.partition.to_local(comm.rank, np.array([source]))[0]] = 0.0
    bc += credit


def betweenness_centrality(
    comm: Communicator,
    g: DistGraph,
    sources: np.ndarray | None = None,
    k: int | None = None,
    seed: int = 0,
    normalized: bool = False,
) -> BetweennessResult:
    """Betweenness centrality over directed shortest paths.

    Parameters
    ----------
    sources:
        Explicit global source ids; exact betweenness uses all vertices
        (the default when ``k`` is also None).
    k:
        Sample this many sources uniformly at random instead (estimates
        are scaled by ``n/k``, the Brandes–Pich estimator).
    normalized:
        Divide by ``(n-1)(n-2)``, NetworkX's directed normalization.

    Returns
    -------
    BetweennessResult
        ``scores[i]`` for local vertex ``i``; exact runs match NetworkX's
        ``betweenness_centrality`` (tested).
    """
    with comm.region("betweenness"):
        n = g.n_global
        if sources is not None and k is not None:
            raise ValueError("pass either sources or k, not both")
        scale = 1.0
        if sources is not None:
            sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
            if len(sources) and (sources.min() < 0 or sources.max() >= n):
                raise ValueError("source id out of range")
        elif k is not None:
            if not (1 <= k <= n):
                raise ValueError("k must be in [1, n]")
            rng = np.random.default_rng(seed)  # same seed ⇒ same on all ranks
            sources = rng.choice(n, size=k, replace=False).astype(np.int64)
            scale = n / k
        else:
            sources = np.arange(n, dtype=np.int64)

        bc = np.zeros(g.n_loc, dtype=np.float64)
        for s in sources:
            _accumulate_source(comm, g, int(s), bc)

        bc *= scale
        if normalized and n > 2:
            bc /= (n - 1) * (n - 2)
        return BetweennessResult(scores=bc, n_sources=len(sources),
                                 normalized=normalized)
