"""Distributed Harmonic Centrality (paper §III-D, Boldi & Vigna axioms).

Harmonic centrality of a vertex v is ``Σ_{u≠v} 1/d(u, v)`` with ``1/∞ = 0``
— the reciprocal-distance sum over vertices that can *reach* v.  One
vertex's score costs one BFS over in-edges (distances to v follow reversed
edges), so scoring all vertices is infeasible at scale; the paper computes
the top-1000 vertices by degree and reports single-vertex times.

:func:`harmonic_centrality_many` scores its targets from one reverse
:func:`~repro.analytics.bfs.multi_source_bfs`, so the k traversals share
each level's exchange; :func:`harmonic_centrality` is its one-vertex case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.distgraph import DistGraph
from ..runtime import MAX, SUM, Communicator
from .bfs import multi_source_bfs

__all__ = ["HarmonicResult", "harmonic_centrality", "top_degree_vertices",
           "harmonic_centrality_many"]


@dataclass(frozen=True)
class HarmonicResult:
    """Score of one vertex plus traversal statistics."""

    vertex: int
    score: float
    n_reaching: int  # vertices with a finite distance to the target
    eccentricity: int  # max finite distance observed


def top_degree_vertices(comm: Communicator, g: DistGraph, k: int) -> np.ndarray:
    """Global ids of the ``k`` highest-total-degree vertices.

    Ties break toward lower vertex id.  Each rank contributes its local
    top-k candidates, chosen by the same (degree desc, id asc) order so a
    tie at the cut keeps the lower ids; the winners are selected
    identically on every rank.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    deg = g.total_degrees()
    idx = np.lexsort((g.unmap[:g.n_loc], -deg))[:k]
    cand = np.stack([-deg[idx], g.unmap[idx]], axis=1)  # sortable keys
    all_cand, _ = comm.allgatherv(cand.reshape(-1).astype(np.int64))
    pairs = all_cand.reshape(-1, 2)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))  # by degree desc, id asc
    top = pairs[order[:k], 1]
    return top.astype(np.int64)


def harmonic_centrality_many(
    comm: Communicator, g: DistGraph, vertices: np.ndarray
) -> list[HarmonicResult]:
    """Score several vertices (e.g. the top-k by degree) from one reverse
    multi-source BFS."""
    vertices = np.atleast_1d(np.asarray(vertices, dtype=np.int64))
    with comm.region("harmonic"):
        # BFS along in-edges: lev[u, j] = d(u -> vertices[j]) in the
        # original graph.
        lev = multi_source_bfs(comm, g, vertices, direction="in")
        # Column by column, so each score sums exactly as one BFS's would.
        local_score = np.array([(1.0 / d[d > 0]).sum() for d in lev.T])
        score = comm.allreduce(local_score, SUM)
        n_reaching = comm.allreduce((lev > 0).sum(axis=0), SUM)
        # The target's own level 0 is a floor for every rank's maximum.
        ecc = comm.allreduce(lev.max(axis=0, initial=0), MAX)
    return [HarmonicResult(vertex=int(v), score=float(s), n_reaching=int(r),
                           eccentricity=int(e))
            for v, s, r, e in zip(vertices, score, n_reaching, ecc)]


def harmonic_centrality(
    comm: Communicator, g: DistGraph, v_global: int
) -> HarmonicResult:
    """Harmonic centrality of one global vertex (one reverse BFS)."""
    return harmonic_centrality_many(comm, g, [v_global])[0]
