"""Closeness centrality (§VII extension; companion to harmonic).

Closeness is the other distance-based centrality the Boldi–Vigna axioms
paper (the paper's harmonic-centrality reference) analyzes: for the set R
of vertices that can reach v, ``closeness(v) = (|R|-1) / Σ_{u∈R} d(u,v)``,
with the Wasserman–Faust component scaling ``(|R|-1)/(n-1)`` applied so
scores of different components are comparable — exactly NetworkX's
``closeness_centrality`` definition (tested against it).

Like harmonic centrality, k vertices cost one reverse
:func:`~repro.analytics.bfs.multi_source_bfs` (levels shared per level of
communication); :func:`closeness_centrality` is the one-vertex case of
:func:`batched_closeness`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.distgraph import DistGraph
from ..runtime import SUM, Communicator
from .bfs import multi_source_bfs

__all__ = ["ClosenessResult", "closeness_centrality", "batched_closeness"]


@dataclass(frozen=True)
class ClosenessResult:
    """Closeness of one vertex plus reach statistics."""

    vertex: int
    score: float  # Wasserman-Faust scaled (NetworkX default)
    score_unscaled: float  # (|R|-1) / total distance
    n_reaching: int
    total_distance: int


def batched_closeness(
    comm: Communicator, g: DistGraph, vertices_global
) -> list[ClosenessResult]:
    """Closeness centrality of k vertices from one reverse multi-source BFS."""
    vertices = np.atleast_1d(np.asarray(vertices_global, dtype=np.int64))
    with comm.region("closeness"):
        lev = multi_source_bfs(comm, g, vertices, direction="in")
        reached = lev > 0
        totals = comm.allreduce(
            np.where(reached, lev, 0).sum(axis=0, dtype=np.int64), SUM)
        counts = comm.allreduce(reached.sum(axis=0, dtype=np.int64), SUM)
    n = g.n_global
    out: list[ClosenessResult] = []
    for v, total, count in zip(vertices, totals.tolist(), counts.tolist()):
        # Nothing reaches v: total == count == 0 and every field is zero.
        unscaled = count / total if total else 0.0
        scale = count / (n - 1) if n > 1 else 1.0
        out.append(ClosenessResult(vertex=int(v), score=unscaled * scale,
                                   score_unscaled=unscaled,
                                   n_reaching=count, total_distance=total))
    return out


def closeness_centrality(
    comm: Communicator, g: DistGraph, v_global: int
) -> ClosenessResult:
    """Closeness centrality of one global vertex (one reverse BFS)."""
    return batched_closeness(comm, g, [v_global])[0]
