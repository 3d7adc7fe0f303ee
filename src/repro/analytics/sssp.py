"""Distributed single-source shortest paths (collection extension, §VII).

The paper's third follow-on direction is "to extend this collection of
analytics with other implementations".  SSSP is the natural next member of
the BFS-like class: the same bulk-synchronous structure, but per-vertex
*distances* relax along weighted edges until a fixed point (distributed
Bellman–Ford, the standard choice when edge weights are arbitrary and the
diameter is small — exactly the web-graph regime).

Bellman–Ford is Δ-stepping's one-bucket case: :func:`sssp` runs
:func:`~repro.analytics.delta_stepping.delta_stepping` with Δ = ∞, whose
light rounds are exactly the Bellman–Ford rounds, each relaxing only the
sources whose distance changed since they last relaxed.

Edge weights are supplied per local in-edge, or derived deterministically
from the endpoint ids (so every rank count and both layouts see identical
weights without shipping a weight array); :func:`edge_weights` resolves
and checks them for both SSSP kernels and the validator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import expand_rows
from ..graph.distgraph import DistGraph, GridGraph
from ..runtime import Communicator

__all__ = ["SSSPResult", "sssp", "default_weights", "edge_weights",
           "hash_edge_weights"]


def hash_edge_weights(src_g: np.ndarray, dst_g: np.ndarray) -> np.ndarray:
    """Deterministic pseudo-random weights in [1, 10) per (u, v) edge.

    Hashed purely from the *global* endpoint ids, so the weight of edge
    (u, v) is identical under any partitioning (1-D or 2-D) or rank count.
    """
    src_g = np.asarray(src_g).astype(np.uint64)
    dst_g = np.asarray(dst_g).astype(np.uint64)
    with np.errstate(over="ignore"):
        h = src_g * np.uint64(0x9E3779B97F4A7C15) ^ \
            dst_g * np.uint64(0xBF58476D1CE4E5B9)
        h = (h ^ (h >> np.uint64(33))) * np.uint64(0xD6E8FEB86659FD93)
        h ^= h >> np.uint64(32)
    return 1.0 + 9.0 * (h.astype(np.float64) / float(2**64))


def default_weights(g: DistGraph | GridGraph) -> np.ndarray:
    """:func:`hash_edge_weights` of every local in-entry: ``g.in_edges``
    (1-D) or ``g.bu_edges`` (grid), so both layouts see the same weights."""
    if isinstance(g, GridGraph):
        return hash_edge_weights(g.col_unmap[g.bu_edges],
                                 g.row_lo + expand_rows(g.bu_indexes))
    rows = expand_rows(g.in_indexes)
    return hash_edge_weights(g.unmap[g.in_edges], g.unmap[rows])


def edge_weights(g: DistGraph | GridGraph,
                 weights: np.ndarray | None = None) -> np.ndarray:
    """Checked float64 weight per local in-entry of ``g``: ``weights`` when
    given, else the graph's stored edge values, else the hash weights."""
    grid = isinstance(g, GridGraph)
    edges, values = (g.bu_edges, g.bu_values) if grid else \
        (g.in_edges, g.in_values)
    if weights is None:
        weights = values if values is not None else default_weights(g)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != edges.shape:
        raise ValueError("weights must align with g.in_edges (g.bu_edges "
                         "on a grid)")
    if not np.all(weights >= 0):
        raise ValueError("weights must be non-negative")
    return weights


@dataclass(frozen=True)
class SSSPResult:
    """Per-rank shortest-path output."""

    distances: np.ndarray  # per local vertex; inf = unreachable
    n_iters: int
    reached: int  # global count of vertices with finite distance


def sssp(
    comm: Communicator,
    g: DistGraph,
    root_global: int,
    weights: np.ndarray | None = None,
    max_iters: int = 10_000,
) -> SSSPResult:
    """Shortest distances from ``root_global`` along out-edges.

    Parameters
    ----------
    weights:
        Non-negative weight per local **in-edge** (see
        :func:`edge_weights`).
    max_iters:
        Safety bound on relaxation rounds (n-1 suffices in theory);
        ``RuntimeError`` when exhausted.

    Notes
    -----
    Runs :func:`~repro.analytics.delta_stepping.delta_stepping` with
    Δ = ∞: one bucket ``[0, ∞)``, every edge light.  ``n_iters`` counts
    its light rounds — the Bellman–Ford rounds, the last of which changes
    nothing — and not the (empty) heavy pass.
    """
    from .delta_stepping import delta_stepping

    res = delta_stepping(comm, g, root_global, delta=np.inf, weights=weights,
                         max_rounds=max_iters)
    return SSSPResult(distances=res.distances,
                      n_iters=res.n_relax_rounds - res.n_phases,
                      reached=res.reached)
