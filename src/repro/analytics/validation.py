"""Distributed self-validation of analytic outputs (Graph500-style).

The Graph500 benchmark the paper references requires every BFS run to be
*validated* against structural invariants rather than a reference
implementation (which would not scale).  This module provides the same
kind of distributed validators for this repository's analytics: each check
runs as an SPMD computation over the same distributed graph, so it works at
any scale — unlike the NetworkX oracles in the test suite, which exist only
for laptop-sized inputs.

All validators return a list of human-readable violation strings (empty =
valid) and never modify their inputs.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import expand_rows, segment_count_nonzero, segment_min, segment_sum
from ..graph.distgraph import DistGraph
from ..runtime import SUM, Communicator
from .common import NOT_VISITED
from .exchange import halo_of
from .sssp import edge_weights

__all__ = [
    "validate_bfs_levels",
    "validate_components",
    "validate_pagerank",
    "validate_distances",
]


def _gather_violations(comm: Communicator, local: list[str]) -> list[str]:
    """Combine per-rank violation lists (identical result on every rank)."""
    all_lists = comm.allgather(local)
    out: list[str] = []
    for r, lst in enumerate(all_lists):
        out.extend(f"rank {r}: {v}" for v in lst)
    return out


def validate_bfs_levels(
    comm: Communicator,
    g: DistGraph,
    levels_local: np.ndarray,
    roots_global,
    direction: str = "out",
) -> list[str]:
    """Graph500-style BFS validation.

    Checks: roots at level 0; every reached non-root vertex has an in-tree
    predecessor exactly one level below; no edge skips a level (for the
    traversal direction); unreached vertices have no reached predecessor.
    """
    n_loc = g.n_loc
    levels = np.full(g.n_total, NOT_VISITED, dtype=np.int64)
    levels[:n_loc] = levels_local
    halo_of(comm, g).exchange(levels)

    bad: list[str] = []
    roots = np.atleast_1d(np.asarray(roots_global, dtype=np.int64))
    my_roots = roots[g.partition.owner_of(roots) == comm.rank]
    lids = g.partition.to_local(comm.rank, my_roots)
    for r, lid in zip(my_roots, lids):
        if levels[lid] != 0:
            bad.append(f"root {int(r)} has level {int(levels[lid])}, not 0")

    # Predecessor structure: for direction "out", v's predecessors are its
    # in-neighbors; for "in", its out-neighbors; "both" uses both.
    if direction == "out":
        pred_sets = [(g.in_indexes, g.in_edges)]
    elif direction == "in":
        pred_sets = [(g.out_indexes, g.out_edges)]
    elif direction == "both":
        pred_sets = [(g.in_indexes, g.in_edges), (g.out_indexes, g.out_edges)]
    else:
        raise ValueError(f"invalid direction {direction!r}")

    min_pred = np.full(n_loc, np.inf, dtype=np.float64)
    for indptr, adj in pred_sets:
        if not len(adj):
            continue
        plev = levels[adj].astype(np.float64)
        plev[plev < 0] = np.inf
        # Per-vertex min predecessor level (entries are grouped by row).
        np.minimum(min_pred, segment_min(indptr, plev, np.inf), out=min_pred)

    is_root = np.zeros(n_loc, dtype=bool)
    is_root[lids] = True
    reached = levels[:n_loc] >= 0

    # Reached non-roots need a predecessor exactly one level below.
    need = reached & ~is_root
    wrong_parent = need & (min_pred != levels[:n_loc] - 1)
    for v in np.flatnonzero(wrong_parent)[:5]:
        bad.append(
            f"vertex {int(g.unmap[v])} at level {int(levels[v])} has min "
            f"predecessor level {min_pred[v]}")
    # Unreached vertices must not have a reached predecessor.
    ghost_reach = (~reached) & np.isfinite(min_pred)
    for v in np.flatnonzero(ghost_reach)[:5]:
        bad.append(
            f"vertex {int(g.unmap[v])} unreached but predecessor at level "
            f"{min_pred[v]}")

    return _gather_violations(comm, bad)


def validate_components(
    comm: Communicator,
    g: DistGraph,
    labels_local: np.ndarray,
    directed: bool = False,
) -> list[str]:
    """Component labels must be constant across (weak) edges.

    With ``directed=False`` every edge's endpoints must share a label
    (WCC); this is a necessary condition only (it does not detect
    over-merged labels), which is exactly what is checkable in linear work.
    """
    labels = np.empty(g.n_total, dtype=np.int64)
    labels[: g.n_loc] = labels_local
    halo_of(comm, g).exchange(labels)

    bad: list[str] = []
    rows = expand_rows(g.out_indexes)
    mismatch = labels[rows] != labels[g.out_edges]
    if not directed and mismatch.any():
        i = int(np.flatnonzero(mismatch)[0])
        bad.append(
            f"edge ({int(g.unmap[rows[i]])} -> "
            f"{int(g.unmap[g.out_edges[i]])}) crosses labels "
            f"{int(labels[rows[i]])} / {int(labels[g.out_edges[i]])}")
    return _gather_violations(comm, bad)


def validate_pagerank(
    comm: Communicator,
    g: DistGraph,
    scores_local: np.ndarray,
    damping: float = 0.85,
    tol: float = 1e-6,
) -> list[str]:
    """PageRank sanity: positive scores, unit mass, small fixed-point
    residual of the PageRank equation."""
    halo = halo_of(comm, g)
    n_loc, n = g.n_loc, g.n_global
    bad: list[str] = []
    if len(scores_local) and scores_local.min() <= 0:
        bad.append("non-positive scores present")
    total = comm.allreduce(float(np.sum(scores_local)), SUM)
    if abs(total - 1.0) > 1e-6:
        bad.append(f"scores sum to {total}, not 1")

    x = np.empty(g.n_total, dtype=np.float64)
    x[:n_loc] = scores_local
    halo.exchange(x)
    outdeg = np.zeros(g.n_total, dtype=np.float64)
    outdeg[:n_loc] = g.out_degrees()
    halo.exchange(outdeg)
    contrib = np.where(outdeg > 0, x / np.maximum(outdeg, 1.0), 0.0)
    sums = segment_sum(g.in_indexes, contrib[g.in_edges])
    dangling = comm.allreduce(
        float(x[:n_loc][outdeg[:n_loc] == 0].sum()), SUM)
    expect = (1 - damping) / n + damping * (sums + dangling / n)
    residual = comm.allreduce(float(np.abs(expect - x[:n_loc]).sum()), SUM)
    if residual > tol:
        bad.append(f"fixed-point residual {residual} exceeds {tol}")
    return _gather_violations(comm, bad)


def validate_distances(
    comm: Communicator,
    g: DistGraph,
    dist_local: np.ndarray,
    root_global: int,
    weights: np.ndarray | None = None,
) -> list[str]:
    """SSSP validation (Graph500's rules for weighted distances): the root
    is at 0, no edge is relaxable (triangle inequality holds, so an
    unreachable vertex has no finite predecessor), and every finite
    non-root vertex has a *tight* in-edge, ``dist[u] + w == dist[v]``
    exactly.  With positive weights these certify the distances; a cycle
    of zero-weight edges can make its members each other's tight edges, so
    there the check is necessary only."""
    weights = edge_weights(g, weights)
    n_loc = g.n_loc
    dist = np.full(g.n_total, np.inf, dtype=np.float64)
    dist[:n_loc] = dist_local
    halo_of(comm, g).exchange(dist)

    bad: list[str] = []
    is_root = np.zeros(n_loc, dtype=bool)
    if g.partition.owner_of(np.array([root_global]))[0] == comm.rank:
        lid = int(g.partition.to_local(comm.rank, np.array([root_global]))[0])
        is_root[lid] = True
        if dist[lid] != 0.0:
            bad.append(f"root distance is {dist[lid]}, not 0")

    rows = expand_rows(g.in_indexes)
    cand = dist[g.in_edges] + weights
    with np.errstate(invalid="ignore"):  # inf - inf across unreachable pairs
        slack = dist[rows] - cand
    relaxable = slack > 1e-9  # NaN (both endpoints unreachable) is fine
    if relaxable.any():
        i = int(np.flatnonzero(relaxable)[0])
        bad.append(
            f"edge into {int(g.unmap[rows[i]])} still relaxable by "
            f"{slack[i]:.3g}")
    tight = segment_count_nonzero(g.in_indexes, cand == dist[rows]) > 0
    loose = np.isfinite(dist[:n_loc]) & ~is_root & ~tight
    for v in np.flatnonzero(loose)[:5]:
        bad.append(
            f"vertex {int(g.unmap[v])} at distance {dist[v]} has no tight "
            f"in-edge")
    return _gather_violations(comm, bad)
