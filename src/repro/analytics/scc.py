"""Largest strongly connected component via Forward–Backward (paper §III-D).

The paper extracts the largest SCC of the web crawl with the FW–BW method
(Fleischer, Hendrickson & Pinar, 2000).  None of its steps reads a BFS
level, so all of them run as the local-fixed-point closures of
:mod:`repro.analytics.closure` over a forward and a backward adjacency
that share one ``alive`` array:

1. **Trimming** — discard vertices with zero in- or out-degree inside the
   remaining set (each is a size-1 SCC) to the fixed point: a peel below 1
   over both adjacencies, on in/out-degrees that are maintained by
   decrement.  This shrinks web graphs dramatically before any traversal.
2. **Pivoting** — the highest-degree surviving vertex almost surely lies in
   the giant SCC of a bow-tie-shaped graph.
3. **Forward/backward sweeps** — what the pivot reaches along out-edges and
   along in-edges, both inside the surviving set; their intersection is
   the pivot's SCC.

``largest_scc`` returns the membership mask; :func:`scc` additionally
labels the remaining vertices by iterated FW–BW on what is left, yielding
the full SCC decomposition (the paper only needs the largest; the full
decomposition is provided as the natural extension).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.distgraph import DistGraph
from ..runtime import MIN, SUM, Communicator
from .closure import ClosureAdjacency
from .common import global_max_degree_vertex
from .exchange import HaloExchange

__all__ = ["SCCResult", "largest_scc", "scc"]


@dataclass(frozen=True)
class SCCResult:
    """Per-rank output of the largest-SCC extraction.

    ``supersteps`` (global synchronization points of all closures of the
    call, identical on every rank) and ``edges_scanned`` (adjacency
    entries this rank read) describe the work done, not the answer.
    """

    in_scc: np.ndarray  # bool per local vertex
    size: int  # global size of the extracted SCC
    pivot: int  # global id of the pivot vertex (-1 for empty graphs)
    n_trimmed: int  # vertices discarded by trimming (global)
    supersteps: int = 0
    edges_scanned: int = 0


def _bump_work(comm: Communicator, fwd: ClosureAdjacency,
               bwd: ClosureAdjacency) -> tuple[int, int]:
    """Record the call's closure work in the trace; returns it."""
    supersteps = fwd.supersteps + bwd.supersteps
    edges_scanned = fwd.edges_scanned + bwd.edges_scanned
    comm.trace.bump("scc.supersteps", supersteps)
    comm.trace.bump("scc.edges_scanned", edges_scanned)
    return supersteps, edges_scanned


def largest_scc(
    comm: Communicator,
    g: DistGraph,
    halo: HaloExchange | None = None,
) -> SCCResult:
    """Extract the (almost surely) largest SCC with trim + FW–BW.

    The pivot is the max-total-degree vertex surviving the complete trim;
    for bow-tie-structured graphs its SCC is the giant one.
    """
    with comm.region("scc"):
        if halo is None:
            halo = HaloExchange(comm, g)
        n_loc = g.n_loc
        fwd = ClosureAdjacency(comm, g, halo, "out")
        bwd = ClosureAdjacency(comm, g, halo, "in", alive=fwd.alive)
        _, n_trimmed = fwd.peel_below(1, bwd)

        # Nothing survives trimming: pivot -1, which reaches nothing.
        pivot, _deg = global_max_degree_vertex(comm, g, restrict=fwd.alive)
        in_scc = (fwd.reach_from(pivot)[0][:n_loc]
                  & bwd.reach_from(pivot)[0][:n_loc])
        size = comm.allreduce(int(in_scc.sum()), SUM)
        supersteps, edges_scanned = _bump_work(comm, fwd, bwd)
        return SCCResult(in_scc=in_scc, size=size, pivot=pivot,
                         n_trimmed=n_trimmed, supersteps=supersteps,
                         edges_scanned=edges_scanned)


def scc(
    comm: Communicator,
    g: DistGraph,
    halo: HaloExchange | None = None,
    max_pivots: int = 10_000,
) -> np.ndarray:
    """Full SCC decomposition by iterated FW–BW.

    Returns an int64 label per local vertex: the minimum global vertex id
    of its SCC (canonical, so results are rank-count independent).

    The descend order is breadth-only (a work queue of unresolved vertex
    sets is not materialized; instead the alive set shrinks after each
    pivot round), which is sufficient for graphs whose SCC count is modest
    after trimming.  One pair of in/out-degree arrays lives across all
    rounds: taking a labelled SCC out is a peel seeded with its members,
    so every vertex's rows are read once, when it dies — trimmed or
    labelled.  ``max_pivots`` guards pathological inputs.
    """
    with comm.region("scc_full"):
        if halo is None:
            halo = HaloExchange(comm, g)
        n_loc = g.n_loc
        gids = g.unmap[:n_loc]
        labels = np.full(n_loc, -1, dtype=np.int64)
        fwd = ClosureAdjacency(comm, g, halo, "out")
        bwd = ClosureAdjacency(comm, g, halo, "in", alive=fwd.alive)

        members = None
        for _ in range(max_pivots):
            # Take the last round's SCC out, then trim: trivial SCCs get
            # their singleton labels immediately.
            trimmed, _ = fwd.peel_below(1, bwd, dead=members)
            labels[trimmed] = gids[trimmed]
            pivot, _deg = global_max_degree_vertex(comm, g,
                                                   restrict=fwd.alive)
            if pivot < 0:
                break
            # Ghost parts of both masks are current, so of ``members`` too.
            members = fwd.reach_from(pivot)[0] & bwd.reach_from(pivot)[0]
            mine = members[:n_loc]
            local_min = int(gids[mine].min()) if mine.any() else g.n_global
            labels[mine] = comm.allreduce(local_min, MIN)
        else:
            raise RuntimeError("scc: pivot budget exhausted")

        _bump_work(comm, fwd, bwd)
        return labels
