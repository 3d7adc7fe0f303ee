"""Strongly connected components: trim + FW–BW (paper §III-D), then
Multistep coloring.

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

``largest_scc`` returns that membership mask.  :func:`scc` finishes the
full decomposition the way the paper authors' Multistep method does
(Slota, Rajamanickam & Madduri, IPDPS 2014), in rounds of:

4. **Seeded peel** — take the SCCs found last out, and trim what that
   strands (each such vertex is its own SCC).
5. **Min-label coloring** — ``color[v]`` becomes the least id among the
   alive vertices that reach ``v`` (``propagate_min`` along out-rows).  A
   *root* (``color == own id``) is the least of its ancestors, so of its
   own SCC: its color is the SCC's canonical label.
6. **Backward closure** — one ``reach_from`` along in-rows from every
   root at once, a vertex joining only from a row of its own color: each
   root collects exactly its SCC.

The round ends when the closure finds nothing, i.e. nothing is alive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.distgraph import DistGraph
from ..runtime import MIN, SUM, Communicator
from .closure import ClosureAdjacency
from .common import global_max_degree_vertex

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


def _trim_and_giant(comm: Communicator, g: DistGraph):
    """Paper §III-D: trim to the fixed point, then FW–BW from the
    max-degree survivor.

    Returns ``(fwd, bwd, trimmed, n_trimmed, pivot, giant)``: the forward
    and backward adjacencies (sharing ``alive``, trimmed vertices dead),
    the owned local ids trimmed here and the global trim count, the pivot
    (-1 when nothing survives the trim, and then it reaches nothing), and
    the pivot's SCC as a mask over owned + ghost vertices, ghost part
    current.
    """
    fwd = ClosureAdjacency(comm, g, "out")
    bwd = ClosureAdjacency(comm, g, "in", alive=fwd.alive)
    trimmed, n_trimmed = fwd.peel_below(1, bwd)
    pivot, _deg = global_max_degree_vertex(comm, g, restrict=fwd.alive)
    giant = fwd.reach_from(pivot)[0] & bwd.reach_from(pivot)[0]
    return fwd, bwd, trimmed, n_trimmed, pivot, giant


def largest_scc(
    comm: Communicator,
    g: DistGraph,
) -> SCCResult:
    """Extract the (almost surely) largest SCC with trim + FW–BW.

    The pivot is the max-total-degree vertex surviving the complete trim;
    for bow-tie-structured graphs its SCC is the giant one.
    """
    with comm.region("scc"):
        fwd, bwd, _, n_trimmed, pivot, giant = _trim_and_giant(comm, g)
        in_scc = giant[:g.n_loc]
        size = comm.allreduce(int(in_scc.sum()), SUM)
        supersteps, edges_scanned = _bump_work(comm, fwd, bwd)
        return SCCResult(in_scc=in_scc, size=size, pivot=pivot,
                         n_trimmed=n_trimmed, supersteps=supersteps,
                         edges_scanned=edges_scanned)


def scc(
    comm: Communicator,
    g: DistGraph,
) -> np.ndarray:
    """Full SCC decomposition: trim + the giant's FW–BW, then coloring.

    Returns an int64 label per local vertex: the minimum global vertex id
    of its SCC (canonical, so results are rank-count independent).

    Each coloring round takes out every SCC whose root it finds, and the
    SCC of the smallest alive id always has its root, so there are at
    most as many rounds as SCCs left after the giant (each counted in
    the ``scc.rounds`` trace counter).  One pair of in/out-degree arrays
    lives across all rounds: taking labelled SCCs out is a peel seeded
    with their members, so the peels read every vertex's rows once, when
    it dies — trimmed or labelled.
    """
    with comm.region("scc_full"):
        n_loc = g.n_loc
        gids = g.unmap[:n_loc]
        labels = np.full(n_loc, -1, dtype=np.int64)
        fwd, bwd, trimmed, _, _, members = _trim_and_giant(comm, g)
        labels[trimmed] = gids[trimmed]
        mine = members[:n_loc]
        local_min = int(gids[mine].min()) if mine.any() else g.n_global
        labels[mine] = comm.allreduce(local_min, MIN)

        color = np.empty(g.n_total, dtype=np.int64)
        rounds = 0
        while True:
            # Take the last SCCs out, then trim: trivial SCCs get their
            # singleton labels immediately.
            trimmed, _ = fwd.peel_below(1, bwd, dead=members)
            labels[trimmed] = gids[trimmed]
            # color[v]: the least id of the alive vertices reaching v.  A
            # root's SCC is its color class's backward closure from it.
            color[:] = g.unmap
            fwd.propagate_min(color)
            roots = gids[fwd.alive[:n_loc] & (color[:n_loc] == gids)]
            members, n_members = bwd.reach_from(roots, within=color)
            if n_members == 0:
                break
            rounds += 1
            mine = members[:n_loc]
            labels[mine] = color[:n_loc][mine]

        _bump_work(comm, fwd, bwd)
        comm.trace.bump("scc.rounds", rounds)
        return labels
