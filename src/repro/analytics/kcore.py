"""Approximate k-core decomposition (paper §III-D, Fig. 6).

The exact coreness of every vertex is expensive at web scale, so the paper
computes *upper bounds* by a geometric sweep: for ``i = 1..27`` it
iteratively removes vertices of (total) degree below ``2^i`` and then keeps
only the largest connected component of the pruned graph.  A vertex
eliminated during stage ``i`` therefore has coreness below ``2^i``; the
survivors of stage ``i`` form (the giant component of) the ``2^i``-core.

We record, for each vertex, the last stage it survived; Fig. 6's cumulative
coreness distribution follows directly.

The sweep runs in two phases on the closures of
:mod:`repro.analytics.closure`, reading each adjacency entry O(1) times
(Dhulipala et al.'s work-efficient rule, PAPERS.md):

1. **Peel every stage.**  ``peel_below(2^i)`` for ``i = 1, 2, …`` over one
   maintained degree array, with no component step: ``last[v]``, the last
   stage ``v`` survives, is the unrestricted sweep (and the whole answer
   with ``lcc_restrict=False``).  The peels together read each entry at
   most once, because a vertex dies once.
2. **One widest-path closure from the pivot.**  The k-core of a disjoint
   union is the union of the parts' k-cores, so dropping the other
   components never changes a peel inside the kept one: stage ``i``'s
   kept component is the pivot's component in the unrestricted
   ``2^i``-core.  The pivot (the maximum-degree vertex still in play)
   stays the maximum for every stage it survives, so one closure from it
   — ``width(v)``, the largest, over the paths from the pivot to ``v``, of
   the smallest ``last`` on the path — gives every one of those stages
   at once: stage ``i`` keeps ``{width ≥ i}``.  Only when the pivot itself
   dies before ``max_stage`` does the sweep pick a new pivot inside what
   it kept, and run one more closure there.

Both phases are monotone closures whose result does not depend on
discovery order, so the answer is bitwise equal to the stage-by-stage
procedure at every rank count and partition (DESIGN.md §17).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.distgraph import DistGraph
from ..runtime import MAX, SUM, Communicator
from .closure import ClosureAdjacency
from .common import global_max_degree_vertex
from .exchange import halo_of

__all__ = ["KCoreResult", "approx_kcore"]


@dataclass(frozen=True)
class KCoreResult:
    """Per-rank approximate-coreness output.

    ``stage_removed[v] = i`` means local vertex ``v`` was eliminated during
    the ``2^i`` stage (degree pruning or falling outside the largest
    component), bounding its coreness by ``2^i − 1``; vertices surviving
    the whole sweep hold ``max_stage + 1``.

    ``supersteps`` (global synchronization points, identical on every
    rank), ``edges_scanned`` (adjacency entries this rank read) and
    ``pivots`` (widest-path closures, one per pivot; 0 without the
    component step) describe the work the sweep did, not its answer.
    """

    stage_removed: np.ndarray  # int64 per local vertex
    stages_run: int
    survivors: int  # global count of vertices surviving every stage
    supersteps: int = 0
    edges_scanned: int = 0
    pivots: int = 0

    def coreness_upper_bound(self) -> np.ndarray:
        """Per-vertex coreness upper bound (``2^stage − 1``)."""
        return (1 << self.stage_removed.astype(np.int64)) - 1


def approx_kcore(
    comm: Communicator,
    g: DistGraph,
    max_stage: int = 27,
    lcc_restrict: bool = True,
) -> KCoreResult:
    """Run the geometric k-core sweep.

    Parameters
    ----------
    max_stage:
        Highest stage ``i`` (threshold ``2^i``); the paper uses 27.  The
        sweep ends early once no vertices survive.
    lcc_restrict:
        When true (the paper's procedure), each stage additionally keeps
        only the largest connected component of the pruned graph — an
        approximation that can under-estimate bounds of vertices in other
        dense components.  With ``False`` the survivors of stage ``i`` are
        exactly the ``2^i``-core shell union, making
        :meth:`KCoreResult.coreness_upper_bound` a true upper bound on the
        (degree-based) coreness of every vertex.
    """
    if max_stage < 1:
        raise ValueError("max_stage must be >= 1")
    with comm.region("kcore"):
        und = ClosureAdjacency(comm, g)
        # last[v]: the last stage v survives without the component step.
        last = np.full(g.n_total, max_stage, dtype=np.int64)
        stages_run = 0
        # Every closure returns its global count, so the alive total is
        # carried arithmetically instead of re-reduced each stage.
        survivors = g.n_global
        for i in range(1, max_stage + 1):
            removed, n_removed = und.peel_below(1 << i)
            last[removed] = i - 1
            survivors -= n_removed
            stages_run = i
            if survivors == 0:
                break
        closures = []
        if lcc_restrict:
            stage_removed, stages_run, survivors, closures = \
                _keep_pivot_components(comm, g, last, max_stage)
        else:
            stage_removed = last[:g.n_loc] + 1
        work = [und, *closures]

        res = KCoreResult(
            stage_removed=stage_removed, stages_run=stages_run,
            survivors=survivors,
            supersteps=sum(a.supersteps for a in work),
            edges_scanned=sum(a.edges_scanned for a in work),
            pivots=len(closures))
        for key in ("supersteps", "edges_scanned", "pivots"):
            comm.trace.bump(f"kcore.{key}", getattr(res, key))
        return res


def _keep_pivot_components(comm: Communicator, g: DistGraph,
                           last: np.ndarray, max_stage: int
                           ) -> tuple[np.ndarray, int, int, list]:
    """Stages of the sweep with the component step, from the unrestricted
    ``last`` (owned part; the ghost part is filled here).

    Each round takes the pivot of ``region`` — the vertices the stages
    before ``i0`` kept — and one widest-path closure from it.  A vertex
    the closure reaches with width ``w`` below the pivot's own ``last``
    leaves at stage ``w + 1`` (peeled, or outside the pivot's component);
    one it does not reach leaves at ``i0``.  Returns ``(stage_removed,
    stages_run, survivors, the rounds' adjacencies)``.
    """
    n_loc = g.n_loc
    halo_of(comm, g).exchange(last)
    floor = max_stage - last  # label = max_stage - width, so width <= last
    label = np.empty(g.n_total, dtype=np.int64)
    stage = np.zeros(n_loc, dtype=np.int64)
    region = np.ones(g.n_total, dtype=bool)
    closures = []
    i0 = 1
    while True:
        inside = region & (last >= i0)
        pivot, _ = global_max_degree_vertex(comm, g, restrict=inside)
        if pivot < 0:  # stage i0's peel leaves nothing of the region
            stage[region[:n_loc]] = i0
            return stage, i0, 0, closures
        label.fill(max_stage + 1)  # width -1: not reached
        seed = g.to_local(np.array([pivot], dtype=np.int64))
        seed = seed[seed >= 0]
        label[seed] = floor[seed]
        adj = ClosureAdjacency(comm, g, alive=inside)
        adj.propagate_min(label, floor=floor, seeds=seed)
        closures.append(adj)
        width = max_stage - label  # ghost part current
        own = width[:n_loc]
        # The pivot's own width, last[pivot], bounds every other one.
        top = int(comm.allreduce(int(own.max(initial=-1)), MAX))
        low = region[:n_loc] & (own < top)
        stage[low] = np.maximum(own[low], i0 - 1) + 1
        region &= width == top
        if top == max_stage:
            kept = region[:n_loc]
            stage[kept] = max_stage + 1
            survivors = int(comm.allreduce(int(kept.sum()), SUM))
            return stage, max_stage, survivors, closures
        i0 = top + 1  # the pivot leaves at stage top + 1
