"""Approximate k-core decomposition (paper §III-D, Fig. 6).

The exact coreness of every vertex is expensive at web scale, so the paper
computes *upper bounds* by a geometric sweep: for ``i = 1..27`` it
iteratively removes vertices of (total) degree below ``2^i`` and then keeps
only the largest connected component of the pruned graph.  A vertex
eliminated during stage ``i`` therefore has coreness below ``2^i``; the
survivors of stage ``i`` form (the giant component of) the ``2^i``-core.

We record, for each vertex, the last stage it survived; Fig. 6's cumulative
coreness distribution follows directly.

Both steps of a stage are monotone closures whose result does not depend
on discovery order, so they run as the local-fixed-point supersteps of
:mod:`repro.analytics.closure` over one maintained degree array: a stage
costs the rows of the vertices it removes plus the rows of the component
it keeps, and two collectives per *superstep* instead of two per peel
round and BFS level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.distgraph import DistGraph
from ..runtime import Communicator
from .closure import ClosureAdjacency
from .common import global_max_degree_vertex
from .exchange import HaloExchange

__all__ = ["KCoreResult", "approx_kcore"]


@dataclass(frozen=True)
class KCoreResult:
    """Per-rank approximate-coreness output.

    ``stage_removed[v] = i`` means local vertex ``v`` was eliminated during
    the ``2^i`` stage (degree pruning or falling outside the largest
    component), bounding its coreness by ``2^i − 1``; vertices surviving
    the whole sweep hold ``max_stage + 1``.

    ``supersteps`` (global synchronization points, identical on every
    rank) and ``edges_scanned`` (adjacency entries this rank read) describe
    the work the sweep did, not its answer.
    """

    stage_removed: np.ndarray  # int64 per local vertex
    stages_run: int
    survivors: int  # global count of vertices surviving every stage
    supersteps: int = 0
    edges_scanned: int = 0

    def coreness_upper_bound(self) -> np.ndarray:
        """Per-vertex coreness upper bound (``2^stage − 1``)."""
        return (1 << self.stage_removed.astype(np.int64)) - 1


def approx_kcore(
    comm: Communicator,
    g: DistGraph,
    max_stage: int = 27,
    halo: HaloExchange | None = None,
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
        if halo is None:
            halo = HaloExchange(comm, g)
        n_loc = g.n_loc
        und = ClosureAdjacency(comm, g, halo)
        stage_removed = np.zeros(n_loc, dtype=np.int64)
        stages_run = 0
        # Every closure returns its global count, so the alive total is
        # carried arithmetically instead of re-reduced each stage.
        survivors = g.n_global

        for i in range(1, max_stage + 1):
            # The (2^i)-core of what is still alive.
            removed, n_removed = und.peel_below(1 << i)
            stage_removed[removed] = i
            survivors -= n_removed
            stages_run = i
            if survivors == 0:
                break

            # Keep only the component of the highest-degree survivor.
            if lcc_restrict:
                pivot, _ = global_max_degree_vertex(comm, g,
                                                    restrict=und.alive)
                reached, n_reached = und.reach_from(pivot)
                if n_reached < survivors:
                    stage_removed[und.alive[:n_loc] & ~reached[:n_loc]] = i
                    und.keep_only(reached)
                    survivors = n_reached
        else:
            # Survivors of the full sweep: coreness bound is open-ended.
            stage_removed[und.alive[:n_loc]] = max_stage + 1

        comm.trace.bump("kcore.supersteps", und.supersteps)
        comm.trace.bump("kcore.edges_scanned", und.edges_scanned)
        return KCoreResult(stage_removed=stage_removed, stages_run=stages_run,
                           survivors=survivors, supersteps=und.supersteps,
                           edges_scanned=und.edges_scanned)
