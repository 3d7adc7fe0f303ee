"""Exact distributed k-core decomposition (refinement of §III-D's bounds).

The paper notes that its approximate coreness "upper bounds can be refined,
if required, to compute exact coreness values for each vertex" — this
module is that refinement: a distributed peeling sweep with unit threshold
increments instead of the geometric 2^i schedule.  A vertex's coreness is
``k−1`` where ``k`` is the first threshold whose peel removes it.

Degrees count both edge directions with multiplicity (the undirected
multigraph view the whole analytic family uses); on simple graphs without
reciprocal duplicates this equals the textbook undirected coreness (the
test suite checks against NetworkX ``core_number``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.distgraph import DistGraph
from ..runtime import MAX, Communicator
from .closure import ClosureAdjacency

__all__ = ["ExactKCoreResult", "exact_kcore"]


@dataclass(frozen=True)
class ExactKCoreResult:
    """Per-rank exact coreness output."""

    coreness: np.ndarray  # per local vertex
    max_core: int  # global degeneracy
    n_rounds: int  # synchronization rounds (supersteps) over all thresholds
    edges_scanned: int = 0  # adjacency entries this rank read


def exact_kcore(
    comm: Communicator,
    g: DistGraph,
) -> ExactKCoreResult:
    """Exact coreness of every vertex by incremental-threshold peeling.

    One :meth:`~repro.analytics.closure.ClosureAdjacency.peel_below`
    per threshold over a single maintained degree array: across the whole
    decomposition each adjacency entry is read once, when its row's vertex
    is peeled.
    """
    with comm.region("kcore_exact"):
        und = ClosureAdjacency(comm, g)
        coreness = np.zeros(g.n_loc, dtype=np.int64)

        k = 1
        remaining = g.n_global
        while remaining > 0:
            removed, n_removed = und.peel_below(k)
            coreness[removed] = k - 1
            remaining -= n_removed
            k += 1

        local_max = int(coreness.max()) if g.n_loc else 0
        max_core = int(comm.allreduce(local_max, MAX))
        comm.trace.bump("kcore.supersteps", und.supersteps)
        comm.trace.bump("kcore.edges_scanned", und.edges_scanned)
        return ExactKCoreResult(coreness=coreness, max_core=max_core,
                                n_rounds=und.supersteps,
                                edges_scanned=und.edges_scanned)
