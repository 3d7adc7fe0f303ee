"""Bow-tie decomposition of a directed graph (§VI context).

The web-structure literature the paper builds on (Meusel et al., "Graph
structure in the Web revisited") describes the crawl as a bow-tie: a giant
SCC, the IN set that reaches it, the OUT set it reaches, tendrils/tubes
hanging off IN/OUT, and disconnected leftovers.  This module classifies
every vertex into those regions using the repository's own SCC kernel
and reach closures — the natural companion to the paper's §VI crawl
analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analytics.closure import ClosureAdjacency
from ..analytics.scc import largest_scc
from ..graph.distgraph import DistGraph
from ..runtime import SUM, Communicator

__all__ = ["BowTie", "CORE", "IN", "OUT", "TENDRIL", "DISCONNECTED",
           "bowtie_decomposition"]

# Region codes.
CORE = 0  # the giant SCC
IN = 1  # reaches the core, not reached by it
OUT = 2  # reached by the core, does not reach it
TENDRIL = 3  # in the core's weak component but none of the above
DISCONNECTED = 4  # different weak component entirely


@dataclass(frozen=True)
class BowTie:
    """Per-rank bow-tie classification."""

    region: np.ndarray  # code per local vertex
    sizes: dict[int, int]  # global size per region code

    def fractions(self, n_global: int) -> dict[str, float]:
        names = {CORE: "core", IN: "in", OUT: "out", TENDRIL: "tendril",
                 DISCONNECTED: "disconnected"}
        return {names[c]: self.sizes.get(c, 0) / n_global
                for c in names if n_global}


def bowtie_decomposition(
    comm: Communicator,
    g: DistGraph,
) -> BowTie:
    """Classify every vertex into bow-tie regions around the largest SCC."""
    with comm.region("bowtie"):
        n_loc = g.n_loc

        scc = largest_scc(comm, g)
        core = scc.in_scc
        region = np.full(n_loc, DISCONNECTED, dtype=np.int64)

        if scc.size > 0:
            core_gids = g.unmap[:n_loc][core]
            # Forward reach of the core: OUT candidates; backward reach: IN
            # candidates; weak reach: the core's weak component.
            reach_f, reach_b, in_weak = (
                ClosureAdjacency(comm, g, direction)
                .reach_from(core_gids)[0][:n_loc]
                for direction in ("out", "in", "both"))

            region[in_weak] = TENDRIL
            region[reach_b & ~reach_f] = IN
            region[reach_f & ~reach_b] = OUT
            region[core] = CORE

        counts = np.bincount(region, minlength=5).astype(np.int64)
        total = comm.allreduce(counts, SUM)
        sizes = {code: int(total[code]) for code in range(5) if total[code]}
        return BowTie(region=region, sizes=sizes)
