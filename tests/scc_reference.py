"""Reference SCC: the iterated FW–BW pivot loop the library started with.

Kept as the oracle for ``test_scc_oracle.py``.  After the trim, every
round picks the max-degree survivor as pivot, intersects its forward and
backward reach, labels that one SCC with its minimum id (one ``MIN``
allreduce) and takes it out with a seeded peel.  One SCC per round, so
slow on graphs with many non-trivial SCCs left after the trim (and it
raises once ``max_pivots`` rounds are used up), but the production
:func:`repro.analytics.scc` — trim, the giant's FW–BW, then min-label
coloring — must give the same labels bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.analytics import global_max_degree_vertex
from repro.analytics.closure import ClosureAdjacency
from repro.runtime import MIN


def reference_scc(comm, g, max_pivots: int = 10_000) -> np.ndarray:
    """Int64 label per local vertex: the minimum global id of its SCC."""
    with comm.region("scc_full"):
        n_loc = g.n_loc
        gids = g.unmap[:n_loc]
        labels = np.full(n_loc, -1, dtype=np.int64)
        fwd = ClosureAdjacency(comm, g, "out")
        bwd = ClosureAdjacency(comm, g, "in", alive=fwd.alive)

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
        return labels
