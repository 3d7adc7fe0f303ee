"""Reference BFS: the single-traversal level-synchronous loop the library
started with.

Kept as the oracle for ``test_bfs_oracle.py`` and as the component step of
``kcore_reference.py``.  One ``Status`` array, one frontier, one
``alltoallv`` of ghost discoveries and one termination ``allreduce`` per
level — paper Algorithm 2 transcribed directly — plus the three
generalizations the production engine dropped: several roots merged into
*one* traversal (levels are the minimum over the roots), a ``restrict``
mask limiting the traversal to an induced subgraph, and a level cap.  The
production engine (:mod:`repro.analytics.bfs`) must give the same levels,
per source column, bit for bit; harmonic and closeness scores derived from
these levels the way the single-vertex kernels used to derive them must
equal the production results with ``==``.
"""

from __future__ import annotations

import numpy as np

from repro.analytics import ClosenessResult, HarmonicResult
from repro.analytics.bfs import _frontier_neighbors
from repro.analytics.common import NOT_VISITED, QUEUED
from repro.graph.csr import sorted_unique
from repro.runtime import MAX, SUM


def reference_bfs(comm, g, roots_global, direction="out", restrict=None,
                  max_levels=None):
    """Level-synchronous BFS from one or more global roots.

    ``direction`` is ``"out"``, ``"in"`` or ``"both"``.  ``restrict`` is an
    optional boolean mask over local + ghost vertices (ghost entries
    current); only ``True`` vertices are traversed.  ``max_levels`` stops
    the loop after that many levels (vertices discovered by the last
    settled level stay ``QUEUED``, −1).  Returns the int64 level of every
    local vertex, ``NOT_VISITED`` (−2) where unreached.
    """
    if direction not in ("out", "in", "both"):
        raise ValueError(f"direction must be 'out', 'in' or 'both', got {direction!r}")
    n_loc, n_tot = g.n_loc, g.n_total
    status = np.full(n_tot, NOT_VISITED, dtype=np.int64)

    roots = np.atleast_1d(np.asarray(roots_global, dtype=np.int64))
    if len(roots) and (roots.min() < 0 or roots.max() >= g.n_global):
        raise ValueError("root id out of range")
    my_roots = roots[g.partition.owner_of(roots) == comm.rank]
    frontier = g.partition.to_local(comm.rank, my_roots)
    if restrict is not None:
        frontier = frontier[restrict[frontier]]
    status[frontier] = QUEUED

    level = 0
    global_size = comm.allreduce(len(frontier), SUM)
    while global_size > 0:
        if max_levels is not None and level >= max_levels:
            break
        # Settle this level.
        status[frontier] = level

        nbrs = _frontier_neighbors(g, frontier, direction)
        mask = status[nbrs] == NOT_VISITED
        if restrict is not None:
            mask &= restrict[nbrs]
        discovered = sorted_unique(nbrs[mask])
        status[discovered] = QUEUED

        local_next = discovered[discovered < n_loc]
        ghosts = discovered[discovered >= n_loc]

        # Ship ghost discoveries to their owners as global ids.
        owners = g.ghost_tasks[ghosts - n_loc]
        order = np.argsort(owners, kind="stable")
        counts = np.bincount(owners, minlength=comm.size)
        recv_gids, _ = comm.alltoallv_flat(g.unmap[ghosts[order]], counts)

        if len(recv_gids):
            recv_lids = sorted_unique(g.map.get(recv_gids))
            keep = status[recv_lids] == NOT_VISITED
            if restrict is not None:
                keep &= restrict[recv_lids]
            recv_new = recv_lids[keep]
            status[recv_new] = QUEUED
            frontier = np.concatenate([local_next, recv_new])
        else:
            frontier = local_next

        level += 1
        global_size = comm.allreduce(len(frontier), SUM)

    return status[:n_loc]


def reference_harmonic(comm, g, v_global) -> HarmonicResult:
    """Harmonic centrality of one vertex from one reference reverse BFS,
    reduced the way the single-vertex kernel always reduced it."""
    lev = reference_bfs(comm, g, v_global, direction="in")
    reached = lev > 0  # exclude v itself (level 0)
    local_score = float((1.0 / lev[reached]).sum()) if reached.any() else 0.0
    local_ecc = int(lev.max()) if len(lev) else 0
    return HarmonicResult(
        vertex=int(v_global), score=comm.allreduce(local_score, SUM),
        n_reaching=comm.allreduce(int(reached.sum()), SUM),
        eccentricity=int(comm.allreduce(local_ecc, MAX)))


def reference_closeness(comm, g, v_global) -> ClosenessResult:
    """Closeness centrality of one vertex from one reference reverse BFS
    (Wasserman–Faust scaled, NetworkX's definition)."""
    lev = reference_bfs(comm, g, v_global, direction="in")
    reached = lev > 0
    total = comm.allreduce(int(lev[reached].sum()), SUM)
    count = comm.allreduce(int(reached.sum()), SUM)
    if total == 0 or count == 0:
        return ClosenessResult(vertex=int(v_global), score=0.0,
                               score_unscaled=0.0, n_reaching=0,
                               total_distance=0)
    unscaled = count / total
    n = g.n_global
    scale = count / (n - 1) if n > 1 else 1.0
    return ClosenessResult(vertex=int(v_global), score=unscaled * scale,
                           score_unscaled=unscaled, n_reaching=count,
                           total_distance=total)
