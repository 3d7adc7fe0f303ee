"""Reference WCC: the coloring loop the library's Multistep WCC started
with.

Kept as the oracle for ``test_wcc_oracle.py``.  Phase 1 is the same
giant-component reach; phase 2 recomputes every leftover row's minimum
neighbour label once per iteration (one ``minimum.reduceat`` over all of
them), with one count allreduce and one halo exchange per
iteration, until no label changes.  Slow on long leftover chains, but the
production :func:`repro.analytics.wcc` — the leftover vertices as one
``propagate_min`` closure — must give the same labels bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.analytics import global_max_degree_vertex
from repro.analytics.closure import ClosureAdjacency
from repro.graph.csr import expand_rows
from repro.runtime import MIN, SUM


def reference_wcc(comm, g) -> tuple[np.ndarray, int]:
    """``(labels, giant_label)``: the min-gid component label per owned
    vertex and the label of the pivot's component (-1 without edges)."""
    n_loc = g.n_loc
    und = ClosureAdjacency(comm, g)

    pivot, pivot_deg = global_max_degree_vertex(comm, g)
    labels = g.unmap.astype(np.int64).copy()
    giant_label = -1
    visited = np.zeros(g.n_total, dtype=bool)
    if pivot >= 0 and pivot_deg > 0:
        visited, _ = und.reach_from(pivot)
        mine = visited[:n_loc]
        local_min = (int(g.unmap[:n_loc][mine].min()) if mine.any()
                     else g.n_global)
        giant_label = int(comm.allreduce(local_min, MIN))
        labels[visited] = giant_label

    rows = expand_rows(und.indptr)
    keep = ~visited[rows]
    nbrs = und.adj[keep]
    rows, starts = np.unique(rows[keep], return_index=True)
    while True:
        new_local = labels[:n_loc].copy()
        new_local[rows] = np.minimum(
            new_local[rows], np.minimum.reduceat(labels[nbrs], starts))
        changed = comm.allreduce(
            int(np.count_nonzero(new_local != labels[:n_loc])), SUM)
        if changed == 0:
            break
        labels[:n_loc] = new_local
        und.halo.exchange(labels)
    return labels[:n_loc].copy(), giant_label
