"""Reference k-core kernels: the BSP formulation the library started with.

Kept as the oracle for ``test_kcore_oracle.py``.  Each peel round
recomputes every alive degree over all edges (``alive_degree``) and costs
two collectives; the component step is the reference level-synchronous
BFS (``bfs_reference.py``) restricted to the alive vertices.  Slow, but
as direct a transcription of the paper's procedure (§III-D) as there is —
the production kernels in :mod:`repro.analytics.kcore` /
:mod:`repro.analytics.kcore_exact` must agree with it field for field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bfs_reference import reference_bfs
from repro.analytics import HaloExchange, global_max_degree_vertex
from repro.graph.csr import segment_sum
from repro.runtime import MAX, SUM


def alive_degree(g, alive: np.ndarray) -> np.ndarray:
    """Total degree of each local vertex counting only alive neighbors
    (ghost entries of ``alive`` must be halo-current)."""
    deg = np.zeros(g.n_loc, dtype=np.int64)
    for indptr, adj in ((g.out_indexes, g.out_edges), (g.in_indexes, g.in_edges)):
        if len(adj):
            deg += segment_sum(indptr, alive[adj].astype(np.int64))
    return deg


@dataclass(frozen=True)
class RefKCore:
    stage_removed: np.ndarray
    stages_run: int
    survivors: int


@dataclass(frozen=True)
class RefExactKCore:
    coreness: np.ndarray
    max_core: int
    n_rounds: int  # BSP peel rounds: an upper bound on the supersteps


def reference_approx_kcore(comm, g, max_stage: int = 27,
                           lcc_restrict: bool = True) -> RefKCore:
    halo = HaloExchange(comm, g)
    n_loc, n_tot = g.n_loc, g.n_total
    alive = np.ones(n_tot, dtype=bool)
    stage_removed = np.zeros(n_loc, dtype=np.int64)
    stages_run = 0
    survivors = comm.allreduce(n_loc, SUM)

    for i in range(1, max_stage + 1):
        k = 1 << i
        while True:
            deg = alive_degree(g, alive)
            kill = alive[:n_loc] & (deg < k)
            n_kill = comm.allreduce(int(kill.sum()), SUM)
            if n_kill == 0:
                break
            stage_removed[kill] = i
            alive[:n_loc][kill] = False
            halo.exchange(alive)

        n_alive = comm.allreduce(int(alive[:n_loc].sum()), SUM)
        stages_run = i
        if n_alive == 0:
            survivors = 0
            break

        if lcc_restrict:
            pivot, _ = global_max_degree_vertex(comm, g, restrict=alive)
            lev = reference_bfs(comm, g, pivot, direction="both",
                                restrict=alive)
            outside = alive[:n_loc] & (lev < 0)
            n_out = comm.allreduce(int(outside.sum()), SUM)
            if n_out:
                stage_removed[outside] = i
                alive[:n_loc][outside] = False
                halo.exchange(alive)
            survivors = n_alive - n_out
        else:
            survivors = n_alive
    else:
        stage_removed[alive[:n_loc]] = max_stage + 1

    return RefKCore(stage_removed, stages_run, survivors)


def reference_exact_kcore(comm, g) -> RefExactKCore:
    halo = HaloExchange(comm, g)
    n_loc, n_tot = g.n_loc, g.n_total
    alive = np.ones(n_tot, dtype=bool)
    coreness = np.zeros(n_loc, dtype=np.int64)
    n_rounds = 0
    k = 1
    remaining = comm.allreduce(n_loc, SUM)
    while remaining > 0:
        while True:
            deg = alive_degree(g, alive)
            kill = alive[:n_loc] & (deg < k)
            n_kill = comm.allreduce(int(kill.sum()), SUM)
            n_rounds += 1
            if n_kill == 0:
                break
            coreness[kill] = k - 1
            alive[:n_loc][kill] = False
            halo.exchange(alive)
        remaining = comm.allreduce(int(alive[:n_loc].sum()), SUM)
        k += 1
    local_max = int(coreness.max()) if n_loc else 0
    return RefExactKCore(coreness, int(comm.allreduce(local_max, MAX)),
                         n_rounds)
