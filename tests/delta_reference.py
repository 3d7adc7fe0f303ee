"""Reference SSSP: the dense relaxation loops the library started with.

Kept as the oracle for ``test_delta_oracle.py``.  Every Δ-stepping round
masks *all* in-entries (``edge_mask & src_active[in_edges]``), builds a
full-length ``np.where(…, inf)`` candidate array and scatters it with
``np.minimum.at``; Bellman–Ford does the same over every entry.  Slow, but
each round's improvements are spelled out with no notion of which sources
changed — the production kernels (:mod:`repro.analytics.delta_stepping`,
:func:`repro.analytics.frontier2d.grid_delta_stepping`) must give the same
distances bit for bit, the same ``n_phases`` / ``n_relax_rounds`` and the
same collective schedule.  (These loops mishandle Δ = ∞: ``floor(lo/Δ)·Δ``
is NaN and only the root is returned; the oracle runs them at Δ = float
max — the same single bucket — instead.)
"""

from __future__ import annotations

import numpy as np

from repro.analytics import (
    DeltaSteppingResult,
    Frontier2D,
    SSSPResult,
    default_weights,
    halo_of,
)
from repro.graph.csr import expand_rows
from repro.runtime import MIN, SUM

INF = np.inf


def reference_bellman_ford(comm, g, root_global, weights=None,
                           max_iters=10_000):
    """Dense distributed Bellman–Ford over every in-entry per round."""
    if not (0 <= root_global < g.n_global):
        raise ValueError("root out of range")
    halo = halo_of(comm, g)
    if weights is None:
        weights = (g.in_values if g.in_values is not None
                   else default_weights(g))
    weights = np.asarray(weights, dtype=np.float64)

    n_loc, n_tot = g.n_loc, g.n_total
    dist = np.full(n_tot, INF, dtype=np.float64)
    if g.partition.owner_of(np.array([root_global]))[0] == comm.rank:
        lid = int(g.partition.to_local(
            comm.rank, np.array([root_global]))[0])
        dist[lid] = 0.0
    halo.exchange(dist)

    rows = expand_rows(g.in_indexes)
    n_iters = 0
    for _ in range(max_iters):
        cand = dist[g.in_edges] + weights
        new = dist[:n_loc].copy()
        if len(cand):
            np.minimum.at(new, rows, cand)
        changed = comm.allreduce(
            int(np.count_nonzero(new < dist[:n_loc])), SUM)
        n_iters += 1
        if changed == 0:
            break
        dist[:n_loc] = new
        halo.exchange(dist)

    reached = comm.allreduce(
        int(np.count_nonzero(np.isfinite(dist[:n_loc]))), SUM)
    return SSSPResult(distances=dist[:n_loc].copy(), n_iters=n_iters,
                      reached=reached)


def reference_delta_stepping(comm, g, root_global, delta=None, weights=None,
                             max_rounds=100_000):
    """Dense 1-D Δ-stepping: every round relaxes every bucket member."""
    if not (0 <= root_global < g.n_global):
        raise ValueError("root out of range")
    halo = halo_of(comm, g)
    if weights is None:
        weights = (g.in_values if g.in_values is not None
                   else default_weights(g))
    weights = np.asarray(weights, dtype=np.float64)
    if delta is None:
        total = comm.allreduce(float(weights.sum()), SUM)
        count = comm.allreduce(len(weights), SUM)
        delta = (total / count) if count else 1.0

    n_loc, n_tot = g.n_loc, g.n_total
    dist = np.full(n_tot, INF, dtype=np.float64)
    if g.partition.owner_of(np.array([root_global]))[0] == comm.rank:
        lid = int(g.partition.to_local(
            comm.rank, np.array([root_global]))[0])
        dist[lid] = 0.0
    halo.exchange(dist)

    rows = expand_rows(g.in_indexes)
    light = weights < delta
    settled_below = 0.0  # vertices with dist < settled_below are final

    n_phases = 0
    n_rounds = 0

    def relax(edge_mask, src_active):
        use = edge_mask & src_active[g.in_edges]
        cand = np.where(use, dist[g.in_edges] + weights, INF)
        new = dist[:n_loc].copy()
        if len(cand):
            np.minimum.at(new, rows, cand)
        improved = comm.allreduce(
            int(np.count_nonzero(new < dist[:n_loc])), SUM)
        if improved:
            dist[:n_loc] = np.minimum(dist[:n_loc], new)
            halo.exchange(dist)
        return improved

    while n_rounds < max_rounds:
        finite = np.isfinite(dist[:n_loc]) & (dist[:n_loc] >= settled_below)
        local_min = float(dist[:n_loc][finite].min()) if finite.any() \
            else INF
        lo = comm.allreduce(local_min, MIN)
        if not np.isfinite(lo):
            break
        bucket_lo = np.floor(lo / delta) * delta
        bucket_hi = bucket_lo + delta
        n_phases += 1

        while n_rounds < max_rounds:
            in_bucket = (dist >= bucket_lo) & (dist < bucket_hi)
            n_rounds += 1
            if relax(light, in_bucket) == 0:
                break
        in_bucket = (dist >= bucket_lo) & (dist < bucket_hi)
        n_rounds += 1
        relax(~light, in_bucket)
        settled_below = bucket_hi
    else:
        raise RuntimeError("delta_stepping: round budget exhausted")

    reached = comm.allreduce(
        int(np.count_nonzero(np.isfinite(dist[:n_loc]))), SUM)
    return DeltaSteppingResult(distances=dist[:n_loc].copy(),
                               n_phases=n_phases,
                               n_relax_rounds=n_rounds, reached=reached)


def reference_grid_delta_stepping(comm, g, root_global, delta=None,
                                  weights=None, max_rounds=100_000):
    """Dense grid Δ-stepping: column gather, full-block relax, row MIN."""
    if not (0 <= root_global < g.n_global):
        raise ValueError("root out of range")
    f2 = Frontier2D(comm, g)
    n_own, own_lo, row_off = g.n_own, g.own_lo, g.own_row_off

    if weights is None:
        weights = (g.bu_values if g.bu_values is not None
                   else default_weights(g))
    weights = np.asarray(weights, dtype=np.float64)
    if delta is None:
        total = comm.allreduce(float(weights.sum()), SUM)
        count = comm.allreduce(len(weights), SUM)
        delta = (total / count) if count else 1.0

    dist = np.full(n_own, INF, dtype=np.float64)
    if own_lo <= root_global < own_lo + n_own:
        dist[root_global - own_lo] = 0.0

    rows_bu = expand_rows(g.bu_indexes)
    light = weights < delta
    new_row = np.full(g.n_row, INF, dtype=np.float64)
    settled_below = 0.0
    n_phases = 0
    n_rounds = 0

    def relax(edge_mask, bucket_lo, bucket_hi):
        dist_col = f2.gather_values(dist)
        new_row[:] = INF
        if g.m_block:
            src_active = (dist_col >= bucket_lo) & (dist_col < bucket_hi)
            use = edge_mask & src_active[g.bu_edges]
            cand = np.where(use, dist_col[g.bu_edges] + weights, INF)
            np.minimum.at(new_row, rows_bu, cand)
        all_row = f2.reduce_rows(new_row, MIN)
        new_own = np.minimum(dist, all_row[row_off:row_off + n_own])
        improved = comm.allreduce(
            int(np.count_nonzero(new_own < dist)), SUM)
        dist[:] = new_own
        return improved

    while n_rounds < max_rounds:
        finite = np.isfinite(dist) & (dist >= settled_below)
        local_min = float(dist[finite].min()) if finite.any() else INF
        lo = comm.allreduce(local_min, MIN)
        if not np.isfinite(lo):
            break
        bucket_lo = np.floor(lo / delta) * delta
        bucket_hi = bucket_lo + delta
        n_phases += 1

        while n_rounds < max_rounds:
            n_rounds += 1
            if relax(light, bucket_lo, bucket_hi) == 0:
                break
        n_rounds += 1
        relax(~light, bucket_lo, bucket_hi)
        settled_below = bucket_hi
    else:
        raise RuntimeError("grid_delta_stepping: round budget exhausted")

    reached = comm.allreduce(
        int(np.count_nonzero(np.isfinite(dist))), SUM)
    return DeltaSteppingResult(distances=dist, n_phases=n_phases,
                               n_relax_rounds=n_rounds, reached=reached)
