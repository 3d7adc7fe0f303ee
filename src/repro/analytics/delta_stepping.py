"""Distributed delta-stepping SSSP (Meyer & Sanders; §VII extension).

The one SSSP engine: vertices are grouped into distance buckets of width
Δ; the globally-lightest non-empty bucket is settled by repeated
*light*-edge (w < Δ) relaxations, then its *heavy* edges are relaxed once.
Small Δ approaches Dijkstra; Bellman–Ford (:func:`repro.analytics.sssp.
sssp`) is its Δ = ∞ case, one bucket ``[0, ∞)``.  Bucket membership is
derived from the distance array, the active bucket is agreed on with one
``allreduce(MIN)`` per phase, and ghost distances refresh with the halo
exchange.

Rounds are work-efficient (GBBS's sparse edge map, Dhulipala et al.): a
``fresh`` flag per vertex slot marks distances that fell since the vertex
last relaxed, and a light round reads only the in-entries of fresh bucket
members, reduces ``dist[u] + w`` per row with one ``np.minimum.reduceat``
and writes back only improved rows.  An unchanged source offers only
candidates at or above distances it already produced, so distances, round
counts and the collective schedule equal relaxing every member.

Both layouts read one :class:`RelaxPlan` per graph: Δ and the light and
heavy in-entries as row-grouped ``(src, row, w)`` arrays, so a round
masks only its own class and no call rehashes weights.  The default plan
(no ``delta``, no ``weights``) is cached in ``g.derived``; later default
calls skip the two Δ reductions.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ..graph.csr import expand_rows
from ..graph.distgraph import DistGraph, GridGraph
from ..runtime import MIN, SUM, Communicator
from .exchange import halo_of
from .sssp import edge_weights

__all__ = ["DeltaSteppingResult", "delta_stepping"]

INF = np.inf


@dataclass(frozen=True)
class DeltaSteppingResult:
    """Per-rank delta-stepping output."""

    distances: np.ndarray  # per local vertex; inf = unreachable
    n_phases: int  # buckets processed
    n_relax_rounds: int  # total light+heavy relaxation rounds
    reached: int


def _resolve_delta(comm: Communicator, weights: np.ndarray,
                   delta: float | None) -> float:
    """Bucket width: ``delta``, else the global mean edge weight (Δ = ∞
    when every weight is zero).  Raises on NaN and on Δ ≤ 0."""
    if delta is None:
        total = comm.allreduce(float(weights.sum()), SUM)
        count = comm.allreduce(len(weights), SUM)
        delta = total / count if total > 0 else INF
    if not delta > 0:  # also rejects NaN
        raise ValueError(f"delta must be positive, got {delta}")
    return float(delta)


@dataclass(frozen=True)
class RelaxPlan:
    """What every relaxation round of one graph reads: the bucket width
    and the light (w < Δ) and heavy in-entries as ``(src, row, w)``
    arrays, each kept in row-grouped order.  ``src`` indexes the
    distance array a round reads (owned + ghost slots in 1-D, the column
    slice on a grid) and ``row`` the array it writes (owned vertices, the
    row slice)."""

    delta: float
    light: tuple[np.ndarray, np.ndarray, np.ndarray]
    heavy: tuple[np.ndarray, np.ndarray, np.ndarray]


def relax_plan(comm: Communicator, g: DistGraph | GridGraph,
               delta: float | None = None,
               weights: np.ndarray | None = None) -> RelaxPlan:
    """The :class:`RelaxPlan` of ``g`` for ``delta`` and ``weights``
    (resolved by :func:`_resolve_delta` and :func:`~repro.analytics.sssp.
    edge_weights`).  The default plan (both None) is built on first use
    and cached on ``g``, Δ included, so later default calls skip the Δ
    reductions; an explicit ``delta`` or ``weights`` builds a private plan
    and leaves the cache alone."""
    default = delta is None and weights is None
    if default and "relax_plan" in g.derived:
        return g.derived["relax_plan"]
    src, indptr = (g.bu_edges, g.bu_indexes) if isinstance(g, GridGraph) \
        else (g.in_edges, g.in_indexes)
    weights = edge_weights(g, weights)
    delta = _resolve_delta(comm, weights, delta)
    rows = expand_rows(indptr)
    light = weights < delta

    def entries(mask: np.ndarray):
        e = np.flatnonzero(mask)
        return src[e], rows[e], weights[e]

    plan = RelaxPlan(delta, entries(light), entries(~light))
    if default:
        g.derived["relax_plan"] = plan
    return plan


def _run_buckets(comm: Communicator, dist_own: np.ndarray, delta: float,
                 relax: Callable[[float, float, bool], int],
                 max_rounds: int) -> tuple[int, int]:
    """Both layouts' bucket schedule over the live owned distances;
    ``relax(bucket_lo, bucket_hi, light)`` runs one round and returns the
    global improved count.  Returns ``(n_phases, n_relax_rounds)``."""
    settled_below = 0.0  # vertices with dist < settled_below are final
    n_phases = n_rounds = 0
    while True:
        # The lightest non-empty bucket at or above the settled frontier.
        pending = dist_own[dist_own >= settled_below]
        lo = comm.allreduce(float(pending.min(initial=INF)), MIN)
        if not np.isfinite(lo):
            return n_phases, n_rounds
        bucket_lo = np.floor(lo / delta) * delta if delta < INF else 0.0
        bucket_hi = bucket_lo + delta
        n_phases += 1
        # Light-edge relaxations to a fixed point within the bucket.
        while True:
            if n_rounds >= max_rounds:
                raise RuntimeError("delta_stepping: round budget exhausted")
            n_rounds += 1
            if relax(bucket_lo, bucket_hi, True) == 0:
                break
        # One heavy-edge pass from the settled bucket.
        n_rounds += 1
        relax(bucket_lo, bucket_hi, False)
        settled_below = bucket_hi


def _bucket_minima(dist: np.ndarray, fresh: np.ndarray | None,
                   bucket_lo: float, bucket_hi: float,
                   entries: tuple[np.ndarray, np.ndarray, np.ndarray]
                   ) -> tuple[np.ndarray, np.ndarray]:
    """One round's candidates: ``(row ids, per-row min of dist[u] + w)``
    over the row-grouped ``(src, row, w)`` entries whose source is a
    bucket member — only a ``fresh`` one (flag cleared) in a light round,
    any in the heavy pass (``fresh`` None)."""
    src, rows, weights = entries
    active = (dist >= bucket_lo) & (dist < bucket_hi)
    if fresh is not None:
        active &= fresh
        fresh[active] = False
    e = np.flatnonzero(active[src])
    if not len(e):
        return e, dist[:0]
    r = rows[e]
    starts = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])
    return r[starts], np.minimum.reduceat(dist[src[e]] + weights[e], starts)


def delta_stepping(
    comm: Communicator,
    g: DistGraph | GridGraph,
    root_global: int,
    delta: float | None = None,
    weights: np.ndarray | None = None,
    max_rounds: int = 100_000,
) -> DeltaSteppingResult:
    """Shortest distances from ``root_global`` along out-edges (a
    :class:`GridGraph` runs the bitwise-equal :func:`~repro.analytics.
    frontier2d.grid_delta_stepping`).

    Parameters
    ----------
    delta:
        Bucket width; defaults to the mean edge weight (a standard
        heuristic).  Small Δ approaches Dijkstra (many cheap phases),
        Δ = ∞ is Bellman–Ford (one bucket).  NaN or Δ ≤ 0 raise.
    weights:
        Non-negative weight per local in-edge; defaults to the graph's
        edge values or the deterministic hash weights.
    """
    if isinstance(g, GridGraph):
        from .frontier2d import grid_delta_stepping

        return grid_delta_stepping(comm, g, root_global, delta=delta,
                                   weights=weights, max_rounds=max_rounds)
    if not (0 <= root_global < g.n_global):
        raise ValueError("root out of range")
    with comm.region("delta_stepping"):
        halo = halo_of(comm, g)
        plan = relax_plan(comm, g, delta, weights)

        n_loc, n_tot = g.n_loc, g.n_total
        dist = np.full(n_tot, INF, dtype=np.float64)
        if g.partition.owner_of(np.array([root_global]))[0] == comm.rank:
            lid = int(g.partition.to_local(
                comm.rank, np.array([root_global]))[0])
            dist[lid] = 0.0
        halo.exchange(dist)
        fresh = np.isfinite(dist)  # owned and ghost slots alike

        def relax(bucket_lo: float, bucket_hi: float, is_light: bool) -> int:
            """One round over the bucket's sources; returns the global
            number of improved local vertices."""
            r, best = _bucket_minima(
                dist, fresh if is_light else None, bucket_lo, bucket_hi,
                plan.light if is_light else plan.heavy)
            better = best < dist[r]
            r = r[better]
            improved = comm.allreduce(len(r), SUM)
            if improved:
                dist[r] = best[better]
                fresh[r] = True
                ghosts = dist[n_loc:].copy()
                halo.exchange(dist)
                fresh[n_loc:] |= dist[n_loc:] < ghosts
            return improved

        n_phases, n_rounds = _run_buckets(comm, dist[:n_loc], plan.delta,
                                          relax, max_rounds)
        reached = comm.allreduce(
            int(np.count_nonzero(np.isfinite(dist[:n_loc]))), SUM)
        return DeltaSteppingResult(distances=dist[:n_loc].copy(),
                                   n_phases=n_phases,
                                   n_relax_rounds=n_rounds, reached=reached)
