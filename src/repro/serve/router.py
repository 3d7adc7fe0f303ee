"""Front-end router: query-class + consistent-hash placement, admission.

Placement policy (DESIGN §16):

* **Point queries** (``bfs``, ``closeness``, ``ppr`` — parametrized by a
  source vertex) hash their canonical ``(kind, params)`` onto the
  consistent-hash ring, so a repeated query lands on the replica whose
  result cache already holds it.  When the primary is at its in-flight
  bound the query *spills* to the next replica in ring order —
  deterministic per key, so spill traffic is cache-friendly too.
* **Global queries** (``pagerank``, ``wcc``, ``triangles`` — whole-graph,
  no per-query key locality) go to the least-loaded replica (fewest
  in-flight, EWMA latency as tie-break): any replica's cache serves them
  equally well after one miss each.

Admission control is per replica: each holds at most ``max_inflight``
queries (scheduler queue depth stays bounded behind it).  When *every*
candidate is saturated the router **sheds** — :class:`ShedError` carries
a ``retry_after_s`` estimate (shortest per-replica EWMA latency × queue
depth), the open-loop contract that keeps an overloaded group's latency
bounded instead of letting queues grow without bound.

A ``min_seq`` freshness floor restricts candidates to replicas that have
replayed the update log at least that far (read-your-writes for callers
that carry the sequence number returned by the group's write path).
"""

from __future__ import annotations

import threading

from ..service.cache import canonical_params
from .hashring import HashRing
from .replica import Replica

__all__ = ["GLOBAL_KINDS", "POINT_KINDS", "Router", "ShedError"]

#: Kinds keyed by a per-query vertex: routed by consistent hash.
POINT_KINDS = frozenset({"bfs", "closeness", "ppr"})
#: Whole-graph kinds: routed to the least-loaded replica.
GLOBAL_KINDS = frozenset({"pagerank", "wcc", "triangles"})


class ShedError(RuntimeError):
    """All candidate replicas are saturated; retry after a backoff."""

    def __init__(self, message: str, retry_after_s: float):
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


class Router:
    """Pick a replica for each query; shed when the group is saturated."""

    def __init__(self, replicas: list[Replica], *, vnodes: int = 64):
        if not replicas:
            raise ValueError("router needs at least one replica")
        self.replicas = {r.id: r for r in replicas}
        self.ring = HashRing([r.id for r in replicas], vnodes=vnodes)
        self._lock = threading.Lock()
        self._counters = {
            "routed": 0, "point": 0, "global": 0, "spills": 0, "sheds": 0,
        }

    @staticmethod
    def routing_key(kind: str, params: dict) -> str:
        """Stable placement key: the kind plus canonical params (minus
        ``at_epoch``, which is per-replica state, not query identity)."""
        params = {k: v for k, v in params.items() if k != "at_epoch"}
        return f"{kind}:{canonical_params(params)}"

    def route(self, kind: str, params: dict, *,
              min_seq: int = 0) -> Replica:
        """Choose a replica and reserve one of its in-flight slots
        (:meth:`Replica.try_begin` — spill and shed are decided on the
        reservation itself, so concurrent submitters cannot overshoot
        ``max_inflight``); raise :class:`ShedError` when no candidate has
        capacity.  The caller owes ``replica.finish()`` for the slot."""
        if kind in POINT_KINDS:
            order = list(self.ring.walk(self.routing_key(kind, params)))
            klass = "point"
        else:
            order = sorted(
                self.replicas,
                key=lambda i: (self.replicas[i].inflight,
                               self.replicas[i].ewma_latency_s))
            klass = "global"
        fresh = [self.replicas[i] for i in order
                 if self.replicas[i].applied_seq >= min_seq]
        if not fresh:
            # Nobody has caught up to the freshness floor yet; the
            # cheapest wait is one replay of the gap on the primary.
            primary = self.replicas[order[0]]
            raise ShedError(
                f"no replica has applied seq {min_seq} yet",
                retry_after_s=max(0.01, primary.ewma_latency_s))
        for pos, rep in enumerate(fresh):
            if rep.try_begin():
                with self._lock:
                    self._counters["routed"] += 1
                    self._counters[klass] += 1
                    if pos > 0:
                        self._counters["spills"] += 1
                return rep
        with self._lock:
            self._counters["sheds"] += 1
        retry = min(max(1, r.inflight - r.max_inflight + 1)
                    * max(1e-3, r.ewma_latency_s) for r in fresh)
        raise ShedError(
            f"all {len(fresh)} candidate replicas saturated "
            f"(max_inflight={fresh[0].max_inflight})",
            retry_after_s=retry)

    def stats(self) -> dict:
        with self._lock:
            return dict(self._counters)
