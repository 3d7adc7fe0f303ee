"""Replicated serving tier: snapshot-isolated replicas behind a router.

One :class:`~repro.service.AnalyticsEngine` is a single replica; this
package is the tier that serves many users from N of them (ROADMAP item
2).  The pieces, bottom up:

* :class:`HashRing` — consistent hashing with virtual nodes, so point
  queries stick to the replica whose result cache already holds them;
* :class:`Router` — query-class routing (point kinds by hash, global
  kinds least-loaded), per-replica admission control, and
  shed-with-retry-after backpressure (:class:`ShedError`);
* :class:`UpdateLog` — the sequenced write stream every replica replays
  (owner-routed through its own engine), with read-your-writes sequence
  tokens and truncation at the slowest replica;
* :class:`SnapshotRegistry` / :class:`SnapshotLease` — shared MVCC
  epoch pins over the :class:`~repro.stream.DynamicDistGraph` journal,
  one engine pin per epoch: given back by the last reader of a passed
  epoch or retired idle before the next apply, so compaction resumes;
* :class:`Replica` — one engine plus its catch-up thread and serving
  signals (in-flight, EWMA latency, applied sequence);
* :class:`ReplicaGroup` — the facade: ``submit``/``result``/``query``
  reads, ``apply_updates`` writes, aggregated ``status()``.

Load generation lives with the benchmark that uses it
(``benchmarks/e2e/loadgen.py``, the ``serve_hot`` / ``serve_cold_rw``
workloads).

See README "Replicated serving tier" and DESIGN §16.
"""

from .group import ReplicaGroup, Ticket
from .hashring import HashRing
from .replica import Replica
from .router import GLOBAL_KINDS, POINT_KINDS, Router, ShedError
from .snapshots import SnapshotLease, SnapshotRegistry
from .updatelog import LogEntry, UpdateLog

__all__ = [
    "ReplicaGroup",
    "Ticket",
    "HashRing",
    "Router",
    "ShedError",
    "POINT_KINDS",
    "GLOBAL_KINDS",
    "Replica",
    "SnapshotLease",
    "SnapshotRegistry",
    "UpdateLog",
    "LogEntry",
]
