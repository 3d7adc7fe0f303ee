"""Replica group: N analytics engines behind one router and update log.

This is the serving tier's top-level object (ROADMAP item 2).  Reads
enter through :meth:`ReplicaGroup.submit` — routed by query class and
consistent hash, admission-controlled per replica, optionally pinned to
an MVCC snapshot epoch so a long-running analytic reads one consistent
graph while writes stream in.  Writes enter through
:meth:`ReplicaGroup.apply_updates` — sequenced once in the shared
:class:`~repro.serve.updatelog.UpdateLog` and replayed asynchronously by
every replica's catch-up thread; the returned sequence number is a
read-your-writes freshness token for later queries.

Each replica is a full :class:`~repro.service.AnalyticsEngine` (its own
persistent rank world), so the group multiplies serving throughput for
cacheable and CPU-bound read traffic at the cost of replicated memory —
the classic read-replica trade, measured by the ``serve_hot`` and
``serve_cold_rw`` workloads of ``benchmarks/e2e/``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any

from ..service import AdmissionError, AnalyticsEngine
from .replica import Replica
from .router import Router, ShedError
from .snapshots import SnapshotLease
from .updatelog import UpdateLog

__all__ = ["ReplicaGroup", "Ticket"]


@dataclass
class Ticket:
    """Handle for one routed query (pass to :meth:`ReplicaGroup.result`)."""

    replica_id: int
    job_id: int
    kind: str
    t_submit: float
    lease: SnapshotLease | None = None
    at_epoch: int | None = None
    _done: bool = field(default=False, repr=False)


class ReplicaGroup:
    """N snapshot-isolated engine replicas behind a routing front end.

    Parameters mirror :class:`~repro.service.AnalyticsEngine` (each
    replica gets identical build inputs, hence identical shards and
    fingerprints) plus the serving-tier knobs:

    replicas:
        Number of engine replicas (each a persistent ``nranks`` world).
    max_inflight:
        Per-replica admission bound; beyond it the router spills to the
        next replica in ring order and finally sheds with a retry-after.
    snapshot_reads:
        When True, every served read is pinned to its replica's current
        epoch via a shared :class:`~repro.serve.snapshots.
        SnapshotRegistry` lease, so results are epoch-consistent even
        while the catch-up thread applies updates mid-query.  The engine
        pin behind the leases lives per epoch (about one pin per write),
        not per read.
    """

    def __init__(
        self,
        nranks: int,
        *,
        replicas: int = 2,
        max_inflight: int = 8,
        snapshot_reads: bool = False,
        vnodes: int = 64,
        apply_timeout: float | None = 120.0,
        **engine_kwargs: Any,
    ):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.nranks = nranks
        self.snapshot_reads = bool(snapshot_reads)
        self.log = UpdateLog()
        self.replicas: list[Replica] = []
        try:
            for i in range(replicas):
                engine = AnalyticsEngine(nranks, **engine_kwargs)
                self.replicas.append(Replica(
                    i, engine, self.log, max_inflight=max_inflight,
                    apply_timeout=apply_timeout))
        except Exception:
            for rep in self.replicas:
                rep.close()
            raise
        self.router = Router(self.replicas, vnodes=vnodes)
        self._lock = threading.Lock()
        self._closed = False
        self._counters = {"submitted": 0, "completed": 0, "failed": 0,
                          "writes": 0, "snapshot_reads": 0}

    # --- read path ----------------------------------------------------
    def submit(self, kind: str, *, min_seq: int = 0,
               timeout: float | None = None, **params: Any) -> Ticket:
        """Route one query to a replica; returns a :class:`Ticket`.

        Raises :class:`~repro.serve.router.ShedError` when every
        candidate replica is saturated (its ``retry_after_s`` is the
        caller's backoff) and propagates
        :class:`~repro.service.AdmissionError` if the chosen replica's
        scheduler rejects at its own bound (counted as a shed).
        """
        if self._closed:
            raise RuntimeError("replica group has been shut down")
        rep = self.router.route(kind, params, min_seq=min_seq)
        # ``route`` reserved an in-flight slot on ``rep``: every path below
        # either hands it to the ticket or gives it back.
        lease = None
        try:
            if self.snapshot_reads and not kind.startswith("_"):
                lease = rep.snapshots.acquire(timeout=timeout)
                params = dict(params, at_epoch=lease.epoch)
                with self._lock:
                    self._counters["snapshot_reads"] += 1
            job_id = rep.engine.submit(kind, timeout=timeout, **params)
        except AdmissionError as exc:
            if lease is not None:
                lease.release()
            rep.finish()
            raise ShedError(
                f"replica {rep.id} scheduler at admission bound: {exc}",
                retry_after_s=max(1e-3, rep.ewma_latency_s)) from exc
        except Exception:
            if lease is not None:
                lease.release()
            rep.finish()
            raise
        with self._lock:
            self._counters["submitted"] += 1
        return Ticket(replica_id=rep.id, job_id=job_id, kind=kind,
                      t_submit=time.monotonic(), lease=lease,
                      at_epoch=None if lease is None else lease.epoch)

    def result(self, ticket: Ticket, timeout: float | None = None) -> Any:
        """Block for a ticket's result; releases its snapshot lease and
        in-flight slot exactly once, success or failure.  On
        :class:`TimeoutError` the job is still pending and the ticket
        stays live (slot and lease held) so a later call can reap it."""
        rep = self.router.replicas[ticket.replica_id]
        try:
            value = rep.engine.result(ticket.job_id, timeout=timeout)
        except TimeoutError:
            raise
        except Exception:
            with self._lock:
                self._counters["failed"] += 1
            self._close_ticket(rep, ticket)
            raise
        with self._lock:
            self._counters["completed"] += 1
        self._close_ticket(rep, ticket)
        return value

    def _close_ticket(self, rep: Replica, ticket: Ticket) -> None:
        if ticket._done:
            return
        ticket._done = True
        rep.finish(time.monotonic() - ticket.t_submit)
        if ticket.lease is not None:
            ticket.lease.release()

    def query(self, kind: str, *, min_seq: int = 0,
              timeout: float | None = None, **params: Any) -> Any:
        """Synchronous convenience: :meth:`submit` + :meth:`result`."""
        return self.result(
            self.submit(kind, min_seq=min_seq, timeout=timeout, **params),
            timeout=timeout)

    # --- write path ---------------------------------------------------
    def apply_updates(self, src, dst, op=None, values=None, *,
                      wait: str = "all",
                      timeout: float | None = 60.0) -> dict:
        """Sequence one update batch into the log and feed every replica.

        ``wait="all"`` blocks until every replica has replayed through
        this batch (strong: subsequent reads anywhere see it);
        ``wait="none"`` returns immediately with the sequence number —
        pass it as ``min_seq=`` to later queries for read-your-writes.
        Replication errors recorded by any catch-up thread are raised
        here (the write path is where a poisoned batch is actionable).
        """
        if wait not in ("all", "none"):
            raise ValueError("wait must be 'all' or 'none'")
        if self._closed:
            raise RuntimeError("replica group has been shut down")
        entry = self.log.append(src, dst, op, values)
        with self._lock:
            self._counters["writes"] += 1
        for rep in self.replicas:
            rep.feed()
        out = {"seq": entry.seq, "n_updates": int(len(entry.src)),
               "synced": False}
        if wait == "all":
            for rep in self.replicas:
                if not rep.sync(entry.seq + 1, timeout=timeout):
                    raise TimeoutError(
                        f"replica {rep.id} did not apply seq {entry.seq} "
                        f"within {timeout}s")
            errs = [(rep.id, seq, msg) for rep in self.replicas
                    for seq, msg in rep.drain_errors()]
            if errs:
                raise RuntimeError(f"replication errors: {errs}")
            out["synced"] = True
            self.log.truncate_below(self._min_applied())
        return out

    def _min_applied(self) -> int:
        return min(rep.applied_seq for rep in self.replicas)

    def sync(self, timeout: float | None = 60.0) -> bool:
        """Wait for every replica to reach the current log head; True
        when all converged (log is truncated to the slowest replica).
        Snapshot pins no read is using are given back on the way out."""
        target = self.log.head_seq
        ok = all(rep.sync(target, timeout=timeout)
                 for rep in self.replicas)
        self.log.truncate_below(self._min_applied())
        for rep in self.replicas:
            rep.snapshots.retire_idle()
        return ok

    # ------------------------------------------------------------------
    def status(self) -> dict[str, Any]:
        """Aggregate serving status: router, log, and per-replica detail
        (including each replica's cache hit/miss/eviction counters)."""
        with self._lock:
            counters = dict(self._counters)
        reps = [rep.status() for rep in self.replicas]
        return {
            "replicas": len(self.replicas),
            "nranks": self.nranks,
            "snapshot_reads": self.snapshot_reads,
            "group": counters,
            "router": self.router.stats(),
            "log": self.log.stats(),
            "per_replica": reps,
            "cache_totals": {
                k: sum(r["cache"][k] for r in reps)
                for k in ("hits", "misses", "evictions", "invalidations")},
        }

    def shutdown(self) -> None:
        if self._closed:
            return
        self._closed = True
        for rep in self.replicas:
            rep.close()

    def __enter__(self) -> "ReplicaGroup":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
