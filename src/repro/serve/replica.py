"""One serving replica: an engine plus its replication catch-up thread.

A :class:`Replica` wraps one :class:`~repro.service.AnalyticsEngine`
(its own persistent rank world on the configured backend) and keeps it
converged with the group's shared :class:`~repro.serve.updatelog.
UpdateLog`: a daemon thread waits for new log entries and replays them
in sequence through ``engine.apply_updates`` — the same owner-routed
collective path a live write takes, which is why a caught-up replica is
bitwise-identical to one that applied the batches directly.

The replica also carries the router-facing serving signals: in-flight
query count (admission control), an EWMA of recent query latency (the
router's retry-after estimate), applied sequence number (read-freshness
barrier), and its engine's cache/snapshot statistics.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from .snapshots import SnapshotRegistry
from .updatelog import UpdateLog

__all__ = ["Replica"]

#: EWMA smoothing for the latency estimate (~last 10 queries dominate).
_EWMA_ALPHA = 0.2


class Replica:
    """One engine behind the router, kept fresh by log replay."""

    def __init__(self, replica_id: int, engine, log: UpdateLog,
                 *, max_inflight: int = 8,
                 apply_timeout: float | None = 120.0):
        self.id = replica_id
        self.engine = engine
        self.log = log
        self.max_inflight = int(max_inflight)
        self.apply_timeout = apply_timeout
        self.snapshots = SnapshotRegistry(engine)

        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._inflight = 0
        self._started = 0
        self._finished = 0
        self._ewma_s = 0.005  # prior: a cheap query (one solo BFS miss)
        self._applied_seq = 0  # next log seq this replica will apply
        self._apply_errors: list[tuple[int, str]] = []
        self._closed = False
        self._catchup = threading.Thread(
            target=self._catchup_loop, name=f"replica{replica_id}-catchup",
            daemon=True)
        self._catchup.start()

    # --- serving signals ----------------------------------------------
    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    @property
    def applied_seq(self) -> int:
        with self._lock:
            return self._applied_seq

    @property
    def ewma_latency_s(self) -> float:
        with self._lock:
            return self._ewma_s

    def try_begin(self) -> bool:
        """Reserve one in-flight slot if there is capacity (check and
        increment are one step, so the bound holds under any number of
        concurrent submitters); pair a True with :meth:`finish`."""
        with self._lock:
            if self._inflight >= self.max_inflight:
                return False
            self._inflight += 1
            self._started += 1
            return True

    def finish(self, latency_s: float | None = None) -> None:
        with self._lock:
            self._inflight -= 1
            self._finished += 1
            if latency_s is not None:
                self._ewma_s += _EWMA_ALPHA * (latency_s - self._ewma_s)

    # --- replication --------------------------------------------------
    def feed(self) -> None:
        """Signal that the shared log has new entries."""
        with self._wake:
            self._wake.notify_all()

    def sync(self, seq: int | None = None,
             timeout: float | None = 60.0) -> bool:
        """Block until this replica has applied every entry below
        ``seq`` (default: the log head); False on timeout."""
        target = self.log.head_seq if seq is None else seq
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._wake:
            while self._applied_seq < target and not self._closed:
                left = (None if deadline is None
                        else deadline - time.monotonic())
                if left is not None and left <= 0:
                    return False
                self._wake.wait(0.05 if left is None else min(left, 0.05))
            return self._applied_seq >= target

    def _catchup_loop(self) -> None:
        while True:
            with self._wake:
                while (not self._closed
                       and self._applied_seq >= self.log.head_seq):
                    self._wake.wait(0.1)
                if self._closed:
                    return
                seq = self._applied_seq
            try:
                entries = self.log.since(seq)
            except LookupError as exc:  # fell behind a truncation
                with self._wake:
                    self._apply_errors.append((seq, str(exc)))
                    self._applied_seq = self.log.head_seq
                    self._wake.notify_all()
                continue
            for entry in entries:
                err = None
                try:
                    # Idle snapshot pins go back first, on this thread:
                    # a pin nobody is reading from must not defer the
                    # compaction this apply may trigger.
                    self.snapshots.retire_idle()
                    self.engine.apply_updates(
                        entry.src, entry.dst, entry.op, entry.values,
                        timeout=self.apply_timeout)
                except Exception as exc:
                    # Record and move on: a poisoned batch must not wedge
                    # the replication stream behind it (the group
                    # surfaces the error on the next write/sync).
                    err = f"{type(exc).__name__}: {exc}"
                with self._wake:
                    if err is not None:
                        self._apply_errors.append((entry.seq, err))
                    self._applied_seq = entry.seq + 1
                    self._wake.notify_all()
                    if self._closed:
                        return

    def drain_errors(self) -> list[tuple[int, str]]:
        """Pop replication errors recorded since the last call."""
        with self._lock:
            errs, self._apply_errors = self._apply_errors, []
            return errs

    # ------------------------------------------------------------------
    def status(self) -> dict[str, Any]:
        eng = self.engine.status()
        registry = self.snapshots.stats()
        with self._lock:
            return {
                "id": self.id,
                "inflight": self._inflight,
                "max_inflight": self.max_inflight,
                "started": self._started,
                "finished": self._finished,
                "applied_seq": self._applied_seq,
                "ewma_latency_s": self._ewma_s,
                "apply_errors": len(self._apply_errors),
                "epoch": eng["epoch"],
                "fingerprint": eng["fingerprint"],
                "cache": eng["cache"],
                "snapshots": {**eng["snapshots"], "registry": registry},
                "jobs": eng["jobs"],
                "stream": eng["stream"],
            }

    def close(self) -> None:
        with self._wake:
            self._closed = True
            self._wake.notify_all()
        self._catchup.join(timeout=10.0)
        self.engine.shutdown()
