"""Job queue with admission control and work-conserving batch dispatch.

The scheduler sits between :meth:`AnalyticsEngine.submit` and the rank
world.  It enforces two serving-layer policies:

* **admission control** — a bounded FIFO: once ``max_pending`` jobs are
  queued, further submissions raise :class:`AdmissionError` immediately
  instead of growing an unbounded backlog (fail fast under overload);
* **batching** — the dispatcher takes the oldest job together with every
  *already queued* job of the same *batch key* (same analytic kind and
  identical non-source parameters) as one multi-source run — k pending
  BFS sources become one :func:`~repro.analytics.bfs.multi_source_bfs`
  call, k PPR seeds one blocked sweep.

There is no timer: the engine has one dispatcher thread, so a batch forms
while the previous one executes — an idle world runs the head job at once,
a busy world's backlog coalesces for as long as it stays busy.

Jobs with ``batch_key=None`` are never coalesced.  Coalescing may overtake
earlier non-matching jobs by at most one batch (bounded reordering; each
batch is anchored at the *oldest* queued job, so no job starves).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Hashable

__all__ = ["AdmissionError", "Job", "JobScheduler"]


class AdmissionError(RuntimeError):
    """Submission rejected: the pending queue is at its admission bound."""


@dataclass
class Job:
    """One submitted query and its completion state."""

    id: int
    kind: str
    params: dict[str, Any]
    batch_key: Hashable | None = None
    timeout: float | None = None
    submitted_at: float = field(default_factory=time.perf_counter)
    # Left the queue at (None: still queued, or a submit-time cache hit).
    dispatched_at: float | None = None
    # Completion state (written by the dispatcher, read via the event).
    done: threading.Event = field(default_factory=threading.Event, repr=False)
    result: Any = field(default=None, repr=False)
    error: BaseException | None = field(default=None, repr=False)
    cached: bool = False
    served_at: float | None = None

    def finish(self, result: Any = None,
               error: BaseException | None = None) -> None:
        self.result = result
        self.error = error
        self.served_at = time.perf_counter()
        self.done.set()

    @property
    def latency_s(self) -> float | None:
        """Submit-to-completion seconds (None while pending)."""
        if self.served_at is None:
            return None
        return self.served_at - self.submitted_at


class JobScheduler:
    """Bounded FIFO whose head job takes its queued batch-mates along.

    Parameters
    ----------
    max_pending:
        Admission bound on queued (not yet dispatched) jobs.
    max_batch:
        Hard cap on jobs coalesced into one run.
    """

    def __init__(self, max_pending: int = 64, max_batch: int = 16):
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.max_pending = max_pending
        self.max_batch = max_batch
        self._queue: list[Job] = []
        self._ready = threading.Condition()
        self._paused = False
        self._closed = False

    # ------------------------------------------------------------------
    def submit(self, job: Job) -> None:
        """Enqueue ``job`` or raise :class:`AdmissionError` when full."""
        with self._ready:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            if len(self._queue) >= self.max_pending:
                raise AdmissionError(
                    f"queue full ({self.max_pending} pending jobs); "
                    f"retry later")
            self._queue.append(job)
            self._ready.notify_all()

    def pause(self) -> None:
        """Hand out no batch until :meth:`resume` (submissions queue up)."""
        with self._ready:
            self._paused = True

    def resume(self) -> None:
        with self._ready:
            self._paused = False
            self._ready.notify_all()

    def close(self) -> None:
        """Reject future submissions and wake any waiting dispatcher."""
        with self._ready:
            self._closed = True
            self._ready.notify_all()

    def pending(self) -> int:
        with self._ready:
            return len(self._queue)

    def drain(self) -> list[Job]:
        """Remove and return every queued job (used at shutdown)."""
        with self._ready:
            out, self._queue = self._queue, []
            return out

    # ------------------------------------------------------------------
    def next_batch(self, poll_timeout: float | None = 0.1) -> list[Job]:
        """The oldest job plus its queued batch-mates; ``[]`` if the queue
        stayed empty or paused for ``poll_timeout`` seconds (``None``:
        until :meth:`close`).  Never waits once a job is there."""
        with self._ready:
            self._ready.wait_for(
                lambda: self._closed or (self._queue and not self._paused),
                poll_timeout)
            if self._paused or not self._queue:
                return []
            head = self._queue.pop(0)
            batch = [head]
            if head.batch_key is not None:
                rest = []
                for job in self._queue:
                    if (len(batch) < self.max_batch
                            and job.batch_key == head.batch_key):
                        batch.append(job)
                    else:
                        rest.append(job)
                self._queue = rest
            return batch
