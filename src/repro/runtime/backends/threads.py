"""The original threads-as-ranks runtime, wrapped as a backend.

Ranks are OS threads inside one process; collectives move object
references through the shared slot lists of :class:`~repro.runtime.comm.
World` under an abortable barrier.  NumPy kernels release the GIL so
buffer-heavy analytics overlap; pure-Python paths serialize — the gap the
``procs`` backend exists to close.

This module only *relocates* machinery: the one-shot launch body that
lived in :mod:`repro.runtime.launcher` and the persistent worker-thread
loop that lived in :class:`repro.service.engine.AnalyticsEngine`.  The
collective semantics are untouched — every existing test runs through
this path unchanged.
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Callable

from ..comm import Communicator, World
from .base import Backend, FnSpec, Session, SessionRun, resolve_fn_spec

__all__ = ["ThreadsBackend", "ThreadsSession"]

# Stack-size large enough for deep NumPy/scipy call chains on worker threads.
_STACK_SIZE = 16 * 1024 * 1024


class _RankReport:
    """Collects per-rank results/errors; fires when every rank reported."""

    def __init__(self, nranks: int):
        self.results: list[Any] = [None] * nranks
        self.errors: dict[int, BaseException] = {}
        self._remaining = nranks
        self._lock = threading.Lock()
        self.all_done = threading.Event()

    def report(self, rank: int, result: Any = None,
               error: BaseException | None = None) -> None:
        with self._lock:
            if error is not None:
                self.errors[rank] = error
            else:
                self.results[rank] = result
            self._remaining -= 1
            if self._remaining == 0:
                self.all_done.set()


class ThreadsBackend(Backend):
    name = "threads"

    def run_spmd(self, nranks, fn, args, kwargs, *, timeout, collect_traces,
                 verify, sanitize):
        world = World(nranks, timeout=timeout, verify=verify,
                      sanitize=sanitize)
        comms = [Communicator(world, r) for r in range(nranks)]
        results: list[Any] = [None] * nranks
        failures: dict[int, BaseException] = {}
        failures_lock = threading.Lock()
        traces = [c.trace for c in comms] if collect_traces else None

        if nranks == 1:
            # Fast path: run inline (no thread spawn), same semantics.
            try:
                results[0] = fn(comms[0], *args, **kwargs)
            except Exception as exc:
                failures[0] = exc
            return results, traces, failures

        def worker(rank: int) -> None:
            try:
                results[rank] = fn(comms[rank], *args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - must capture everything
                with failures_lock:
                    failures[rank] = exc
                world.abort(f"rank {rank} failed: {type(exc).__name__}: {exc}")

        old_stack = threading.stack_size()
        try:
            threading.stack_size(_STACK_SIZE)
            threads = [
                threading.Thread(target=worker, args=(r,),
                                 name=f"spmd-rank-{r}")
                for r in range(nranks)
            ]
        finally:
            threading.stack_size(old_stack)

        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return results, traces, failures

    def start_session(self, nranks, *, verify, sanitize):
        return ThreadsSession(nranks, verify=verify, sanitize=sanitize)


class ThreadsSession(Session):
    """Persistent worker threads parked on per-rank command queues.

    Worker threads and their ``state`` dicts are long-lived, but each job
    runs over a *fresh* :class:`World`: a ``threading.Barrier`` abort is
    permanent, so reusing one world across jobs would let a single bad
    job poison every later one.
    """

    def __init__(self, nranks: int, *, verify: bool | None,
                 sanitize: bool | None):
        self.nranks = nranks
        self._verify = verify
        self._sanitize = sanitize
        self._closed = False
        self._session = object()
        self._cmd_queues: list[queue.Queue] = [queue.Queue()
                                               for _ in range(nranks)]
        self._states: list[dict] = [{} for _ in range(nranks)]
        self._workers = [
            threading.Thread(target=self._worker_loop, args=(r,),
                             name=f"engine-rank-{r}", daemon=True)
            for r in range(nranks)
        ]
        for t in self._workers:
            t.start()

    def _worker_loop(self, rank: int) -> None:
        q = self._cmd_queues[rank]
        state = self._states[rank]
        while True:
            cmd = q.get()
            if cmd is None:
                # Not a divergent exit: close() enqueues the None sentinel
                # on every rank's queue, so all workers leave together
                # after draining identical schedules.
                return  # spmdlint: disable=SPMD002
            comm, fn, report = cmd
            try:
                result = fn(comm, state)
            except BaseException as exc:  # noqa: BLE001 - isolate the job
                comm.abort(f"rank {rank} failed: "
                           f"{type(exc).__name__}: {exc}")
                report.report(rank, error=exc)
            else:
                report.report(rank, result=result)

    def run(self, spec: FnSpec, timeout: float | None) -> SessionRun:
        fn: Callable = resolve_fn_spec(spec)
        world = World(self.nranks, timeout=timeout, verify=self._verify,
                      sanitize=self._sanitize)
        world.session = self._session  # every job runs over one rank state
        comms = [Communicator(world, r) for r in range(self.nranks)]
        report = _RankReport(self.nranks)
        for r in range(self.nranks):
            self._cmd_queues[r].put((comms[r], fn, report))
        timed_out = False
        if not report.all_done.wait(timeout):
            timed_out = True
            world.abort("job timeout (driver)")
            # Ranks unblock at their next collective; analytics synchronize
            # every iteration/level, so this wait is short.
            report.all_done.wait()
        summaries = [c.trace.summary() for c in comms]
        return SessionRun(report.results, dict(report.errors), summaries,
                          timed_out)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for q in self._cmd_queues:
            q.put(None)
        for t in self._workers:
            t.join(timeout=10.0)
