"""Benchmark-owned open-loop load generator.

One thread issues every request at (or as soon as possible after) its due
time and reaps completions between issues by polling
``group.result(ticket, timeout=0)``, whose ``TimeoutError`` leaves the
ticket live — so no completion waits behind a slower one.  Latency runs
from the instant a request was *due*: a stall in the system (or in the
generator) shows up as latency of the requests behind it, never as a lower
offered rate, and how late each request was issued is reported.

The group is duck-typed (``submit``/``result`` and a shed exception type),
so ``selftest.py`` can drive the generator against a stub.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from harness import Tracer, pctl

#: Sleep between reaping sweeps when nothing is due.
POLL_S = 0.001


@dataclass
class Request:
    idx: int
    due_s: float  # offset from the phase start
    kind: str
    params: dict


@dataclass
class Done:
    """One finished (or refused) request."""

    req: Request
    status: str  # "ok" | "shed" | "error" | "timeout"
    late_s: float  # issue instant minus due instant
    latency_s: float | None = None  # completion minus due; None if refused
    value: object = None  # kept only for sampled requests
    ticket: object = None


@dataclass
class PhaseResult:
    rate: float
    duration_s: float
    done: list[Done] = field(default_factory=list)
    outstanding_mid: int = 0
    outstanding_end: int = 0
    outstanding_max: int = 0

    def latencies_ms(self) -> list[float]:
        return [d.latency_s * 1e3 for d in self.done if d.status == "ok"]

    @property
    def attempted(self) -> int:
        return len(self.done)

    @property
    def failed(self) -> int:
        return sum(d.status != "ok" for d in self.done)

    def count(self, status: str) -> int:
        return sum(d.status == status for d in self.done)

    def within(self, slo_ms: float) -> int:
        return sum(ms <= slo_ms for ms in self.latencies_ms())

    def late_ms(self, q: float) -> float:
        return pctl([d.late_s * 1e3 for d in self.done], q)


def poisson_schedule(rng: np.random.Generator, rate: float, duration_s: float,
                     draw, first_idx: int = 0) -> list[Request]:
    """Poisson arrivals over ``duration_s``, conditioned on their count
    being exactly ``rate * duration_s`` (sorted uniform instants): every
    seed offers the same load, where a free count would swing it by
    ``1/sqrt(count)`` and the queueing latency with it.  ``draw(rng)`` yields
    each request's ``(kind, params)``."""
    dues = np.sort(rng.uniform(0.0, duration_s, size=round(rate * duration_s)))
    out = []
    for t in dues:
        kind, params = draw(rng)
        out.append(Request(first_idx + len(out), float(t), kind, params))
    return out


def run_phase(group, schedule: list[Request], rate: float, duration_s: float,
              *, shed_error: type, tracer: Tracer, timeout_s: float = 20.0,
              keep_value=lambda req: False, on_submit=None,
              on_tick=None) -> PhaseResult:
    """Offer ``schedule`` open-loop; returns once every request finished,
    was refused, or timed out ``timeout_s`` after its due instant.

    ``on_submit(req, ticket)`` sees every admitted request (traced runs
    peek at the engine-side job); ``on_tick()`` runs about once per sweep.
    """
    res = PhaseResult(rate=rate, duration_s=duration_s)
    pending: list[tuple[Request, object, float, float]] = []
    t_start = time.perf_counter()
    marks = {"mid": duration_s / 2, "end": duration_s}
    i = 0
    while i < len(schedule) or pending:
        now = time.perf_counter()
        while i < len(schedule) and t_start + schedule[i].due_s <= now:
            req = schedule[i]
            i += 1
            due = t_start + req.due_s
            issued = time.perf_counter()
            try:
                with tracer.span("serve.submit", request=req.idx):
                    ticket = group.submit(req.kind, **req.params)
            except shed_error:
                res.done.append(Done(req, "shed", issued - due))
                continue
            except Exception:
                res.done.append(Done(req, "error", issued - due))
                continue
            if on_submit is not None:
                on_submit(req, ticket)
            pending.append((req, ticket, due, issued))
            now = time.perf_counter()

        still = []
        for req, ticket, due, issued in pending:
            try:
                value = group.result(ticket, timeout=0)
            except TimeoutError:
                if time.perf_counter() - due > timeout_s:
                    res.done.append(Done(req, "timeout", issued - due,
                                         ticket=ticket))
                else:
                    still.append((req, ticket, due, issued))
                continue
            except Exception:
                res.done.append(Done(req, "error", issued - due,
                                     time.perf_counter() - due))
                continue
            res.done.append(Done(
                req, "ok", issued - due, time.perf_counter() - due,
                value if keep_value(req) else None, ticket))
        pending = still
        res.outstanding_max = max(res.outstanding_max, len(pending))

        elapsed = time.perf_counter() - t_start
        for name in [m for m, at in marks.items() if elapsed >= at]:
            setattr(res, f"outstanding_{name}", len(pending))
            del marks[name]
        if on_tick is not None:
            on_tick()
        wait = POLL_S
        if i < len(schedule):
            wait = min(wait, t_start + schedule[i].due_s - time.perf_counter())
        if wait > 0:
            time.sleep(wait)
    for name in marks:  # schedule drained before the mark was reached
        setattr(res, f"outstanding_{name}", 0)
    return res


class PeriodicWriter(threading.Thread):
    """Second load thread: calls ``write(k)`` for batch ``k`` at its due
    instant ``k * period_s`` and records due-to-return time of each."""

    def __init__(self, write, n_batches: int, period_s: float,
                 tracer: Tracer):
        super().__init__(name="loadgen-writer", daemon=True)
        self.write = write
        self.n_batches = n_batches
        self.period_s = period_s
        self.tracer = tracer
        self.visible_s: list[float] = []
        self.late_s: list[float] = []
        self.errors: list[str] = []
        self._halt = threading.Event()

    def run(self) -> None:
        t_start = time.perf_counter()
        for k in range(self.n_batches):
            due = t_start + k * self.period_s
            if self._halt.wait(max(0.0, due - time.perf_counter())):
                return
            issued = time.perf_counter()
            try:
                with self.tracer.span("serve.apply_updates", write=k):
                    self.write(k)
            except Exception as exc:  # counted as a failed operation
                self.errors.append(f"write {k}: {type(exc).__name__}: {exc}")
                continue
            self.visible_s.append(time.perf_counter() - due)
            self.late_s.append(issued - due)

    def stop(self) -> None:
        self._halt.set()
