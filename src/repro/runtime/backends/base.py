"""Backend abstraction: what a rank runtime must provide.

The SPMD programming model — :func:`repro.runtime.run_spmd` launching a
kernel over ``p`` ranks, each holding a :class:`~repro.runtime.comm.
Communicator` with MPI-style collectives — is independent of *what a rank
is*.  A :class:`Backend` binds the model to a transport:

``threads``
    ranks are OS threads sharing one address space; slots hold object
    references, and the gate is one abortable lock gate per world;
``procs``
    ranks are spawned processes; slots are one shared-memory region per
    run, the gate parks each rank on a doorbell semaphore of its own, and
    persistent :class:`~repro.runtime.comm.AlltoallvPlan` buffers live in
    shared-memory segments.

Both run every collective through the one body
:meth:`~repro.runtime.comm.Communicator._run`; a backend supplies only
the world it runs over (its slots and its gate).

A backend answers two calls: :meth:`Backend.run_spmd` for one-shot
launches, and :meth:`Backend.start_session` for a *persistent* rank world
(the serving engine's workers survive across jobs, keeping graph shards
resident).  Sessions dispatch *fn specs* — ``(module, factory, payload)``
triples resolved on the worker side — because a process-backed worker
cannot receive a closure; see :func:`resolve_fn_spec`.
"""

from __future__ import annotations

import importlib
import pickle
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["Backend", "Session", "SessionRun", "FnSpec", "resolve_fn_spec",
           "find_unpicklable"]

#: ``(module, factory, payload)``: worker-side ``getattr(import_module(
#: module), factory)(payload)`` must return the ``fn(comm, state)`` to run.
FnSpec = tuple

#: Hint appended to every launch-time pickling diagnosis.
PICKLE_HINT = ("the procs backend ships work to spawned rank processes by "
               "pickling; define kernel functions at module level and pass "
               "data through picklable arguments")


def resolve_fn_spec(spec: FnSpec) -> Callable:
    """Materialize a session fn spec into a callable ``fn(comm, state)``."""
    module, factory, payload = spec
    return getattr(importlib.import_module(module), factory)(payload)


def find_unpicklable(fn: Callable, args: tuple, kwargs: dict,
                     ) -> tuple[str, BaseException] | None:
    """Name the first launch argument that cannot be pickled.

    Returns ``(description, original error)`` for the offender, or ``None``
    when everything pickles individually (the failure was in the combined
    payload — rare, but possible with recursive structures).
    """
    items: list[tuple[str, Any]] = [
        (f"kernel function {getattr(fn, '__qualname__', repr(fn))!r}", fn)]
    items += [(f"positional argument #{i + 1} ({type(a).__name__})", a)
              for i, a in enumerate(args)]
    items += [(f"keyword argument {k!r} ({type(v).__name__})", v)
              for k, v in kwargs.items()]
    for label, obj in items:
        try:
            pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # noqa: BLE001 - diagnosis path
            return label, exc
    return None


@dataclass
class SessionRun:
    """Outcome of one collective job over a persistent session.

    ``errors`` maps rank -> exception for every rank that raised;
    ``summaries`` holds per-rank :meth:`~repro.runtime.trace.CommTrace.
    summary` dicts (``None`` for a rank that produced none, e.g. a worker
    that crashed).  ``timed_out`` is set when the driver aborted the job
    at its deadline — the engine maps it to ``JobTimeoutError``.
    """

    results: list[Any]
    errors: dict[int, BaseException] = field(default_factory=dict)
    summaries: list[dict | None] = field(default_factory=list)
    timed_out: bool = False


class Session(ABC):
    """A persistent rank world: workers park between jobs, state survives.

    Each rank owns a ``state`` dict that persists across :meth:`run` calls
    (the engine keeps its graph shard there); each job gets a *fresh*
    world/communicator so an aborted world never poisons the next job.
    """

    @abstractmethod
    def run(self, spec: FnSpec, timeout: float | None) -> SessionRun:
        """Run ``fn(comm, state)`` (from ``spec``) once per rank."""

    @abstractmethod
    def close(self) -> None:
        """Tear the workers down; idempotent."""


class Backend(ABC):
    """One rank-runtime implementation behind the Communicator API."""

    #: Registry key and the value of ``Communicator.backend``.
    name: str = "?"

    @abstractmethod
    def run_spmd(
        self,
        nranks: int,
        fn: Callable,
        args: tuple,
        kwargs: dict,
        *,
        timeout: float | None,
        collect_traces: bool,
        verify: bool | None,
        sanitize: bool | None,
    ) -> tuple[list[Any], list | None, dict[int, BaseException]]:
        """Run ``fn(comm, *args, **kwargs)`` once per rank.

        Returns ``(results, traces, failures)``; the launcher owns the
        failure filtering and raises :class:`~repro.runtime.errors.
        SpmdError`, so traces survive even for failed runs.
        """

    @abstractmethod
    def start_session(self, nranks: int, *, verify: bool | None,
                      sanitize: bool | None) -> Session:
        """Spin up a persistent rank world for the serving engine."""
