"""Launching SPMD functions across a world of ranks.

:func:`run_spmd` is the top-level entry point of the runtime: it plays the
role of ``mpiexec -n <p>``.  The target function receives a
:class:`~repro.runtime.comm.Communicator` as its first argument and runs
once per rank; the per-rank return values come back as a list.

What a *rank* is — an OS thread or a spawned process over a
shared-memory slot region — is decided by the ``backend`` argument
(default: the ``REPRO_BACKEND`` environment variable, else threads); see
:mod:`repro.runtime.backends`.

Failure semantics: if any rank raises, the world is aborted so the
remaining ranks unblock with ``RankAborted`` at their next collective; the
launcher raises :class:`~repro.runtime.errors.SpmdError` carrying the
original exception(s).
"""

from __future__ import annotations

from typing import Any, Callable

from .backends import get_backend
from .errors import RankAborted, SpmdError

__all__ = ["run_spmd", "spmd_traces"]

_last_traces: list | None = None


def run_spmd(
    nranks: int,
    fn: Callable[..., Any],
    *args: Any,
    timeout: float | None = 120.0,
    collect_traces: bool = True,
    verify: bool | None = None,
    sanitize: bool | None = None,
    backend: str | None = None,
    **kwargs: Any,
) -> list[Any]:
    """Run ``fn(comm, *args, **kwargs)`` on ``nranks`` ranks.

    Parameters
    ----------
    nranks:
        World size.
    fn:
        SPMD function.  Must follow BSP discipline: every rank issues the
        same sequence of collectives.  On process-backed runtimes it is
        shipped by pickle, so it must be a module-level function (a
        closure raises :class:`~repro.runtime.errors.SpmdLaunchError`
        naming it).
    timeout:
        Per-collective-wait timeout in seconds; converts accidental
        deadlocks into errors.  ``None`` disables.
    collect_traces:
        When true (default) the per-rank :class:`CommTrace` objects are kept
        and retrievable via :func:`spmd_traces`.
    verify:
        Enable the runtime collective-schedule verifier for this world
        (a signature rides every collective's slot; mismatches raise
        :class:`~repro.runtime.errors.CollectiveMismatchError` instead of
        hanging).  ``None`` (default) defers to the
        ``REPRO_VERIFY_COLLECTIVES`` environment variable.
    sanitize:
        Enable the buffer-ownership sanitizer for this world (copy=False
        collective results become read-only borrows, publishes are
        fingerprint-checked per barrier epoch; illegal writes raise
        :class:`~repro.runtime.errors.BufferRaceError` on every rank).
        ``None`` (default) defers to the ``REPRO_SANITIZE_BUFFERS``
        environment variable.
    backend:
        Rank runtime: ``"threads"`` or ``"procs"``.  ``None`` (default)
        defers to ``REPRO_BACKEND``, else threads.

    Returns
    -------
    list
        ``[fn(rank 0 result), ..., fn(rank nranks-1 result)]``.

    Raises
    ------
    SpmdError
        If any rank raised.  The first real failure is the ``__cause__``.
    SpmdLaunchError
        If the backend selection is invalid or the launch payload cannot
        be shipped to it.
    """
    global _last_traces
    if nranks < 1:
        raise ValueError("nranks must be >= 1")
    runtime = get_backend(backend)
    results, traces, failures = runtime.run_spmd(
        nranks, fn, args, kwargs, timeout=timeout,
        collect_traces=collect_traces, verify=verify, sanitize=sanitize)
    _last_traces = traces

    if failures:
        primary = {r: e for r, e in failures.items()
                   if not isinstance(e, RankAborted)}
        if not primary:
            primary = failures
        err = SpmdError(primary)
        err.__cause__ = primary[min(primary)]
        raise err
    return results


def spmd_traces() -> list:
    """Return the per-rank traces of the most recent :func:`run_spmd` call.

    Raises
    ------
    RuntimeError
        If no traced run has completed yet.
    """
    if _last_traces is None:
        raise RuntimeError("no traced run_spmd call has completed")
    return _last_traces
