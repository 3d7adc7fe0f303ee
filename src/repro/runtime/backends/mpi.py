"""Optional mpi4py rank runtime: the Communicator API over real MPI.

Maps the reproduction's communicator 1:1 onto an ``mpi4py`` communicator:
the generic exchange primitive is mpi4py's lowercase (pickling)
``alltoall``, ``split`` is ``MPI_Comm_split``, and the persistent
:class:`~repro.runtime.comm.AlltoallvPlan` path executes a *real*
``MPI_Alltoallv`` on the plan's preallocated flat buffers — the exact
call the paper's codes issue.

This backend is **launch-bound**: the process set is fixed by ``mpiexec
-n <p>``, so ``run_spmd(nranks=...)`` requires ``nranks`` to equal the
world size of the surrounding launch (a helpful :class:`~repro.runtime.
errors.SpmdLaunchError` explains the invocation otherwise), and every
process of the launch must call ``run_spmd`` (SPMD discipline — the
driver *is* rank 0).  ``run_spmd`` therefore returns the gathered
results on rank 0 and the local result elsewhere.  Abort maps onto
``MPI_Abort`` (the whole launch dies — MPI has no per-world barrier
abort), so the verifier still diagnoses schedule mismatches on every
rank, but sanitizer aborts kill the launch instead of unwinding it.

The module imports cleanly — and reports ``available() == False`` with a
reason — when mpi4py is not installed; nothing else in the package may
import mpi4py at module scope.
"""

from __future__ import annotations

import time
from typing import Any, Sequence

import numpy as np

from ..comm import _WORLD_TIMEOUT, AlltoallvPlan, sanitize_from_env, \
    verify_from_env
from ..errors import CommUsageError, SpmdLaunchError
from ..sanitize import BufferSanitizer
from ._exchange import ExchangeCommunicator
from .base import Backend, Session, SessionRun, resolve_fn_spec

__all__ = ["MpiBackend", "MpiCommunicator"]

_mpi_mod = None
_mpi_error: str | None = None


def _load_mpi():
    """Import mpi4py.MPI once; remember the failure reason."""
    global _mpi_mod, _mpi_error
    if _mpi_mod is None and _mpi_error is None:
        try:
            from mpi4py import MPI  # noqa: PLC0415 - optional dependency
            _mpi_mod = MPI
        except Exception as exc:  # pragma: no cover - env without mpi4py
            _mpi_error = f"{type(exc).__name__}: {exc}"
    return _mpi_mod


class _MpiWorld:
    """Per-process world state wrapping one mpi4py communicator."""

    backend = "mpi"

    def __init__(self, mpi_comm, timeout: float | None, verify: bool,
                 sanitize: bool):
        self.mpi_comm = mpi_comm
        self.size = mpi_comm.Get_size()
        self.session = object()  # see Communicator.session
        self.timeout = timeout
        self.verify = verify
        self.sanitize = sanitize
        self.sanitizer = BufferSanitizer(self.size) if sanitize else None

    def abort(self, reason: str) -> None:  # pragma: no cover - fatal path
        import sys
        print(f"[repro.mpi] aborting launch: {reason}", file=sys.stderr,
              flush=True)
        self.mpi_comm.Abort(1)


class MpiCommunicator(ExchangeCommunicator):
    """Exchange communicator delegating to an mpi4py communicator."""

    def __init__(self, world: _MpiWorld, rank: int):
        super().__init__(world, rank)

    def _xchg(self, outbound: Sequence[Any]) -> list[Any]:
        inbound = self._world.mpi_comm.alltoall(list(outbound))
        # mpi4py round-trips the self element through pickle; restore the
        # exchange contract that self-delivery is the identical object.
        inbound[self.rank] = outbound[self.rank]
        return inbound

    def alltoallv_flat(self, sendbuf, sendcounts, sdispls=None, *,
                       out=None, recvcounts=None, _plan=None):
        if _plan is None:
            return super().alltoallv_flat(
                sendbuf, sendcounts, sdispls, out=out, recvcounts=recvcounts)
        # Plan path: the real MPI_Alltoallv on the frozen buffers.
        MPI = _load_mpi()
        plan = _plan
        trace = self.trace
        t_enter = trace.mark_enter()
        world = self._world
        if world.sanitizer is not None:
            world.sanitizer.tick(self.rank, self._call_index)
            world.sanitizer.check(world, self.rank)
        wait_s = 0.0
        sig = ("plan", plan.plan_id, "dtype", str(plan.dtype),
               "tail", plan.tail)
        if world.verify:
            wait_s = self._verify_schedule("alltoallv", sig)
        self._call_index += 1
        row = int(np.prod(plan.tail, dtype=np.int64)) if plan.tail else 1
        t0 = time.perf_counter()
        world.mpi_comm.Alltoallv(
            [sendbuf, plan.sendcounts * row, plan.sdispls * row,
             MPI._typedict[plan.dtype.char]],
            [out, plan.recvcounts * row, plan.rdispls * row,
             MPI._typedict[plan.dtype.char]])
        xfer_s = time.perf_counter() - t0
        offrank = np.arange(self.size) != self.rank
        row_nbytes = row * plan.dtype.itemsize
        trace.record("alltoallv",
                     row_nbytes * int(plan.sendcounts[offrank].sum()),
                     row_nbytes * int(plan.recvcounts[offrank].sum()),
                     int(np.count_nonzero(plan.sendcounts[offrank])),
                     wait_s, xfer_s, t_enter)
        trace.mark_leave()
        return out, plan.recvcounts

    def split(self, color: int | None, key: int | None = None
              ) -> "MpiCommunicator | None":
        MPI = _load_mpi()
        key = self.rank if key is None else int(key)
        world = self._world
        sub = world.mpi_comm.Split(
            MPI.UNDEFINED if color is None else int(color), key)
        if color is None:
            return None
        sub_world = _MpiWorld(sub, world.timeout, world.verify,
                              world.sanitize)
        return MpiCommunicator(sub_world, sub.Get_rank())

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        if not (0 <= dest < self.size):
            raise CommUsageError(f"dest {dest} out of range")
        self._world.mpi_comm.send(obj, dest=dest, tag=tag)

    def recv(self, source: int, tag: int = 0,
             timeout: float | None | object = _WORLD_TIMEOUT) -> Any:
        if not (0 <= source < self.size):
            raise CommUsageError(f"source {source} out of range")
        # MPI blocking receive has no timeout knob; the argument is
        # accepted for API compatibility.
        return self._world.mpi_comm.recv(source=source, tag=tag)


# The base AlltoallvPlan works as-is: private NumPy stores plus the
# overridden plan path of alltoallv_flat.
MpiCommunicator._plan_class = AlltoallvPlan


class _MpiSession(Session):
    """Session facade over the fixed MPI launch (workers are the launch)."""

    def __init__(self, backend: "MpiBackend", nranks: int,
                 verify: bool | None, sanitize: bool | None):
        self._backend = backend
        self._nranks = nranks
        self._verify = verify
        self._sanitize = sanitize
        self._state: dict = {}

    def run(self, spec, timeout: float | None) -> SessionRun:
        fn = resolve_fn_spec(spec)
        state = self._state

        def job(comm):
            return fn(comm, state)

        # MPI workers ARE the launch: job runs in-process on already-
        # spawned ranks and is never pickled, so the closure is safe here.
        results, traces, failures = self._backend.run_spmd(
            self._nranks, job, (), {},  # spmdlint: disable=SPMD012
            timeout=timeout, collect_traces=True,
            verify=self._verify, sanitize=self._sanitize)
        summaries = [t.summary() if t is not None else None
                     for t in (traces or [None] * self._nranks)]
        return SessionRun(results, dict(failures), summaries, False)

    def close(self) -> None:
        pass


class MpiBackend(Backend):
    name = "mpi"

    def available(self) -> bool:
        return _load_mpi() is not None

    def unavailable_reason(self) -> str | None:
        if _load_mpi() is not None:
            return None
        return f"mpi4py is not importable ({_mpi_error})"

    def run_spmd(self, nranks, fn, args, kwargs, *, timeout, collect_traces,
                 verify, sanitize):
        MPI = _load_mpi()
        if MPI is None:  # pragma: no cover - guarded by the registry
            raise SpmdLaunchError(self.unavailable_reason())
        world_comm = MPI.COMM_WORLD
        if world_comm.Get_size() != nranks:
            raise SpmdLaunchError(
                f"the mpi backend binds ranks to the surrounding MPI launch: "
                f"run_spmd asked for {nranks} rank(s) but this launch has "
                f"{world_comm.Get_size()} (start it with "
                f"'mpiexec -n {nranks} python ...')")
        verify = verify_from_env() if verify is None else bool(verify)
        sanitize = sanitize_from_env() if sanitize is None else bool(sanitize)
        world = _MpiWorld(world_comm.Dup(), timeout, verify, sanitize)
        comm = MpiCommunicator(world, world.mpi_comm.Get_rank())
        failures: dict[int, BaseException] = {}
        result = None
        try:
            result = fn(comm, *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - must capture everything
            failures[comm.rank] = exc
        # SPMD result contract: gather to rank 0 like the local backends'
        # driver view; other ranks see their own (result, failure) only.
        ok = world.mpi_comm.allreduce(not failures)
        if ok:
            gathered = world.mpi_comm.gather(result, root=0)
            results = gathered if comm.rank == 0 else [result] * nranks
        else:
            results = [None] * nranks
        traces = None
        if collect_traces:
            traces = [None] * nranks
            traces[comm.rank] = comm.trace
        world.mpi_comm.Free()
        return results, traces, failures

    def start_session(self, nranks, *, verify, sanitize):
        return _MpiSession(self, nranks, verify, sanitize)
