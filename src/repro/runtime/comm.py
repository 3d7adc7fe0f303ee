"""In-process SPMD communicator with MPI-style collectives.

This is the distributed-memory *substrate* of the reproduction.  The paper's
implementations use MPI (``MPI_Alltoallv``, ``MPI_Allreduce``) with one task
per node; here each rank is an OS thread inside one process and collectives
move NumPy buffers through shared slots guarded by one abortable lock gate
per world (:meth:`World.wait`).

Semantics follow MPI closely:

* collectives are *bulk synchronous*: every rank of the world must call the
  same sequence of collectives with compatible arguments;
* buffer collectives (``alltoallv``, ``allgatherv``) operate on NumPy arrays
  and never pickle;
* object collectives (``bcast``, ``gather``, ``scatter``, ``alltoall``)
  accept arbitrary Python objects, mirroring mpi4py's lowercase API.

Every operation is traced (bytes, message counts, wait/transfer durations)
into :class:`~repro.runtime.trace.CommTrace`, which feeds the performance
model used to regenerate the paper's scaling figures.

An opt-in **schedule verifier** (``World(..., verify=True)`` or the
``REPRO_VERIFY_COLLECTIVES=1`` environment variable) publishes a cheap
signature — op name, per-rank call index, root, reduce op, dtype/shape —
in the same slot as every payload; after the entry sync every rank
compares the same signatures and raises
:class:`~repro.runtime.errors.CollectiveMismatchError` naming the diverging
ranks and both signatures, instead of deadlocking or silently combining
incompatible payloads.  It also detects write-after-write races on the
shared slots (:class:`~repro.runtime.errors.SlotRaceError`).  The static
companion is :mod:`repro.check` ("spmdlint").

Payload *ownership* is a separate hazard: the object collectives default
to ``copy=True``, handing every receiver a private deep copy, while
``copy=False`` opts into zero-copy sharing of the contributor's actual
objects.  The opt-in **buffer sanitizer** (``World(..., sanitize=True)``
or ``REPRO_SANITIZE_BUFFERS=1``, see :mod:`~repro.runtime.sanitize`)
polices the ``copy=False`` path: borrowed ndarrays come back read-only
(escape with :meth:`Communicator.own`), publishes are fingerprinted per
collective call index, and any illegal write raises
:class:`~repro.runtime.errors.BufferRaceError` on every rank naming the
writing rank, collective call index, and epoch window.  The static
companion rules are SPMD006–008 (:mod:`repro.check.racecheck`).

The design deliberately exposes the same cost structure as real MPI: an
``alltoallv`` really does materialize per-destination buffers and a
concatenated receive buffer, so communication volume measurements are exact.

Two personalized-exchange code paths coexist, mirroring the evolution of
real MPI codes:

* the **list path** (:meth:`Communicator.alltoallv`) takes one ndarray per
  destination and concatenates a fresh receive buffer per call — simple,
  but it pays p list entries, p dtype checks, and one allocation per call;
* the **flat path** (:meth:`Communicator.alltoallv_flat`) takes MPI's
  ``sendbuf/sendcounts/sdispls`` triple — one contiguous send array sliced
  by counts and displacements — and can scatter straight into a
  caller-owned ``out`` buffer.  :meth:`Communicator.alltoallv_plan` builds
  an :class:`AlltoallvPlan` (the ``MPI_Alltoallv_init`` analogue) that
  freezes counts, displacements, dtype validation, and both buffers across
  iterations, so the per-iteration cost is one memcpy per peer and nothing
  else.  A plan's shape is fixed at construction; an exchange whose counts
  change per call is one ``alltoallv_flat``.  Plans carry a world-unique
  ``plan_id`` that enters the verifier signature, and register their
  persistent buffers with the sanitizer once at construction instead of
  once per epoch.
"""

from __future__ import annotations

import _thread
import math
import os
import queue
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator, Sequence

import numpy as np

from .errors import (
    CollectiveMismatchError,
    CommUsageError,
    RankAborted,
    SlotRaceError,
)
from .reduceops import ReduceOp, SUM
from .sanitize import (
    RACE_REASON,
    SANITIZE_ENV,
    BufferSanitizer,
    borrow_payload,
    own_payload,
    sanitize_from_env,
)
from .trace import CommTrace

__all__ = ["AlltoallvPlan", "Communicator", "World", "VERIFY_ENV",
           "verify_from_env", "SANITIZE_ENV", "sanitize_from_env"]

#: Environment variable enabling the runtime schedule verifier by default.
VERIFY_ENV = "REPRO_VERIFY_COLLECTIVES"

#: Sentinel marking a slot whose payload was consumed (verify mode only).
_CONSUMED = object()

#: Sentinel for "derive the timeout from the world" (see Communicator.recv).
_WORLD_TIMEOUT = object()

#: Abort-reason prefix naming a verifier-detected divergence.
_MISMATCH_REASON = "collective schedule mismatch"


def verify_from_env() -> bool:
    """True when ``REPRO_VERIFY_COLLECTIVES`` asks for verification."""
    return os.environ.get(VERIFY_ENV, "").strip().lower() in (
        "1", "true", "yes", "on")


def _nbytes(obj: Any) -> int:
    """Best-effort payload size of an object for trace accounting."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, (int, float, bool, np.integer, np.floating)):
        return 8
    return 0


def _payload_sig(value: Any) -> tuple[Any, ...]:
    """Coarse rank-invariant descriptor of a reduction/elementwise payload.

    Arrays must agree on dtype and shape across ranks (elementwise
    reductions require it); scalars and tuples only on their coarse kind,
    since e.g. ``int`` on one rank and ``np.int64`` on another is fine.
    """
    if isinstance(value, np.ndarray):
        return ("ndarray", str(value.dtype), value.shape)
    if isinstance(value, (bool, int, float, complex, np.generic)):
        return ("scalar",)
    if isinstance(value, tuple):
        return ("tuple", len(value))
    return ("object",)


class World:
    """Shared state for one SPMD execution (all ranks of a world).

    Not constructed directly by user code; :func:`repro.runtime.run_spmd`
    builds one per launch.
    """

    def __init__(self, size: int, timeout: float | None = None,
                 verify: bool | None = None, sanitize: bool | None = None):
        if size < 1:
            raise ValueError("world size must be >= 1")
        self.size = size
        self.backend = "threads"
        self.session = object()  # see Communicator.session
        self.timeout = timeout
        self.verify = verify_from_env() if verify is None else bool(verify)
        self.sanitize = (sanitize_from_env() if sanitize is None
                         else bool(sanitize))
        self.sanitizer = BufferSanitizer(size) if self.sanitize else None
        self.slots: list[Any] = [None] * size
        self._mutex = _thread.allocate_lock()
        self._parked: list[Any] = []
        self._broken: list[Any] | None = None  # the generation abort() broke
        self._abort_reason: str | None = None
        self._p2p_lock = threading.Lock()
        self._p2p: dict[tuple[int, int, int], queue.Queue] = {}

    def wait(self) -> float:
        """Block until every rank arrives; return the seconds blocked.

        Each waiter parks on a held lock of its own; the last arriver
        opens a fresh generation and releases every parked lock at once
        (see DESIGN §5.1 for why not one chained gate lock).  A waiter
        whose acquire outlasts ``timeout`` aborts the world.  Raises
        :class:`RankAborted` if :meth:`abort` broke this generation or
        came before entry.
        """
        t0 = time.perf_counter()
        with self._mutex:
            if self._abort_reason is not None:
                raise RankAborted(self._abort_reason)
            generation = self._parked
            if len(generation) + 1 == self.size:
                self._parked = []
                for lock in generation:
                    lock.release()
                return time.perf_counter() - t0
            lock = _thread.allocate_lock()
            lock.acquire()
            generation.append(lock)
        timeout = self.timeout
        if not lock.acquire(True, -1 if timeout is None else timeout):
            self.abort(f"collective wait timed out after {timeout} s")
        if generation is self._broken:
            raise RankAborted(self._abort_reason)
        return time.perf_counter() - t0

    def abort(self, reason: str) -> None:
        """Break the open generation: its waiters and every later
        :meth:`wait` raise :class:`RankAborted` with the first reason.  A
        completed generation returns normally even if its waiters wake
        after this."""
        with self._mutex:
            if self._abort_reason is not None:
                return
            self._abort_reason = reason
            self._broken = self._parked
            for lock in self._parked:
                lock.release()

    def p2p_queue(self, src: int, dst: int, tag: int) -> queue.Queue:
        key = (src, dst, tag)
        with self._p2p_lock:
            q = self._p2p.get(key)
            if q is None:
                q = self._p2p[key] = queue.Queue()
            return q


class Communicator:
    """Per-rank handle to a :class:`World`.

    Mirrors the subset of MPI used by the paper's codes, plus tracing.
    """

    def __init__(self, world: World, rank: int):
        self._world = world
        self.rank = rank
        self.size = world.size
        self.trace = CommTrace(rank)
        self._call_index = 0
        self._n_plans = 0
        # Approximate hop count of a binomial-tree collective, for the
        # alpha (latency) term of the performance model.
        self._tree_msgs = max(1, math.ceil(math.log2(max(2, self.size))))

    #: Plan type constructed by :meth:`alltoallv_plan`; backend
    #: communicators substitute their own (e.g. shared-memory plans).
    _plan_class: type["AlltoallvPlan"]

    @property
    def backend(self) -> str:
        """Name of the runtime backend executing this world."""
        return getattr(self._world, "backend", "threads")

    @property
    def session(self) -> object:
        """Identity shared by every world of one rank session: a
        persistent backend session runs each job on a fresh world over
        the same resident rank state, and all of them carry its token;
        every other world (a launch, a split) has a token of its own."""
        return self._world.session

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _race_from_abort(self, exc: RankAborted) -> None:
        """Convert a sanitizer-triggered abort into the shared diagnosis.

        The rank that detected the race stored a :class:`BufferRaceError`
        on the sanitizer before aborting; peers unblocked by that abort
        re-raise a per-rank clone instead of a bare RankAborted, so the
        race is named identically on every rank.
        """
        sanitizer = self._world.sanitizer
        if sanitizer is not None and RACE_REASON in str(exc):
            flagged = sanitizer.flagged
            if flagged is not None:
                raise flagged.for_rank(self.rank) from None

    def _wait(self) -> float:
        try:
            return self._world.wait()
        except RankAborted as exc:
            self._race_from_abort(exc)
            raise

    def _check_schedule(self, mine: tuple[Any, ...]) -> list[Any]:
        """Compare the signatures published beside the payloads; return
        the payloads.  After the entry sync every rank compares the same
        slots, so a divergence raises on *every* rank before any combine."""
        world = self._world
        peers = {r: s[0] for r, s in enumerate(world.slots) if s[0] != mine}
        if peers:
            world.abort(f"{_MISMATCH_REASON} detected by rank {self.rank}")
            raise CollectiveMismatchError(self.rank, mine, peers)
        return [s[1] for s in world.slots]

    def _run(self, op: str, contribution: Any, combine, bytes_sent: int,
             msg_count: int, sig: tuple[Any, ...] = ()):
        """Execute one collective: publish, sync, combine, sync.

        ``combine(slots)`` is evaluated by *every* rank on the shared slot
        list after the entry sync.  The exit sync keeps every slot, and a
        plan's send buffer that the next execute refills, unchanged until
        every peer has copied out of it.  In verify mode the slot carries
        ``(call_index, op, *sig)`` beside the payload (see
        :meth:`_check_schedule`) and slot hygiene is checked: a rank must
        find its own slot released before publishing into it again.  In
        sanitize mode the entry advances this rank's call-index epoch and
        re-checks its outstanding copy=False publish fingerprints.
        """
        trace = self.trace
        t_enter = trace.mark_enter()
        world = self._world
        rank = self.rank
        slots = world.slots
        verify = world.verify
        if world.sanitizer is not None:
            world.sanitizer.tick(rank, self._call_index)
            world.sanitizer.check(world, rank)
        if verify:
            prev = slots[rank]
            if prev is not None and prev is not _CONSUMED:
                world.abort(f"slot write-after-write race on rank {rank}")
                raise SlotRaceError(
                    f"rank {rank} entered '{op}' while its slot still "
                    f"holds an unconsumed {type(prev).__name__} payload "
                    f"(gate protocol bypassed?)")
            mine = (self._call_index, op, *sig)
            slots[rank] = (mine, contribution)
        else:
            slots[rank] = contribution
        self._call_index += 1
        wait_s = self._wait()
        if verify:
            slots = self._check_schedule(mine)
        t0 = time.perf_counter()
        result, bytes_recv = combine(slots)
        xfer_s = time.perf_counter() - t0 + self._wait()
        if verify:
            world.slots[rank] = _CONSUMED
        trace.record(op, bytes_sent, bytes_recv, msg_count, wait_s, xfer_s, t_enter)
        trace.mark_leave()
        return result

    @contextmanager
    def region(self, name: str) -> Iterator[None]:
        """Tag all trace events inside the block with ``name``."""
        prev = self.trace._region
        self.trace.set_region(name)
        try:
            yield
        finally:
            self.trace.set_region(prev)

    # ------------------------------------------------------------------
    # synchronization
    # ------------------------------------------------------------------
    def barrier(self) -> None:
        """Block until every rank reaches the barrier."""
        self._run("barrier", None, lambda slots: (None, 0), 0, self._tree_msgs)

    def abort(self, reason: str = "user abort") -> None:
        """Abort the whole world; peers raise ``RankAborted``."""
        self._world.abort(reason)

    # ------------------------------------------------------------------
    # object collectives (mpi4py lowercase style)
    # ------------------------------------------------------------------
    # Ownership model: with ``copy=True`` (default) every receiver gets a
    # private deep copy of the payload's mutable buffers (contributors keep
    # their own objects as-is), so results are always safe to mutate.
    # ``copy=False`` opts into zero-copy sharing of the contributor's
    # actual objects; under the sanitizer those borrows come back as
    # read-only GuardedBuffer views and the publish is fingerprinted.
    def _check_root(self, root: int) -> None:
        if not (0 <= root < self.size):
            raise CommUsageError(f"root {root} out of range for size {self.size}")

    def _adopt(self, value: Any, src: int, op: str, call_index: int,
               copy: bool) -> Any:
        """Apply the ownership policy to one payload received from ``src``."""
        if src == self.rank:
            return value  # own contribution: already owned
        if copy:
            return own_payload(value)
        world = self._world
        if world.sanitizer is not None:
            return borrow_payload(
                value,
                world.sanitizer.info(world, src, self.rank, op, call_index))
        return value

    def _guard_publish(self, op: str, call_index: int, payload: Any) -> None:
        """Register a copy=False publish with the sanitizer (if enabled)."""
        sanitizer = self._world.sanitizer
        if sanitizer is not None:
            sanitizer.guard(self.rank, op, call_index, payload)

    def own(self, obj: Any) -> Any:
        """Copy-escape a borrowed collective payload.

        Returns a deep copy of ``obj``'s mutable buffers — writable plain
        ndarrays, rebuilt containers — that is safe to mutate, publish, or
        cache without affecting any peer rank.  Idempotent on owned data.
        """
        return own_payload(obj)

    def bcast(self, obj: Any, root: int = 0, copy: bool = True) -> Any:
        """Broadcast ``obj`` from ``root`` to all ranks; returns it everywhere.

        With ``copy=False`` non-root ranks receive the root's *actual*
        object (zero-copy, but writes alias every rank); under the
        sanitizer such borrows are read-only — escape with :meth:`own`.
        """
        self._check_root(root)
        nb = _nbytes(obj) if self.rank == root else 0
        idx = self._call_index
        if self.rank == root and not copy:
            self._guard_publish("bcast", idx, obj)

        def combine(slots):
            val = slots[root]
            nbr = 0 if self.rank == root else _nbytes(val)
            return self._adopt(val, root, "bcast", idx, copy), nbr

        return self._run("bcast", obj if self.rank == root else None, combine,
                         nb * (self.size - 1) if self.rank == root else 0,
                         self._tree_msgs, sig=("root", root))

    def gather(self, obj: Any, root: int = 0,
               copy: bool = True) -> list[Any] | None:
        """Gather one object per rank into a list at ``root`` (None elsewhere).

        The list itself is always fresh; with ``copy=False`` its *elements*
        are the contributors' actual objects.
        """
        self._check_root(root)
        idx = self._call_index
        if self.rank != root and not copy:
            self._guard_publish("gather", idx, obj)

        def combine(slots):
            if self.rank == root:
                vals = [self._adopt(v, src, "gather", idx, copy)
                        for src, v in enumerate(slots)]
                return vals, sum(_nbytes(v) for v in slots)
            return None, 0

        return self._run("gather", obj, combine, _nbytes(obj), 1,
                         sig=("root", root))

    def allgather(self, obj: Any, copy: bool = True) -> list[Any]:
        """Gather one object per rank into a list on every rank.

        The list itself is always fresh; with ``copy=False`` its *elements*
        are the contributors' actual objects.
        """
        idx = self._call_index
        if not copy:
            self._guard_publish("allgather", idx, obj)

        def combine(slots):
            vals = [self._adopt(v, src, "allgather", idx, copy)
                    for src, v in enumerate(slots)]
            return vals, sum(_nbytes(v) for v in slots)

        return self._run("allgather", obj, combine,
                         _nbytes(obj) * (self.size - 1), self._tree_msgs)

    def scatter(self, objs: Sequence[Any] | None, root: int = 0,
                copy: bool = True) -> Any:
        """Scatter a length-``size`` sequence from ``root``; returns own element.

        With ``copy=False`` each rank receives the root's actual element
        object (the root's own element is never copied in either mode).
        """
        self._check_root(root)
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                raise CommUsageError("scatter requires a length-size sequence at root")
        idx = self._call_index
        if self.rank == root and not copy:
            # The root's own element aliases only itself; guard the rest.
            self._guard_publish(
                "scatter", idx,
                [o for i, o in enumerate(objs) if i != root])

        def combine(slots):
            val = slots[root][self.rank]
            nbr = 0 if self.rank == root else _nbytes(val)
            return self._adopt(val, root, "scatter", idx, copy), nbr

        sent = sum(_nbytes(o) for o in objs) if self.rank == root else 0
        return self._run("scatter", objs if self.rank == root else None,
                         combine, sent, 1 if self.rank == root else 0,
                         sig=("root", root))

    def alltoall(self, objs: Sequence[Any], copy: bool = True) -> list[Any]:
        """Personalized all-to-all of Python objects (``objs[d]`` goes to rank d).

        The result list is always fresh; with ``copy=False`` its elements
        are the senders' actual objects (the self-to-self element is never
        copied in either mode).
        """
        if len(objs) != self.size:
            raise CommUsageError(
                f"alltoall needs exactly {self.size} items, got {len(objs)}")
        idx = self._call_index
        if not copy:
            # objs[rank] is delivered back to self; guard only what peers see.
            self._guard_publish(
                "alltoall", idx,
                [o for i, o in enumerate(objs) if i != self.rank])

        def combine(slots):
            vals = [self._adopt(slots[src][self.rank], src, "alltoall",
                                idx, copy)
                    for src in range(self.size)]
            return vals, sum(_nbytes(slots[src][self.rank])
                             for src in range(self.size))

        sent = sum(_nbytes(o) for i, o in enumerate(objs) if i != self.rank)
        return self._run("alltoall", list(objs), combine, sent, self.size - 1)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def allreduce(self, value: Any, op: ReduceOp = SUM) -> Any:
        """Reduce ``value`` across ranks with ``op``; result on every rank."""

        def combine(slots):
            out = op.reduce_all(list(slots))
            if isinstance(out, np.ndarray):
                out = out.copy()
            return out, _nbytes(value) * self._tree_msgs

        return self._run(f"allreduce[{op.name}]", value, combine,
                         _nbytes(value) * self._tree_msgs, 2 * self._tree_msgs,
                         sig=(("payload", _payload_sig(value))
                              if self._world.verify else ()))

    def reduce(self, value: Any, op: ReduceOp = SUM, root: int = 0) -> Any:
        """Reduce to ``root`` (None elsewhere)."""
        self._check_root(root)

        def combine(slots):
            if self.rank != root:
                return None, 0
            out = op.reduce_all(list(slots))
            if isinstance(out, np.ndarray):
                out = out.copy()
            return out, _nbytes(value) * (self.size - 1)

        return self._run(f"reduce[{op.name}]", value, combine,
                         _nbytes(value), 1,
                         sig=(("root", root, "payload", _payload_sig(value))
                              if self._world.verify else ()))

    def scan(self, value: Any, op: ReduceOp = SUM) -> Any:
        """Inclusive prefix reduction over ranks 0..rank."""

        def combine(slots):
            out = op.reduce_all(list(slots[: self.rank + 1]))
            if isinstance(out, np.ndarray):
                out = out.copy()
            return out, _nbytes(value)

        return self._run(f"scan[{op.name}]", value, combine,
                         _nbytes(value), self._tree_msgs,
                         sig=(("payload", _payload_sig(value))
                              if self._world.verify else ()))

    def exscan(self, value: Any, op: ReduceOp = SUM) -> Any:
        """Exclusive prefix reduction; ``op.identity`` on rank 0."""

        def combine(slots):
            if self.rank == 0:
                return op.identity, 0
            out = op.reduce_all(list(slots[: self.rank]))
            if isinstance(out, np.ndarray):
                out = out.copy()
            return out, _nbytes(value)

        return self._run(f"exscan[{op.name}]", value, combine,
                         _nbytes(value), self._tree_msgs,
                         sig=(("payload", _payload_sig(value))
                              if self._world.verify else ()))

    # ------------------------------------------------------------------
    # buffer collectives
    # ------------------------------------------------------------------
    def allgatherv(self, array: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Concatenate a per-rank array on every rank.

        Returns
        -------
        (data, counts):
            ``data`` is the concatenation over ranks in rank order and
            ``counts[r]`` is the number of elements contributed by rank r.
        """
        array = np.ascontiguousarray(array)

        def combine(slots):
            counts = np.array([len(s) for s in slots], dtype=np.int64)
            data = np.concatenate(slots) if counts.sum() else array[:0].copy()
            return (data, counts), int(data.nbytes)

        return self._run("allgatherv", array, combine,
                         array.nbytes * (self.size - 1), self._tree_msgs,
                         sig=(("dtype", str(array.dtype),
                               "tail", array.shape[1:])
                              if self._world.verify else ()))

    def gatherv(self, array: np.ndarray, root: int = 0
                ) -> tuple[np.ndarray, np.ndarray] | None:
        """Concatenate per-rank arrays at ``root`` (None elsewhere).

        Returns ``(data, counts)`` at the root, in rank order.
        """
        self._check_root(root)
        array = np.ascontiguousarray(array)

        def combine(slots):
            if self.rank != root:
                return None, 0
            counts = np.array([len(s) for s in slots], dtype=np.int64)
            data = np.concatenate(slots) if counts.sum() else array[:0].copy()
            return (data, counts), int(data.nbytes)

        return self._run("gatherv", array, combine, array.nbytes, 1,
                         sig=(("root", root, "dtype", str(array.dtype),
                               "tail", array.shape[1:])
                              if self._world.verify else ()))

    def reduce_scatter(self, array: np.ndarray, op: ReduceOp = SUM
                       ) -> np.ndarray:
        """Element-wise reduce ``size`` equal blocks, scatter one per rank.

        Every rank contributes an array whose length is a multiple of
        ``size``; block ``r`` of the element-wise reduction lands on rank
        ``r``.  (MPI_Reduce_scatter_block semantics.)
        """
        array = np.ascontiguousarray(array)
        if len(array) % self.size:
            raise CommUsageError(
                f"reduce_scatter needs length divisible by {self.size}")
        block = len(array) // self.size

        def combine(slots):
            lo, hi = self.rank * block, (self.rank + 1) * block
            acc = op.reduce_all([s[lo:hi] for s in slots])
            if isinstance(acc, np.ndarray):
                acc = acc.copy()
            return acc, block * array.itemsize

        return self._run(f"reduce_scatter[{op.name}]", array, combine,
                         array.nbytes, self._tree_msgs,
                         sig=(("dtype", str(array.dtype), "len", len(array))
                              if self._world.verify else ()))

    def alltoallv(self, send: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Personalized all-to-all of NumPy buffers.

        ``send[d]`` is the buffer destined for rank ``d`` (may be empty, and
        ``send[rank]`` is delivered to self).  All buffers must share a dtype.

        Returns
        -------
        (data, counts):
            ``data`` concatenates the buffers received from ranks
            ``0..size-1`` in source-rank order; ``counts[s]`` is the element
            count received from rank ``s``.
        """
        if len(send) != self.size:
            raise CommUsageError(
                f"alltoallv needs exactly {self.size} buffers, got {len(send)}")
        send = [np.ascontiguousarray(b) for b in send]
        dt = send[0].dtype
        for b in send[1:]:
            if b.dtype != dt:
                raise CommUsageError(
                    f"alltoallv buffers must share a dtype ({b.dtype} != {dt})")
        bytes_sent = sum(b.nbytes for i, b in enumerate(send) if i != self.rank)
        nmsg = sum(1 for i, b in enumerate(send) if i != self.rank and len(b))

        def combine(slots):
            mine = [slots[src][self.rank] for src in range(self.size)]
            counts = np.array([len(b) for b in mine], dtype=np.int64)
            if counts.sum():
                data = np.concatenate(mine)
            else:
                data = np.empty(0, dtype=dt)
            recv = sum(b.nbytes for s, b in enumerate(mine) if s != self.rank)
            return (data, counts), recv

        return self._run("alltoallv", send, combine, bytes_sent, nmsg,
                         sig=("dtype", str(dt)) if self._world.verify else ())

    def _flat_normalize(
        self,
        sendbuf: np.ndarray,
        sendcounts: np.ndarray,
        sdispls: np.ndarray | None,
        recvcounts: np.ndarray | None,
        plan: "AlltoallvPlan | None",
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
        """Validate/normalize the MPI-style flat-exchange argument triple.

        Shared by every backend's ``alltoallv_flat``; with a plan the
        validation was done once at construction and is skipped here.
        """
        size = self.size
        if plan is None:
            sendbuf = np.ascontiguousarray(sendbuf)
            sendcounts = np.ascontiguousarray(sendcounts, dtype=np.int64)
            if sendcounts.shape != (size,):
                raise CommUsageError(
                    f"alltoallv_flat needs exactly {size} send counts, "
                    f"got shape {sendcounts.shape}")
            if len(sendcounts) and sendcounts.min() < 0:
                raise CommUsageError("negative send count")
            if sdispls is None:
                sdispls = np.concatenate(
                    ([0], np.cumsum(sendcounts[:-1]))).astype(np.int64)
            else:
                sdispls = np.ascontiguousarray(sdispls, dtype=np.int64)
                if sdispls.shape != (size,):
                    raise CommUsageError(
                        f"alltoallv_flat needs exactly {size} send "
                        f"displacements, got shape {sdispls.shape}")
            if size and int((sdispls + sendcounts).max(initial=0)) > len(sendbuf):
                raise CommUsageError(
                    "send counts/displacements overrun the send buffer")
            if recvcounts is not None:
                recvcounts = np.ascontiguousarray(recvcounts, dtype=np.int64)
        elif sdispls is None:
            sdispls = plan.sdispls
        return sendbuf, sendcounts, sdispls, recvcounts

    def alltoallv_flat(
        self,
        sendbuf: np.ndarray,
        sendcounts: np.ndarray,
        sdispls: np.ndarray | None = None,
        *,
        out: np.ndarray | None = None,
        recvcounts: np.ndarray | None = None,
        _plan: "AlltoallvPlan | None" = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Personalized all-to-all with MPI ``sendbuf/sendcounts/sdispls``
        semantics.

        ``sendbuf`` is one contiguous array; rank ``d`` receives the
        ``sendcounts[d]`` rows starting at ``sdispls[d]`` (contiguous
        packing — an exclusive prefix sum of the counts — when ``sdispls``
        is omitted).  Rows may carry trailing dimensions: an ``(n, k)``
        send buffer ships k values per row and counts stay row counts.

        Unlike :meth:`alltoallv` there are no per-peer Python lists and no
        receive-side ``np.concatenate``: each source's rows are sliced out
        of its flat buffer and copied straight into the receive buffer —
        the caller-owned ``out`` when given (its rows must already equal
        the incoming total), else one fresh allocation.

        ``recvcounts``, when given, is trusted for sizing and
        cross-checked against what the peers actually sent; a mismatch
        raises :class:`CommUsageError` (aborting the world) instead of
        silently mis-slicing.  Both ``out`` and ``recvcounts`` are
        normally supplied by an :class:`AlltoallvPlan`, which also skips
        the per-call contiguity/dtype validation it performed once at
        construction.

        Returns ``(data, counts)`` exactly like :meth:`alltoallv`.
        """
        if _plan is not None:
            return self._execute_plan(_plan)
        size = self.size
        sendbuf, sendcounts, sdispls, recvcounts = self._flat_normalize(
            sendbuf, sendcounts, sdispls, recvcounts, None)
        dt = sendbuf.dtype
        tail = sendbuf.shape[1:]
        row_nbytes = int(dt.itemsize * np.prod(tail, dtype=np.int64)) \
            if tail else dt.itemsize
        offrank = np.arange(size) != self.rank
        bytes_sent = row_nbytes * int(sendcounts[offrank].sum())
        nmsg = int(np.count_nonzero(sendcounts[offrank]))

        def combine(slots):
            rc = recvcounts
            actual = np.array([int(slots[src][1][self.rank])
                               for src in range(size)], dtype=np.int64)
            if rc is None:
                rc = actual
            elif not np.array_equal(actual, rc):
                bad = int(np.flatnonzero(actual != rc)[0])
                raise CommUsageError(
                    f"alltoallv plan mismatch on rank {self.rank}: expected "
                    f"{int(rc[bad])} row(s) from rank {bad}, got "
                    f"{int(actual[bad])} (peers built a different plan?)")
            total = int(rc.sum())
            data = np.empty((total,) + tail, dtype=dt) if out is None else out
            off = 0
            for src in range(size):
                c = int(rc[src])
                if c:
                    sb, _, dsp = slots[src]
                    d = int(dsp[self.rank])
                    data[off:off + c] = sb[d:d + c]
                off += c
            recv = row_nbytes * int(rc[offrank].sum())
            return (data, rc), recv

        sig = ("dtype", str(dt), "tail", tail) if self._world.verify else ()
        return self._run("alltoallv", (sendbuf, sendcounts, sdispls),
                         combine, bytes_sent, nmsg, sig=sig)

    def _execute_plan(self, plan: "AlltoallvPlan") -> tuple[np.ndarray,
                                                            np.ndarray]:
        """The plan path of :meth:`alltoallv_flat`: every count, offset
        and byte total was frozen at construction, so only the receive
        side's cross-check of peer counts and the copies run per call."""
        rank = self.rank
        recvbuf = plan.recvbuf

        def combine(slots):
            for src, (c, off) in enumerate(plan.recv_rows):
                sb, counts, dsp = slots[src]
                if counts[rank] != c:
                    raise CommUsageError(
                        f"alltoallv plan mismatch on rank {rank}: expected "
                        f"{c} row(s) from rank {src}, got {counts[rank]} "
                        f"(peers built a different plan?)")
                if c:
                    d = dsp[rank]
                    recvbuf[off:off + c] = sb[d:d + c]
            return (recvbuf, plan.recvcounts), plan.bytes_recv

        sig = (("plan", plan.plan_id, "dtype", str(plan.dtype),
                "tail", plan.tail) if self._world.verify else ())
        return self._run("alltoallv", plan.slot, combine, plan.bytes_sent,
                         plan.msg_count, sig=sig)

    def alltoallv_plan(
        self,
        sendcounts: np.ndarray,
        recvcounts: np.ndarray | None = None,
        dtype: Any = np.float64,
        tail: tuple[int, ...] = (),
        name: str = "",
    ) -> "AlltoallvPlan":
        """Build a persistent alltoallv schedule (``MPI_Alltoallv_init``).

        ``sendcounts[d]`` rows of dtype ``dtype`` (with trailing dims
        ``tail``) go to rank ``d`` on every :meth:`AlltoallvPlan.execute`.
        ``recvcounts`` may be omitted, in which case one object
        ``alltoall`` exchanges the counts here — a collective, so either
        every rank must omit it or none.  Even with ``recvcounts``
        supplied, construction is a collective on the procs backend (its
        shared-memory segment sync is an allgather), so every rank must
        build the same plans in the same order.

        The plan owns a packed send buffer and a preallocated receive
        buffer, re-used verbatim across executions, and carries a
        world-unique ``plan_id`` that enters the schedule-verifier
        signature so two ranks executing *different* plans fail loudly.
        """
        sendcounts = np.ascontiguousarray(sendcounts, dtype=np.int64)
        if sendcounts.shape != (self.size,):
            raise CommUsageError(
                f"plan needs exactly {self.size} send counts, got shape "
                f"{sendcounts.shape}")
        if len(sendcounts) and sendcounts.min() < 0:
            raise CommUsageError("negative send count")
        if recvcounts is None:
            recvcounts = np.array(
                self.alltoall([int(c) for c in sendcounts]), dtype=np.int64)
        else:
            recvcounts = np.ascontiguousarray(recvcounts, dtype=np.int64)
            if recvcounts.shape != (self.size,):
                raise CommUsageError(
                    f"plan needs exactly {self.size} recv counts, got "
                    f"shape {recvcounts.shape}")
            if len(recvcounts) and recvcounts.min() < 0:
                raise CommUsageError("negative recv count")
        plan_id = self._n_plans
        self._n_plans += 1
        return self._plan_class(self, sendcounts, recvcounts, dtype, tail,
                                plan_id, name)

    # ------------------------------------------------------------------
    # sub-communicators
    # ------------------------------------------------------------------
    def split(self, color: int | None, key: int | None = None
              ) -> "Communicator | None":
        """Partition the world into sub-communicators (MPI_Comm_split).

        Ranks passing the same ``color`` form a new world; within it they
        are ordered by ``(key, old rank)`` (``key`` defaults to the old
        rank, preserving order).  Passing ``color=None`` opts out and
        returns ``None`` (the MPI ``MPI_UNDEFINED`` convention) — the rank
        still participates in the split collectives.

        The returned communicator carries its own fresh trace.
        """
        key = self.rank if key is None else int(key)
        triples = self.allgather(
            (None if color is None else int(color), key, self.rank))
        if color is None:
            self.alltoall([None] * self.size)  # stay collective-aligned
            return None
        members = sorted(
            (k, r) for c, k, r in triples if c == int(color))
        ranks_in_group = [r for _, r in members]
        new_rank = ranks_in_group.index(self.rank)
        leader = ranks_in_group[0]
        if self.rank == leader:
            group_world = World(len(ranks_in_group),
                                timeout=self._world.timeout,
                                verify=self._world.verify,
                                sanitize=self._world.sanitize)
            outgoing = [group_world if r in ranks_in_group else None
                        for r in range(self.size)]
        else:
            outgoing = [None] * self.size
        received = self.alltoall(outgoing)
        return Communicator(received[leader], new_rank)

    # ------------------------------------------------------------------
    # cached 2-D grid sub-communicators (built on split)
    # ------------------------------------------------------------------
    def _grid_subcomm(self, kind: str, rows: int | None, cols: int | None
                      ) -> "Communicator | None":
        if rows is None or cols is None:
            if rows is not None or cols is not None:
                raise CommUsageError("pass both grid dims or neither")
            from ..partition.grid import grid_shape  # no import cycle at load
            rows, cols = grid_shape(self.size, fallback=True)
        if rows < 1 or cols < 1 or rows * cols > self.size:
            raise CommUsageError(
                f"grid {rows}x{cols} does not fit in {self.size} ranks")
        cache = getattr(self, "_subcomm_cache", None)
        if cache is None:
            cache = self._subcomm_cache = {}
        key = (kind, rows, cols)
        if key not in cache:
            # The split is collective; every rank must request the same
            # shape (the verifier cross-checks the underlying exchanges).
            # Ranks beyond the active r*c grid opt out with color=None.
            if self.rank >= rows * cols:
                cache[key] = self.split(None)
            elif kind == "rows":
                cache[key] = self.split(self.rank // cols, self.rank % cols)
            else:
                cache[key] = self.split(self.rank % cols, self.rank // cols)
        return cache[key]

    def rows(self, rows: int | None = None, cols: int | None = None
             ) -> "Communicator | None":
        """This rank's *grid-row* sub-communicator on an ``rows × cols``
        process grid (most-square default shape), built once via
        :meth:`split` and cached.

        Rank ``k < rows*cols`` lands in the group of grid row ``k // cols``
        with sub-rank ``k % cols``; ranks beyond the active grid get
        ``None`` (idle).  Collective on first use per shape — every rank
        must call with the same dimensions.  The returned communicator has
        its own world, trace, and schedule-verifier scope: signatures are
        compared only among the subgroup's members.
        """
        return self._grid_subcomm("rows", rows, cols)

    def cols(self, rows: int | None = None, cols: int | None = None
             ) -> "Communicator | None":
        """This rank's *grid-column* sub-communicator (see :meth:`rows`).

        Rank ``k < rows*cols`` lands in the group of grid column
        ``k % cols`` with sub-rank ``k // cols``.
        """
        return self._grid_subcomm("cols", rows, cols)

    # ------------------------------------------------------------------
    # point-to-point (used sparingly; the paper's codes are collective-only)
    # ------------------------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking-buffered send of a Python object to ``dest``."""
        if not (0 <= dest < self.size):
            raise CommUsageError(f"dest {dest} out of range")
        self._world.p2p_queue(self.rank, dest, tag).put(obj)

    def recv(self, source: int, tag: int = 0,
             timeout: float | None | object = _WORLD_TIMEOUT) -> Any:
        """Receive an object sent by ``source`` with matching ``tag``.

        The default timeout is the world's collective-wait timeout (the
        ``timeout=`` passed to :func:`~repro.runtime.run_spmd`), so a
        missing send surfaces on the same clock as a missed barrier; pass
        an explicit number to override, or ``None`` to block forever.
        """
        if not (0 <= source < self.size):
            raise CommUsageError(f"source {source} out of range")
        if timeout is _WORLD_TIMEOUT:
            timeout = self._world.timeout
        q = self._world.p2p_queue(source, self.rank, tag)
        return q.get(timeout=timeout)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Communicator(rank={self.rank}, size={self.size})"


class AlltoallvPlan:
    """Persistent personalized-exchange schedule (``MPI_Alltoallv_init``).

    Built once by :meth:`Communicator.alltoallv_plan`, then executed every
    iteration.  The plan's shape is fixed at construction; it freezes
    everything the per-call path re-derives:

    * send/recv counts and their displacement prefix sums;
    * the traced byte and message totals and the per-source receive
      offsets, as Python ints;
    * the dtype/contiguity validation (done once here, skipped per call);
    * a packed ``sendbuf`` the caller fills in place (``plan.sendbuf[...] =
      ...`` or ``np.take(values, idx, axis=0, out=plan.sendbuf)``);
    * a preallocated ``recvbuf`` the collective scatters into — no
      allocation, list construction, or ``concatenate`` per iteration.

    The world-unique ``plan_id`` enters the schedule-verifier signature of
    every execution, so two ranks driving different plans raise
    :class:`~repro.runtime.errors.CollectiveMismatchError` on all ranks;
    even unverified worlds fail loudly because the receive side
    cross-checks peer counts against the plan.  Under the buffer sanitizer
    the plan registers its persistent buffers once at construction (they
    are rank-private by design), not once per epoch.

    An exchange whose shape changes from call to call (update routing,
    :func:`~repro.stream.route_updates`) is not a plan: it is one
    ``alltoallv_flat``.
    """

    def __init__(self, comm: Communicator, sendcounts: np.ndarray,
                 recvcounts: np.ndarray, dtype: Any, tail: tuple[int, ...],
                 plan_id: int, name: str = ""):
        self.comm = comm
        self.dtype = np.dtype(dtype)
        self.tail = tuple(int(t) for t in tail)
        self.plan_id = plan_id
        self.name = name
        self.sendcounts = sendcounts
        self.recvcounts = recvcounts
        self.sdispls = np.concatenate(
            ([0], np.cumsum(sendcounts[:-1]))).astype(np.int64)
        self.rdispls = np.concatenate(
            ([0], np.cumsum(recvcounts[:-1]))).astype(np.int64)
        self.n_send = int(sendcounts.sum())
        self.n_recv = int(recvcounts.sum())
        self.sendbuf = self._new_sendbuf()
        self.recvbuf = np.empty((self.n_recv,) + self.tail, dtype=self.dtype)
        # What every execute reads, frozen as Python ints.
        send, recv, me = sendcounts.tolist(), recvcounts.tolist(), comm.rank
        row_nbytes = self.dtype.itemsize * math.prod(self.tail)
        self.bytes_sent = row_nbytes * (self.n_send - send[me])
        self.bytes_recv = row_nbytes * (self.n_recv - recv[me])
        self.msg_count = sum(1 for r, c in enumerate(send) if c and r != me)
        self.recv_rows = tuple(zip(recv, self.rdispls.tolist()))
        self.slot = (self.sendbuf, send, self.sdispls.tolist())
        sanitizer = comm._world.sanitizer
        if sanitizer is not None:
            sanitizer.register_persistent((self.sendbuf, self.recvbuf))

    def _new_sendbuf(self) -> np.ndarray:
        """Allocate the packed send buffer (``n_send`` rows, zeroed).

        The seam backend plans override: the process backend places it
        in a shared-memory segment peers copy from directly, keeping
        executes zero-copy.
        """
        return np.zeros((self.n_send,) + self.tail, dtype=self.dtype)

    def execute(self) -> np.ndarray:
        """Ship the plan's ``sendbuf`` (fill it in place first); returns
        the plan's receive buffer.

        The returned array is the *persistent* ``recvbuf`` — copy out of
        it before the next execution if you need the values to survive.
        """
        data, _ = self.comm.alltoallv_flat(
            self.sendbuf, self.sendcounts, out=self.recvbuf,
            recvcounts=self.recvcounts, _plan=self)
        return data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.name!r}" if self.name else ""
        return (f"AlltoallvPlan(#{self.plan_id}{label}, "
                f"send={self.n_send}, recv={self.n_recv}, "
                f"dtype={self.dtype}, tail={self.tail})")


Communicator._plan_class = AlltoallvPlan
