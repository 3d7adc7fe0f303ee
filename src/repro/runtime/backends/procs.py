"""Process-backed rank runtime: spawned workers over one shared-memory region.

This is the closest in-tree analogue of the paper's MPI execution model:
each rank is a real OS process with a private interpreter and heap, so
pure-Python phases (the scheduler loop, delta-CSR bookkeeping, object
collectives) run in parallel instead of serializing on one GIL.

Collectives run the one body every backend shares,
:meth:`~repro.runtime.comm.Communicator._run` (publish, gate, combine,
gate).  This module supplies the two parts a backend owns, slots and the
gate, plus the shared-memory plans and the cleanup of all three:

* **Slots** (:class:`_Region`, :class:`_Slots`): the driver creates one
  ``multiprocessing.shared_memory`` region per run before it spawns the
  workers.  It holds the gate words, a fixed header per rank and a
  sparse payload arena per rank.  A rank publishes by pickling its
  contribution into its arena.  The ndarrays of a contribution's
  list/tuple/dict structure are not pickled: their bytes are copied
  beside the pickle, and readers get read-only views of them, so an
  ``alltoallv_flat`` receiver slices its rows straight out of the
  sender's slot.  A payload larger than the arena goes into a segment
  made for that one call, whose name follows from the rank and the
  header's sequence number.  A rank's own slot reads back as the object
  it published, as on threads.  Readers decode a peer's slot at most
  once per publish.
* **The gate** (:meth:`_Region.wait`): the threads rule, across
  processes.  Arrival counts and generations live in the region, behind
  one process-shared mutex; every rank parks on a doorbell semaphore of
  its own, and the last arriver rings the other members' doorbells.
  :meth:`_Region.abort` records the first reason, rings every doorbell
  and breaks only the open generation.  A ``split`` group gets its own
  counter pair in the region; its leader hands the members
  ``(group id, ranks)``.  Every OS object (region, mutex, doorbells)
  exists before spawn.
* **Persistent plans** (:class:`ProcAlltoallvPlan`): the packed send
  buffer lives in a shared-memory segment of the plan's fixed shape.  An
  execute publishes the segment's name with the counts; a receiver maps
  a peer's segment on first use and copies its rows straight out of it.
* **Cleanup**: each rank removes its per-call segment at its next publish
  and at exit; plan segments are removed by a ``weakref.finalize`` on
  the owning plan; the driver unlinks the region and, covering crashed
  workers, every ``/dev/shm`` entry carrying the run's name prefix.
  Python 3.11's ``resource_tracker`` registers *attaches* as well as
  creates (bpo-39959), which would double-unlink segments at worker
  exit; every handle is therefore kept out of the tracker and lifecycle
  management is done here.

The buffer sanitizer runs as a per-process instance, so ``copy=False``
borrows are read-only exactly as on threads, but a
:class:`~repro.runtime.errors.BufferRaceError` is raised on the
*detecting* rank only — peers observe ``RankAborted`` with the race
reason (cross-process peers cannot alias the buffer, so there is no
cross-rank diagnosis to reconstruct).
"""

from __future__ import annotations

import io
import itertools
import multiprocessing as mp
import multiprocessing.connection as mpconn
import os
import pickle
import time
import uuid
import weakref
from contextlib import contextmanager
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Sequence

import numpy as np

from ..comm import (
    _CONSUMED,
    AlltoallvPlan,
    Communicator,
    sanitize_from_env,
    verify_from_env,
)
from ..errors import CommUsageError, RankAborted, SpmdLaunchError
from ..sanitize import BufferSanitizer
from .base import (
    PICKLE_HINT,
    Backend,
    FnSpec,
    Session,
    SessionRun,
    find_unpicklable,
    resolve_fn_spec,
)

__all__ = ["ProcsBackend", "ProcSession", "ProcAlltoallvPlan"]

#: Grace given to workers between close/terminate at teardown.
_JOIN_GRACE_S = 10.0

#: How long an abort waits for the gate mutex before it writes anyway
#: (the holder may be a killed worker).
_MUTEX_GRACE_S = 5.0

#: Payload bytes a rank can publish in the region; more takes a segment.
#: The region is sparse, so only the pages a rank has written cost
#: memory; a per-call segment pays its page faults on every call (a 1 MiB
#: 2-rank ``alltoallv_flat`` read 1.26 ms through a segment, 0.34 ms here).
_ARENA = 16 * 1024 * 1024

#: Group counter pairs in the region (the world is group 0).
_MAX_GROUPS = 256

_REASON_BYTES = 2048
_ALIGN = 64

# Gate words (int64) at the start of the region.
_ABORT = 0
_NEXT_GROUP = 1
_COUNT = 8
_GEN = _COUNT + _MAX_GROUPS
_HEADERS = _GEN + _MAX_GROUPS
# Per-rank header words: publish sequence number, per-call segment flag,
# pickle offset and length, and whether ndarrays ride beside the pickle.
_SEQ, _IN_SEG, _PK_OFF, _PK_LEN, _RAW = range(5)
_HEADER_WORDS = 8

_SEG_IDS = itertools.count()

@contextmanager
def _no_shm_tracking():
    """Suppress resource-tracker registration for segments we manage.

    Python 3.11 registers shared-memory *attaches* as well as creates
    (bpo-39959) with one tracker process shared by the whole spawn tree,
    whose per-type cache is a set — so p ranks registering one segment
    collapse to a single entry and the p unregisters raise KeyErrors in
    the tracker.  Creating/attaching under this context keeps the tracker
    out entirely; cleanup is owned by this module.
    """
    orig_reg = resource_tracker.register
    orig_unreg = resource_tracker.unregister

    def _register(name, rtype):
        if rtype != "shared_memory":
            orig_reg(name, rtype)

    def _unregister(name, rtype):
        if rtype != "shared_memory":
            orig_unreg(name, rtype)

    resource_tracker.register = _register
    resource_tracker.unregister = _unregister
    try:
        yield
    finally:
        resource_tracker.register = orig_reg
        resource_tracker.unregister = orig_unreg


def _open_shm(name: str, size: int = 0) -> shared_memory.SharedMemory:
    """Attach segment ``name``, or create it when ``size`` is given."""
    with _no_shm_tracking():
        return shared_memory.SharedMemory(name=name, create=bool(size),
                                          size=size)


def _close_shm(shm: shared_memory.SharedMemory) -> bool:
    try:
        shm.close()
        return True
    except BufferError:
        return False  # a view is still alive; the mapping goes with it
    except Exception:
        return True


def _destroy_shm(shm: shared_memory.SharedMemory) -> None:
    _close_shm(shm)
    try:
        with _no_shm_tracking():  # unlink() also talks to the tracker
            shm.unlink()
    except Exception:
        pass


def _sweep_run_segments(runid: str) -> None:
    """Best-effort removal of every /dev/shm entry of one run (crash path)."""
    prefix = f"rpr{runid}"
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return
    for n in names:
        if n.startswith(prefix):
            try:
                os.unlink(os.path.join("/dev/shm", n))
            except OSError:
                pass


def _portable_exc(exc: BaseException) -> BaseException:
    """Return an exception guaranteed to survive a pickle round trip.

    Custom exception types with multi-argument constructors ship as-is
    when they round-trip; anything else degrades to a ``RuntimeError``
    carrying the original type name and message.
    """
    try:
        clone = pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
        if type(clone) is type(exc):
            return exc
    except Exception:
        pass
    return RuntimeError(f"[{type(exc).__name__}] {exc}")


# ----------------------------------------------------------------------
# slot encoding
# ----------------------------------------------------------------------
class _Raw(tuple):
    """``(offset, dtype, shape)`` of an ndarray copied beside the pickle."""


def _strip(obj: Any, raws: list, end: list) -> Any:
    """``obj`` with the ndarrays of its list/tuple/dict structure replaced
    by :class:`_Raw` placeholders; ``raws`` collects ``(offset, array)``.

    Arrays inside other objects stay in the pickle, so whatever a reader
    can keep beyond the exit gate (an opaque object's fields) is its own
    copy; the arrays out here are read-only views into the slot, which
    every combine copies from.
    """
    if isinstance(obj, np.ndarray) and not obj.dtype.hasobject:
        arr = np.asarray(obj, order="C")
        off = -(-end[0] // _ALIGN) * _ALIGN
        end[0] = off + arr.nbytes
        raws.append((off, arr))
        return _Raw((off, arr.dtype, arr.shape))
    if type(obj) is tuple:
        return tuple(_strip(v, raws, end) for v in obj)
    if type(obj) is list:
        return [_strip(v, raws, end) for v in obj]
    if type(obj) is dict:
        return {k: _strip(v, raws, end) for k, v in obj.items()}
    return obj


class _Pickler(pickle.Pickler):
    def persistent_id(self, obj):
        return tuple(obj) if type(obj) is _Raw else None


class _Unpickler(pickle.Unpickler):
    def __init__(self, data, buf: memoryview):
        super().__init__(io.BytesIO(data))
        self._buf = buf

    def persistent_load(self, pid):
        off, dtype, shape = pid
        return np.ndarray(shape, dtype, buffer=self._buf, offset=off)


# ----------------------------------------------------------------------
# the region: slots and gate
# ----------------------------------------------------------------------
def _region_layout(size: int) -> tuple[int, int, int]:
    """(reason offset, first arena offset, total bytes) for ``size`` ranks."""
    reason = (_HEADERS + size * _HEADER_WORDS) * 8
    arena = -(-(reason + _REASON_BYTES) // _ALIGN) * _ALIGN
    return reason, arena, arena + size * _ARENA


class _Region:
    """One process's handle on the run's shared region (module docstring).

    ``rank`` is this worker's rank in the run, or ``None`` in the driver,
    which only resets the gate between jobs and aborts.
    """

    def __init__(self, runid: str, size: int, mutex, bells: Sequence,
                 rank: int | None = None, create: bool = False):
        self.runid = runid
        self.rank = rank
        self.mutex = mutex
        self.bells = list(bells)
        reason, self._arena0, total = _region_layout(size)
        self.shm = _open_shm(f"rpr{runid}", total if create else 0)
        self.words = self.shm.buf[:reason].cast("q")
        self._reason = self.shm.buf[reason:reason + _REASON_BYTES]
        self._view = self.shm.buf.toreadonly()
        self.mine: Any = None       # what this rank last published
        self._seq = 0
        self._decoded: dict[int, tuple[int, Any]] = {}
        self._call_seg: shared_memory.SharedMemory | None = None
        self._read_segs: list[shared_memory.SharedMemory] = []
        if create:
            self.reset()

    # -- gate ---------------------------------------------------------
    def reset(self) -> None:
        """Open a fresh job: no abort, no groups but the world, no
        arrivals (the driver calls this while every worker is idle)."""
        w = self.words
        for i in range(_HEADERS):
            w[i] = 0
        w[_NEXT_GROUP] = 1

    def wait(self, gid: int, size: int, bells: Sequence,
             timeout: float | None) -> float:
        """Block until the ``size`` members of group ``gid`` arrive;
        return the seconds blocked.  ``bells`` are the other members'
        doorbells, which the last arriver rings.  A woken rank returns
        if its generation completed and raises :class:`RankAborted` if
        an abort broke it; any other wake-up is a stale ring (left by an
        earlier abort) and it parks again."""
        t0 = time.perf_counter()
        w = self.words
        if not self.mutex.acquire(True, timeout):
            self.abort(f"collective gate mutex timed out after {timeout} s")
            raise RankAborted(self.reason())
        if w[_ABORT]:
            self.mutex.release()
            raise RankAborted(self.reason())
        arrived = w[_COUNT + gid] + 1
        if arrived == size:
            w[_COUNT + gid] = 0
            w[_GEN + gid] += 1
            self.mutex.release()
            for bell in bells:
                bell.release()
            return time.perf_counter() - t0
        w[_COUNT + gid] = arrived
        gen = w[_GEN + gid]
        self.mutex.release()
        bell = self.bells[self.rank]
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if deadline is None:
                bell.acquire()
            elif not bell.acquire(True, max(0.0, deadline - time.monotonic())):
                self.abort(f"collective wait timed out after {timeout} s")
            aborted = w[_ABORT]  # read before the generation: see abort()
            if w[_GEN + gid] != gen:
                return time.perf_counter() - t0
            if aborted:
                raise RankAborted(self.reason())

    def abort(self, reason: str) -> None:
        """Record the first reason and ring every doorbell.  No arrival
        completes a generation after this, so only the open generations
        break; a generation completed before it returns normally."""
        locked = self.mutex.acquire(True, _MUTEX_GRACE_S)
        try:
            if self.words[_ABORT]:
                return
            data = reason.encode("utf-8", "replace")[:_REASON_BYTES - 1]
            self._reason[:len(data) + 1] = data + b"\x00"
            self.words[_ABORT] = 1
        finally:
            if locked:
                self.mutex.release()
        for bell in self.bells:
            bell.release()

    def reason(self) -> str:
        raw = bytes(self._reason).split(b"\x00", 1)[0]
        return raw.decode("utf-8", "replace") or "aborted"

    def new_group(self) -> int:
        """Allocate a ``split`` group's counter pair."""
        with self.mutex:
            gid = self.words[_NEXT_GROUP]
            if gid >= _MAX_GROUPS:
                raise CommUsageError(
                    f"more than {_MAX_GROUPS - 1} split groups in one job")
            self.words[_NEXT_GROUP] = gid + 1
            self.words[_COUNT + gid] = 0
            self.words[_GEN + gid] = 0
        return gid

    # -- slots --------------------------------------------------------
    def _header(self, rank: int) -> int:
        return _HEADERS + rank * _HEADER_WORDS

    def _seg_name(self, rank: int, seq: int) -> str:
        return f"rpr{self.runid}_{rank}_c{seq}"

    def publish(self, obj: Any) -> None:
        """Write ``obj`` into this rank's slot (see the module docstring).

        Runs at collective entry, after the previous collective's exit
        gate, so no peer still reads the old contents."""
        self._release()
        self.mine = obj
        if obj is _CONSUMED:
            return
        raws: list = []
        end = [0]
        stripped = _strip(obj, raws, end)
        if raws:
            buf = io.BytesIO()
            _Pickler(buf, pickle.HIGHEST_PROTOCOL).dump(stripped)
            pk = buf.getbuffer()
        else:
            pk = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
        pk_off = -(-end[0] // _ALIGN) * _ALIGN
        total = pk_off + len(pk)
        self._seq += 1
        if total <= _ARENA:
            base = self._arena0 + self.rank * _ARENA
            dst = self.shm.buf[base:base + total]
        else:
            self._call_seg = _open_shm(self._seg_name(self.rank, self._seq),
                                       total)
            dst = self._call_seg.buf
        for off, arr in raws:
            if arr.nbytes:
                np.copyto(np.ndarray(arr.shape, arr.dtype, buffer=dst,
                                     offset=off), arr)
        dst[pk_off:total] = pk
        del dst
        h = self._header(self.rank)
        w = self.words
        w[h + _IN_SEG] = total > _ARENA
        w[h + _PK_OFF] = pk_off
        w[h + _PK_LEN] = len(pk)
        w[h + _RAW] = bool(raws)
        w[h + _SEQ] = self._seq

    def read(self, rank: int) -> Any:
        """Decode ``rank``'s current slot (once per publish)."""
        w = self.words
        h = self._header(rank)
        seq = w[h + _SEQ]
        hit = self._decoded.get(rank)
        if hit is not None and hit[0] == seq:
            return hit[1]
        if w[h + _IN_SEG]:
            seg = _open_shm(self._seg_name(rank, seq))
            self._read_segs.append(seg)
            buf = seg.buf.toreadonly()
        else:
            base = self._arena0 + rank * _ARENA
            buf = self._view[base:base + _ARENA]
        pk = buf[w[h + _PK_OFF]:w[h + _PK_OFF] + w[h + _PK_LEN]]
        obj = (_Unpickler(pk, buf).load() if w[h + _RAW]
               else pickle.loads(pk))
        self._decoded[rank] = (seq, obj)
        return obj

    def _release(self) -> None:
        """Drop the previous collective's decodes and segments."""
        self._decoded.clear()
        if self._call_seg is not None:
            _destroy_shm(self._call_seg)
            self._call_seg = None
        self._read_segs = [s for s in self._read_segs if not _close_shm(s)]

    def close(self, unlink: bool = False) -> None:
        self._release()
        self.mine = None
        for view in (self.words, self._reason, self._view):
            view.release()
        if unlink:
            _destroy_shm(self.shm)
        else:
            _close_shm(self.shm)


class _Slots:
    """A group's slot list over the region: index ``i`` is the slot of
    member ``i``; assigning to this rank's index publishes."""

    __slots__ = ("_region", "_members")

    def __init__(self, region: _Region, members: tuple[int, ...]):
        self._region = region
        self._members = members

    def __len__(self) -> int:
        return len(self._members)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self._members)))]
        region = self._region
        rank = self._members[i]
        return region.mine if rank == region.rank else region.read(rank)

    def __iter__(self):
        return (self[i] for i in range(len(self._members)))

    def __setitem__(self, i, value) -> None:
        # _run assigns only this rank's own index.
        self._region.publish(value)


class _ProcWorld:
    """One group's world in one worker: the run's world (group 0) or a
    ``split`` group, whose members are ranks of the run."""

    backend = "procs"
    #: A peer's slot is rewritten after the exit gate: ``copy=False``
    #: results are copied out too.
    shares_objects = False

    def __init__(self, region: _Region, gid: int, members: tuple[int, ...],
                 timeout: float | None, verify: bool, sanitize: bool):
        self.region = region
        self.gid = gid
        self.members = members
        self.size = len(members)
        self.session = object()  # see Communicator.session
        self.timeout = timeout
        self.verify = verify
        self.sanitize = sanitize
        self.sanitizer = BufferSanitizer(self.size) if sanitize else None
        self.slots = _Slots(region, members)
        self._bells = [region.bells[r] for r in members if r != region.rank]

    def wait(self) -> float:
        return self.region.wait(self.gid, self.size, self._bells,
                                self.timeout)

    def abort(self, reason: str) -> None:
        self.region.abort(reason)

    def subworld(self, ranks: Sequence[int]) -> tuple:
        """``(group id, run ranks)`` of a new ``split`` group."""
        return (self.region.new_group(),
                tuple(self.members[r] for r in ranks))

    def join(self, handle: tuple) -> "_ProcWorld":
        gid, members = handle
        return _ProcWorld(self.region, gid, members, self.timeout,
                          self.verify, self.sanitize)


class ProcAlltoallvPlan(AlltoallvPlan):
    """Persistent exchange whose send buffer is a shared-memory segment.

    The owning rank creates its segment in ``_new_sendbuf`` (named
    ``rpr<runid>_<rank>_<n>`` — short, for POSIX name limits) and
    publishes its name with the counts on every execute; a receiver maps
    it on first use.  The plan's shape never changes, so neither does the
    segment.  A ``weakref.finalize`` on the plan destroys its own segment
    and closes its peer mappings; crashed workers are covered by the
    driver's end-of-run ``/dev/shm`` sweep.
    """

    def __init__(self, comm: Communicator, sendcounts: np.ndarray,
                 recvcounts: np.ndarray, dtype: Any, tail: tuple[int, ...],
                 plan_id: int, name: str = ""):
        # Held in a plain dict so the finalizer does not keep the plan
        # alive; it must exist before super().__init__ calls _new_sendbuf.
        self._seg: dict[str, Any] = {"own": None, "peers": {}}
        self._finalizer = weakref.finalize(self, _cleanup_plan_segments,
                                           self._seg)
        super().__init__(comm, sendcounts, recvcounts, dtype, tail,
                         plan_id, name)
        own = self._seg["own"]
        self.slot = (None if own is None else own.name,) + self.slot[1:]

    def _new_sendbuf(self) -> np.ndarray:
        if not self.n_send:
            return super()._new_sendbuf()
        region = self.comm._world.region
        row_nbytes = self.dtype.itemsize * int(np.prod(self.tail,
                                                       dtype=np.int64))
        # A new segment is zero-filled, like the base class buffer.
        shm = _open_shm(f"rpr{region.runid}_{region.rank}_{next(_SEG_IDS)}",
                        max(1, self.n_send * row_nbytes))
        self._seg["own"] = shm
        return np.ndarray((self.n_send,) + self.tail, dtype=self.dtype,
                          buffer=shm.buf)

    def sources(self, slots: Sequence[Any]) -> list:
        """Each source's published ``(segment name, counts, displs)``
        with the name resolved to a view of its mapped segment."""
        me = self.comm.rank
        peers = self._seg["peers"]
        out = []
        for src in range(self.comm.size):
            name, counts, dsp = slots[src]
            if src == me:
                out.append((self.sendbuf, counts, dsp))
                continue
            hit = peers.get(src)
            if name is not None and counts[me] and (hit is None
                                                    or hit[0] != name):
                shm = _open_shm(name)
                hit = peers[src] = (name, shm, np.ndarray(
                    (sum(counts),) + self.tail, dtype=self.dtype,
                    buffer=shm.buf))
            out.append((None if hit is None else hit[2], counts, dsp))
        return out


def _cleanup_plan_segments(seg: dict) -> None:
    shms = [shm for _, shm, _ in seg["peers"].values()]
    seg["peers"].clear()  # drop the views before their mappings
    for shm in shms:
        _close_shm(shm)
    if seg["own"] is not None:
        _destroy_shm(seg["own"])
        seg["own"] = None


_ProcWorld.plan_class = ProcAlltoallvPlan


# ----------------------------------------------------------------------
# worker entry points (module-level: spawn pickles them by reference)
# ----------------------------------------------------------------------
def _spmd_child(rank: int, size: int, runid: str, mutex, bells,
                payload: bytes, timeout: float | None, collect_traces: bool,
                verify: bool, sanitize: bool, result_conn) -> None:
    """One-shot worker: run the kernel once, ship (status, value, trace)."""
    region = _Region(runid, size, mutex, bells, rank=rank)
    status, out, trace = "ok", None, None
    try:
        fn, args, kwargs = pickle.loads(payload)
        world = _ProcWorld(region, 0, tuple(range(size)), timeout, verify,
                           sanitize)
        comm = Communicator(world, rank)
        if collect_traces:
            trace = comm.trace
        out = fn(comm, *args, **kwargs)
    except BaseException as exc:  # noqa: BLE001 - must capture everything
        if not isinstance(exc, RankAborted):
            region.abort(f"rank {rank} failed: {type(exc).__name__}: {exc}")
        status, out = "err", _portable_exc(exc)
    try:
        result_conn.send((status, out, trace))
    except Exception as exc:  # unpicklable result/exception
        err = SpmdLaunchError(
            f"rank {rank} produced an unpicklable "
            f"{'result' if status == 'ok' else 'error'} "
            f"({type(out).__name__}): {exc}; {PICKLE_HINT}")
        result_conn.send(("err", err, trace))
    result_conn.close()
    region.close()


def _session_child(rank: int, size: int, runid: str, mutex, bells,
                   cmd_conn, verify: bool, sanitize: bool) -> None:
    """Persistent worker: jobs arrive as fn specs; rank state survives."""
    region = _Region(runid, size, mutex, bells, rank=rank)
    state: dict = {}
    session = object()  # every job's world runs over this rank's state
    while True:
        try:
            cmd = cmd_conn.recv()
        except (EOFError, OSError):
            break  # driver is gone
        if cmd[0] == "close":
            break
        _, gen, spec, timeout = cmd
        status, out, summary = "ok", None, None
        try:
            fn = resolve_fn_spec(spec)
            region.mine = None  # a fresh world's slot holds nothing
            world = _ProcWorld(region, 0, tuple(range(size)), timeout,
                               verify, sanitize)
            world.session = session
            comm = Communicator(world, rank)
            out = fn(comm, state)
            summary = comm.trace.summary()
        except BaseException as exc:  # noqa: BLE001 - isolate the job
            if not isinstance(exc, RankAborted):
                region.abort(f"rank {rank} failed: "
                             f"{type(exc).__name__}: {exc}")
            status, out = "err", _portable_exc(exc)
        try:
            cmd_conn.send(("done", gen, status, out, summary))
        except Exception as exc:
            err = SpmdLaunchError(
                f"rank {rank} produced an unpicklable "
                f"{'result' if status == 'ok' else 'error'} "
                f"({type(out).__name__}): {exc}; {PICKLE_HINT}")
            cmd_conn.send(("done", gen, "err", err, summary))
    cmd_conn.close()
    region.close()


# ----------------------------------------------------------------------
# driver side
# ----------------------------------------------------------------------
def _new_region(ctx, nranks: int) -> _Region:
    """The run's region and its OS objects, created before any spawn."""
    return _Region(uuid.uuid4().hex[:8], nranks, ctx.Lock(),
                   [ctx.Semaphore(0) for _ in range(nranks)], create=True)


def _join_all(procs: Sequence) -> None:
    procs = [p for p in procs if p.pid is not None]  # a failed spawn
    deadline = time.monotonic() + _JOIN_GRACE_S
    for p in procs:
        p.join(timeout=max(0.1, deadline - time.monotonic()))
    for p in procs:
        if p.is_alive():
            p.terminate()
            p.join(timeout=5.0)


class ProcsBackend(Backend):
    name = "procs"

    def run_spmd(self, nranks, fn, args, kwargs, *, timeout, collect_traces,
                 verify, sanitize):
        verify = verify_from_env() if verify is None else bool(verify)
        sanitize = sanitize_from_env() if sanitize is None else bool(sanitize)
        try:
            payload = pickle.dumps((fn, args, kwargs),
                                   pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            found = find_unpicklable(fn, args, kwargs)
            if found is not None:
                label, err = found
                raise SpmdLaunchError(
                    f"cannot launch on the procs backend: {label} is not "
                    f"picklable ({type(err).__name__}: {err}); "
                    f"{PICKLE_HINT}") from exc
            raise SpmdLaunchError(
                f"cannot launch on the procs backend: the launch payload "
                f"is not picklable ({type(exc).__name__}: {exc}); "
                f"{PICKLE_HINT}") from exc

        ctx = mp.get_context("spawn")
        region = _new_region(ctx, nranks)
        result_pipes = [ctx.Pipe(duplex=False) for _ in range(nranks)]
        procs = [
            ctx.Process(
                target=_spmd_child,
                args=(r, nranks, region.runid, region.mutex, region.bells,
                      payload, timeout, collect_traces, verify, sanitize,
                      result_pipes[r][1]),
                name=f"spmd-rank-{r}", daemon=True)
            for r in range(nranks)
        ]
        results: list[Any] = [None] * nranks
        failures: dict[int, BaseException] = {}
        traces: list | None = [None] * nranks if collect_traces else None
        try:
            for p in procs:
                p.start()
            # Children hold duplicated handles now; release the parent's so
            # a dead worker surfaces as EOF on its result pipe.
            for _, w in result_pipes:
                w.close()
            remaining = {result_pipes[r][0]: r for r in range(nranks)}
            while remaining:
                ready = mpconn.wait(list(remaining), timeout=1.0)
                for conn in ready:
                    r = remaining.pop(conn)
                    try:
                        status, out, trace = conn.recv()
                    except (EOFError, OSError):
                        code = procs[r].exitcode
                        failures[r] = RuntimeError(
                            f"rank {r} process died without reporting "
                            f"(exitcode {code})")
                        region.abort(f"rank {r} process died")
                        continue
                    if status == "ok":
                        results[r] = out
                    else:
                        failures[r] = out
                    if traces is not None:
                        traces[r] = trace
        finally:
            _join_all(procs)
            for rconn, _ in result_pipes:
                try:
                    rconn.close()
                except Exception:
                    pass
            region.close(unlink=True)
            _sweep_run_segments(region.runid)
        return results, traces, failures

    def start_session(self, nranks, *, verify, sanitize):
        return ProcSession(nranks, verify=verify, sanitize=sanitize)


class ProcSession(Session):
    """Persistent spawned workers; jobs ship as fn specs over command pipes."""

    def __init__(self, nranks: int, *, verify: bool | None,
                 sanitize: bool | None):
        self.nranks = nranks
        verify = verify_from_env() if verify is None else bool(verify)
        sanitize = sanitize_from_env() if sanitize is None else bool(sanitize)
        self._closed = False
        self._broken: str | None = None
        self._gen = 0
        ctx = mp.get_context("spawn")
        self._region = _new_region(ctx, nranks)
        self.runid = self._region.runid
        self._cmd_conns = []
        child_cmd = []
        for _ in range(nranks):
            a, b = ctx.Pipe(duplex=True)
            self._cmd_conns.append(a)
            child_cmd.append(b)
        self._procs = [
            ctx.Process(
                target=_session_child,
                args=(r, nranks, self.runid, self._region.mutex,
                      self._region.bells, child_cmd[r], verify, sanitize),
                name=f"engine-rank-{r}", daemon=True)
            for r in range(nranks)
        ]
        for p in self._procs:
            p.start()
        for b in child_cmd:
            b.close()

    def run(self, spec: FnSpec, timeout: float | None) -> SessionRun:
        if self._broken is not None:
            raise RuntimeError(
                f"procs session is broken ({self._broken}); restart the "
                f"engine")
        self._gen += 1
        gen = self._gen
        self._region.reset()  # every worker is idle between jobs
        for conn in self._cmd_conns:
            conn.send(("run", gen, spec, timeout))
        results: list[Any] = [None] * self.nranks
        errors: dict[int, BaseException] = {}
        summaries: list[dict | None] = [None] * self.nranks
        timed_out = False
        deadline = None if timeout is None else time.monotonic() + timeout
        remaining = {self._cmd_conns[r]: r for r in range(self.nranks)}
        while remaining:
            ready = mpconn.wait(list(remaining), timeout=0.25)
            for conn in ready:
                r = remaining[conn]
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    code = self._procs[r].exitcode
                    self._broken = (f"rank {r} worker died "
                                    f"(exitcode {code})")
                    errors[r] = RuntimeError(self._broken)
                    self._region.abort(self._broken)
                    del remaining[conn]
                    continue
                if msg[0] != "done" or msg[1] != gen:
                    continue  # stale report from an aborted earlier job
                _, _, status, out, summary = msg
                if status == "ok":
                    results[r] = out
                else:
                    errors[r] = out
                summaries[r] = summary
                del remaining[conn]
            if (not ready and deadline is not None and not timed_out
                    and time.monotonic() > deadline and remaining):
                timed_out = True
                self._region.abort("job timeout (driver)")
                # Workers unblock at their next collective and report
                # RankAborted; keep collecting so the session stays usable.
        return SessionRun(results, errors, summaries, timed_out)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in self._cmd_conns:
            try:
                conn.send(("close",))
            except Exception:
                pass
        _join_all(self._procs)
        for conn in self._cmd_conns:
            try:
                conn.close()
            except Exception:
                pass
        self._region.close(unlink=True)
        _sweep_run_segments(self.runid)
