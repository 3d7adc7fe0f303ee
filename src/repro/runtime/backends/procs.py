"""Process-backed rank runtime: spawned workers, pipes, shared memory.

This is the closest in-tree analogue of the paper's MPI execution model:
each rank is a real OS process with a private interpreter and heap, so
pure-Python phases (the scheduler loop, delta-CSR bookkeeping, object
collectives) run in parallel instead of serializing on one GIL.

Architecture
------------
* **Transport** (:class:`_Mesh`): a full mesh of one-directional spawn
  ``Pipe`` pairs — one per ordered rank pair.  Collective payloads are
  pickled *once per distinct object* at post time (snapshot semantics:
  later mutation of the posted object cannot race the send) and fanned
  out by a per-process daemon sender thread, so a rank never blocks
  writing a full pipe while its peers block writing to it.  Messages are
  tagged ``(generation, channel)``; receives poll in short slices,
  checking the shared abort flag and the collective deadline, and stash
  out-of-order messages per ``(source, generation, channel)``.
* **Abort** (:class:`_SharedAbort`): a lock-protected shared generation
  counter plus reason buffer.  Any rank (or the driver) can abort the
  current generation; every other rank observes it at its next receive
  poll and raises :class:`~repro.runtime.errors.RankAborted` — the same
  protocol the threads backend implements with its abortable barrier.
* **Collectives** (:class:`ProcCommunicator`): the personalized-exchange
  rebase of :class:`~repro.runtime.comm.Communicator` (see
  ``_exchange.py``) bound to the mesh.  ``split`` derives deterministic
  sub-communicator contexts on the *same* mesh — no new OS resources per
  split.
* **Persistent plans** (:class:`ProcAlltoallvPlan`): the plan's packed
  send buffer lives in a ``multiprocessing.shared_memory`` segment of
  the plan's fixed shape.  One collective ``_sync_segments`` at
  construction exchanges segment names and counts; every
  :meth:`~ProcAlltoallvPlan.execute` is then a ready-token exchange, a
  direct slice copy out of every peer's shared segment into the private
  receive buffer, and a done-token exchange — **zero pickling and zero
  allocation per iteration**.  Construction is *always* collective on
  this backend (even with explicit ``recvcounts``), because the segment
  sync itself is an allgather.
* **Cleanup**: segments are unlinked by ``weakref.finalize`` on the
  owning plan (which also runs at worker exit), and —
  covering crashed workers — swept by the parent, which removes every
  ``/dev/shm`` entry carrying the run's unique name prefix after the
  workers exit.  Python 3.11's ``resource_tracker`` registers *attaches*
  as well as creates (bpo-39959), which would double-unlink segments at
  worker exit; every handle is therefore explicitly unregistered and
  lifecycle management is done here.

Verifier and sanitizer semantics are preserved with documented shims:
the schedule verifier exchanges signatures through the mesh and raises
the identical diagnosis on every rank; the buffer sanitizer runs as a
per-process instance, so ``copy=False`` borrows are read-only exactly as
on threads, but a :class:`~repro.runtime.errors.BufferRaceError` is
raised on the *detecting* rank only — peers observe ``RankAborted`` with
the race reason (cross-process peers cannot alias the buffer, so there
is no cross-rank diagnosis to reconstruct).
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import multiprocessing.connection as mpconn
import os
import pickle
import queue
import threading
import time
import uuid
import weakref
from collections import deque
from contextlib import contextmanager
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Sequence

import numpy as np

from ..comm import (
    _WORLD_TIMEOUT,
    AlltoallvPlan,
    sanitize_from_env,
    verify_from_env,
)
from ..errors import CommUsageError, RankAborted, SpmdLaunchError
from ..sanitize import BufferSanitizer
from ._exchange import ExchangeCommunicator
from .base import (
    PICKLE_HINT,
    Backend,
    FnSpec,
    Session,
    SessionRun,
    find_unpicklable,
    resolve_fn_spec,
)

__all__ = ["ProcsBackend", "ProcSession", "ProcCommunicator",
           "ProcAlltoallvPlan"]

#: Receive poll slice: abort/deadline check cadence while blocked.
_POLL_S = 0.05

#: Grace given to workers between close/terminate at teardown.
_JOIN_GRACE_S = 10.0

_SEG_IDS = itertools.count()


@contextmanager
def _no_shm_tracking():
    """Suppress resource-tracker registration for segments we manage.

    Python 3.11 registers shared-memory *attaches* as well as creates
    (bpo-39959) with one tracker process shared by the whole spawn tree,
    whose per-type cache is a set — so p ranks registering one segment
    collapse to a single entry and the p unregisters raise KeyErrors in
    the tracker.  Creating/attaching under this context keeps the tracker
    out entirely; cleanup is owned by plan finalizers and the parent's
    end-of-run sweep.
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


def _close_shm(shm: shared_memory.SharedMemory) -> None:
    try:
        shm.close()
    except Exception:
        pass


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


class _SharedAbort:
    """Cross-process abort flag: generation + first-writer-wins reason."""

    def __init__(self, ctx):
        self._gen = ctx.Value("q", -1, lock=False)
        self._lock = ctx.Lock()
        self._reason = ctx.Array("c", 2048, lock=False)

    def set(self, gen: int, reason: str) -> None:
        with self._lock:
            if self._gen.value >= gen:
                return  # this generation already aborted; first reason wins
            self._gen.value = gen
            data = reason.encode("utf-8", "replace")[:2046]
            self._reason[:len(data) + 1] = data + b"\x00"

    def check(self, gen: int) -> str | None:
        """Reason string when generation ``gen`` is aborted, else None."""
        if self._gen.value < gen:
            return None
        with self._lock:
            raw = bytes(self._reason[:]).split(b"\x00", 1)[0]
        return raw.decode("utf-8", "replace") or "aborted"


class _Mesh:
    """One rank's endpoint of the full pipe mesh (see module docstring)."""

    def __init__(self, rank: int, size: int, runid: str,
                 send_conns: Sequence, recv_conns: Sequence,
                 abort_state: _SharedAbort, gen: int = 0):
        self.rank = rank
        self.size = size
        self.runid = runid
        self.send_conns = send_conns  # [dst] -> Connection (None for self)
        self.recv_conns = recv_conns  # [src] -> Connection (None for self)
        self.abort_state = abort_state
        self.gen = gen
        self._stash: dict[tuple, deque] = {}
        self._outbox: queue.Queue = queue.Queue()
        self._sender = threading.Thread(target=self._send_loop, daemon=True,
                                        name=f"mesh-send-{rank}")
        self._sender.start()

    def _send_loop(self) -> None:
        while True:
            item = self._outbox.get()
            if item is None:
                return
            conn, msg = item
            try:
                conn.send(msg)
            except (BrokenPipeError, OSError):
                pass  # peer died; its absence surfaces via abort/timeout

    def begin_gen(self, gen: int) -> None:
        """Enter a new message generation; drop any stale stashed traffic."""
        self.gen = gen
        for key in [k for k in self._stash if k[1] < gen]:
            del self._stash[key]

    def post(self, dst: int, channel: tuple, blob: Any) -> None:
        """Queue one message for ``dst``; returns immediately."""
        self._outbox.put((self.send_conns[dst], (self.gen, channel, blob)))

    def fetch(self, src: int, channel: tuple, deadline: float | None) -> Any:
        """Receive the next message on ``channel`` from ``src``."""
        key = (src, self.gen, channel)
        conn = self.recv_conns[src]
        while True:
            d = self._stash.get(key)
            if d:
                blob = d.popleft()
                if not d:
                    del self._stash[key]
                return blob
            if conn.poll(_POLL_S):
                try:
                    gen, ch, blob = conn.recv()
                except (EOFError, OSError):
                    self.abort(f"rank {src} connection lost")
                    raise RankAborted(
                        f"rank {src} connection lost") from None
                if gen >= self.gen:
                    self._stash.setdefault((src, gen, ch),
                                           deque()).append(blob)
                continue  # re-check the stash before anything else
            reason = self.abort_state.check(self.gen)
            if reason is not None:
                raise RankAborted(reason)
            if deadline is not None and time.monotonic() > deadline:
                self.abort(f"collective wait timed out on rank {self.rank} "
                           f"(awaiting rank {src})")
                raise RankAborted(
                    f"collective wait timed out on rank {self.rank} "
                    f"(awaiting rank {src})")

    def abort(self, reason: str) -> None:
        self.abort_state.set(self.gen, reason)

    def shutdown(self) -> None:
        self._outbox.put(None)
        self._sender.join(timeout=5.0)
        for conn in list(self.send_conns) + list(self.recv_conns):
            if conn is not None:
                try:
                    conn.close()
                except Exception:
                    pass


class _ProcWorld:
    """Per-process world state for one (sub-)communicator group."""

    backend = "procs"

    def __init__(self, size: int, mesh: _Mesh, timeout: float | None,
                 verify: bool, sanitize: bool):
        self.size = size
        self.session = object()  # see Communicator.session
        self.mesh = mesh
        self.runid = mesh.runid
        self.timeout = timeout
        self.verify = verify
        self.sanitize = sanitize
        self.sanitizer = BufferSanitizer(size) if sanitize else None

    def abort(self, reason: str) -> None:
        self.mesh.abort(reason)


class ProcCommunicator(ExchangeCommunicator):
    """Exchange communicator bound to the pipe mesh of a spawned world.

    ``group[r]`` maps this communicator's rank ``r`` to a mesh (world)
    endpoint; sub-communicators from :meth:`split` reuse the parent mesh
    under a derived context tuple, so collectives of different groups
    interleave without interference and a split costs no OS resources.
    """

    def __init__(self, world: _ProcWorld, rank: int, group: list[int],
                 ctx: tuple):
        super().__init__(world, rank)
        self._group = list(group)
        self._ctx = ctx
        self._xseq = 0
        self._split_seq = 0

    def _xchg(self, outbound: Sequence[Any]) -> list[Any]:
        mesh = self._world.mesh
        ch = ("c", self._ctx, self._xseq)
        self._xseq += 1
        me = self.rank
        inbound: list[Any] = [None] * self.size
        blobs: dict[int, bytes] = {}
        for d in range(self.size):
            if d == me:
                inbound[d] = outbound[d]  # self-delivery: same object
                continue
            obj = outbound[d]
            blob = blobs.get(id(obj))
            if blob is None:
                blob = blobs[id(obj)] = pickle.dumps(
                    obj, pickle.HIGHEST_PROTOCOL)
            mesh.post(self._group[d], ch, blob)
        timeout = self._world.timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        for s in range(self.size):
            if s == me:
                continue
            inbound[s] = pickle.loads(
                mesh.fetch(self._group[s], ch, deadline))
        return inbound

    # -- persistent plans ---------------------------------------------
    def _plan_exchange(self, plan: "ProcAlltoallvPlan") -> np.ndarray:
        """One zero-copy plan execution (see ProcAlltoallvPlan)."""
        size = self.size
        sig = ("plan", plan.plan_id, "dtype", str(plan.dtype),
               "tail", plan.tail)
        row_nbytes = int(plan.dtype.itemsize
                         * np.prod(plan.tail, dtype=np.int64)) \
            if plan.tail else plan.dtype.itemsize
        offrank = np.arange(size) != self.rank
        bytes_sent = row_nbytes * int(plan.sendcounts[offrank].sum())
        nmsg = int(np.count_nonzero(plan.sendcounts[offrank]))
        trace = self.trace
        t_enter = trace.mark_enter()
        world = self._world
        if world.sanitizer is not None:
            world.sanitizer.tick(self.rank, self._call_index)
            world.sanitizer.check(world, self.rank)
        wait_s = 0.0
        if world.verify:
            wait_s = self._verify_schedule("alltoallv", sig)
        self._call_index += 1
        t0 = time.perf_counter()
        try:
            # Ready tokens: every peer's shared send segment is now fully
            # written for this execution.
            self._xchg([("rdy", plan.plan_id)] * size)
            wait_s += time.perf_counter() - t0
            t0 = time.perf_counter()
            plan._scatter_from_peers()
            # Done tokens: all reads complete; segments may be refilled.
            self._xchg([("fin", plan.plan_id)] * size)
        except RankAborted as exc:
            self._race_from_abort(exc)
            raise
        xfer_s = time.perf_counter() - t0
        bytes_recv = row_nbytes * int(plan.recvcounts[offrank].sum())
        trace.record("alltoallv", bytes_sent, bytes_recv, nmsg, wait_s,
                     xfer_s, t_enter)
        trace.mark_leave()
        return plan.recvbuf

    # -- sub-communicators --------------------------------------------
    def split(self, color: int | None, key: int | None = None
              ) -> "ProcCommunicator | None":
        """MPI_Comm_split over the same mesh (no new OS resources).

        Every member derives the identical sub-context from the split's
        sequence number and its color, so the new communicator's channels
        are globally unique without shipping any handle objects (a
        ``World`` cannot be pickled — and does not need to be).
        """
        key = self.rank if key is None else int(key)
        seq = self._split_seq
        self._split_seq += 1
        triples = self.allgather(
            (None if color is None else int(color), key, self.rank))
        if color is None:
            return None
        members = sorted((k, r) for c, k, r in triples if c == int(color))
        ranks_in_group = [r for _, r in members]
        new_rank = ranks_in_group.index(self.rank)
        world = self._world
        sub_world = _ProcWorld(len(ranks_in_group), world.mesh,
                               world.timeout, world.verify, world.sanitize)
        sub_group = [self._group[r] for r in ranks_in_group]
        return ProcCommunicator(sub_world, new_rank, sub_group,
                                ("s", self._ctx, seq, int(color)))

    # -- point-to-point ------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        if not (0 <= dest < self.size):
            raise CommUsageError(f"dest {dest} out of range")
        blob = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
        self._world.mesh.post(self._group[dest], ("p", self._ctx, tag), blob)

    def recv(self, source: int, tag: int = 0,
             timeout: float | None | object = _WORLD_TIMEOUT) -> Any:
        if not (0 <= source < self.size):
            raise CommUsageError(f"source {source} out of range")
        if timeout is _WORLD_TIMEOUT:
            timeout = self._world.timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        blob = self._world.mesh.fetch(self._group[source],
                                      ("p", self._ctx, tag), deadline)
        return pickle.loads(blob)


class ProcAlltoallvPlan(AlltoallvPlan):
    """Persistent exchange whose send buffer is a shared-memory segment.

    Lifecycle: the owning rank creates its segment in ``_new_sendbuf``
    (named ``rpr<runid>_<world-rank>_<n>`` — short, for POSIX name
    limits) and peers that receive from it attach it during the
    collective ``_sync_segments`` at construction; the plan's shape never
    changes, so neither does the segment.  A ``weakref.finalize`` on the
    plan destroys its own segment and closes its peer mappings; crashed
    workers are covered by the parent's end-of-run ``/dev/shm`` sweep.
    """

    def __init__(self, comm: ProcCommunicator, sendcounts: np.ndarray,
                 recvcounts: np.ndarray, dtype: Any, tail: tuple[int, ...],
                 plan_id: int, name: str = ""):
        # Held in a plain dict so the finalizer does not keep the plan
        # alive; it must exist before super().__init__ calls _new_sendbuf.
        self._seg: dict[str, Any] = {"own": None, "peers": []}
        self._peer_views: dict[int, np.ndarray] = {}
        self._peer_sdispls: dict[int, np.ndarray] = {}
        self._finalizer = weakref.finalize(self, _cleanup_plan_segments,
                                           self._seg)
        super().__init__(comm, sendcounts, recvcounts, dtype, tail,
                         plan_id, name)
        self._sync_segments()

    def _new_sendbuf(self) -> np.ndarray:
        if not self.n_send:
            return super()._new_sendbuf()
        comm: ProcCommunicator = self.comm
        wrank = comm._group[comm.rank]
        seg_name = f"rpr{comm._world.runid}_{wrank}_{next(_SEG_IDS)}"
        row_nbytes = self.dtype.itemsize * int(np.prod(self.tail,
                                                       dtype=np.int64))
        with _no_shm_tracking():
            # A new segment is zero-filled, like the base class buffer.
            shm = shared_memory.SharedMemory(
                create=True, name=seg_name,
                size=max(1, self.n_send * row_nbytes))
        self._seg["own"] = shm
        return np.ndarray((self.n_send,) + self.tail, dtype=self.dtype,
                          buffer=shm.buf)

    def _sync_segments(self) -> None:
        """Collective: exchange segment names and counts, attach peers.

        Also cross-checks that every peer plans to send exactly what this
        rank expects to receive, so a diverging plan fails loudly at
        construction instead of mis-slicing at execute.
        """
        comm: ProcCommunicator = self.comm
        own: shared_memory.SharedMemory | None = self._seg["own"]
        info = comm.allgather((None if own is None else own.name,
                               [int(c) for c in self.sendcounts]))
        for src in range(comm.size):
            if src == comm.rank:
                continue
            pname, pcounts = info[src]
            if pcounts[comm.rank] != int(self.recvcounts[src]):
                raise CommUsageError(
                    f"alltoallv plan mismatch on rank {comm.rank}: expected "
                    f"{int(self.recvcounts[src])} row(s) from rank {src}, "
                    f"got {pcounts[comm.rank]} (peers built a different "
                    f"plan?)")
            if not pcounts[comm.rank]:
                continue  # nothing to read from this peer
            pcounts = np.asarray(pcounts, dtype=np.int64)
            self._peer_sdispls[src] = np.concatenate(
                ([0], np.cumsum(pcounts[:-1]))).astype(np.int64)
            with _no_shm_tracking():
                shm = shared_memory.SharedMemory(name=pname)
            self._seg["peers"].append(shm)
            self._peer_views[src] = np.ndarray(
                (int(pcounts.sum()),) + self.tail, dtype=self.dtype,
                buffer=shm.buf)

    def _scatter_from_peers(self) -> None:
        """Copy each source's rows straight out of its shared segment."""
        comm: ProcCommunicator = self.comm
        rd = self.rdispls
        for src in range(comm.size):
            c = int(self.recvcounts[src])
            if not c:
                continue
            off = int(rd[src])
            if src == comm.rank:
                d = int(self.sdispls[comm.rank])
                self.recvbuf[off:off + c] = self.sendbuf[d:d + c]
            else:
                d = int(self._peer_sdispls[src][comm.rank])
                self.recvbuf[off:off + c] = self._peer_views[src][d:d + c]

    def execute(self) -> np.ndarray:
        return self.comm._plan_exchange(self)


def _cleanup_plan_segments(seg: dict) -> None:
    for shm in seg["peers"]:
        _close_shm(shm)
    seg["peers"] = []
    if seg["own"] is not None:
        _destroy_shm(seg["own"])
        seg["own"] = None


ProcCommunicator._plan_class = ProcAlltoallvPlan


# ----------------------------------------------------------------------
# worker entry points (module-level: spawn pickles them by reference)
# ----------------------------------------------------------------------
def _spmd_child(rank: int, size: int, runid: str, send_conns, recv_conns,
                abort_state: _SharedAbort, payload: bytes,
                timeout: float | None, collect_traces: bool, verify: bool,
                sanitize: bool, result_conn) -> None:
    """One-shot worker: run the kernel once, ship (status, value, trace)."""
    mesh = _Mesh(rank, size, runid, send_conns, recv_conns, abort_state)
    status, out, trace = "ok", None, None
    try:
        fn, args, kwargs = pickle.loads(payload)
        world = _ProcWorld(size, mesh, timeout, verify, sanitize)
        comm = ProcCommunicator(world, rank, list(range(size)), ("r",))
        if collect_traces:
            trace = comm.trace
        out = fn(comm, *args, **kwargs)
    except BaseException as exc:  # noqa: BLE001 - must capture everything
        if not isinstance(exc, RankAborted):
            mesh.abort(f"rank {rank} failed: {type(exc).__name__}: {exc}")
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
    mesh.shutdown()


def _session_child(rank: int, size: int, runid: str, send_conns, recv_conns,
                   abort_state: _SharedAbort, cmd_conn, verify: bool,
                   sanitize: bool) -> None:
    """Persistent worker: jobs arrive as fn specs; rank state survives."""
    mesh = _Mesh(rank, size, runid, send_conns, recv_conns, abort_state)
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
        mesh.begin_gen(gen)
        status, out, summary = "ok", None, None
        try:
            fn = resolve_fn_spec(spec)
            world = _ProcWorld(size, mesh, timeout, verify, sanitize)
            world.session = session
            comm = ProcCommunicator(world, rank, list(range(size)),
                                    ("r", gen))
            summary = None
            out = fn(comm, state)
            summary = comm.trace.summary()
        except BaseException as exc:  # noqa: BLE001 - isolate the job
            if not isinstance(exc, RankAborted):
                mesh.abort(f"rank {rank} failed: "
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
    mesh.shutdown()


# ----------------------------------------------------------------------
# driver side
# ----------------------------------------------------------------------
def _build_mesh_pipes(ctx, nranks: int):
    """Full mesh of one-directional pipes: pipes[src][dst] = (recv, send)."""
    recv_of = [[None] * nranks for _ in range(nranks)]
    send_of = [[None] * nranks for _ in range(nranks)]
    for src in range(nranks):
        for dst in range(nranks):
            if src == dst:
                continue
            r, s = ctx.Pipe(duplex=False)
            recv_of[dst][src] = r   # dst reads what src sent
            send_of[src][dst] = s   # src writes toward dst
    return recv_of, send_of


def _close_mesh_pipes(recv_of, send_of) -> None:
    for row in list(recv_of) + list(send_of):
        for conn in row:
            if conn is not None:
                try:
                    conn.close()
                except Exception:
                    pass


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
        runid = uuid.uuid4().hex[:8]
        abort_state = _SharedAbort(ctx)
        recv_of, send_of = _build_mesh_pipes(ctx, nranks)
        result_pipes = [ctx.Pipe(duplex=False) for _ in range(nranks)]
        procs = [
            ctx.Process(
                target=_spmd_child,
                args=(r, nranks, runid, send_of[r], recv_of[r], abort_state,
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
            _close_mesh_pipes(recv_of, send_of)
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
                        abort_state.set(0, f"rank {r} process died")
                        continue
                    if status == "ok":
                        results[r] = out
                    else:
                        failures[r] = out
                    if traces is not None:
                        traces[r] = trace
        finally:
            deadline = time.monotonic() + _JOIN_GRACE_S
            for p in procs:
                p.join(timeout=max(0.1, deadline - time.monotonic()))
            for p in procs:
                if p.is_alive():
                    p.terminate()
                    p.join(timeout=5.0)
            for rconn, _ in result_pipes:
                try:
                    rconn.close()
                except Exception:
                    pass
            _sweep_run_segments(runid)
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
        self._ctx = mp.get_context("spawn")
        self.runid = uuid.uuid4().hex[:8]
        self._abort = _SharedAbort(self._ctx)
        recv_of, send_of = _build_mesh_pipes(self._ctx, nranks)
        self._cmd_conns = []
        child_cmd = []
        for _ in range(nranks):
            a, b = self._ctx.Pipe(duplex=True)
            self._cmd_conns.append(a)
            child_cmd.append(b)
        self._procs = [
            self._ctx.Process(
                target=_session_child,
                args=(r, nranks, self.runid, send_of[r], recv_of[r],
                      self._abort, child_cmd[r], verify, sanitize),
                name=f"engine-rank-{r}", daemon=True)
            for r in range(nranks)
        ]
        for p in self._procs:
            p.start()
        _close_mesh_pipes(recv_of, send_of)
        for b in child_cmd:
            b.close()

    def run(self, spec: FnSpec, timeout: float | None) -> SessionRun:
        if self._broken is not None:
            raise RuntimeError(
                f"procs session is broken ({self._broken}); restart the "
                f"engine")
        self._gen += 1
        gen = self._gen
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
                    self._abort.set(gen, self._broken)
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
                self._abort.set(gen, "job timeout (driver)")
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
        deadline = time.monotonic() + _JOIN_GRACE_S
        for p in self._procs:
            p.join(timeout=max(0.1, deadline - time.monotonic()))
        for p in self._procs:
            if p.is_alive():
                p.terminate()
                p.join(timeout=5.0)
        for conn in self._cmd_conns:
            try:
                conn.close()
            except Exception:
                pass
        _sweep_run_segments(self.runid)
