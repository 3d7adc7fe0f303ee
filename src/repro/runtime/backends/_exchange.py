"""Message-exchange Communicator base shared by the procs and mpi backends.

The threads runtime implements every collective as *publish into a shared
slot list, entry sync, combine, exit sync* on one lock gate per world —
possible only because ranks share one address space.  Process-backed
ranks exchange **messages** instead.
This module rebases :class:`~repro.runtime.comm.Communicator` onto a
single primitive:

``_xchg(outbound) -> inbound``
    a personalized exchange: ``outbound[d]`` is delivered to rank ``d``,
    ``inbound[s]`` is what rank ``s`` sent here, and ``inbound[rank] is
    outbound[rank]`` (self-delivery never serializes — matching the
    threads semantics where a rank's own contribution is returned as-is).

Broadcast-style collectives (``bcast``/``gather``/``allgather``/
reductions/``allgatherv``/…) are inherited *unchanged* from the base
class: :meth:`_run` ships the rank's contribution to every peer, so the
base ``combine(slots)`` closures see exactly the slot list they were
written against and produce bitwise-identical results.  The personalized
collectives (``scatter``/``alltoall``/``alltoallv``/``alltoallv_flat``)
are overridden to send each destination only its own payload.

Ownership semantics shift, deliberately: a payload received over an
exchange is a private deserialized copy, so ``copy=True`` (the default)
skips the deep copy the threads backend needs, and ``copy=False`` cannot
actually alias the sender's memory.  The ``copy=False`` discipline is
still *enforced* — under the sanitizer, borrowed payloads come back
read-only exactly as on threads — so code stays portable between
backends (see DESIGN.md §12).

Trace attribution also shifts: time blocked in the exchange (peers not
yet arrived, transport busy) lands in ``wait_s``; deserialize-and-combine
lands in ``xfer_s``.  On threads the sync/copy split is analogous but
not identical — cross-backend trace comparisons should use totals.
"""

from __future__ import annotations

import time
from typing import Any, Sequence

import numpy as np

from ..comm import Communicator, _MISMATCH_REASON, _nbytes
from ..errors import CollectiveMismatchError, CommUsageError, RankAborted

__all__ = ["ExchangeCommunicator"]


class ExchangeCommunicator(Communicator):
    """Communicator whose collectives run over a personalized exchange."""

    # ------------------------------------------------------------------
    # transport primitive (subclass responsibility)
    # ------------------------------------------------------------------
    def _xchg(self, outbound: Sequence[Any]) -> list[Any]:
        """Personalized exchange of ``size`` Python objects (see module doc)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # collective engine
    # ------------------------------------------------------------------
    def _verify_schedule(self, op: str, sig: tuple[Any, ...]) -> float:
        """Exchange ``(call_index, op, *sig)`` and cross-check every rank.

        Unlike the threads version there is no shared slot array to
        re-read after an abort: the signature exchange either completes on
        every rank — all ranks then run the same deterministic comparison
        and raise the same :class:`CollectiveMismatchError` — or a
        count-divergent rank never posts and the exchange times out into
        the world abort.
        """
        mine = (self._call_index, op, *sig)
        t0 = time.perf_counter()
        try:
            slots = self._xchg([mine] * self.size)
        except RankAborted as exc:
            self._race_from_abort(exc)
            raise
        waited = time.perf_counter() - t0
        peers = {r: s for r, s in enumerate(slots) if s != mine}
        if peers:
            self._world.abort(
                f"{_MISMATCH_REASON} detected by rank {self.rank}")
            raise CollectiveMismatchError(self.rank, mine, peers)
        return waited

    def _exchange(self, op: str, outbound: Sequence[Any], combine,
                  bytes_sent: int, msg_count: int,
                  sig: tuple[Any, ...] = ()):
        """Personalized analogue of the threads ``_run``.

        ``combine(inbound)`` sees one received object per source rank.
        Sanitizer epoch ticks and the verify-mode signature exchange
        bracket the payload exactly as on threads.
        """
        trace = self.trace
        t_enter = trace.mark_enter()
        world = self._world
        if world.sanitizer is not None:
            world.sanitizer.tick(self.rank, self._call_index)
            world.sanitizer.check(world, self.rank)
        wait_s = 0.0
        if world.verify:
            wait_s = self._verify_schedule(op, sig)
        self._call_index += 1
        t0 = time.perf_counter()
        try:
            inbound = self._xchg(outbound)
        except RankAborted as exc:
            self._race_from_abort(exc)
            raise
        wait_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        result, bytes_recv = combine(inbound)
        xfer_s = time.perf_counter() - t0
        trace.record(op, bytes_sent, bytes_recv, msg_count, wait_s, xfer_s,
                     t_enter)
        trace.mark_leave()
        return result

    def _run(self, op: str, contribution: Any, combine, bytes_sent: int,
             msg_count: int, sig: tuple[Any, ...] = ()):
        # Broadcast flavor: every peer receives this rank's contribution,
        # so inbound == the threads slot list and the inherited combine
        # closures apply verbatim.  The transport serializes the
        # contribution once and fans the bytes out (see _xchg impls).
        return self._exchange(op, [contribution] * self.size, combine,
                              bytes_sent, msg_count, sig)

    def _adopt(self, value: Any, src: int, op: str, call_index: int,
               copy: bool) -> Any:
        # Received payloads are already private deserialized copies:
        # copy=True needs no deep copy, and copy=False cannot truly alias.
        # Keep the copy=False *discipline* (read-only borrow under the
        # sanitizer) so kernels stay portable to the threads backend.
        if src == self.rank or copy:
            return value
        world = self._world
        if world.sanitizer is not None:
            from ..sanitize import borrow_payload
            return borrow_payload(
                value,
                world.sanitizer.info(world, src, self.rank, op, call_index))
        return value

    # ------------------------------------------------------------------
    # personalized collectives (send each destination only its payload)
    # ------------------------------------------------------------------
    def scatter(self, objs: Sequence[Any] | None, root: int = 0,
                copy: bool = True) -> Any:
        self._check_root(root)
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                raise CommUsageError(
                    "scatter requires a length-size sequence at root")
            outbound = list(objs)
        else:
            outbound = [None] * self.size
        idx = self._call_index
        if self.rank == root and not copy:
            self._guard_publish(
                "scatter", idx,
                [o for i, o in enumerate(objs) if i != root])

        def combine(inbound):
            val = inbound[root]
            nbr = 0 if self.rank == root else _nbytes(val)
            return self._adopt(val, root, "scatter", idx, copy), nbr

        sent = sum(_nbytes(o) for o in objs) if self.rank == root else 0
        return self._exchange("scatter", outbound, combine, sent,
                              1 if self.rank == root else 0,
                              sig=("root", root))

    def alltoall(self, objs: Sequence[Any], copy: bool = True) -> list[Any]:
        if len(objs) != self.size:
            raise CommUsageError(
                f"alltoall needs exactly {self.size} items, got {len(objs)}")
        idx = self._call_index
        if not copy:
            self._guard_publish(
                "alltoall", idx,
                [o for i, o in enumerate(objs) if i != self.rank])

        def combine(inbound):
            vals = [self._adopt(inbound[src], src, "alltoall", idx, copy)
                    for src in range(self.size)]
            return vals, sum(_nbytes(v) for v in inbound)

        sent = sum(_nbytes(o) for i, o in enumerate(objs) if i != self.rank)
        return self._exchange("alltoall", list(objs), combine, sent,
                              self.size - 1)

    def alltoallv(self, send: Sequence[np.ndarray]
                  ) -> tuple[np.ndarray, np.ndarray]:
        if len(send) != self.size:
            raise CommUsageError(
                f"alltoallv needs exactly {self.size} buffers, got {len(send)}")
        send = [np.ascontiguousarray(b) for b in send]
        dt = send[0].dtype
        for b in send[1:]:
            if b.dtype != dt:
                raise CommUsageError(
                    f"alltoallv buffers must share a dtype ({b.dtype} != {dt})")
        bytes_sent = sum(b.nbytes for i, b in enumerate(send)
                         if i != self.rank)
        nmsg = sum(1 for i, b in enumerate(send)
                   if i != self.rank and len(b))

        def combine(inbound):
            counts = np.array([len(b) for b in inbound], dtype=np.int64)
            if counts.sum():
                data = np.concatenate(inbound)
            else:
                data = np.empty(0, dtype=dt)
            recv = sum(b.nbytes for s, b in enumerate(inbound)
                       if s != self.rank)
            return (data, counts), recv

        return self._exchange("alltoallv", send, combine, bytes_sent, nmsg,
                              sig=("dtype", str(dt)))

    def alltoallv_flat(
        self,
        sendbuf: np.ndarray,
        sendcounts: np.ndarray,
        sdispls: np.ndarray | None = None,
        *,
        out: np.ndarray | None = None,
        recvcounts: np.ndarray | None = None,
        _plan=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        size = self.size
        sendbuf, sendcounts, sdispls, recvcounts = self._flat_normalize(
            sendbuf, sendcounts, sdispls, recvcounts, _plan)
        dt = sendbuf.dtype
        tail = sendbuf.shape[1:]
        row_nbytes = int(dt.itemsize * np.prod(tail, dtype=np.int64)) \
            if tail else dt.itemsize
        offrank = np.arange(size) != self.rank
        bytes_sent = row_nbytes * int(sendcounts[offrank].sum())
        nmsg = int(np.count_nonzero(sendcounts[offrank]))
        outbound = [
            sendbuf[int(sdispls[d]):int(sdispls[d]) + int(sendcounts[d])]
            for d in range(size)]

        def combine(inbound):
            rc = recvcounts
            actual = np.array([len(inbound[src]) for src in range(size)],
                              dtype=np.int64)
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
                    data[off:off + c] = inbound[src]
                off += c
            recv = row_nbytes * int(rc[offrank].sum())
            return (data, rc), recv

        if _plan is not None:
            sig: tuple[Any, ...] = ("plan", _plan.plan_id, "dtype", str(dt),
                                    "tail", tail)
        else:
            sig = ("dtype", str(dt), "tail", tail)
        return self._exchange("alltoallv", outbound, combine, bytes_sent,
                              nmsg, sig=sig)

    # ------------------------------------------------------------------
    # transport-specific operations
    # ------------------------------------------------------------------
    def split(self, color: int | None, key: int | None = None):
        raise NotImplementedError  # each exchange backend binds its own

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        raise NotImplementedError

    def recv(self, source: int, tag: int = 0, timeout=None) -> Any:
        raise NotImplementedError
