"""Opt-in buffer-ownership sanitizer for the SPMD runtime.

The threads-as-ranks runtime moves collective payloads through shared
slots, so the object collectives can hand several ranks references to the
*same* Python object.  Real MPI ranks own their buffers; here a single
``result[i] = ...`` on a shared payload silently corrupts every peer — a
race class the collective-schedule verifier (PR 2) cannot see because the
schedule itself stays perfectly aligned.

Two mechanisms close the gap (both enabled by ``World(..., sanitize=True)``
or ``REPRO_SANITIZE_BUFFERS=1``):

**Borrow guards** —
    ndarrays received from an aliasing collective called with
    ``copy=False`` come back as :class:`GuardedBuffer` views with
    ``writeable=False``.  Reading is free; any write raises
    :class:`~repro.runtime.errors.BufferRaceError` naming the writing
    rank, the collective call index, and the epoch window, then
    aborts the world so *every* rank raises the same diagnosis.  The
    explicit copy-escape is ``comm.own(x)``.

**Publish fingerprints** —
    a rank that publishes a payload with ``copy=False`` keeps a CRC
    fingerprint of it for a window of epochs.  At each subsequent
    collective entry the sanitizer re-fingerprints the rank's outstanding
    publishes; drift means the *publisher* wrote a buffer its peers were
    still borrowing (peers hold read-only views, so the publisher's own
    retained writable reference is the only way the bytes can change).

Epochs are per-rank collective call indices; the sanitizer keeps them in a
per-:class:`~repro.runtime.comm.World` vector clock so the error can bound
*when* the illegal write happened, not just where.

With the default ``copy=True`` the collectives hand out private deep
copies (see :func:`own_payload`) and none of this machinery engages —
``copy=False`` is the opt-in fast path the sanitizer polices.
"""

from __future__ import annotations

import os
import threading
import zlib
from collections import deque
from typing import Any

import numpy as np

from .errors import BufferRaceError

__all__ = [
    "SANITIZE_ENV",
    "sanitize_from_env",
    "fingerprint",
    "own_payload",
    "borrow_payload",
    "GuardedBuffer",
    "BufferSanitizer",
    "RACE_REASON",
]

#: Environment variable enabling the buffer sanitizer by default.
SANITIZE_ENV = "REPRO_SANITIZE_BUFFERS"

#: Abort-reason prefix distinguishing a sanitizer-detected race from app
#: failures, so peers blocked in a collective sync can convert their
#: RankAborted into the same BufferRaceError diagnosis.
RACE_REASON = "buffer ownership race"

#: How many epochs (collective call indices) a copy=False publish stays
#: fingerprint-guarded.
#: After the window the publisher may legitimately reuse the buffer (its
#: peers' borrows are still write-protected forever by GuardedBuffer).
_DEFAULT_WINDOW = 8


def sanitize_from_env() -> bool:
    """True when ``REPRO_SANITIZE_BUFFERS`` asks for buffer sanitizing."""
    return os.environ.get(SANITIZE_ENV, "").strip().lower() in (
        "1", "true", "yes", "on")


def own_payload(obj: Any) -> Any:
    """Deep-copy the mutable buffers of a collective payload.

    This is the ``copy=True`` receive path and the ``comm.own()``
    copy-escape: ndarrays become fresh base-class arrays (dropping any
    :class:`GuardedBuffer` wrapper and its read-only flag), containers are
    rebuilt recursively, and everything else — scalars, strings, and
    opaque objects such as the ``World`` handles ``split()`` sends through
    ``alltoall`` — passes through untouched.
    """
    if isinstance(obj, np.ndarray):
        return np.array(obj, subok=False)
    if isinstance(obj, list):
        return [own_payload(v) for v in obj]
    if isinstance(obj, tuple):
        return tuple(own_payload(v) for v in obj)
    if isinstance(obj, dict):
        return {k: own_payload(v) for k, v in obj.items()}
    if isinstance(obj, bytearray):
        return bytearray(obj)
    return obj


def borrow_payload(obj: Any, info: dict[str, Any]) -> Any:
    """Wrap the ndarrays of a payload as read-only :class:`GuardedBuffer`.

    Containers are rebuilt (the rebuilt container itself is owned; only
    the leaf buffers stay borrowed).  Non-array leaves pass through: they
    are either immutable or opaque to the sanitizer.
    """
    if isinstance(obj, np.ndarray):
        view = obj.view(GuardedBuffer)
        view._race_info = dict(info)
        view.setflags(write=False)
        return view
    if isinstance(obj, list):
        return [borrow_payload(v, info) for v in obj]
    if isinstance(obj, tuple):
        return tuple(borrow_payload(v, info) for v in obj)
    if isinstance(obj, dict):
        return {k: borrow_payload(v, info) for k, v in obj.items()}
    return obj


def _ndarrays_of(obj: Any):
    """Yield the ndarray leaves of a collective payload (depth-first)."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _ndarrays_of(v)
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _ndarrays_of(v)


def fingerprint(obj: Any) -> int:
    """Order-sensitive structural CRC32 of a payload.

    Arrays contribute dtype/shape/bytes; containers recurse (dicts in
    sorted-key order); opaque objects contribute a constant — they cannot
    be fingerprinted, so mutations inside them are invisible to the
    publish-side check (the borrow guards still cover their ndarrays).
    """
    return _fp(obj, 0)


def _fp(obj: Any, crc: int) -> int:
    if obj is None:
        return zlib.crc32(b"N", crc)
    if isinstance(obj, np.ndarray):
        crc = zlib.crc32(f"A{obj.dtype}{obj.shape}".encode(), crc)
        if obj.dtype.hasobject:
            return zlib.crc32(repr(obj.tolist()).encode(), crc)
        return zlib.crc32(np.ascontiguousarray(obj).tobytes(), crc)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return zlib.crc32(bytes(obj), crc)
    if isinstance(obj, str):
        return zlib.crc32(obj.encode(), crc)
    if isinstance(obj, (bool, int, float, complex, np.generic)):
        return zlib.crc32(repr(obj).encode(), crc)
    if isinstance(obj, (list, tuple)):
        crc = zlib.crc32(f"L{len(obj)}".encode(), crc)
        for v in obj:
            crc = _fp(v, crc)
        return crc
    if isinstance(obj, dict):
        crc = zlib.crc32(f"D{len(obj)}".encode(), crc)
        for k in sorted(obj, key=repr):
            crc = _fp(k, crc)
            crc = _fp(obj[k], crc)
        return crc
    return zlib.crc32(b"O", crc)


class GuardedBuffer(np.ndarray):
    """Read-only view of an ndarray borrowed from an aliasing collective.

    Reads behave exactly like the underlying array (ufunc results are
    plain writable ndarrays), and ``.copy()`` / ``np.array(x)`` /
    ``comm.own(x)`` all yield writable owned data.  Direct writes —
    ``x[i] = v``, ``x += v``, ``np.add(a, b, out=x)`` — raise
    :class:`BufferRaceError` and abort the world so every peer raises the
    same diagnosis.  C-level mutators that bypass both ``__setitem__`` and
    the ufunc protocol (``x.sort()``, ``x.fill()``) still fail thanks to
    ``writeable=False``, just with NumPy's generic read-only ValueError.
    """

    _race_info: dict[str, Any] | None = None

    def __array_finalize__(self, obj: Any) -> None:
        self._race_info = getattr(obj, "_race_info", None)

    def _race(self) -> None:
        info = self._race_info
        if info is None:  # detached guard: keep the write blocked anyway
            raise ValueError(
                "assignment destination is a borrowed read-only buffer")
        sanitizer: BufferSanitizer = info["sanitizer"]
        err = BufferRaceError(
            writing_rank=info["consumer"], op=info["op"],
            call_index=info["call_index"],
            window=(info["epoch"], sanitizer.clock[info["consumer"]]),
            publisher_rank=info["publisher"], detected_by=info["consumer"])
        sanitizer.flag_and_abort(info["world"], err)
        raise err

    def __setitem__(self, key: Any, value: Any) -> None:
        if self.flags.writeable:  # an owned copy of a borrow: plain array
            super().__setitem__(key, value)
            return
        self._race()

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        out = kwargs.get("out", ())
        if out:
            outs = out if isinstance(out, tuple) else (out,)
            for o in outs:
                if isinstance(o, GuardedBuffer) and not o.flags.writeable:
                    o._race()
            kwargs["out"] = tuple(
                o.view(np.ndarray) if isinstance(o, GuardedBuffer) else o
                for o in outs)
        inputs = tuple(
            i.view(np.ndarray) if isinstance(i, GuardedBuffer) else i
            for i in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


class _Guard:
    """One outstanding copy=False publish: payload + its fingerprint."""

    __slots__ = ("payload", "crc", "op", "call_index", "epoch")

    def __init__(self, payload: Any, op: str, call_index: int):
        self.payload = payload
        self.crc = fingerprint(payload)
        self.op = op
        self.call_index = call_index
        self.epoch = call_index


class BufferSanitizer:
    """Per-World epoch vector clock plus publish-time fingerprints.

    ``clock[r]`` is rank r's current collective call index (its epoch);
    it advances at every collective entry, not at every sync.  ``guard()`` registers a
    copy=False publish; ``check()`` re-fingerprints a rank's outstanding
    publishes at its next collective entries and raises on drift.  The
    first race diagnosis is stored in ``flagged`` so peers unblocked by
    the abort can re-raise the same error instead of a bare RankAborted.
    """

    def __init__(self, size: int, window: int | None = None):
        self.size = size
        self.window = _DEFAULT_WINDOW if window is None else int(window)
        self.clock = [0] * size
        self._guards: list[deque[_Guard]] = [deque() for _ in range(size)]
        self._lock = threading.Lock()
        self._persistent: set[int] = set()
        self.flagged: BufferRaceError | None = None

    def tick(self, rank: int, call_index: int) -> None:
        """Advance rank's epoch (entry to its ``call_index``-th collective)."""
        self.clock[rank] = call_index

    def register_persistent(self, payload: Any) -> None:
        """Exempt plan-owned buffers from publish-fingerprint tracking.

        Persistent collective plans (:class:`~repro.runtime.comm.
        AlltoallvPlan`) re-fill their send/recv buffers every iteration by
        design; the rewrite is the protocol, not a race.  A plan registers
        its buffers *once* at construction — :meth:`guard` then skips them
        instead of re-fingerprinting per epoch.  Registration is by object
        identity and only silences the publish-side drift check; borrows
        handed to peers stay read-only regardless.
        """
        with self._lock:
            self._persistent.update(
                id(a) for a in _ndarrays_of(payload))

    def guard(self, rank: int, op: str, call_index: int,
              payload: Any) -> None:
        """Fingerprint a copy=False publish for later drift checks."""
        if self._persistent:
            arrays = list(_ndarrays_of(payload))
            if arrays and all(id(a) in self._persistent for a in arrays):
                return
        self._guards[rank].append(_Guard(payload, op, call_index))

    def check(self, world: Any, rank: int) -> None:
        """Re-fingerprint rank's outstanding publishes; raise on drift."""
        dq = self._guards[rank]
        if not dq:
            return
        now = self.clock[rank]
        while dq and now - dq[0].epoch > self.window:
            dq.popleft()
        for g in dq:
            if fingerprint(g.payload) != g.crc:
                dq.remove(g)
                err = BufferRaceError(
                    writing_rank=rank, op=g.op, call_index=g.call_index,
                    window=(g.epoch, now), publisher_rank=rank,
                    detected_by=rank)
                self.flag_and_abort(world, err)
                raise err

    def flag_and_abort(self, world: Any, err: BufferRaceError) -> None:
        """Record the first diagnosis and abort the world."""
        with self._lock:
            if self.flagged is None:
                self.flagged = err
        world.abort(f"{RACE_REASON}: {err}")

    def info(self, world: Any, publisher: int, consumer: int, op: str,
             call_index: int) -> dict[str, Any]:
        """Provenance dict attached to every GuardedBuffer of one borrow."""
        return {"world": world, "sanitizer": self, "publisher": publisher,
                "consumer": consumer, "op": op, "call_index": call_index,
                "epoch": call_index}
