"""Exception types for the SPMD runtime.

The runtime executes one thread per rank.  Failures must never deadlock the
world: when any rank raises, the world's lock gate is aborted and every other
rank sees :class:`RankAborted` at its next synchronization point.  The
launcher then re-raises the *original* failure wrapped in :class:`SpmdError`.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "SpmdError",
    "SpmdLaunchError",
    "RankAborted",
    "CommUsageError",
    "CollectiveMismatchError",
    "SlotRaceError",
    "BufferRaceError",
]


class SpmdError(RuntimeError):
    """Raised by the launcher when one or more ranks failed.

    Attributes
    ----------
    failures:
        Mapping of rank -> exception instance for every rank that raised a
        "real" error (``RankAborted`` secondary failures are filtered out
        unless they are the only failures).
    """

    def __init__(self, failures: dict[int, BaseException]):
        self.failures = dict(failures)
        ranks = ", ".join(str(r) for r in sorted(self.failures))
        first = self.failures[min(self.failures)]
        super().__init__(
            f"SPMD execution failed on rank(s) {ranks}: "
            f"{type(first).__name__}: {first}"
        )

    # Rank failures cross process boundaries on the procs backend; the
    # default Exception reduce would replay __init__ with the formatted
    # message instead of the failures dict.
    def __reduce__(self):
        return (SpmdError, (self.failures,))


class SpmdLaunchError(RuntimeError):
    """A world could not be launched on the requested runtime backend.

    Raised *before* any rank runs: for an unknown ``backend=``
    selection, or — on the process backend — when the kernel
    function or one of its arguments cannot be pickled for shipment to the
    spawned rank processes.  The message names the offending object, so
    the fix (move the function to module level, pass data instead of
    closures) is actionable instead of a raw ``PicklingError`` surfacing
    from a worker.
    """


class RankAborted(RuntimeError):
    """Raised inside a rank when another rank failed and aborted the world."""


class CommUsageError(ValueError):
    """Raised for invalid arguments to communicator operations.

    Collective misuse (mismatched dtypes, wrong-length send lists, invalid
    roots) is reported eagerly on the calling rank so the failure is local
    and debuggable rather than a hang.
    """


def format_signature(sig: tuple[Any, ...]) -> str:
    """Render a collective signature ``(call_index, op, *details)`` tersely.

    Signatures are built by the runtime verifier (see
    :meth:`repro.runtime.comm.Communicator`); details are flat
    ``(key, value)`` pairs.
    """
    if not sig:
        return "<none>"
    idx, op, *rest = sig
    details = ", ".join(f"{rest[i]}={rest[i + 1]!r}"
                        for i in range(0, len(rest) - 1, 2))
    return f"{op}(call #{idx}{', ' + details if details else ''})"


class CollectiveMismatchError(RuntimeError):
    """The ranks of a world diverged from one collective schedule.

    Raised by the opt-in runtime verifier (``World(..., verify=True)`` or
    ``REPRO_VERIFY_COLLECTIVES=1``) *instead of* letting the mismatch hang
    a collective sync or silently combine incompatible payloads.

    Attributes
    ----------
    rank:
        The rank that raised (every rank of the world raises; each names
        itself here).
    mine:
        This rank's signature tuple ``(call_index, op, *details)``.
    peers:
        Mapping of diverging rank -> that rank's signature tuple.
    """

    def __init__(self, rank: int, mine: tuple[Any, ...],
                 peers: dict[int, tuple[Any, ...]]):
        self.rank = rank
        self.mine = mine
        self.peers = dict(peers)
        divergers = ", ".join(str(r) for r in sorted(self.peers))
        first = self.peers[min(self.peers)]
        super().__init__(
            f"collective schedule mismatch: rank {rank} called "
            f"{format_signature(mine)} but rank(s) {divergers} diverged "
            f"(rank {min(self.peers)} called {format_signature(first)})"
        )

    def __reduce__(self):
        return (CollectiveMismatchError, (self.rank, self.mine, self.peers))


class SlotRaceError(RuntimeError):
    """Write-after-write race detected on a shared collective slot.

    Raised by the runtime verifier when a rank enters a collective while
    its slot still holds an unconsumed payload — evidence that the
    gate protocol was bypassed (e.g. two communicators sharing one
    ``(world, rank)`` pair, or user code poking ``World.slots`` directly).
    """


class BufferRaceError(RuntimeError):
    """A shared collective payload was written outside its ownership epoch.

    Raised by the opt-in buffer sanitizer (``World(..., sanitize=True)`` or
    ``REPRO_SANITIZE_BUFFERS=1``) when a rank writes through a payload it
    only *borrowed* from an aliasing collective (``bcast``/``scatter``/
    ``gather``/``allgather``/``alltoall`` with ``copy=False``), or when a
    publisher mutates a buffer its peers may still be reading.  Every rank
    of the world raises — each names itself in ``detected_by``; the blamed
    writer is the same everywhere.

    Attributes
    ----------
    writing_rank:
        The rank whose write was detected.
    op / call_index:
        The collective call that shared the buffer (per-rank call index, as
        used by the schedule verifier's signatures).
    window:
        ``(publish_epoch, detect_epoch)`` barrier-epoch pair bounding when
        the illegal write happened (epochs are per-rank collective call
        indices, i.e. entries of the sanitizer's vector clock).
    publisher_rank:
        The rank that contributed the buffer to the collective.
    detected_by:
        The rank this instance was raised on.
    """

    def __init__(self, writing_rank: int, op: str, call_index: int,
                 window: tuple[int, int], publisher_rank: int,
                 detected_by: int):
        self.writing_rank = writing_rank
        self.op = op
        self.call_index = call_index
        self.window = (int(window[0]), int(window[1]))
        self.publisher_rank = publisher_rank
        self.detected_by = detected_by
        super().__init__(
            f"buffer ownership race: rank {writing_rank} wrote to the "
            f"shared payload of '{op}' call #{call_index} published by "
            f"rank {publisher_rank} (barrier epoch window "
            f"{self.window[0]}..{self.window[1]}, detected on rank "
            f"{detected_by}); copy-escape with comm.own() or keep the "
            f"default copy=True"
        )

    def for_rank(self, rank: int) -> "BufferRaceError":
        """Clone this diagnosis as seen from another rank."""
        return BufferRaceError(self.writing_rank, self.op, self.call_index,
                               self.window, self.publisher_rank, rank)

    def __reduce__(self):
        return (BufferRaceError,
                (self.writing_rank, self.op, self.call_index, self.window,
                 self.publisher_rank, self.detected_by))
