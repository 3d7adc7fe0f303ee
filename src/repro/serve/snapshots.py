"""Snapshot registry: shared, reference-counted MVCC leases per replica.

:meth:`AnalyticsEngine.pin_snapshot` costs one scheduler round-trip, so
pinning per query would serialize the read path.  The registry amortizes
it over the replica's *epoch*: every query arriving while the replica
sits at epoch E shares one engine pin through a :class:`SnapshotLease`,
whether or not another lease happens to be live at that moment, and the
engine pin is given back only when the last lease-holder has finished
*and* the replica has moved past E.  Both halves of that rule keep the
round trips off the read path:

* the last lease to finish releases the engine pin itself only if the
  engine's epoch is already past E (nobody can ask for E again);
* a pin that sits idle at the current epoch is retired by the replica's
  catch-up thread (:meth:`SnapshotRegistry.retire_idle`) immediately
  before it applies the next update batch.

While a pin is held the engine keeps E's materialized view resident and
defers delta-CSR compaction (see DESIGN §16); because idle pins are
retired before every apply, compaction is deferred only for the duration
of reads actually in flight across a write, never by a pin nobody uses.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

__all__ = ["SnapshotLease", "SnapshotRegistry"]


@dataclass
class SnapshotLease:
    """One query's hold on a pinned epoch (release exactly once)."""

    registry: "SnapshotRegistry"
    epoch: int
    _released: bool = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self.registry.release(self.epoch)


class SnapshotRegistry:
    """Reference-counted epoch pins for one replica's engine."""

    def __init__(self, engine):
        self.engine = engine
        self._lock = threading.Lock()
        self._refs: dict[int, int] = {}  # epoch -> live leases
        self._engine_pins: dict[int, int] = {}  # epoch -> engine pins held
        self._acquired = 0
        self._pins = 0  # actual engine round-trips
        self._retired = 0  # pins given back by retire_idle()

    def acquire(self, *, timeout: float | None = None) -> SnapshotLease:
        """Lease the engine's current epoch, pinning it on first use.

        The first lease at a given epoch performs the engine pin (a
        scheduler round-trip, serialized with updates — so it captures a
        well-defined epoch); every later lease at that epoch re-uses the
        held pin with no round trip, live lease or not.
        """
        with self._lock:
            epoch = self.engine.epoch
            if epoch in self._engine_pins:
                self._refs[epoch] = self._refs.get(epoch, 0) + 1
                self._acquired += 1
                return SnapshotLease(self, epoch)
        # Pin outside the lock (it blocks on the engine's dispatcher).
        # Two racing first-leases may both pin; engine pins are
        # refcounted, and ``_engine_pins`` remembers how many this
        # registry owes back for the epoch.
        epoch = self.engine.pin_snapshot(timeout=timeout)
        with self._lock:
            self._refs[epoch] = self._refs.get(epoch, 0) + 1
            self._engine_pins[epoch] = self._engine_pins.get(epoch, 0) + 1
            self._acquired += 1
            self._pins += 1
        return SnapshotLease(self, epoch)

    def release(self, epoch: int) -> None:
        with self._lock:
            refs = self._refs.get(epoch, 0)
            if refs <= 0:
                raise ValueError(f"epoch {epoch} has no live lease")
            self._refs[epoch] = refs - 1
            owed = 0
            if refs == 1:
                del self._refs[epoch]
                if self.engine.epoch != epoch:  # nobody can lease it again
                    owed = self._engine_pins.pop(epoch, 0)
        self._give_back(epoch, owed)

    def retire_idle(self) -> None:
        """Give back every engine pin that has no live lease.

        Called by the replica's catch-up thread before each apply (and by
        :meth:`ReplicaGroup.sync`), so the round trips land on that
        thread and an idle pin never defers a compaction.
        """
        with self._lock:
            idle = {e: self._engine_pins.pop(e)
                    for e in list(self._engine_pins) if e not in self._refs}
            self._retired += sum(idle.values())
        for epoch, owed in idle.items():
            self._give_back(epoch, owed)

    def _give_back(self, epoch: int, owed: int) -> None:
        for _ in range(owed):
            self.engine.release_snapshot(epoch)

    def live_epochs(self) -> dict[int, int]:
        with self._lock:
            return dict(self._refs)

    def stats(self) -> dict:
        with self._lock:
            return {"acquired": self._acquired, "engine_pins": self._pins,
                    "live": dict(self._refs),
                    "held": sum(n for e, n in self._engine_pins.items()
                                if e not in self._refs),
                    "retired": self._retired}
