"""Batched edge-update log and owner routing (streaming ingestion).

The paper's pipeline builds the web graph once and analyzes it read-only;
the serving roadmap needs the same graph *mutable* under live traffic.
This module is the ingestion half of the dynamic subsystem: callers
accumulate edge mutations into an :class:`UpdateBatch` (insert/delete,
optionally weighted) and the collective :func:`route_updates`
redistributes each batch so every rank receives exactly the updates
touching vertices it owns — the same owner-routing discipline and the
same idiom as graph construction (:mod:`repro.graph.build`): one
:func:`~repro.graph.csr.bucket_order` by owner, then one
``alltoallv_flat``.

Routing ships one packed ``(n, 4)`` int64 payload per direction —
``[src, dst, op, weight-bits]``.  A batch's per-destination counts change
every batch, so there is no persistent plan to keep: each direction is
one collective.

Out-direction updates are routed by the owner of the *source* endpoint
and in-direction updates by the owner of the *destination*, mirroring the
dual CSR of :class:`~repro.graph.distgraph.DistGraph`; each logical update
therefore arrives exactly once per direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import bucket_order
from ..partition.base import Partition
from ..runtime import Communicator

__all__ = ["INSERT", "DELETE", "UpdateBatch", "RoutedUpdates",
           "read_updates_text", "route_updates", "split_batch"]

#: Op code for an edge insertion.
INSERT = 1
#: Op code for an edge deletion.
DELETE = -1


@dataclass(frozen=True)
class UpdateBatch:
    """One rank's chunk of a global batch of edge mutations.

    Like the edge chunks fed to the graph builder, any distribution of a
    logical batch across ranks is accepted (including the whole batch on
    one rank); :func:`route_updates` redistributes by ownership.  ``op``
    holds :data:`INSERT`/:data:`DELETE` per edge; ``values`` optionally
    carries an insert weight per edge (ignored for deletes — a delete
    matches the oldest stored copy of ``(src, dst)`` regardless of
    weight).
    """

    src: np.ndarray
    dst: np.ndarray
    op: np.ndarray
    values: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "src",
                           np.ascontiguousarray(self.src, dtype=np.int64))
        object.__setattr__(self, "dst",
                           np.ascontiguousarray(self.dst, dtype=np.int64))
        object.__setattr__(self, "op",
                           np.ascontiguousarray(self.op, dtype=np.int64))
        if self.src.shape != self.dst.shape or self.src.ndim != 1:
            raise ValueError("src and dst must be matching 1-D arrays")
        if self.op.shape != self.src.shape:
            raise ValueError("op must have one entry per edge")
        if len(self.op) and not np.isin(self.op, (INSERT, DELETE)).all():
            raise ValueError("op entries must be INSERT (+1) or DELETE (-1)")
        if self.values is not None:
            vals = np.ascontiguousarray(self.values, dtype=np.float64)
            if vals.shape != self.src.shape:
                raise ValueError("values must have one entry per edge")
            object.__setattr__(self, "values", vals)

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.src)

    @property
    def n_inserts(self) -> int:
        return int(np.count_nonzero(self.op == INSERT))

    @property
    def n_deletes(self) -> int:
        return int(np.count_nonzero(self.op == DELETE))

    @classmethod
    def empty(cls, weighted: bool = False) -> "UpdateBatch":
        z = np.empty(0, dtype=np.int64)
        return cls(z, z, z.copy(),
                   np.empty(0, dtype=np.float64) if weighted else None)

    @classmethod
    def inserts(cls, edges: np.ndarray,
                values: np.ndarray | None = None) -> "UpdateBatch":
        """Batch inserting every row of an ``(m, 2)`` edge array."""
        edges = np.ascontiguousarray(edges, dtype=np.int64).reshape(-1, 2)
        op = np.full(len(edges), INSERT, dtype=np.int64)
        return cls(edges[:, 0].copy(), edges[:, 1].copy(), op, values)

    @classmethod
    def deletes(cls, edges: np.ndarray) -> "UpdateBatch":
        """Batch deleting one copy of every row of an edge array."""
        edges = np.ascontiguousarray(edges, dtype=np.int64).reshape(-1, 2)
        op = np.full(len(edges), DELETE, dtype=np.int64)
        return cls(edges[:, 0].copy(), edges[:, 1].copy(), op)

    @classmethod
    def concat(cls, batches: "list[UpdateBatch]") -> "UpdateBatch":
        """Concatenate batches preserving update order."""
        if not batches:
            return cls.empty()
        weighted = batches[0].values is not None
        if any((b.values is not None) != weighted for b in batches):
            raise ValueError("cannot concat weighted and unweighted batches")
        return cls(
            np.concatenate([b.src for b in batches]),
            np.concatenate([b.dst for b in batches]),
            np.concatenate([b.op for b in batches]),
            np.concatenate([b.values for b in batches]) if weighted else None)


def split_batch(batch: UpdateBatch, size: int) -> list[UpdateBatch]:
    """Split a batch into order-preserving chunks of at most ``size``."""
    if size < 1:
        raise ValueError("batch size must be >= 1")
    out = []
    for lo in range(0, batch.n, size):
        hi = min(batch.n, lo + size)
        out.append(UpdateBatch(
            batch.src[lo:hi], batch.dst[lo:hi], batch.op[lo:hi],
            None if batch.values is None else batch.values[lo:hi]))
    return out or [batch]


def read_updates_text(path) -> UpdateBatch:
    """Parse a text update file: ``[+|-] src dst [weight]`` per line.

    A leading ``+`` marks an insert (the default when the sign is
    omitted), ``-`` a delete; blank lines and ``#`` comments are skipped.
    The batch is weighted iff any insert line carries a third column.
    """
    srcs: list[int] = []
    dsts: list[int] = []
    ops: list[int] = []
    vals: list[float] = []
    weighted = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split("#", 1)[0].split()
            if not parts:
                continue
            op = INSERT
            if parts[0] in ("+", "-"):
                op = INSERT if parts[0] == "+" else DELETE
                parts = parts[1:]
            if len(parts) not in (2, 3):
                raise ValueError(
                    f"{path}:{lineno}: expected '[+|-] src dst [weight]'")
            srcs.append(int(parts[0]))
            dsts.append(int(parts[1]))
            ops.append(op)
            if len(parts) == 3:
                weighted = True
                vals.append(float(parts[2]))
            else:
                vals.append(1.0)
    return UpdateBatch(
        np.array(srcs, dtype=np.int64), np.array(dsts, dtype=np.int64),
        np.array(ops, dtype=np.int64),
        np.array(vals, dtype=np.float64) if weighted else None)


@dataclass(frozen=True)
class RoutedUpdates:
    """One rank's share of a routed batch, one record set per direction.

    ``out_*`` rows all have a locally-owned source (this rank's out-CSR is
    affected); ``in_*`` rows a locally-owned destination.  ``*_values`` is
    ``None`` for unweighted batches.
    """

    out_src: np.ndarray
    out_dst: np.ndarray
    out_op: np.ndarray
    out_values: np.ndarray | None
    in_src: np.ndarray
    in_dst: np.ndarray
    in_op: np.ndarray
    in_values: np.ndarray | None


def _route_dir(comm: Communicator, packed: np.ndarray,
               owners: np.ndarray) -> np.ndarray:
    order, offsets = bucket_order(owners, comm.size)
    got, _ = comm.alltoallv_flat(packed[order], np.diff(offsets))
    return got


def route_updates(comm: Communicator, partition: Partition,
                  batch: UpdateBatch) -> RoutedUpdates:
    """Redistribute a batch by endpoint ownership (collective).

    Every rank calls it with its (possibly empty) chunk of the same
    logical batch; ``partition`` must have one part per rank.  Each
    direction's rows arrive in source-rank order, then in the order of
    the source rank's chunk.
    """
    weighted = batch.values is not None
    packed = np.empty((batch.n, 4), dtype=np.int64)
    packed[:, 0] = batch.src
    packed[:, 1] = batch.dst
    packed[:, 2] = batch.op
    if weighted:
        packed[:, 3] = batch.values.view(np.int64)
    else:
        packed[:, 3] = 0
    with comm.region("stream.route"):
        got_out = _route_dir(comm, packed, partition.owner_of(batch.src))
        got_in = _route_dir(comm, packed, partition.owner_of(batch.dst))

    def bits_to_float(col: np.ndarray) -> np.ndarray | None:
        # A column slice is strided; the dtype view needs contiguity.
        return np.ascontiguousarray(col).view(np.float64) \
            if weighted else None

    return RoutedUpdates(
        out_src=got_out[:, 0], out_dst=got_out[:, 1],
        out_op=got_out[:, 2], out_values=bits_to_float(got_out[:, 3]),
        in_src=got_in[:, 0], in_dst=got_in[:, 1], in_op=got_in[:, 2],
        in_values=bits_to_float(got_in[:, 3]))
