"""Ghost (halo) value exchange — the PageRank-like communication pattern.

The paper's first class of analytics (PageRank, Label Propagation, the
coloring phase of WCC) propagates a per-vertex value to every neighbor each
iteration.  §III-D1 describes two key optimizations, both implemented here:

* **retained queues**: the set of (vertex, destination-rank) pairs is fixed
  across iterations, so the send queues are built once; each iteration
  sends *only the value array*, halving traffic versus resending ids;
* **one-time id translation**: global→local hash-map lookups happen only
  while building the retained queues; iterations index plain arrays.

On top of the paper's data-volume optimizations this layer removes the
*runtime* per-iteration costs MPI codes avoid with persistent requests:
:meth:`HaloExchange.exchange` drives a cached
:class:`~repro.runtime.AlltoallvPlan` per (dtype, trailing-shape) — packing
with one ``np.take`` into the plan's flat send buffer and scattering into
its preallocated receive buffer, with no per-peer Python lists, per-call
``np.split``/``np.concatenate``, or buffer re-validation.
:meth:`HaloExchange.exchange_many` **fuses** k same-dtype 1-D arrays into
one ``(n, k)`` payload and one collective — message aggregation in the
Buluç-Madduri sense, paying one latency instead of k.

Every refresh ships dense values, changed or not: on the in-process
runtime that measured faster than shipping only the changed ones
(DESIGN §10).

The retained queues also run **in reverse**: :meth:`HaloExchange.reverse`
ships every ghost slot's value back to its owner, aligned with the
owner's retained send list (the owner reads it with no id translation),
and each block to a rank leads with one flag row, so one execute also
tells every rank what every other rank flagged.  BFS ships its ghost
discoveries and its end-of-traversal test this way, one collective per
level (:mod:`repro.analytics.bfs`).

:meth:`HaloExchange.exchange_with_ids` (rebuild ids every iteration) and
:meth:`HaloExchange.exchange_list` (list-of-arrays ``alltoallv``) are the
*unoptimized* variants, kept so the ablation benchmarks can measure what
the retained queues and the flat-buffer plan each buy.

Kernels never build an exchange themselves: :func:`halo_of` returns the
one cached in ``g.derived`` — built on a graph's first collective use,
like the paper's queues, and shared by every later kernel, validator and
served query on that graph (the lifetime rule is on
:attr:`~repro.graph.distgraph.DistGraph.derived`).  The exchange keeps
the arrays it reads, not the graph, so the cache forms no reference
cycle, and an epoch view of a delta graph that shares its exchange
stays valid after the delta graph grows.
"""

from __future__ import annotations

import copy

import numpy as np

from ..graph.csr import bucket_order
from ..graph.distgraph import DistGraph
from ..runtime import AlltoallvPlan, Communicator

__all__ = ["HaloExchange", "halo_of"]


class HaloExchange:
    """Retained-queue ghost exchange for a distributed graph.

    After construction, :meth:`exchange` updates the ghost region
    (``values[n_loc:]``) of any ``(n_loc + n_gst)``-length array with the
    owners' current values, using one ``alltoallv`` of values only.  Every
    call ships every retained-queue value, changed or not, so one plan per
    dtype serves every iteration.  :meth:`reverse` ships the ghost slots
    the other way, owner-ward, with one flag row per rank.

    Protocol (one-time setup): every rank sends each peer the list of
    global ids of its ghosts owned by that peer; the peer translates them
    to local ids once and *retains* that send list.  Because both sides
    keep their queue order fixed, per-iteration payloads need no ids.

    Plans are created lazily per (dtype, trailing-shape) and direction
    and cached for the lifetime of the exchange.  Both count vectors are
    known from setup, so creation communicates nothing, but plan ids are
    numbered per rank: the analytics must touch dtypes in the same order
    on every rank, which SPMD symmetry gives for free; a divergent order
    shows up as a plan-id mismatch in the verifier.  The index arrays of
    both directions depend only on the graph and are computed here, once.

    ``g`` may be any graph-like exposing the :class:`DistGraph` surface
    used here (``n_loc``/``n_gst``/``unmap``/``map``/``ghost_tasks``) —
    in particular a :class:`~repro.stream.deltagraph.DynamicDistGraph`,
    which rebuilds its exchange whenever its ghost set changes.  Only
    those arrays and the extents at construction are kept, never ``g``.
    """

    def __init__(self, comm: Communicator, g: "DistGraph"):
        self.comm = comm
        n_loc, n_gst = g.n_loc, g.n_gst
        self._n_loc, self._n_total = n_loc, n_loc + n_gst
        self._unmap, self._map = g.unmap, g.map

        # Order our ghosts by owning rank; that order is the contract for
        # every subsequent receive.
        order, ghost_starts = bucket_order(g.ghost_tasks, comm.size)
        self._ghost_lids = (n_loc + order).astype(np.int64)
        req_counts = np.diff(ghost_starts)
        req_gids = g.unmap[self._ghost_lids]

        # Peers answer with the ids they were asked for, in the order asked.
        with comm.region("halo.setup"):
            recv_gids, recv_counts = comm.alltoallv_flat(req_gids, req_counts)
        send_lids = g.map.get(recv_gids)
        if len(send_lids) and (send_lids.min() < 0 or send_lids.max() >= n_loc):
            raise ValueError(
                "halo setup received a vertex id this rank does not own")
        self._send_lids = send_lids
        self._send_counts = recv_counts.astype(np.int64)
        self._send_splits = np.cumsum(recv_counts)[:-1]
        self._recv_counts = req_counts

        # Reverse queues (ghost -> owner): the block to each rank is one
        # flag row, then the ghosts it owns in the order its retained
        # send list holds them; the block from each rank mirrors that.
        blocks = np.arange(comm.size)
        rev_send, rev_recv = req_counts + 1, self._send_counts + 1
        self._rev_flags_out = np.cumsum(rev_send) - rev_send
        self._rev_flags_in = np.cumsum(rev_recv) - rev_recv
        self._rev_slot_pos = np.empty(n_gst, dtype=np.int64)
        self._rev_slot_pos[order] = (np.arange(n_gst)
                                     + np.repeat(blocks, req_counts) + 1)
        self._rev_rows = (np.arange(len(send_lids))
                          + np.repeat(blocks, self._send_counts) + 1)
        self._plans: dict[tuple[np.dtype, tuple[int, ...], bool],
                          AlltoallvPlan] = {}

    def rebound(self, comm: Communicator) -> "HaloExchange":
        """These retained queues on ``comm``, another world of the same
        rank session (same ranks, same resident graphs), with no
        communication; its plans are built afresh on first use."""
        other = copy.copy(self)
        other.comm = comm
        other._plans = {}
        return other

    # ------------------------------------------------------------------
    @property
    def n_sent_per_iter(self) -> int:
        """Values this rank ships to peers each :meth:`exchange` call."""
        return len(self._send_lids)

    @property
    def n_ghosts(self) -> int:
        return len(self._ghost_lids)

    @property
    def send_lids(self) -> np.ndarray:
        """The retained send list: the owned local ids this rank ships,
        peer by peer; :meth:`reverse` returns its rows in this order."""
        return self._send_lids

    def _plan_for(self, dtype: np.dtype, tail: tuple[int, ...],
                  reverse: bool = False) -> AlltoallvPlan:
        """Cached persistent plan for one (dtype, trailing-shape) and
        direction.

        Both count vectors come from setup, so creation exchanges no
        counts; building lazily on first use of a dtype is safe because
        every rank reaches it in the same SPMD order.
        """
        key = (np.dtype(dtype), tail, reverse)
        plan = self._plans.get(key)
        if plan is None:
            send, recv = self._send_counts, self._recv_counts
            if reverse:
                send, recv = recv + 1, send + 1
            plan = self.comm.alltoallv_plan(
                send, recvcounts=recv, dtype=key[0], tail=tail,
                name=f"halo{'.rev' * reverse}:{key[0]}{list(tail)}")
            self._plans[key] = plan
        return plan

    def _check_length(self, values: np.ndarray) -> None:
        if len(values) != self._n_total:
            raise ValueError(
                f"values must have length n_loc+n_gst={self._n_total}, "
                f"got {len(values)}")

    def exchange(self, values: np.ndarray) -> np.ndarray:
        """Refresh the ghost entries of ``values`` in place (and return it).

        ``values`` must have length ``n_loc + n_gst``; entries
        ``[0, n_loc)`` are this rank's authoritative values and entries
        ``[n_loc, n_loc + n_gst)`` are overwritten with the owners' values.

        ``values`` may also be a 2-D ``(n_loc + n_gst, k)`` block (the
        batched analytics ship k values per ghost in one message); all
        ranks must use the same ``k`` (the plan signature carries it, so
        a mismatch fails loudly under the verifier instead of deadlocking).
        """
        self._check_length(values)
        plan = self._plan_for(values.dtype, values.shape[1:])
        np.take(values, self._send_lids, axis=0, out=plan.sendbuf)
        values[self._ghost_lids] = plan.execute()
        return values

    def exchange_many(self, *arrays: np.ndarray) -> None:
        """Refresh ghost entries of several arrays with fused collectives.

        1-D arrays sharing a dtype are stacked into one ``(n, k)`` payload
        and shipped in a single collective (k messages' worth of latency
        collapses to one); arrays that cannot fuse (unique dtype, or
        already 2-D) fall back to one :meth:`exchange` each.  Grouping is
        a pure function of the argument dtypes, so SPMD-symmetric calls
        produce identical schedules on every rank.
        """
        for a in arrays:
            self._check_length(a)
        groups: dict[np.dtype, list[int]] = {}
        for i, a in enumerate(arrays):
            if a.ndim == 1:
                groups.setdefault(a.dtype, []).append(i)
        fused: set[int] = set()
        for dt, idxs in groups.items():
            if len(idxs) < 2:
                continue
            plan = self._plan_for(dt, (len(idxs),))
            sb = plan.sendbuf
            for j, i in enumerate(idxs):
                sb[:, j] = arrays[i][self._send_lids]
            rb = plan.execute()
            for j, i in enumerate(idxs):
                arrays[i][self._ghost_lids] = rb[:, j]
            fused.update(idxs)
        for i, a in enumerate(arrays):
            if i not in fused:
                self.exchange(a)

    def reverse(self, ghost_values: np.ndarray,
                flag) -> tuple[np.ndarray, np.ndarray]:
        """Ship every ghost slot's value back to its owner, and one flag
        row to every rank; one plan execute.

        ``ghost_values`` is ``(n_gst, ...)``: row ``i`` is the value of
        ghost local id ``n_loc + i``.  ``flag`` fills the flag row that
        heads this rank's block to every rank, itself included.  Returns
        ``(rows, flags)``: ``rows[j]`` is the value a peer shipped for
        owned vertex :attr:`send_lids` ``[j]`` (an owned vertex appears
        once per peer that holds it as a ghost) and ``flags[r]`` is rank
        ``r``'s flag row.  All ranks must use the same dtype and trailing
        shape.
        """
        if len(ghost_values) != self.n_ghosts:
            raise ValueError(
                f"ghost_values must have length n_gst={self.n_ghosts}, "
                f"got {len(ghost_values)}")
        plan = self._plan_for(ghost_values.dtype, ghost_values.shape[1:],
                              reverse=True)
        sendbuf = plan.sendbuf
        sendbuf[self._rev_flags_out] = flag
        sendbuf[self._rev_slot_pos] = ghost_values
        recv = plan.execute()
        return recv[self._rev_rows], recv[self._rev_flags_in]

    # ------------------------------------------------------------------
    # unoptimized variants, kept for the ablation benchmarks
    # ------------------------------------------------------------------
    def exchange_list(self, values: np.ndarray) -> np.ndarray:
        """Pre-plan list path: fancy-index, ``np.split`` into p arrays, one
        object ``alltoallv``, ``concatenate`` on receive.  Functionally
        identical to :meth:`exchange`; exists to quantify what the flat
        buffer + persistent plan buy (see ``bench_comm`` / ablations).
        """
        self._check_length(values)
        payload = values[self._send_lids]
        send = np.split(payload, self._send_splits)
        # The object path IS the thing being measured here; the flat
        # equivalent is exchange() itself.
        data, counts = self.comm.alltoallv(send)  # spmdlint: disable=PERF002
        if not np.array_equal(counts, self._recv_counts):
            raise AssertionError("halo exchange count mismatch")
        # The all-empty receive path yields a flat buffer; restore trailing
        # dims so 2-D blocks assign cleanly.
        values[self._ghost_lids] = data.reshape((-1,) + values.shape[1:])
        return values

    def exchange_with_ids(self, values: np.ndarray) -> np.ndarray:
        """Unoptimized variant: resend (global id, value) pairs every call.

        Functionally identical to :meth:`exchange` but ships twice the data
        and performs a hash-map translation per call.  Exists to quantify
        the paper's retained-queue optimization (see ``bench_ablations``).
        """
        self._check_length(values)
        payload = values[self._send_lids]
        gids = self._unmap[self._send_lids]
        send_vals = np.split(payload, self._send_splits)
        send_gids = np.split(gids, self._send_splits)
        # Deliberately unoptimized (the ablation baseline): keep the object
        # collective so the benchmark isolates the flat-path win.
        data, _ = self.comm.alltoallv(send_vals)  # spmdlint: disable=PERF002
        got_gids, _ = self.comm.alltoallv(send_gids)  # spmdlint: disable=PERF002
        lids = self._map.get(got_gids)
        if len(lids) and (lids < self._n_loc).any():
            raise AssertionError("received a non-ghost id in halo exchange")
        values[lids] = data
        return values


def halo_of(comm: Communicator, g: "DistGraph") -> HaloExchange:
    """The :class:`HaloExchange` of ``g`` on ``comm``, cached in
    ``g.derived["halo"]``.

    The exchange built on ``comm`` is returned as is.  One built on
    another world of the same rank session (the serving engine runs each
    job on a fresh world over the resident shards) is rebound to ``comm``
    with no communication.  Otherwise a new one is built, one collective
    setup, and replaces it.  Every rank makes the same choice: a graph
    is used by all ranks of a world alike.
    """
    halo = g.derived.get("halo")
    if halo is None or halo.comm.session is not comm.session:
        halo = g.derived["halo"] = HaloExchange(comm, g)
    elif halo.comm is not comm:
        halo = g.derived["halo"] = halo.rebound(comm)
    return halo
