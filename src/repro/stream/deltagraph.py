"""Dynamic distributed graph: delta-CSR overlays on an immutable base.

:class:`DynamicDistGraph` makes a built :class:`~repro.graph.distgraph.
DistGraph` mutable without rebuilding it per batch, following the
batched-update playbook of Dhulipala et al. (see PAPERS.md): the base CSR
stays immutable and each rank overlays

* a **tombstone mask** over the base adjacency (one bit per stored edge —
  a deletion hides the entry without moving memory), and
* a **sorted insert overlay** per direction: arrays of ``(row, neighbor,
  sequence)`` kept ordered by ``(row, neighbor-gid, age)``, so any row's
  current adjacency is the gid-ordered merge of its surviving base
  segment and its overlay run.

Rows are kept in **canonical gid-sorted order** (the base is
:meth:`~repro.graph.distgraph.DistGraph.sort_adjacency`-ed at wrap time):
the merged adjacency of a row is then bitwise order-identical to the same
row in a from-scratch rebuild of the updated edge list, which is what
lets the incremental analytics (:mod:`repro.stream.incremental`) promise
*bitwise* equality with the static kernels — ``np.add.reduceat`` reduces
each row sequentially, so matching element order means matching floating-
point sums.

**Batch semantics** (deterministic, order-independent across ranks): per
``(row, neighbor)`` group a batch's deletes consume copies oldest-first —
surviving base entries, then older overlay entries, then the batch's own
inserts in arrival order (arrival = source rank, then position in that
rank's chunk); deletes beyond the available copies are counted *missing*
(reported, not an error — all ranks agree on the count via one
allreduce).  Remaining inserts append to the overlay.

**Ghost maintenance**: endpoints unknown to the rank become new ghosts
(appended to ``unmap``/``map``/``ghost_tasks``); whenever any rank's
ghost set changes — an allreduced decision, so every rank takes the same
path — the :class:`~repro.analytics.exchange.HaloExchange` is rebuilt
collectively.  Unreferenced ghosts are garbage-collected at compaction.

**Compaction**: when the overlay + tombstone volume crosses
``compact_threshold`` × base size on *any* rank (again an allreduced
decision), every rank merges its overlays into a fresh base CSR, drops
unreferenced ghosts, and rebuilds the halo.  Compaction changes ghost
local ids but never owned ids (always ``0..n_loc-1`` in ascending gid
order), which is why the incremental kernels key their state by owned id.

``apply`` is collective; its schedule is identical on every rank (all
data-dependent branches — ghost growth, compaction — are taken on
allreduced values), so it runs clean under the collective-schedule
verifier and the buffer sanitizer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..analytics.exchange import HaloExchange
from ..graph.csr import csr_row_lengths, expand_rows, sorted_unique
from ..graph.distgraph import DistGraph
from ..runtime import MAX, SUM, Communicator
from .updates import DELETE, INSERT, UpdateBatch, UpdateRouter

__all__ = ["ApplyResult", "EpochRecord", "DynamicDistGraph",
           "PinnedEpochError"]

#: Batches of journal history retained for incremental consumers; a
#: consumer further behind than this resynchronizes with a full pass.
_JOURNAL_KEEP = 64


class PinnedEpochError(RuntimeError):
    """Compaction would invalidate a pinned epoch's snapshot.

    Raised by :meth:`DynamicDistGraph._compact` instead of silently
    rebuilding local ids out from under a reader that pinned an epoch
    via :meth:`DynamicDistGraph.pin_epoch`.  :meth:`DynamicDistGraph.
    apply` never triggers it — it defers compaction while pins are held
    (an allreduced decision, so every rank defers together) — but a
    direct or future caller of ``_compact`` hits the guard."""


def _span_indices(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start+len)`` for each (start, len)."""
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.concatenate(([0], np.cumsum(lens[:-1]))), lens)
    return np.repeat(starts, lens) + offsets


@dataclass(frozen=True)
class ApplyResult:
    """Global outcome of one applied batch (identical on every rank)."""

    epoch: int
    n_inserted: int  # insertions surviving the batch's own deletes
    n_deleted: int  # deletions of *stored* copies (base or overlay);
    #                 same-batch insert/delete cancels count in neither
    n_missing: int  # deletes that matched no stored copy
    ghosts_changed: bool
    compacted: bool
    m_global: int
    compaction_deferred: bool = False  # wanted to compact, but an epoch
    #                                    pin (on any rank) blocked it


@dataclass(frozen=True)
class EpochRecord:
    """Journal entry for one epoch, consumed by incremental analytics.

    Row/lid fields are rank-local; counters are global (allreduced), so
    reuse-vs-recompute decisions made from them are SPMD-symmetric.
    ``ins_src_gid/ins_dst_gid`` list this rank's *out-direction* surviving
    inserts — each global insert appears on exactly one rank, so an
    allgather of these yields the batch's insert set exactly once.
    """

    epoch: int
    out_rows: np.ndarray
    in_rows: np.ndarray
    ins_src_gid: np.ndarray
    ins_dst_gid: np.ndarray
    n_inserted: int
    n_deleted: int
    n_missing: int
    ghosts_changed: bool
    compacted: bool


class _DirState:
    """One direction's base CSR plus its delta overlay."""

    def __init__(self, indptr: np.ndarray, lids: np.ndarray,
                 gids: np.ndarray, vals: np.ndarray | None,
                 n_global: int):
        self.indptr = indptr
        self.lids = lids
        self.gids = gids  # unmap[lids], cached (stable until compaction)
        self.vals = vals
        self.n_global = n_global
        # Composite (row, gid) key per base entry; rows are gid-sorted so
        # this is globally sorted and searchsorted finds any group's run.
        self.keys = expand_rows(indptr) * n_global + gids
        self.tomb = np.zeros(len(lids), dtype=bool)
        self.n_tomb = 0
        z = np.empty(0, dtype=np.int64)
        self.ins_row = z
        self.ins_lid = z.copy()
        self.ins_gid = z.copy()
        self.ins_seq = z.copy()
        self.ins_val = (np.empty(0, dtype=np.float64)
                        if vals is not None else None)
        self._seq = 0

    @property
    def overlay_fraction(self) -> float:
        return (self.n_tomb + len(self.ins_row)) / max(1, len(self.lids))

    # ------------------------------------------------------------------
    def apply(self, rows: np.ndarray, nbr_gids: np.ndarray,
              nbr_lids: np.ndarray, op: np.ndarray,
              vals: np.ndarray | None) -> tuple[int, int, int, np.ndarray]:
        """Integrate one routed batch; returns (inserted, deleted,
        missing, per-row degree delta as (rows, deltas))."""
        k = len(rows)
        n_rows = len(self.indptr) - 1
        if k == 0:
            z = np.empty(0, dtype=np.int64)
            return 0, 0, 0, (z, z.copy())
        arrival = np.arange(k, dtype=np.int64)
        order = np.lexsort((arrival, nbr_gids, rows))
        r = rows[order]
        g = nbr_gids[order]
        lid = nbr_lids[order]
        o = op[order]
        v = vals[order] if vals is not None else None

        # --- group structure over (row, gid) -------------------------------
        key = r * self.n_global + g
        new_grp = np.empty(k, dtype=bool)
        new_grp[0] = True
        np.not_equal(key[1:], key[:-1], out=new_grp[1:])
        starts = np.flatnonzero(new_grp)
        lens = np.diff(np.concatenate((starts, [k])))
        gkey = key[starts]
        grow = r[starts]

        # --- per-group existing copies -------------------------------------
        base_lo = np.searchsorted(self.keys, gkey, side="left")
        base_hi = np.searchsorted(self.keys, gkey, side="right")
        alive_pref = np.concatenate(
            ([0], np.cumsum(~self.tomb))).astype(np.int64)
        e_base = alive_pref[base_hi] - alive_pref[base_lo]
        ov_key = self.ins_row * self.n_global + self.ins_gid
        ov_lo = np.searchsorted(ov_key, gkey, side="left")
        ov_hi = np.searchsorted(ov_key, gkey, side="right")
        e_ov = ov_hi - ov_lo

        # --- missing deletes: clamped-at-zero sequential walk --------------
        # pref[j] = (#deletes - #inserts) among the group's first j+1 ops;
        # a delete misses exactly when the walk would drop below zero, i.e.
        # missing = max(0, max_j pref[j] - existing).
        dmi = np.where(o == DELETE, 1, -1).astype(np.int64)
        cum = np.cumsum(dmi)
        grp_base = np.repeat(cum[starts] - dmi[starts], lens)
        pref = cum - grp_base
        max_pref = np.maximum(np.maximum.reduceat(pref, starts), 0)
        d_g = np.add.reduceat((o == DELETE).astype(np.int64), starts)
        i_g = lens - d_g
        missing = np.maximum(0, max_pref - (e_base + e_ov))
        s_g = d_g - missing  # successful deletes per group

        # --- removal assignment, oldest copies first -----------------------
        rem_base = np.minimum(s_g, e_base)
        rem_ov = np.minimum(s_g - rem_base, e_ov)
        rem_new = s_g - rem_base - rem_ov

        hit = np.flatnonzero(rem_base > 0)
        if len(hit):
            span_lens = base_hi[hit] - base_lo[hit]
            pos = _span_indices(base_lo[hit], span_lens)
            rank_in_run = alive_pref[pos] - np.repeat(
                alive_pref[base_lo[hit]], span_lens)
            sel = ~self.tomb[pos] & (
                rank_in_run < np.repeat(rem_base[hit], span_lens))
            self.tomb[pos[sel]] = True
            self.n_tomb += int(sel.sum())

        hit = np.flatnonzero(rem_ov > 0)
        if len(hit):
            drop = _span_indices(ov_lo[hit], rem_ov[hit])
            keep = np.ones(len(self.ins_row), dtype=bool)
            keep[drop] = False
            self.ins_row = self.ins_row[keep]
            self.ins_lid = self.ins_lid[keep]
            self.ins_gid = self.ins_gid[keep]
            self.ins_seq = self.ins_seq[keep]
            if self.ins_val is not None:
                self.ins_val = self.ins_val[keep]

        # --- surviving new inserts -----------------------------------------
        is_ins = o == INSERT
        ins_cum = np.cumsum(is_ins.astype(np.int64))
        ins_rank = ins_cum - np.repeat(
            ins_cum[starts] - is_ins[starts].astype(np.int64), lens) - 1
        keep_new = is_ins & (ins_rank >= np.repeat(rem_new, lens))
        n_new = int(keep_new.sum())
        if n_new:
            seq = self._seq + np.arange(k, dtype=np.int64)
            self._seq += k
            self.ins_row = np.concatenate((self.ins_row, r[keep_new]))
            self.ins_lid = np.concatenate((self.ins_lid, lid[keep_new]))
            self.ins_gid = np.concatenate((self.ins_gid, g[keep_new]))
            self.ins_seq = np.concatenate((self.ins_seq, seq[keep_new]))
            if self.ins_val is not None:
                newv = (v[keep_new] if v is not None
                        else np.ones(n_new, dtype=np.float64))
                self.ins_val = np.concatenate((self.ins_val, newv))
            ov_order = np.lexsort(
                (self.ins_seq, self.ins_gid, self.ins_row))
            self.ins_row = self.ins_row[ov_order]
            self.ins_lid = self.ins_lid[ov_order]
            self.ins_gid = self.ins_gid[ov_order]
            self.ins_seq = self.ins_seq[ov_order]
            if self.ins_val is not None:
                self.ins_val = self.ins_val[ov_order]

        if len(grow) and (grow.min() < 0 or grow.max() >= n_rows):
            raise ValueError("routed update row out of range")
        deg_delta = (i_g - s_g).astype(np.int64)
        touched = np.flatnonzero(deg_delta != 0)
        # Deletes that consumed the batch's own inserts (rem_new) cancel
        # out: they appear in neither counter, keeping
        # n_inserted - n_deleted == the true edge-count delta.
        return (n_new, int((rem_base + rem_ov).sum()), int(missing.sum()),
                (grow[touched], deg_delta[touched]))

    def merged(self) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                              np.ndarray | None]:
        """Full merged direction: (indptr, lids, gids, vals).

        A linear splice, not a sort: the base is (row, gid)-sorted
        (``self.keys``) and :meth:`apply` keeps the overlay (row, gid,
        seq)-sorted, so each overlay entry's place is the count of
        surviving base entries with key ``<=`` its own (base copies come
        first on ties) plus its own ordinal (overlay ties stay in sequence
        order).  With nothing overlaid the base arrays are returned as
        they are — callers treat merged arrays as read-only.
        """
        n_ov = len(self.ins_row)
        if n_ov == 0 and self.n_tomb == 0:
            return self.indptr, self.lids, self.gids, self.vals
        bound = np.searchsorted(
            self.keys, self.ins_row * self.n_global + self.ins_gid,
            side="right")
        ov_before = np.searchsorted(
            self.ins_row, np.arange(len(self.indptr), dtype=np.int64))
        if self.n_tomb:
            keep = ~self.tomb
            kept_before = np.concatenate(([0], np.cumsum(keep)))
            bound = kept_before[bound]
            indptr = kept_before[self.indptr] + ov_before
        else:
            keep = slice(None)
            indptr = self.indptr + ov_before
        dest = bound + np.arange(n_ov, dtype=np.int64)
        from_base = np.ones(len(self.lids) - self.n_tomb + n_ov, dtype=bool)
        from_base[dest] = False

        def splice(base: np.ndarray, overlay: np.ndarray) -> np.ndarray:
            out = np.empty(len(from_base), dtype=base.dtype)
            out[from_base] = base[keep]
            out[dest] = overlay
            return out

        vals = (splice(self.vals, self.ins_val)
                if self.vals is not None else None)
        return (indptr, splice(self.lids, self.ins_lid),
                splice(self.gids, self.ins_gid), vals)


class DynamicDistGraph:
    """Mutable overlay over an immutable base :class:`DistGraph`.

    Wrapping **takes ownership** of the base graph: its adjacency is
    sorted into canonical gid order in place (unless ``assume_sorted``)
    and its global-id map is extended as ghosts appear.  Construction and
    :meth:`apply` are collective.

    The wrapper duck-types the ``DistGraph`` surface the communication
    layer needs (``n_loc``/``n_gst``/``unmap``/``map``/``ghost_tasks``/
    ``n_total``), so a :class:`~repro.analytics.exchange.HaloExchange`
    binds to it directly; static kernels run on the materialized (and
    epoch-cached) :meth:`view`.
    """

    def __init__(self, comm: Communicator, base: DistGraph,
                 compact_threshold: float = 0.25,
                 assume_sorted: bool = False):
        if not (0.0 < compact_threshold):
            raise ValueError("compact_threshold must be positive")
        self.comm = comm
        self.compact_threshold = float(compact_threshold)
        if not assume_sorted:
            base.sort_adjacency()
        self.base = base
        self.partition = base.partition
        self.rank = base.rank
        self.nparts = base.nparts
        self.n_global = base.n_global
        self._m_global = base.m_global
        self.map = base.map
        self._unmap = base.unmap
        self._ghost_tasks = base.ghost_tasks
        self._out = _DirState(base.out_indexes, base.out_edges,
                              base.unmap[base.out_edges], base.out_values,
                              base.n_global)
        self._in = _DirState(base.in_indexes, base.in_edges,
                             base.unmap[base.in_edges], base.in_values,
                             base.n_global)
        self._outdeg = csr_row_lengths(base.out_indexes).astype(np.int64)
        self._indeg = csr_row_lengths(base.in_indexes).astype(np.int64)
        self.epoch = 0
        self.router = UpdateRouter(comm, base.partition)
        self._journal: deque[EpochRecord] = deque(maxlen=_JOURNAL_KEEP)
        self._view: DistGraph | None = None
        self._view_epoch = -1
        self._pins: dict[int, int] = {}  # epoch -> local pin count
        self.halo = HaloExchange(comm, self)

    # --- DistGraph-compatible surface ---------------------------------
    @property
    def n_loc(self) -> int:
        return len(self._out.indptr) - 1

    @property
    def n_gst(self) -> int:
        return len(self._ghost_tasks)

    @property
    def n_total(self) -> int:
        return self.n_loc + self.n_gst

    @property
    def m_global(self) -> int:
        return self._m_global

    @property
    def unmap(self) -> np.ndarray:
        return self._unmap

    @property
    def ghost_tasks(self) -> np.ndarray:
        return self._ghost_tasks

    @property
    def is_weighted(self) -> bool:
        return self._out.vals is not None

    def to_local(self, gids: np.ndarray) -> np.ndarray:
        return self.map.get(gids, default=-1)

    def out_degrees(self) -> np.ndarray:
        """Maintained out-degree of every owned vertex (no overlay scan)."""
        return self._outdeg

    def in_degrees(self) -> np.ndarray:
        """Maintained in-degree of every owned vertex."""
        return self._indeg

    # --- epoch pins (MVCC snapshot support) ---------------------------
    def pin_epoch(self, epoch: int | None = None) -> int:
        """Pin an epoch against compaction; returns the pinned epoch.

        Purely local (no communication): a pin marks that some reader
        holds a materialized snapshot keyed to this graph's current
        local-id space, so :meth:`apply` must defer compaction — which
        reassigns ghost local ids — until every pin is released.  The
        deferral decision itself is allreduced inside :meth:`apply`, so
        ranks may pin asymmetrically without skewing the schedule.
        Pins are reference-counted per epoch.  Only the current epoch
        (or one still pinned) can be newly pinned: older epochs' views
        are already out of reach.
        """
        if epoch is None:
            epoch = self.epoch
        if epoch != self.epoch and epoch not in self._pins:
            raise ValueError(
                f"cannot pin epoch {epoch}: current epoch is {self.epoch} "
                "and no existing pin holds it")
        self._pins[epoch] = self._pins.get(epoch, 0) + 1
        return epoch

    def release_epoch(self, epoch: int) -> None:
        """Drop one reference to a pinned epoch."""
        count = self._pins.get(epoch, 0)
        if count <= 0:
            raise ValueError(f"epoch {epoch} is not pinned")
        if count == 1:
            del self._pins[epoch]
        else:
            self._pins[epoch] = count - 1

    def pinned_epochs(self) -> dict[int, int]:
        """Live pins as ``{epoch: reference count}`` (a copy)."""
        return dict(self._pins)

    # ------------------------------------------------------------------
    def journal_since(self, epoch: int) -> list[EpochRecord] | None:
        """Records for epochs ``epoch+1 .. self.epoch``; ``None`` when the
        window fell out of the retained journal (consumer must resync)."""
        if epoch >= self.epoch:
            return []
        records = [rec for rec in self._journal if rec.epoch > epoch]
        if len(records) != self.epoch - epoch:
            return None
        return records

    # ------------------------------------------------------------------
    def _add_ghosts(self, gids: np.ndarray) -> bool:
        """Register unknown endpoint gids as new ghosts; True if any."""
        if len(gids) == 0:
            return False
        uniq = sorted_unique(gids)
        missing = uniq[self.map.get(uniq, default=-1) < 0]
        if len(missing) == 0:
            return False
        start = self.n_total
        new_lids = start + np.arange(len(missing), dtype=np.int64)
        self.map.insert(missing, new_lids)
        self._unmap = np.concatenate((self._unmap, missing))
        self._ghost_tasks = np.concatenate(
            (self._ghost_tasks, self.partition.owner_of(missing)))
        return True

    def apply(self, batch: UpdateBatch) -> ApplyResult:
        """Route and integrate one global batch (collective)."""
        comm = self.comm
        n = self.n_global
        bad = int(np.count_nonzero(
            (batch.src < 0) | (batch.src >= n)
            | (batch.dst < 0) | (batch.dst >= n)))
        if int(comm.allreduce(bad, SUM)):
            raise ValueError("update batch references out-of-range vertices")

        routed = self.router.route(batch)
        ghosts_changed = self._add_ghosts(
            np.concatenate((routed.out_dst, routed.in_src)))

        out_rows = self.partition.to_local(self.rank, routed.out_src)
        in_rows = self.partition.to_local(self.rank, routed.in_dst)
        out_nbr = self.map.get(routed.out_dst)
        in_nbr = self.map.get(routed.in_src)

        n_ins, n_del, n_miss, (o_rows, o_deltas) = self._out.apply(
            out_rows, routed.out_dst, out_nbr, routed.out_op,
            routed.out_values)
        _, _, _, (i_rows, i_deltas) = self._in.apply(
            in_rows, routed.in_src, in_nbr, routed.in_op, routed.in_values)
        np.add.at(self._outdeg, o_rows, o_deltas)
        np.add.at(self._indeg, i_rows, i_deltas)

        # Surviving out-direction inserts of this epoch (for the journal):
        # the last n_ins overlay entries by sequence number.
        if n_ins:
            newest = np.argsort(self._out.ins_seq, kind="stable")[-n_ins:]
            ins_row = self._out.ins_row[newest]
            ins_src = self._unmap[ins_row]
            ins_dst = self._out.ins_gid[newest]
        else:
            ins_src = np.empty(0, dtype=np.int64)
            ins_dst = np.empty(0, dtype=np.int64)

        totals = comm.allreduce(np.array(
            [n_ins, n_del, n_miss, 1 if ghosts_changed else 0,
             n_ins - n_del, len(self._pins)], dtype=np.int64), SUM)
        ghosts_changed = bool(totals[3])
        self._m_global += int(totals[4])
        pinned_anywhere = bool(totals[5])

        frac = max(self._out.overlay_fraction, self._in.overlay_fraction)
        frac = float(comm.allreduce(float(frac), MAX))
        want_compact = frac >= self.compact_threshold
        # Compaction reassigns ghost local ids, which would corrupt any
        # snapshot pinned to an earlier epoch; defer (symmetrically — the
        # pin count was allreduced) and retry on the next apply.
        compacted = want_compact and not pinned_anywhere
        deferred = want_compact and pinned_anywhere
        if compacted:
            self._compact()
        if ghosts_changed or compacted:
            self.halo = HaloExchange(comm, self)

        self.epoch += 1
        self._view = None
        self._journal.append(EpochRecord(
            epoch=self.epoch,
            out_rows=sorted_unique(out_rows),
            in_rows=sorted_unique(in_rows),
            ins_src_gid=ins_src, ins_dst_gid=ins_dst,
            n_inserted=int(totals[0]), n_deleted=int(totals[1]),
            n_missing=int(totals[2]), ghosts_changed=ghosts_changed,
            compacted=compacted))
        return ApplyResult(
            epoch=self.epoch, n_inserted=int(totals[0]),
            n_deleted=int(totals[1]), n_missing=int(totals[2]),
            ghosts_changed=ghosts_changed, compacted=compacted,
            m_global=self._m_global, compaction_deferred=deferred)

    # ------------------------------------------------------------------
    def view(self) -> DistGraph:
        """Materialize the current graph as an immutable :class:`DistGraph`.

        Cached per epoch; with empty overlays (epoch 0, or right after
        compaction) the view shares the base arrays outright.
        """
        if self._view is not None and self._view_epoch == self.epoch:
            return self._view
        out_indptr, out_lids, _, out_vals = self._out.merged()
        in_indptr, in_lids, _, in_vals = self._in.merged()
        g = DistGraph(
            rank=self.rank, nparts=self.nparts, n_global=self.n_global,
            m_global=self._m_global, partition=self.partition,
            out_indexes=out_indptr, out_edges=out_lids,
            in_indexes=in_indptr, in_edges=in_lids,
            unmap=self._unmap, ghost_tasks=self._ghost_tasks, map=self.map,
            out_values=out_vals, in_values=in_vals)
        self._view = g
        self._view_epoch = self.epoch
        return g

    def _compact(self) -> None:
        """Merge overlays into a fresh base CSR and GC unreferenced ghosts.

        Purely local (the decision to compact was already allreduced);
        owned local ids are preserved, ghost ids are re-assigned in
        ascending gid order exactly like the from-scratch builder.

        Refuses to run while any epoch is pinned: a pinned reader's
        snapshot indexes this graph's ghost local-id space, and
        compacting would corrupt it silently.  :meth:`apply` checks the
        (allreduced) pin count first and defers instead; this guard
        protects every other path.
        """
        if self._pins:
            raise PinnedEpochError(
                "compaction would drop pinned epoch(s) "
                f"{sorted(self._pins)} (current epoch {self.epoch}); "
                "release the pins first")
        from ..graph.hashmap import IntHashMap

        n_loc = self.n_loc
        out_indptr, out_lids, out_gids, out_vals = self._out.merged()
        in_indptr, in_lids, in_gids, in_vals = self._in.merged()

        nbr_gids = np.concatenate((out_gids, in_gids))
        if len(nbr_gids):
            uniq = sorted_unique(nbr_gids)
            ghost_gids = uniq[self.partition.owner_of(uniq) != self.rank]
        else:
            ghost_gids = np.empty(0, dtype=np.int64)
        new_unmap = np.concatenate((self._unmap[:n_loc], ghost_gids))
        remap = np.full(self.n_total, -1, dtype=np.int64)
        remap[:n_loc] = np.arange(n_loc, dtype=np.int64)
        old_ghost_lids = self.map.get(ghost_gids)
        remap[old_ghost_lids] = n_loc + np.arange(
            len(ghost_gids), dtype=np.int64)

        gmap = IntHashMap(capacity_hint=len(new_unmap))
        gmap.insert(new_unmap, np.arange(len(new_unmap), dtype=np.int64))
        self.map = gmap
        self._unmap = new_unmap
        self._ghost_tasks = (self.partition.owner_of(ghost_gids)
                             if len(ghost_gids)
                             else np.empty(0, dtype=np.int64))
        self._out = _DirState(out_indptr, remap[out_lids], out_gids,
                              out_vals, self.n_global)
        self._in = _DirState(in_indptr, remap[in_lids], in_gids,
                             in_vals, self.n_global)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DynamicDistGraph(rank={self.rank}/{self.nparts}, "
                f"epoch={self.epoch}, n_loc={self.n_loc}, "
                f"n_gst={self.n_gst}, m_global={self._m_global}, "
                f"overlay=({len(self._out.ins_row)}+{self._out.n_tomb}, "
                f"{len(self._in.ins_row)}+{self._in.n_tomb}))")
