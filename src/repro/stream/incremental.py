"""Streaming analytics over a :class:`~repro.stream.deltagraph.
DynamicDistGraph` — repair where the structure allows it, *bitwise*
faithfully.

The hard requirement (and the acceptance bar of this subsystem) is that
every streaming kernel returns **bit-identical** results to its static
counterpart run from scratch on the updated graph.  That rules out the
usual approximate repairs (warm-started power iteration, residual
tolerance windows); a kernel repairs only where a structure makes exact
repair possible, and otherwise runs the static kernel on the epoch's
materialized view:

**PageRank — the static kernel on the epoch's view.**  The recurrence
adds ``dangling · teleport`` to every row, so on a graph with sinks one
moved sink score changes every row from the next iteration on: an exact
replay of the previous epoch's iterations recomputes almost every row
and costs more than the plain power iteration.  ``run()`` is therefore
:func:`~repro.analytics.pagerank.pagerank` over the epoch-cached
:meth:`~repro.stream.deltagraph.DynamicDistGraph.view` with the delta
graph's retained halo; the view's rows are in canonical gid order, so the
per-row sums match a rebuild bit for bit.

**WCC — union-find over label pairs.**  Component labels are canonical
min-gids, so insert-only batches can only *merge* label classes: the
kernel collects the label pairs bridged by new edges (each global insert
is journaled on exactly one rank; one allgather makes the pair set
identical everywhere), unions them in a deterministic order, and
relabels.  The journal is scanned first: when it holds an effective
deletion the kernel falls back to the static Multistep kernel, with no
collective of its own before it — deletions can split components, which
cannot be repaired from labels alone.

**Degrees / k-core.**  Degrees are maintained exactly by the delta graph
(integer adds; :meth:`~repro.stream.deltagraph.DynamicDistGraph.
out_degrees` / ``in_degrees``).  The geometric k-core sweep is recomputed
whenever the journal shows an effective change — one inserted edge can
resurrect vertices peeled many stages earlier, and a batch that mixes
inserts and deletes leaves much of the graph able to rise, so no
label-local repair exists — but a recompute is no longer a
rescan: :func:`~repro.analytics.kcore.approx_kcore` peels every stage
over one maintained degree array (each adjacency entry read at most once
per sweep), then finds every stage's kept component with one
widest-path closure from the pivot, all as the local-fixed-point
supersteps of :mod:`repro.analytics.closure` on the rows the epoch's
WCC run shares.  It stays exact because each step is a closure whose
result depends on the graph only, never on the order vertices are
discovered in (DESIGN.md §17).  ``stats`` counts recomputes, reuses,
supersteps, entries scanned and pivots.

All reuse/fallback decisions are taken on globally-agreed values (the
journal's allreduced counters), so every rank follows the same collective
schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analytics.kcore import KCoreResult, approx_kcore
from ..analytics.pagerank import PageRankResult, pagerank
from ..analytics.wcc import wcc
from ..runtime import Communicator
from .deltagraph import DynamicDistGraph

__all__ = [
    "IncrementalPageRank",
    "IncrementalWCC",
    "IncrementalWCCResult",
    "IncrementalKCore",
    "UnionFind",
]


class UnionFind:
    """Disjoint sets over arbitrary int labels.

    Union-by-min (the parent of a merge is the smaller root) keeps roots
    canonical for min-gid component labels.
    """

    def __init__(self):
        self._parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        p = self._parent
        while True:
            nxt = p.get(x, x)
            if nxt == x:
                return x
            x = nxt

    def union(self, a: int, b: int) -> bool:
        """Merge the classes of ``a`` and ``b``; True if they were
        distinct."""
        ra, rb = self.find(int(a)), self.find(int(b))
        if ra == rb:
            return False
        lo, hi = (ra, rb) if ra < rb else (rb, ra)
        self._parent[hi] = lo
        return True

    def mapping(self) -> tuple[np.ndarray, np.ndarray]:
        """(old_label, new_label) pairs for every label whose root moved,
        old labels sorted ascending."""
        olds = []
        news = []
        for label in self._parent:
            root = self.find(label)
            if root != label:
                olds.append(label)
                news.append(root)
        if not olds:
            z = np.empty(0, dtype=np.int64)
            return z, z.copy()
        olds_a = np.array(olds, dtype=np.int64)
        news_a = np.array(news, dtype=np.int64)
        order = np.argsort(olds_a)
        return olds_a[order], news_a[order]


def _apply_label_mapping(labels: np.ndarray, olds: np.ndarray,
                         news: np.ndarray) -> int:
    """Rewrite ``labels`` in place through a sorted (old → new) table."""
    if len(olds) == 0 or len(labels) == 0:
        return 0
    idx = np.searchsorted(olds, labels)
    idx[idx == len(olds)] = 0
    hit = olds[idx] == labels
    labels[hit] = news[idx[hit]]
    return int(hit.sum())


class IncrementalPageRank:
    """PageRank of the current epoch: the static kernel on its view.

    ``run()`` is collective and returns a
    :class:`~repro.analytics.pagerank.PageRankResult` bit-identical to
    ``pagerank(comm, rebuilt_graph, …)`` on the same logical graph
    (canonical gid-sorted adjacency on both sides).  Every run is a full
    power iteration over the epoch-cached :meth:`DynamicDistGraph.view`
    with the delta graph's retained halo.  ``stats`` counts the work:
    ``rows_recomputed`` equals ``rows_total`` (Σ ``n_loc`` × iterations)
    and ``full_runs`` equals ``runs``.
    """

    def __init__(self, comm: Communicator, dyn: DynamicDistGraph,
                 damping: float = 0.85, max_iters: int = 10,
                 tol: float | None = None):
        if not (0.0 < damping < 1.0):
            raise ValueError("damping must be in (0, 1)")
        if max_iters < 0:
            raise ValueError("max_iters must be non-negative")
        self.comm = comm
        self.dyn = dyn
        self.damping = float(damping)
        self.max_iters = int(max_iters)
        self.tol = tol
        self.stats = {"runs": 0, "full_runs": 0, "rows_recomputed": 0,
                      "rows_total": 0, "iters": 0}

    def run(self) -> PageRankResult:
        """One collective PageRank evaluation at the current epoch."""
        dyn = self.dyn
        res = pagerank(self.comm, dyn.view(), damping=self.damping,
                       max_iters=self.max_iters, tol=self.tol)
        rows = dyn.n_loc * res.n_iters
        st = self.stats
        st["runs"] += 1
        st["full_runs"] += 1
        st["rows_recomputed"] += rows
        st["rows_total"] += rows
        st["iters"] += res.n_iters
        return res


@dataclass(frozen=True)
class IncrementalWCCResult:
    """Labels plus how they were obtained."""

    labels: np.ndarray  # min-gid component label per owned vertex
    mode: str  # "incremental" | "full"
    n_merges: int  # label classes merged (incremental mode)


class IncrementalWCC:
    """Exact incremental weak components (insert-only fast path)."""

    def __init__(self, comm: Communicator, dyn: DynamicDistGraph):
        self.comm = comm
        self.dyn = dyn
        self._labels: np.ndarray | None = None
        self._epoch = -1
        self.stats = {"runs": 0, "full_runs": 0, "merges": 0,
                      "rollbacks": 0}

    def _full(self) -> IncrementalWCCResult:
        dyn = self.dyn
        res = wcc(self.comm, dyn.view())
        self._labels = res.labels.copy()
        self._epoch = dyn.epoch
        self.stats["full_runs"] += 1
        return IncrementalWCCResult(labels=self._labels.copy(),
                                    mode="full", n_merges=0)

    def run(self) -> IncrementalWCCResult:
        """Collective label refresh at the current epoch."""
        comm, dyn = self.comm, self.dyn
        self.stats["runs"] += 1
        records = (dyn.journal_since(self._epoch)
                   if self._labels is not None else None)
        if records is None:
            return self._full()

        # The journal is read before any collective: an effective deletion
        # can split a component, which cannot be repaired from labels, so
        # the refresh is the full kernel.  The n_deleted counters are
        # global, hence every rank takes the same branch.
        if any(rec.n_deleted > 0 for rec in records):
            self.stats["rollbacks"] += 1
            return self._full()

        # Insert-only: union the label pairs bridged by the inserts.
        labels_full = np.empty(dyn.n_total, dtype=np.int64)
        labels_full[:dyn.n_loc] = self._labels
        dyn.halo.exchange(labels_full)
        su = (np.concatenate([rec.ins_src_gid for rec in records])
              if records else np.empty(0, dtype=np.int64))
        du = (np.concatenate([rec.ins_dst_gid for rec in records])
              if records else np.empty(0, dtype=np.int64))
        lu = labels_full[dyn.partition.to_local(dyn.rank, su)] \
            if len(su) else su
        lv = labels_full[dyn.to_local(du)] if len(du) else du
        cross = lu != lv
        local_pairs = np.stack(
            (lu[cross], lv[cross]), axis=1) if len(su) else \
            np.empty((0, 2), dtype=np.int64)
        all_pairs = self.comm.allgather(local_pairs)
        uf = UnionFind()
        merged = 0
        for pairs in all_pairs:  # rank order: identical everywhere
            for a, b in pairs:
                if uf.union(int(a), int(b)):
                    merged += 1
        olds, news = uf.mapping()
        _apply_label_mapping(self._labels, olds, news)
        self._epoch = dyn.epoch
        self.stats["merges"] += merged
        return IncrementalWCCResult(labels=self._labels.copy(),
                                    mode="incremental", n_merges=merged)


class IncrementalKCore:
    """Cached k-core sweep, recomputed only on effective change.

    One inserted edge can resurrect vertices peeled arbitrarily early
    (their neighbors' survival changes), so the sweep is re-run rather
    than repaired — on the materialized view, with the delta graph's
    retained halo.  A re-run reads each entry at most once over all the
    stages' peels, plus the rows one widest-path closure per pivot reads
    (``edges_scanned``; usually one pivot, ``pivots``), and runs two
    collectives per superstep (``supersteps``); its result is
    bit-identical to the sweep on a from-scratch rebuild because every
    step is an order-independent closure of the graph.  Batches with no
    effective mutation skip the sweep entirely; that decision reads
    journal counters that are global, keeping ranks in lockstep.
    """

    def __init__(self, comm: Communicator, dyn: DynamicDistGraph,
                 max_stage: int = 27, lcc_restrict: bool = True):
        self.comm = comm
        self.dyn = dyn
        self.max_stage = max_stage
        self.lcc_restrict = lcc_restrict
        self._cached: KCoreResult | None = None
        self._epoch = -1
        self.stats = {"runs": 0, "recomputes": 0, "reuses": 0,
                      "supersteps": 0, "edges_scanned": 0, "pivots": 0}

    def run(self) -> KCoreResult:
        dyn = self.dyn
        self.stats["runs"] += 1
        records = (dyn.journal_since(self._epoch)
                   if self._cached is not None else None)
        if records is not None and all(
                rec.n_inserted == 0 and rec.n_deleted == 0
                for rec in records):
            self._epoch = dyn.epoch
            self.stats["reuses"] += 1
            return self._cached
        res = approx_kcore(self.comm, dyn.view(), max_stage=self.max_stage,
                           lcc_restrict=self.lcc_restrict)
        self._cached = res
        self._epoch = dyn.epoch
        self.stats["recomputes"] += 1
        for key in ("supersteps", "edges_scanned", "pivots"):
            self.stats[key] += getattr(res, key)
        return res
