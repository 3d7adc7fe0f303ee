"""Persistent analytics-serving engine over a resident SPMD rank world.

The paper's headline cost asymmetry (§III-A) is that graph *construction*
— ingest, ``alltoallv`` redistribution, CSR conversion, ghost relabeling —
dominates end-to-end time, yet ``run_spmd``-per-query pays it on every
call.  :class:`AnalyticsEngine` inverts that: it starts a persistent rank
**session** once (worker threads on the default backend, spawned worker
processes under ``backend="procs"`` — see :mod:`repro.runtime.backends`),
each rank builds (or checkpoint-loads) its :class:`~repro.graph.DistGraph`
shard **once** into its resident per-rank state, and every subsequent
query is dispatched to the already-resident shards, so its cost is the
analytic alone.

Because a process-backed rank cannot receive a closure, jobs ship as *fn
specs* — ``(module, factory, payload)`` with a module-level factory and a
picklable payload — which the session resolves on the worker side.  The
factories in this module are exactly those specs.

Failure isolation is the key serving property: workers and graph shards
are long-lived, but *collectives* run over a *per-job* world.  When a
rank raises mid-job, it aborts that job's world; peer ranks unblock with
``RankAborted`` at their next collective, every rank reports back to the
driver, and the workers return to their command queues with shards
intact.  (An aborted world is permanently poisoned, which is why each job
gets a fresh one.)

Query flow::

    submit() ── cache hit? ──> finish immediately
        └─ no ─> JobScheduler (admission control + queued batch-mates)
                     └─> dispatcher thread ─> backend session
                             └─> batched/single analytic over the shards
                                     └─> result split per job, cached

Three query classes are batchable: pending BFS sources and closeness
vertices each coalesce into one
:func:`~repro.analytics.bfs.multi_source_bfs` run, personalized-PageRank
seeds into one blocked sweep (:mod:`repro.analytics.batched`); identical
queries that share a batch are computed once and fanned out.
"""

from __future__ import annotations

import hashlib
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ..analytics import (
    batched_closeness,
    batched_personalized_pagerank,
    multi_source_bfs,
    pagerank,
    triangle_count,
    wcc,
)
from ..graph import build_dist_graph
from ..partition import (
    EdgeBlockPartition,
    RandomHashPartition,
    VertexBlockPartition,
)
from ..runtime import LAND, Communicator, RankAborted
from ..runtime.backends import get_backend
from .cache import ResultCache, cache_key
from .scheduler import AdmissionError, Job, JobScheduler

__all__ = [
    "AnalyticsEngine",
    "AdmissionError",
    "EngineClosedError",
    "JobFailedError",
    "JobTimeoutError",
    "SnapshotUnavailableError",
    "SERVING_KINDS",
]


class EngineClosedError(RuntimeError):
    """The engine has been shut down; no further queries are accepted."""


class SnapshotUnavailableError(RuntimeError):
    """A query named an epoch that is neither current nor pinned."""


class JobFailedError(RuntimeError):
    """A job raised inside the rank world; the engine itself survived."""


class JobTimeoutError(JobFailedError):
    """A job exceeded its timeout and was aborted."""


# ---------------------------------------------------------------------------
# analytic registry
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class _KindSpec:
    """How the engine runs, batches, and caches one analytic kind."""

    name: str
    # Module-level factory (in this module) resolved worker-side:
    # ``factory(payload) -> fn(comm, state)``.
    factory: str
    # Build the picklable payload shipped to the factory from one batch.
    payload: Callable[[list[Job]], Any]
    # Split rank-0's payload into one result per job (index-aligned).
    split: Callable[[list[Job], Any], list[Any]]
    # Params (beyond the per-job source) that must match for coalescing;
    # None means the kind is never batched.
    batch_params: tuple[str, ...] | None = None
    cacheable: bool = True


def _assemble_by_gid(comm: Communicator, g, local_values: np.ndarray,
                     fill=0) -> np.ndarray | None:
    """Gather per-local-vertex values into global-id order on rank 0.

    Only the values travel: rank r's block holds its owned vertices in
    the partition's ``owned_gids(r)`` order, so rank 0 places every block
    by the concatenated owned lists, cached in ``g.derived``.
    """
    local_values = np.ascontiguousarray(local_values)
    vals = comm.gatherv(local_values)
    if comm.rank != 0:
        return None
    order = g.derived.get("owned_gids")
    if order is None:
        order = g.derived["owned_gids"] = np.concatenate(
            [g.partition.owned_gids(r) for r in range(comm.size)])
    val_data, _ = vals
    shape = (g.n_global,) + local_values.shape[1:]
    out = np.full(shape, fill, dtype=local_values.dtype)
    out[order] = val_data.reshape((-1,) + local_values.shape[1:])
    return out


def _make_pagerank(p: dict):
    def fn(comm, state):
        g = state["graph"]
        res = pagerank(comm, g, damping=p.get("damping", 0.85),
                       max_iters=p.get("max_iters", 20),
                       tol=p.get("tol"))
        scores = _assemble_by_gid(comm, g, res.scores, fill=0.0)
        if comm.rank:
            return None
        return {"scores": scores, "n_iters": res.n_iters,
                "final_delta": res.final_delta}

    return fn


def _make_wcc(_p):
    def fn(comm, state):
        g = state["graph"]
        res = wcc(comm, g)
        labels = _assemble_by_gid(comm, g, res.labels, fill=-1)
        if comm.rank:
            return None
        giant = int((labels == res.giant_label).sum()) if len(labels) else 0
        return {"labels": labels, "giant_label": int(res.giant_label),
                "giant_size": giant,
                "n_components": int(len(np.unique(labels))) if len(labels) else 0}

    return fn


def _make_triangles(_p):
    def fn(comm, state):
        g = state["graph"]
        res = triangle_count(comm, g)
        if comm.rank:
            return None
        return {"total": int(res.total),
                "global_clustering": float(res.global_clustering)}

    return fn


def _make_bfs(p: dict):
    sources = np.asarray(p["sources"], dtype=np.int64)
    direction = p["direction"]

    def fn(comm, state):
        g = state["graph"]
        levels = multi_source_bfs(comm, g, sources, direction=direction)
        full = _assemble_by_gid(comm, g, levels, fill=-2)
        if comm.rank:
            return None
        return full  # (n_global, k)

    return fn


def _bfs_split(jobs: list[Job], payload: np.ndarray) -> list[Any]:
    out = []
    for j, job in enumerate(jobs):
        col = payload[:, j].copy()
        out.append({"source": int(job.params["source"]),
                    "levels": col, "reached": int((col >= 0).sum()),
                    "max_level": int(col.max()) if (col >= 0).any() else -1})
    return out


def _make_closeness(p: dict):
    vertices = np.asarray(p["vertices"], dtype=np.int64)

    def fn(comm, state):
        g = state["graph"]
        results = batched_closeness(comm, g, vertices)
        if comm.rank:
            return None
        return results

    return fn


def _closeness_split(jobs: list[Job], payload: list) -> list[Any]:
    return [{"vertex": r.vertex, "score": r.score,
             "score_unscaled": r.score_unscaled,
             "n_reaching": r.n_reaching,
             "total_distance": r.total_distance}
            for r in payload]


def _make_ppr(p: dict):
    seeds = np.asarray(p["seeds"], dtype=np.int64)

    def fn(comm, state):
        g = state["graph"]
        res = batched_personalized_pagerank(
            comm, g, seeds, damping=p.get("damping", 0.85),
            max_iters=p.get("max_iters", 50), tol=p.get("tol", 1e-10))
        full = _assemble_by_gid(comm, g, res.scores, fill=0.0)
        if comm.rank:
            return None
        return {"scores": full, "n_iters": res.n_iters,
                "deltas": res.final_deltas}

    return fn


def _ppr_split(jobs: list[Job], payload: dict) -> list[Any]:
    return [{"seed": int(job.params["seed"]),
             "scores": payload["scores"][:, j].copy(),
             "n_iters": payload["n_iters"],
             "final_delta": float(payload["deltas"][j])}
            for j, job in enumerate(jobs)]


def _ensure_dyn(comm, state):
    """Promote the resident shard to a dynamic graph (idempotent) and
    bind it to this job's ``comm``.

    Promotion sorts the base adjacency in place, so it must happen
    *before* anything captures ``state["graph"]`` as a stable snapshot —
    which is why snapshot pins promote eagerly instead of waiting for
    the first update batch.  After promotion ``state["graph"]`` always
    holds the dynamic graph's epoch-tagged immutable materialized view.
    Every job runs on a fresh world, so the delta graph is rebound on
    each call: its collectives land in the job's own trace, and the
    job's abort or timeout can unblock them.
    """
    from ..stream import DynamicDistGraph

    dyn = state.get("dyn")
    if dyn is None:
        dyn = DynamicDistGraph(comm, state["graph"])
        state["dyn"] = dyn
        state["graph"] = dyn.view()
    dyn.comm = comm
    return dyn


def _make_snapshot_pin(_p):
    """Pin the current epoch on every rank and retain its view.

    The retained view is the MVCC snapshot: an immutable
    :class:`~repro.graph.DistGraph` whose arrays survive later applies
    (overlays copy-on-merge) because the pin also blocks compaction —
    the only operation that would reassign the local-id space the view
    indexes.  Pins are reference-counted per epoch.
    """

    def fn(comm, state):
        with comm.region("engine.snapshot_pin"):
            dyn = _ensure_dyn(comm, state)
            epoch = dyn.pin_epoch()
            snaps = state.setdefault("snapshots", {})
            if epoch not in snaps:
                snaps[epoch] = dyn.view()
            if comm.rank:
                return None
            return int(epoch)

    return fn


def _make_snapshot_release(p: dict):
    epoch = int(p["epoch"])

    def fn(comm, state):
        dyn = state.get("dyn")
        snaps = state.get("snapshots", {})
        if dyn is None or epoch not in snaps:
            raise SnapshotUnavailableError(
                f"epoch {epoch} is not pinned on this replica")
        dyn.release_epoch(epoch)
        drop = epoch not in dyn.pinned_epochs()
        if drop:
            del snaps[epoch]
        if comm.rank:
            return None
        return {"epoch": epoch, "dropped": drop}

    return fn


def _make_at_epoch(p: dict):
    """Wrap another kind's factory to run it against a pinned snapshot.

    The inner analytic sees a shallow-copied rank state whose
    ``"graph"`` is the pinned epoch's materialized view (or the live
    graph when the epoch is still current), so every query kind gains
    ``at_epoch=`` without snapshot-specific code.
    """
    inner = globals()[p["factory"]](p["payload"])
    epoch = int(p["epoch"])

    def fn(comm, state):
        dyn = state.get("dyn")
        current = dyn.epoch if dyn is not None else 0
        if epoch == current:
            return inner(comm, state)
        g = state.get("snapshots", {}).get(epoch)
        if g is None:
            raise SnapshotUnavailableError(
                f"epoch {epoch} is neither current ({current}) nor pinned")
        shadow = dict(state)
        shadow["graph"] = g
        return inner(comm, shadow)

    return fn


def _make_stream_apply(p: dict):
    """Apply one edge-update batch to the resident graph (collective).

    The first applied batch promotes the resident shards to a
    :class:`~repro.stream.DynamicDistGraph`; afterwards ``state["graph"]``
    always holds the dynamic graph's epoch-tagged immutable snapshot
    (:meth:`~repro.stream.DynamicDistGraph.view`), so every query kind
    keeps serving unchanged while updates stream in between jobs.
    """

    def fn(comm, state):
        from ..stream import UpdateBatch

        with comm.region("engine.stream_apply"):
            dyn = _ensure_dyn(comm, state)
            sl = np.array_split(np.arange(len(p["src"])), comm.size)[comm.rank]
            batch = UpdateBatch(
                p["src"][sl], p["dst"][sl], p["op"][sl],
                p["values"][sl] if p["values"] is not None else None)
            res = dyn.apply(batch)
            state["graph"] = dyn.view()
            rec = dyn.journal_since(res.epoch - 1)[0]
            touched = bool(len(rec.out_rows) or len(rec.in_rows))
            affected = comm.allgather(touched)
            if comm.rank:
                return None
            crc = zlib.crc32(p["src"].tobytes())
            crc = zlib.crc32(p["dst"].tobytes(), crc)
            crc = zlib.crc32(p["op"].tobytes(), crc)
            if p["values"] is not None:
                crc = zlib.crc32(p["values"].tobytes(), crc)
            return {
                "epoch": res.epoch,
                "n_inserted": res.n_inserted,
                "n_deleted": res.n_deleted,
                "n_missing": res.n_missing,
                "ghosts_changed": res.ghosts_changed,
                "compacted": res.compacted,
                "compaction_deferred": res.compaction_deferred,
                "m_global": res.m_global,
                "affected_ranks": [r for r, a in enumerate(affected) if a],
                "batch_crc": crc,
            }

    return fn


def _make_debug_fail(p: dict):
    fail_rank = int(p.get("fail_rank", 0))

    def fn(comm, state):
        comm.barrier()
        if comm.rank == fail_rank:
            # Divergence is the whole point of this debug analytic: it
            # exercises the engine's abort/recovery path.
            raise RuntimeError("injected failure (debug)")  # spmdlint: disable=SPMD002
        comm.barrier()  # peers block here until the abort unblocks them
        return None

    return fn


def _make_debug_sleep(p: dict):
    seconds = float(p.get("seconds", 1.0))

    def fn(comm, state):
        # Sleep in barrier-punctuated slices so a timeout abort lands fast.
        for _ in range(max(1, int(seconds / 0.05))):
            time.sleep(0.05)
            comm.barrier()
        return None

    return fn


def _single_split(jobs: list[Job], payload: Any) -> list[Any]:
    return [payload]


def _first_params(jobs: list[Job]) -> dict:
    return dict(jobs[0].params)


_KINDS: dict[str, _KindSpec] = {
    "pagerank": _KindSpec("pagerank", "_make_pagerank", _first_params,
                          _single_split),
    "wcc": _KindSpec("wcc", "_make_wcc", lambda jobs: None, _single_split),
    "triangles": _KindSpec("triangles", "_make_triangles", lambda jobs: None,
                           _single_split),
    "bfs": _KindSpec(
        "bfs", "_make_bfs",
        lambda jobs: {
            "sources": [int(j.params["source"]) for j in jobs],
            "direction": jobs[0].params.get("direction", "out")},
        _bfs_split, batch_params=("direction",)),
    "closeness": _KindSpec(
        "closeness", "_make_closeness",
        lambda jobs: {"vertices": [int(j.params["vertex"]) for j in jobs]},
        _closeness_split, batch_params=()),
    "ppr": _KindSpec(
        "ppr", "_make_ppr",
        lambda jobs: {"seeds": [int(j.params["seed"]) for j in jobs],
                      **{k: jobs[0].params[k] for k in
                         ("damping", "max_iters", "tol")
                         if k in jobs[0].params}},
        _ppr_split, batch_params=("damping", "max_iters", "tol")),
    # Streaming mutation (serialized with queries by the dispatcher; not
    # a served analytic, hence the underscore).
    "_stream_apply": _KindSpec("_stream_apply", "_make_stream_apply",
                               _first_params, _single_split,
                               cacheable=False),
    # MVCC snapshot control (serialized with queries and updates by the
    # dispatcher, so a pin captures a well-defined epoch).
    "_snapshot_pin": _KindSpec("_snapshot_pin", "_make_snapshot_pin",
                               lambda jobs: None, _single_split,
                               cacheable=False),
    "_snapshot_release": _KindSpec("_snapshot_release",
                                   "_make_snapshot_release",
                                   _first_params, _single_split,
                                   cacheable=False),
    # Test/ops hooks: deliberately failing and slow jobs.
    "_debug_fail": _KindSpec("_debug_fail", "_make_debug_fail",
                             _first_params, _single_split, cacheable=False),
    "_debug_sleep": _KindSpec("_debug_sleep", "_make_debug_sleep",
                              _first_params, _single_split, cacheable=False),
}

#: Publicly served analytic kinds (debug hooks excluded).
SERVING_KINDS = tuple(k for k in _KINDS if not k.startswith("_"))


# ---------------------------------------------------------------------------
# graph construction (worker-side)
# ---------------------------------------------------------------------------
def _make_build(cfg: dict):
    """Build (or checkpoint-load) the resident shard into rank state."""
    edges = cfg["edges"]
    n = cfg["n"]
    path = cfg["path"]
    width = cfg["width"]
    kind = cfg["kind"]
    seed = cfg["seed"]
    ckpt = Path(cfg["checkpoint"]) if cfg["checkpoint"] is not None else None
    save = Path(cfg["save_checkpoint"]) \
        if cfg["save_checkpoint"] is not None else None

    def build(comm: Communicator, state: dict):
        with comm.region("engine.build"):
            if edges is not None:
                chunk = np.array_split(edges, comm.size)[comm.rank]
                n_glob = n
            else:
                from ..io import count_edges, read_edge_range, striped_read

                m = count_edges(path, width=width)
                n_glob = 0
                for lo in range(0, m, 1 << 20):
                    c = read_edge_range(path, lo, min(1 << 20, m - lo),
                                        width=width)
                    n_glob = max(n_glob,
                                 int(c.max()) + 1 if len(c) else 0)
                chunk, _ = striped_read(comm, path, width=width)
            if kind == "vblock":
                part = VertexBlockPartition(n_glob, comm.size)
            elif kind == "eblock":
                part = EdgeBlockPartition.from_edge_chunks(
                    comm, chunk[:, 0], n_glob)
            else:
                part = RandomHashPartition(n_glob, comm.size, seed=seed)

            loaded = False
            if ckpt is not None:
                from ..io.checkpoint import load_graph

                have = (ckpt / f"rank{comm.rank:05d}.npz").exists()
                if comm.allreduce(have, LAND):
                    g = load_graph(comm, ckpt, part)
                    loaded = True
            if not loaded:
                g = build_dist_graph(comm, chunk, part)
                if save is not None:
                    from ..io.checkpoint import save_graph

                    save_graph(comm, g, save)
            state["graph"] = g

            # Content fingerprint: per-rank CRCs of the local structure,
            # gathered and hashed on rank 0 (keys every cache entry).
            crc = zlib.crc32(g.out_edges.tobytes())
            crc = zlib.crc32(g.unmap.tobytes(), crc)
            crcs = comm.gather(crc, root=0)
            if comm.rank:
                return None
            h = hashlib.sha1(
                f"{g.n_global}:{g.m_global}:{kind}:{comm.size}:"
                f"{crcs}".encode()).hexdigest()[:16]
            return (g.n_global, g.m_global, h,
                    "checkpoint" if loaded else "build")

    return build


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------
class AnalyticsEngine:
    """Long-lived analytics server over one resident distributed graph.

    Parameters
    ----------
    nranks:
        SPMD world size (persistent workers).
    edges, n:
        In-memory edge list ``(m, 2)`` and vertex count; each rank builds
        from a contiguous slice.  Mutually exclusive with ``path``.
    path, width:
        Binary edge file ingested through the striped reader.
    partition:
        ``"vblock"``, ``"eblock"`` or ``"rand"`` — as in the CLI.
    checkpoint:
        Directory to load the graph from (skips construction) when it
        contains a matching checkpoint; otherwise the graph is built from
        the input source.
    save_checkpoint:
        Directory to write the freshly built graph to (for later reloads).
    max_pending, max_batch:
        Scheduler admission bound and cap on jobs coalesced into one run
        (dispatch is work-conserving: a batch is the head job plus what is
        already queued behind it — there is no linger to configure).
    cache_capacity:
        LRU result-cache capacity (0 disables caching).
    default_timeout:
        Per-job timeout in seconds when a submission does not set one.
    verify:
        Enable the runtime collective-schedule verifier on every per-job
        world (``None`` defers to ``REPRO_VERIFY_COLLECTIVES``).
    sanitize:
        Enable the buffer-ownership sanitizer on every per-job world
        (``None`` defers to ``REPRO_SANITIZE_BUFFERS``).  Borrowed
        collective payloads become read-only and cross-rank writes raise
        :class:`~repro.runtime.BufferRaceError` instead of corrupting a
        peer's query mid-flight.
    backend:
        Rank runtime for the persistent session: ``"threads"`` (default)
        or ``"procs"`` (spawned worker processes holding their shards in
        private memory — real parallelism for pure-Python phases).
        ``None`` defers to ``REPRO_BACKEND``.
    """

    def __init__(
        self,
        nranks: int,
        *,
        edges: np.ndarray | None = None,
        n: int | None = None,
        path: str | Path | None = None,
        width: int = 32,
        partition: str = "vblock",
        seed: int = 7,
        checkpoint: str | Path | None = None,
        save_checkpoint: str | Path | None = None,
        max_pending: int = 64,
        max_batch: int = 16,
        cache_capacity: int = 128,
        default_timeout: float | None = 60.0,
        build_timeout: float | None = 300.0,
        verify: bool | None = None,
        sanitize: bool | None = None,
        backend: str | None = None,
    ):
        if nranks < 1:
            raise ValueError("nranks must be >= 1")
        if (edges is None) == (path is None):
            raise ValueError("provide exactly one of edges= or path=")
        if edges is not None and n is None:
            raise ValueError("n= is required with edges=")
        if partition not in ("vblock", "eblock", "rand"):
            raise ValueError(f"unknown partition kind {partition!r}")
        self.nranks = nranks
        self.partition_kind = partition
        self.default_timeout = default_timeout
        # Collective-schedule verification for every per-job world (None
        # defers to REPRO_VERIFY_COLLECTIVES).  Long-lived engines are the
        # main beneficiary: a divergent query raises instead of poisoning
        # the resident world.
        self.verify = verify
        # Buffer-ownership sanitizing for every per-job world (None defers
        # to REPRO_SANITIZE_BUFFERS); see repro.runtime.sanitize.
        self.sanitize = sanitize
        self._closed = False
        self._lock = threading.Lock()
        self._t_start = time.perf_counter()

        self.cache = ResultCache(cache_capacity)
        self.scheduler = JobScheduler(max_pending=max_pending,
                                      max_batch=max_batch)
        self._jobs: dict[int, Job] = {}
        self._next_id = 0
        self._counters = {
            "submitted": 0, "completed": 0, "failed": 0, "cache_hits": 0,
            "batches": 0, "batched_jobs": 0, "max_batch_size": 0,
            # Identical queries that shared a batch and rode one column.
            "deduped": 0,
            # Misses only: seconds dispatched jobs sat queued (summed per
            # job) and seconds their batches held the dispatcher (summed
            # per batch).
            "queue_wait_s": 0.0, "exec_s": 0.0,
        }
        self._comm_totals = {
            "bytes_sent": 0, "bytes_recv": 0, "msg_count": 0,
            "n_collectives": 0, "compute_s": 0.0, "idle_s": 0.0,
            "comm_s": 0.0,
        }

        # Persistent rank session on the selected runtime backend.
        runtime = get_backend(backend)
        self.backend = runtime.name
        self._session = runtime.start_session(nranks, verify=verify,
                                              sanitize=sanitize)

        # Build (or load) the resident graph exactly once.
        cfg = {
            "edges": edges, "n": n,
            "path": None if path is None else str(path), "width": width,
            "kind": partition, "seed": seed,
            "checkpoint": None if checkpoint is None else str(checkpoint),
            "save_checkpoint":
                None if save_checkpoint is None else str(save_checkpoint),
        }
        results, errors = self._run_collective("_make_build", cfg,
                                               build_timeout)
        if errors:
            self.shutdown()
            raise JobFailedError("graph construction failed") \
                from _first_error(errors)
        self.n_global, self.m_global, self.fingerprint, self.built_from = \
            results[0]
        # Streaming-update state: the resident graph's epoch (0 = the
        # as-built graph) and ingest counters surfaced by status().
        self.epoch = 0
        self._stream = {
            "batches_applied": 0, "edges_inserted": 0, "edges_deleted": 0,
            "missing_deletes": 0, "compactions": 0,
            "compactions_deferred": 0, "ghost_rebuilds": 0,
            "cache_invalidated": 0,
        }
        # MVCC snapshots: driver-side pin counts per epoch, and the graph
        # fingerprint each epoch had (cache keys for at_epoch= queries).
        self._snapshots: dict[int, int] = {}
        self._epoch_fps: dict[int, str] = {0: self.fingerprint}

        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="engine-dispatch", daemon=True)
        self._dispatcher.start()

    # ------------------------------------------------------------------
    # dispatch plumbing
    # ------------------------------------------------------------------
    def _run_collective(self, factory: str, payload: Any,
                        timeout: float | None
                        ) -> tuple[list[Any], dict[int, BaseException]]:
        """Run one fn spec once per rank over the persistent session."""
        run = self._session.run((__name__, factory, payload), timeout)
        for s in run.summaries:
            if s:
                for key in self._comm_totals:
                    self._comm_totals[key] += s[key]
        errors = dict(run.errors)
        if run.timed_out:
            errors[-1] = JobTimeoutError(
                f"job exceeded its {timeout}s timeout")
        return run.results, errors

    def _dispatch_loop(self) -> None:
        while not self._closed:
            # Blocks until there is work (and dispatch is not paused) or
            # shutdown() closes the scheduler: an idle engine never polls.
            batch = self.scheduler.next_batch(poll_timeout=None)
            if not batch:
                continue
            try:
                self._execute_batch(batch)
            except Exception as exc:  # pragma: no cover - defensive
                for job in batch:
                    job.finish(error=JobFailedError(
                        f"dispatch error: {exc}"))

    def _fp_for(self, params: dict) -> str:
        """Graph fingerprint keying one query's cache entries.

        ``at_epoch=`` queries key on the fingerprint the graph had at
        that epoch, so a pinned-snapshot result can never be confused
        with (or shadow) the live graph's result for the same params.
        """
        at_epoch = params.get("at_epoch")
        if at_epoch is None:
            return self.fingerprint
        with self._lock:
            fp = self._epoch_fps.get(int(at_epoch))
        return fp if fp is not None else f"epoch{at_epoch}?"

    def _execute_batch(self, batch: list[Job]) -> None:
        spec = _KINDS[batch[0].kind]
        now = time.perf_counter()
        # One group per distinct query: identical cacheable jobs that share
        # a batch ride one column and the result is fanned out.
        groups: dict[Any, list[Job]] = {}
        for job in batch:
            job.dispatched_at = now
            if not spec.cacheable:
                groups[job.id] = [job]
                continue
            # Re-check the cache at dispatch time: an identical query may
            # have completed between this job's submission and now (burst
            # submissions of duplicates would otherwise all miss).
            key = cache_key(self._fp_for(job.params), job.kind, job.params)
            hit, value = self.cache.get(key)
            if hit:
                with self._lock:
                    self._counters["cache_hits"] += 1
                    self._counters["completed"] += 1
                job.cached = True
                job.finish(result=value)
            else:
                groups.setdefault(key, []).append(job)
        ran = [job for job in batch if not job.cached]
        if not ran:
            return
        leaders = [jobs[0] for jobs in groups.values()]
        timeouts = [j.timeout if j.timeout is not None
                    else self.default_timeout for j in ran]
        timeout = None if any(t is None for t in timeouts) else max(timeouts)
        factory = spec.factory
        payload = spec.payload(leaders)
        at_epoch = leaders[0].params.get("at_epoch")
        if at_epoch is not None:
            # Redirect the whole batch at a pinned epoch's snapshot (the
            # batch key includes at_epoch, so a batch is epoch-uniform).
            factory = "_make_at_epoch"
            payload = {"factory": spec.factory, "payload": payload,
                       "epoch": int(at_epoch)}
        results, errors = self._run_collective(factory, payload, timeout)
        with self._lock:
            c = self._counters
            c["batches"] += 1
            c["max_batch_size"] = max(c["max_batch_size"], len(ran))
            if len(ran) > 1:
                c["batched_jobs"] += len(ran)
            c["deduped"] += len(ran) - len(leaders)
            c["queue_wait_s"] += sum(now - j.submitted_at for j in ran)
            c["exec_s"] += time.perf_counter() - now
            c["failed" if errors else "completed"] += len(ran)
        if errors:
            cause = errors.get(-1) or _first_error(errors)
            for job in ran:
                if isinstance(cause, JobTimeoutError):
                    err: JobFailedError = cause
                else:
                    err = JobFailedError(
                        f"job {job.id} ({job.kind}) failed: "
                        f"{type(cause).__name__}: {cause}")
                    err.__cause__ = cause
                job.finish(error=err)
            return
        per_leader = spec.split(leaders, results[0])
        for (key, jobs), res in zip(groups.items(), per_leader):
            if spec.name == "_stream_apply":
                self._note_stream_apply(res)
            if spec.cacheable:
                # Tag with the partition ranks the result depends on (all
                # of them, for today's global kinds), so streaming updates
                # can invalidate by affected partition.
                self.cache.put(
                    key, res,
                    tags=tuple(("part", r) for r in range(self.nranks)))
            for job in jobs:
                job.finish(result=res)

    def _note_stream_apply(self, res: dict) -> None:
        """Driver-side bookkeeping after one applied update batch.

        Runs on the dispatcher thread (serialized with every query), so
        fingerprint evolution and cache invalidation are atomic w.r.t.
        dispatch-time cache fills.  A batch with no effective mutation
        (empty, or all deletes missing) leaves fingerprint and cache
        untouched — still-valid entries keep serving.
        """
        effective = res["n_inserted"] or res["n_deleted"]
        with self._lock:
            self._stream["batches_applied"] += 1
            self._stream["edges_inserted"] += res["n_inserted"]
            self._stream["edges_deleted"] += res["n_deleted"]
            self._stream["missing_deletes"] += res["n_missing"]
            self._stream["compactions"] += int(res["compacted"])
            self._stream["compactions_deferred"] += int(
                res.get("compaction_deferred", False))
            self._stream["ghost_rebuilds"] += int(res["ghosts_changed"])
            self.epoch = res["epoch"]
            if effective:
                self.m_global = res["m_global"]
                self.fingerprint = hashlib.sha1(
                    f"{self.fingerprint}:{res['epoch']}:"
                    f"{res['batch_crc']}".encode()).hexdigest()[:16]
            # Track each epoch's fingerprint for at_epoch cache keys;
            # drop stale unpinned entries.
            self._epoch_fps[res["epoch"]] = self.fingerprint
            for e in [e for e in self._epoch_fps
                      if e < res["epoch"] - 8 and e not in self._snapshots]:
                del self._epoch_fps[e]
        if effective:
            n_inv = self.cache.invalidate(
                ("part", r) for r in res["affected_ranks"])
            with self._lock:
                self._stream["cache_invalidated"] += n_inv

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def submit(self, kind: str, *, timeout: float | None = None,
               **params: Any) -> int:
        """Queue one query; returns a job id for :meth:`result`.

        Raises
        ------
        AdmissionError
            When the pending queue is at its admission bound.
        EngineClosedError
            After :meth:`shutdown`.
        """
        if self._closed:
            raise EngineClosedError("engine has been shut down")
        spec = _KINDS.get(kind)
        if spec is None:
            raise ValueError(
                f"unknown analytic kind {kind!r}; serving {SERVING_KINDS}")
        at_epoch = params.get("at_epoch")
        if at_epoch is not None:
            at_epoch = int(at_epoch)
            params["at_epoch"] = at_epoch
            with self._lock:
                known = at_epoch == self.epoch or at_epoch in self._snapshots
            if not known:
                raise SnapshotUnavailableError(
                    f"epoch {at_epoch} is neither current ({self.epoch}) "
                    "nor pinned; pin_snapshot() first")
        with self._lock:
            job_id = self._next_id
            self._next_id += 1
            self._counters["submitted"] += 1
        batch_key = None
        if spec.batch_params is not None:
            # at_epoch joins the key so queries against different pinned
            # snapshots never coalesce into one multi-source run.
            batch_key = (kind, ("at_epoch", at_epoch)) + tuple(
                (p, params.get(p)) for p in spec.batch_params)
        job = Job(id=job_id, kind=kind, params=dict(params),
                  batch_key=batch_key, timeout=timeout)
        if spec.cacheable:
            hit, value = self.cache.get(
                cache_key(self._fp_for(params), kind, params))
            if hit:
                with self._lock:
                    self._counters["cache_hits"] += 1
                    self._counters["completed"] += 1
                job.cached = True
                job.finish(result=value)
                self._jobs[job_id] = job
                return job_id
        try:
            self._jobs[job_id] = job
            self.scheduler.submit(job)
        except AdmissionError:
            with self._lock:
                self._counters["submitted"] -= 1
            del self._jobs[job_id]
            raise
        return job_id

    def result(self, job_id: int, timeout: float | None = None) -> Any:
        """Block for a job's result (pops it); raises its failure if any."""
        job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown or already-retrieved job {job_id}")
        if not job.done.wait(timeout):
            raise TimeoutError(f"job {job_id} still pending after {timeout}s")
        del self._jobs[job_id]
        if job.error is not None:
            raise job.error
        return job.result

    def job(self, job_id: int) -> Job:
        """Peek at a job's state without consuming it."""
        return self._jobs[job_id]

    def query(self, kind: str, *, timeout: float | None = None,
              **params: Any) -> Any:
        """Synchronous convenience: :meth:`submit` + :meth:`result`."""
        return self.result(self.submit(kind, timeout=timeout, **params))

    def apply_updates(self, src, dst, op=None, values=None, *,
                      timeout: float | None = None) -> dict:
        """Apply one batch of edge updates to the resident graph.

        Blocks until the batch is integrated and returns the global
        outcome (epoch, effective insert/delete/missing counts,
        compaction).  The mutation is dispatched through the job
        scheduler, so it is serialized with in-flight queries: queries
        submitted before it see the previous epoch's snapshot, queries
        after it see the new one.  On any effective change the engine
        evolves its graph fingerprint (re-keying every later cache entry)
        and invalidates cached results for the affected partitions.

        Parameters
        ----------
        src, dst:
            Global endpoint ids, one per update.
        op:
            ``+1`` insert / ``-1`` delete per update; all inserts when
            omitted.
        values:
            Optional per-insert edge weight (weighted graphs only).
        """
        src = np.ascontiguousarray(src, dtype=np.int64).reshape(-1)
        dst = np.ascontiguousarray(dst, dtype=np.int64).reshape(-1)
        if op is None:
            op = np.ones(len(src), dtype=np.int64)
        else:
            op = np.ascontiguousarray(op, dtype=np.int64).reshape(-1)
        if values is not None:
            values = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
        return self.result(self.submit(
            "_stream_apply", timeout=timeout,
            src=src, dst=dst, op=op, values=values))

    def pin_snapshot(self, *, timeout: float | None = None) -> int:
        """Pin the current epoch for MVCC reads; returns the epoch.

        The pin is dispatched through the scheduler, so it captures a
        well-defined epoch (serialized with updates).  Until released,
        the epoch's materialized view is retained on every rank,
        compaction is deferred, and any query may name it via
        ``at_epoch=``.  Pins are reference-counted.
        """
        epoch = self.result(self.submit("_snapshot_pin", timeout=timeout))
        with self._lock:
            self._snapshots[epoch] = self._snapshots.get(epoch, 0) + 1
            self._epoch_fps.setdefault(epoch, self.fingerprint)
        return epoch

    def release_snapshot(self, epoch: int, *,
                         timeout: float | None = None) -> dict:
        """Release one reference to a pinned epoch."""
        epoch = int(epoch)
        with self._lock:
            if self._snapshots.get(epoch, 0) <= 0:
                raise SnapshotUnavailableError(
                    f"epoch {epoch} is not pinned")
        res = self.result(self.submit("_snapshot_release", timeout=timeout,
                                      epoch=epoch))
        with self._lock:
            if self._snapshots.get(epoch, 0) <= 1:
                self._snapshots.pop(epoch, None)
            else:
                self._snapshots[epoch] -= 1
        return res

    # ------------------------------------------------------------------
    def pause(self) -> None:
        """Stop dispatching: queued jobs accumulate, so the caller builds a
        batch by hand.  A job already handed to the world finishes."""
        self.scheduler.pause()

    def resume(self) -> None:
        """Dispatch again, at once (the dispatcher is woken, not polled)."""
        self.scheduler.resume()

    def status(self) -> dict[str, Any]:
        """Machine-readable serving status (counters, cache, comm stats)."""
        with self._lock:
            counters = dict(self._counters)
            comm = dict(self._comm_totals)
            stream = dict(self._stream)
            snapshots = dict(self._snapshots)
        return {
            "snapshots": {"pinned": snapshots,
                          "epochs_tracked": len(self._epoch_fps)},
            "nranks": self.nranks,
            "backend": self.backend,
            "n_global": self.n_global,
            "m_global": self.m_global,
            "partition": self.partition_kind,
            "fingerprint": self.fingerprint,
            "built_from": self.built_from,
            "epoch": self.epoch,
            "stream": stream,
            "uptime_s": time.perf_counter() - self._t_start,
            "pending": self.scheduler.pending(),
            "max_pending": self.scheduler.max_pending,
            "jobs": counters,
            "cache": self.cache.stats(),
            "comm": comm,
        }

    def shutdown(self) -> None:
        """Drain the queue, fail pending jobs, and stop the session."""
        if self._closed:
            return
        self._closed = True
        self.scheduler.close()
        for job in self.scheduler.drain():
            job.finish(error=EngineClosedError("engine shut down"))
        if hasattr(self, "_dispatcher"):
            self._dispatcher.join(timeout=10.0)
        self._session.close()

    def __enter__(self) -> "AnalyticsEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def _first_error(errors: dict[int, BaseException]) -> BaseException:
    real = {r: e for r, e in errors.items()
            if not isinstance(e, RankAborted)}
    chosen = real or errors
    return chosen[min(chosen)]
