"""``stream_churn``: writes beside reads on the same CSR.

A web-crawl graph is resident in a :class:`DynamicDistGraph`; every epoch
applies one update batch and refreshes incremental PageRank, WCC and
k-core, and every tenth epoch a static BFS reads the materialized view.
The update schedule (batches, windows, deletes) is generated from the seed
before anything is timed.
"""

from __future__ import annotations

import time

import numpy as np

from batch import SETUP_REPEATS, RankPass
from harness import (
    BACKEND, DATASET_SEED, NRANKS, Outcome, Tracer, base_manifest, bind_rank,
    child_rng, edge_digest, fold_ranks, median, peak_rss_mb, pctl, runtime_metrics,
    shuffled, tail_percentile,
)
from repro import run_spmd
from repro.analytics import approx_kcore, distributed_bfs, pagerank, wcc
from repro.generators import webcrawl_edges
from repro.graph import build_dist_graph
from repro.partition import VertexBlockPartition
from repro.stream import (
    DynamicDistGraph, IncrementalKCore, IncrementalPageRank, IncrementalWCC,
    UpdateBatch,
)

# Frozen sizes (see README "Sizing"): one epoch costs 0.15 to 0.2 s here.
STREAM_N = 5_000
STREAM_DEGREE = 16
EPOCHS_PER_SECOND = 20 / 3
BATCH = 1_000
DELETE_FRAC = 0.25
SCATTER_EVERY = 5  # every fifth epoch is scattered: 80 % clustered
WINDOW = 512  # vertex-id window (a few adjacent hosts) of a clustered epoch
VIEW_READ_EVERY = 10
PR_ITERS = 10
STEPS = ("stream.apply", "stream.pagerank_refresh", "stream.wcc_refresh",
         "stream.kcore_refresh")


def make_schedule(seed: int, edges: np.ndarray, n: int, epochs: int):
    """Update batches and the edge multiset left after the last one.

    Deletes name stored base edges, each at most once, so none can miss;
    a clustered epoch draws both endpoints of every insert, and its
    deletes, from one id window.
    """
    rng = child_rng(seed, "stream.schedule")
    alive = np.ones(len(edges), dtype=bool)
    n_del = int(BATCH * DELETE_FRAC)
    batches, inserted = [], []
    for e in range(epochs):
        scattered = e % SCATTER_EVERY == SCATTER_EVERY - 1
        if scattered:
            lo, hi = 0, n
            cand = np.flatnonzero(alive)
        else:
            lo = int(rng.integers(0, n - WINDOW))
            hi = lo + WINDOW
            inside = (edges >= lo) & (edges < hi)
            cand = np.flatnonzero(alive & inside[:, 0] & inside[:, 1])
        dead = rng.choice(cand, size=min(n_del, len(cand)), replace=False)
        alive[dead] = False
        ins = rng.integers(lo, hi, size=(BATCH - len(dead), 2))
        inserted.append(ins)
        both = np.concatenate([ins, edges[dead]])
        op = np.concatenate([np.ones(len(ins), dtype=np.int64),
                             -np.ones(len(dead), dtype=np.int64)])
        order = rng.permutation(len(both))
        batches.append((both[order, 0], both[order, 1], op[order]))
    final = np.concatenate([edges[alive]] + inserted)
    return batches, final


def _build(comm, tracer: Tracer, edges, n):
    """Edge chunks to a resident dynamic graph that answers all three
    incremental kernels: the workload's ``build_s``."""
    rp = RankPass(comm, tracer, -1)
    state: dict = {}

    def build():
        chunk = np.array_split(edges, comm.size)[comm.rank]
        part = VertexBlockPartition(n, comm.size)
        g = build_dist_graph(comm, chunk, part)
        dyn = DynamicDistGraph(comm, g)
        kernels = (IncrementalPageRank(comm, dyn, max_iters=PR_ITERS),
                   IncrementalWCC(comm, dyn), IncrementalKCore(comm, dyn))
        for k in kernels:
            k.run()
        state.update(part=part, dyn=dyn, kernels=kernels)

    rp.step("build", build)
    return state, rp.seconds["build"]


def _setup_job(comm, edges, n):
    bind_rank(comm)
    return _build(comm, Tracer(False), edges, n)[1]


def _stream_job(comm, tracer: Tracer, edges, n, batches, final_edges, root):
    bind_rank(comm)
    state, build_s = _build(comm, tracer, edges, n)
    dyn, (ipr, iwcc, ikc) = state["dyn"], state["kernels"]
    records = []
    results = {}
    for e, (src, dst, op) in enumerate(batches):
        sl = np.array_split(np.arange(len(src)), comm.size)[comm.rank]
        mine = UpdateBatch(src[sl], dst[sl], op[sl])
        rp = RankPass(comm, tracer, e)

        def epoch():
            results["apply"] = rp.step("stream.apply",
                                       lambda: dyn.apply(mine))
            results["pr"] = rp.step("stream.pagerank_refresh", ipr.run)
            results["wcc"] = rp.step("stream.wcc_refresh", iwcc.run)
            results["kcore"] = rp.step("stream.kcore_refresh", ikc.run)

        rp.step("epoch", epoch)
        if e % VIEW_READ_EVERY == VIEW_READ_EVERY - 1:
            rp.step("stream.view_read",
                    lambda: distributed_bfs(comm, dyn.view(), root))
        res = results["apply"]
        rp.counts.update(
            compacted=int(res.compacted), n_missing=res.n_missing,
            changed=res.n_inserted + res.n_deleted, m_global=res.m_global)
        records.append(rp.export(("epoch",)))

    # Ground truth outside every timed window: the static kernels on a
    # from-scratch rebuild of the final edge list, same partition.
    chunk = np.array_split(final_edges, comm.size)[comm.rank]
    rebuilt = build_dist_graph(comm, chunk, state["part"]).sort_adjacency()
    s_pr = pagerank(comm, rebuilt, max_iters=PR_ITERS)
    s_wcc = wcc(comm, rebuilt)
    s_kc = approx_kcore(comm, rebuilt)
    checks = {
        "m_global": dyn.m_global == rebuilt.m_global,
        "pagerank": bool(np.array_equal(s_pr.scores, results["pr"].scores)),
        "wcc": bool(np.array_equal(s_wcc.labels, results["wcc"].labels)),
        "kcore": bool(np.array_equal(s_kc.stage_removed,
                                     results["kcore"].stage_removed)),
    }
    return {"build_s": build_s, "epochs": records, "checks": checks,
            "pr_stats": dict(ipr.stats), "wcc_stats": dict(iwcc.stats),
            "kcore_stats": dict(ikc.stats)}


def run_stream_churn(seed: int, seconds: float, tracer: Tracer) -> Outcome:
    out = Outcome(manifest=base_manifest("stream_churn", seed, seconds))
    epochs = max(40, round(seconds * EPOCHS_PER_SECOND))
    setups, builds = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        edges = shuffled(webcrawl_edges(
            STREAM_N, avg_degree=STREAM_DEGREE, seed=DATASET_SEED), seed)
        batches, final_edges = make_schedule(seed, edges, STREAM_N, epochs)
        builds.append(max(run_spmd(NRANKS, _setup_job, edges, STREAM_N,
                                   backend=BACKEND)))
        setups.append(time.perf_counter() - t0)

    root = int(np.bincount(edges[:, 0], minlength=STREAM_N).argmax())
    world = run_spmd(NRANKS, _stream_job, tracer, edges, STREAM_N, batches,
                     final_edges, root, backend=BACKEND, timeout=300.0)

    def per_epoch(step):
        return [max(rank["epochs"][e]["seconds"][step] for rank in world)
                for e in range(epochs)
                if step in world[0]["epochs"][e]["seconds"]]

    epoch_s = per_epoch("epoch")
    reads_s = per_epoch("stream.view_read")
    q = tail_percentile(epochs)
    out.manifest.update(
        n=STREAM_N, m=len(edges), edges_blake2b=edge_digest(edges),
        input=f"webcrawl_edges(n={STREAM_N}, avg_degree={STREAM_DEGREE}, "
              f"seed={DATASET_SEED}), arrival order from --seed",
        epochs=epochs, batch=BATCH, delete_frac=DELETE_FRAC,
        scattered_every=SCATTER_EVERY, window=WINDOW,
        final_m=len(final_edges), final_blake2b=edge_digest(final_edges),
        setup_repeats=SETUP_REPEATS, tail_percentile=q,
        timed_s=sum(epoch_s) + sum(reads_s),
        op="one epoch: apply + PageRank/WCC/k-core refresh")
    n_ops = epochs + len(reads_s)
    out.attempted += n_ops
    out.e2e.update(
        setup_s=median(setups), build_s=median(builds),
        op_p50_ms=median(epoch_s) * 1e3, op_tail_ms=pctl(epoch_s, q) * 1e3,
        goodput_per_s=n_ops / out.manifest["timed_s"])

    counts = [r["counts"] for r in world[0]["epochs"]]
    out.check(sum(c["n_missing"] for c in counts) == 0,
              "a delete of a stored edge missed")
    for what, ok in world[0]["checks"].items():
        out.check(all(rank["checks"][what] for rank in world),
                  f"final epoch: incremental {what} != static on rebuild")

    if tracer.enabled:
        layer = out.layer
        for step in STEPS:
            layer[f"{step}_p50_ms"] = median(per_epoch(step)) * 1e3
        layer["stream.view_read_p50_ms"] = median(reads_s) * 1e3
        layer["stream.compactions"] = sum(c["compacted"] for c in counts)
        # Share of the stored edges changed since the last compaction,
        # from the public ApplyResult counters (a global figure; the
        # graph compacts on the worst rank's share).
        worst = pending = 0.0
        base_m = len(edges)
        for c in counts:
            pending = 0.0 if c["compacted"] else pending + c["changed"]
            base_m = c["m_global"] if c["compacted"] else base_m
            worst = max(worst, pending / base_m)
        layer["stream.overlay_fraction_max"] = worst
        pr = world[0]["pr_stats"]
        layer["stream.repair_ratio"] = 1.0 - pr["full_runs"] / pr["runs"]
        layer["stream.rows_recomputed"] = sum(
            rank["pr_stats"]["rows_recomputed"] for rank in world)
        layer["stream.wcc_full_runs"] = world[0]["wcc_stats"]["full_runs"]
        layer["stream.kcore_recomputes"] = \
            world[0]["kcore_stats"]["recomputes"]
        per_rank = [{k: sum(r["comm"]["epoch"][k] for r in rank["epochs"])
                     for k in rank["epochs"][0]["comm"]["epoch"]}
                    for rank in world]
        layer.update(runtime_metrics("stream", fold_ranks(per_rank)))
    out.e2e["peak_rss_mb"] = peak_rss_mb()
    return out
