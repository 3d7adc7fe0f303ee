"""The two batch workloads: ``web_batch`` and ``rmat_traversal``.

Both run *passes*: one pass builds the graph(s) from the edge source and
then runs the workload's analytic suite, every step fenced by barriers so
all ranks agree on its duration.  A set-up is input generation plus one
untimed pass; it is repeated and the median reported, then the timed
passes follow in a fresh world.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from harness import (
    BACKEND, DATASET_SEED, NRANKS, WORK_DIR, Outcome, Tracer, base_manifest,
    bind_rank, edge_digest, fold_ranks, median, pctl, peak_rss_mb,
    runtime_metrics, self_times, shuffled, tail_percentile,
)
from repro import run_spmd
from repro.analytics import (
    approx_kcore, delta_stepping, distributed_bfs_dirop,
    harmonic_centrality_many, label_propagation, multi_source_bfs, pagerank,
    scc, top_degree_vertices, validate_bfs_levels, validate_components,
    validate_distances, validate_pagerank, wcc,
)
from repro.generators import rmat_edges, webcrawl_edges
from repro.graph import build_dist_graph_with_stats, build_grid_graph
from repro.io import striped_read, write_edges
from repro.partition import (
    GridEdgePartition, RandomHashPartition, VertexBlockPartition,
    evaluate_partition,
)
from repro.runtime import MAX

# Frozen sizes (probed on the 2-core seed box; see README "Sizing").
WEB_N = 25_000
WEB_DEGREE = 16
WEB_PR_ITERS = 20
WEB_LP_ITERS = 10
WEB_HARMONIC_K = 8
WEB_PASS_S = 2.8  # nominal seconds per pass, fixes passes per --seconds
RMAT_SCALE = 15
RMAT_EDGE_FACTOR = 8  # undirected edges per vertex; stored both ways
RMAT_ROOTS = 16
RMAT_SSSP_ROOTS = 4
RMAT_PASS_S = 2.4
SETUP_REPEATS = 3
MIN_PASSES = 3


def n_passes(seconds: float, nominal_pass_s: float) -> int:
    return max(MIN_PASSES, round(seconds / nominal_pass_s))


# ---------------------------------------------------------------------------
# per-rank pass plumbing
# ---------------------------------------------------------------------------
class RankPass:
    """One rank's record of one pass: barrier-fenced step times, spans,
    and marks into ``comm.trace`` so counters can be attributed later."""

    def __init__(self, comm, tracer: Tracer, pass_id: int):
        self.comm = comm
        self.tracer = tracer
        self.pass_id = pass_id
        self.seconds: dict[str, float] = {}
        self.marks: dict[str, tuple] = {}
        self.counts: dict[str, float] = {}
        self.info: dict[str, float] = {}

    def _mark(self):
        tr = self.comm.trace
        return len(tr.events), tr.compute_s

    def step(self, name: str, fn):
        """Run ``fn`` barrier to barrier inside a span; returns its value."""
        comm = self.comm
        comm.barrier()
        m0 = self._mark()
        t0 = time.perf_counter()
        with self.tracer.span(name, rank=comm.rank, pass_id=self.pass_id):
            out = fn()
            comm.barrier()
        self.seconds[name] = time.perf_counter() - t0
        self.marks[name] = (m0, self._mark())
        return out

    def span(self, name: str):
        return self.tracer.span(name, rank=self.comm.rank,
                                pass_id=self.pass_id)

    def comm_between(self, name: str) -> dict[str, float]:
        """This rank's communication counters during step ``name``."""
        (i0, c0), (i1, c1) = self.marks[name]
        ev = self.comm.trace.events[i0:i1]
        return {"bytes_sent": sum(e.bytes_sent for e in ev),
                "msg_count": sum(e.msg_count for e in ev),
                "n_collectives": len(ev),
                "idle_s": sum(e.wait_s for e in ev),
                "comm_s": sum(e.xfer_s for e in ev),
                "compute_s": c1 - c0}

    def export(self, comm_steps: tuple[str, ...]) -> dict:
        return {"seconds": self.seconds, "counts": self.counts,
                "info": self.info,
                "comm": {s: self.comm_between(s) for s in comm_steps
                         if s in self.marks}}


def _graph_nbytes(*arrays) -> int:
    return int(sum(a.nbytes for a in arrays if a is not None))


def _dist_nbytes(g) -> int:
    return _graph_nbytes(g.out_indexes, g.out_edges, g.in_indexes,
                         g.in_edges, g.unmap, g.ghost_tasks, g.out_values,
                         g.in_values)


def _grid_nbytes(g) -> int:
    return _graph_nbytes(g.td_indexes, g.td_edges, g.bu_indexes, g.bu_edges,
                         g.col_counts, g.col_unmap, g.td_values, g.bu_values)


def _by_gid(rank_outputs: list[dict], key: str) -> np.ndarray:
    """Concatenate per-rank ``(gids, values)`` pairs into gid order."""
    gids = np.concatenate([o["gids"][key] for o in rank_outputs])
    vals = np.concatenate([o[key] for o in rank_outputs])
    return vals[np.argsort(gids, kind="stable")]


# ---------------------------------------------------------------------------
# web_batch
# ---------------------------------------------------------------------------
WEB_KERNELS = ("pagerank", "label_propagation", "wcc", "scc", "harmonic",
               "kcore")


def _web_pass(comm, tracer: Tracer, path: str, n: int, pass_id: int,
              want_outputs: bool):
    rp = RankPass(comm, tracer, pass_id)

    def build():
        with rp.span("io.striped_read"):
            chunk, info = striped_read(comm, path, width=32)
        with rp.span("partition.make"):
            part = VertexBlockPartition(n, comm.size)
        with rp.span("graph.build_1d"):
            g, stats = build_dist_graph_with_stats(comm, chunk, part)
        rp.info.update(read_s=info.read_s, exchange_s=stats.exchange_s,
                       convert_s=stats.convert_s)
        return g

    g = rp.step("build", build)
    out: dict = {}

    def suite():
        out["pr"] = rp.step("analytics.pagerank", lambda: pagerank(
            comm, g, max_iters=WEB_PR_ITERS))
        out["lp"] = rp.step("analytics.label_propagation", lambda:
                            label_propagation(comm, g, n_iters=WEB_LP_ITERS))
        out["wcc"] = rp.step("analytics.wcc", lambda: wcc(comm, g))
        out["scc"] = rp.step("analytics.scc", lambda: scc(comm, g))
        out["harmonic"] = rp.step(
            "analytics.harmonic", lambda: harmonic_centrality_many(
                comm, g, top_degree_vertices(comm, g, WEB_HARMONIC_K)))
        out["kcore"] = rp.step("analytics.kcore",
                               lambda: approx_kcore(comm, g))

    rp.step("analytics", suite)
    rp.counts.update(
        pagerank_iters=out["pr"].n_iters,
        graph_nbytes=_dist_nbytes(g), n_gst=g.n_gst)
    rec = rp.export(("build", "analytics", "analytics.pagerank"))
    if want_outputs:
        bad = validate_pagerank(comm, g, out["pr"].scores,
                                tol=2 * 0.85 ** WEB_PR_ITERS)
        bad += validate_components(comm, g, out["wcc"].labels)
        own = g.unmap[:g.n_loc]
        rec["outputs"] = {
            "violations": bad,
            "gids": {"wcc": own, "scc": own},
            "wcc": out["wcc"].labels, "scc": out["scc"],
            "harmonic": [(h.vertex, h.score) for h in out["harmonic"]],
            "pr_sum": float(comm.allreduce(float(out["pr"].scores.sum()))),
        }
    return rec


def _web_job(comm, tracer, path, n, passes, first_id):
    bind_rank(comm)
    return [_web_pass(comm, tracer, path, n, first_id + i,
                      want_outputs=(i == passes - 1))
            for i in range(passes)]


def _fold_seconds(world: list[list[dict]], key: str,
                  group: str = "seconds") -> list[float]:
    """Per pass, the slowest rank's reading of step ``key``."""
    return [max(rank[i][group][key] for rank in world)
            for i in range(len(world[0]))]


def _batch_e2e(out: Outcome, world, setups, n_ops_per_pass: int):
    """Fold the timed passes into the end-to-end metrics; an operation is a
    build or a kernel call."""
    build_s = _fold_seconds(world, "build")
    suite_s = _fold_seconds(world, "analytics")
    passes = len(suite_s)
    q = tail_percentile(passes)
    timed_s = sum(build_s) + sum(suite_s)
    n_ops = passes * n_ops_per_pass
    out.manifest.update(
        timed_passes=passes, setup_repeats=SETUP_REPEATS, timed_s=timed_s,
        op="one analytic-suite pass", tail_percentile=q)
    out.attempted += n_ops
    out.e2e.update(
        setup_s=median(setups), build_s=median(build_s),
        op_p50_ms=median(suite_s) * 1e3, op_tail_ms=pctl(suite_s, q) * 1e3,
        goodput_per_s=n_ops / timed_s)
    return suite_s


def _batch_layers(out: Outcome, world, selfs, kernels, stats, n: int,
                  stored_edges: int, suite_s) -> list[dict]:
    """Per-layer metrics both batch workloads share; returns the last
    pass's per-rank records."""
    last = [rank[-1] for rank in world]
    layer = out.layer
    layer["partition.make_s"] = selfs["partition.make"]
    layer["partition.edge_cut_frac"] = stats.cut_fraction
    layer["partition.edge_imbalance"] = stats.edge_imbalance
    layer["graph.build_1d_s"] = selfs["graph.build_1d"]
    for k in ("exchange_s", "convert_s"):
        layer[f"graph.{k}"] = median(_fold_seconds(world, k, "info"))
    layer["graph.bytes_per_edge"] = sum(
        r["counts"]["graph_nbytes"] for r in last) / stored_edges
    layer["graph.ghost_frac"] = sum(r["counts"]["n_gst"] for r in last) / n
    for phase in ("build", "analytics"):
        layer.update(runtime_metrics(phase, fold_ranks(
            [r["comm"][phase] for r in last])))
    for k in kernels:
        layer[f"analytics.{k}_s"] = selfs[f"analytics.{k}"]
    layer["analytics.kernel_self_sum_frac"] = sum(
        selfs[f"analytics.{k}"] for k in kernels) / median(suite_s)
    return last


def run_web_batch(seed: int, seconds: float, tracer: Tracer) -> Outcome:
    out = Outcome(manifest=base_manifest("web_batch", seed, seconds))
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    path = str(WORK_DIR / f"web_batch_{seed}.u32")
    untraced = Tracer(False)

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        edges = shuffled(webcrawl_edges(WEB_N, avg_degree=WEB_DEGREE,
                                        seed=DATASET_SEED), seed)
        write_edges(path, edges, width=32)
        run_spmd(NRANKS, _web_job, untraced, path, WEB_N, 1, -1,
                 backend=BACKEND)
        setups.append(time.perf_counter() - t0)

    world = run_spmd(NRANKS, _web_job, tracer, path, WEB_N,
                     n_passes(seconds, WEB_PASS_S), 0, backend=BACKEND,
                     timeout=300.0)
    out.manifest.update(
        n=WEB_N, m=len(edges), edges_blake2b=edge_digest(edges),
        input=f"webcrawl_edges(n={WEB_N}, avg_degree={WEB_DEGREE}, "
              f"seed={DATASET_SEED}), arrival order from --seed",
        edge_file_bytes=len(edges) * 8)
    suite_s = _batch_e2e(out, world, setups, 1 + len(WEB_KERNELS))

    _check_web(out, edges, [rank[-1]["outputs"] for rank in world])
    if tracer.enabled:
        _web_layers(out, tracer, world, edges, suite_s, path)
    out.e2e["peak_rss_mb"] = peak_rss_mb()
    return out


def _check_web(out: Outcome, edges: np.ndarray, outputs: list[dict]) -> None:
    n = WEB_N
    a = sp.csr_matrix((np.ones(len(edges), dtype=np.int32),
                       (edges[:, 0], edges[:, 1])), shape=(n, n))
    out.check(not outputs[0]["violations"],
              f"validators: {outputs[0]['violations'][:3]}")
    out.check(abs(outputs[0]["pr_sum"] - 1.0) < 1e-9, "pagerank mass != 1")
    n_weak, _ = csgraph.connected_components(a, directed=True,
                                             connection="weak")
    n_strong, _ = csgraph.connected_components(a, directed=True,
                                               connection="strong")
    wcc_labels = _by_gid(outputs, "wcc")
    scc_labels = _by_gid(outputs, "scc")
    out.check(len(np.unique(wcc_labels)) == n_weak, "WCC count vs scipy")
    out.check(len(np.unique(scc_labels)) == n_strong, "SCC count vs scipy")
    verts = [v for v, _ in outputs[0]["harmonic"]]
    dist = csgraph.shortest_path(a.T.tocsr(), unweighted=True, indices=verts)
    for (v, score), d in zip(outputs[0]["harmonic"], dist):
        reach = np.isfinite(d) & (d > 0)
        out.check(bool(np.isclose(score, (1.0 / d[reach]).sum())),
                  f"harmonic centrality of {v} vs scipy")


def _kernel_self_s(tracer: Tracer, names) -> dict[str, float]:
    """Median over timed passes of rank 0's self time under each span name
    (a name used twice in a pass counts once, summed)."""
    spans = [s for s in tracer.spans if s.get("rank") == 0]
    selfs = self_times(spans)
    per_pass: dict[str, dict[int, float]] = {}
    for s in spans:
        by_pass = per_pass.setdefault(s["name"], {})
        by_pass[s["pass_id"]] = by_pass.get(s["pass_id"], 0.0) + selfs[s["id"]]
    return {name: median(list(per_pass[name].values())) for name in names}


def _web_layers(out: Outcome, tracer: Tracer, world, edges, suite_s, path):
    selfs = _kernel_self_s(tracer, [
        "partition.make", "graph.build_1d"]
        + [f"analytics.{k}" for k in WEB_KERNELS])
    stats = evaluate_partition(VertexBlockPartition(WEB_N, NRANKS), edges)
    last = _batch_layers(out, world, selfs, WEB_KERNELS, stats, WEB_N,
                         len(edges), suite_s)
    layer = out.layer
    read_s = median(_fold_seconds(world, "read_s", "info"))
    layer["io.read_s"] = read_s
    layer["io.read_mb_per_s"] = len(edges) * 8 / read_s / 2 ** 20
    iters = last[0]["counts"]["pagerank_iters"]
    layer["analytics.pagerank_iters"] = iters
    layer["analytics.halo_bytes_per_iter"] = sum(
        r["comm"]["analytics.pagerank"]["bytes_sent"] for r in last) / iters

    # Strong-scaling efficiency of the suite: one extra pass on one rank.
    solo = run_spmd(1, _web_job, Tracer(False), path, WEB_N, 1, -1,
                    backend=BACKEND, timeout=300.0)
    layer["runtime.scaling_eff_p2"] = \
        solo[0][0]["seconds"]["analytics"] / (NRANKS * median(suite_s))


# ---------------------------------------------------------------------------
# rmat_traversal
# ---------------------------------------------------------------------------
RMAT_KERNELS = ("bfs_dirop", "msbfs", "wcc_rand", "delta_stepping",
                "grid_bfs_dirop", "grid_wcc", "grid_delta_stepping")


def _rmat_pass(comm, tracer: Tracer, chunks, n: int, roots, pass_id: int,
               want_outputs: bool):
    rp = RankPass(comm, tracer, pass_id)
    sym_chunk, und_chunk = chunks[comm.rank]
    graphs: dict = {}

    def build():
        with rp.span("partition.make"):
            part = RandomHashPartition(n, comm.size, seed=7)
        with rp.span("graph.build_1d"):
            graphs["g"], stats = build_dist_graph_with_stats(
                comm, sym_chunk, part)
        with rp.span("partition.make"):
            gpart = GridEdgePartition.from_edge_chunks(
                comm, sym_chunk[:, 0], n)
        with rp.span("graph.build_grid"):
            graphs["grid"] = build_grid_graph(comm, und_chunk, gpart,
                                              symmetrize=True)
        rp.info.update(exchange_s=stats.exchange_s,
                       convert_s=stats.convert_s)

    rp.step("build", build)
    g, grid = graphs["g"], graphs["grid"]
    out: dict = {}
    sssp_roots = [int(r) for r in roots[:RMAT_SSSP_ROOTS]]

    def suite():
        out["bfs"] = rp.step("analytics.bfs_dirop", lambda: [
            distributed_bfs_dirop(comm, g, int(r)) for r in roots])
        out["msbfs"] = rp.step("analytics.msbfs", lambda: multi_source_bfs(
            comm, g, roots))
        out["wcc"] = rp.step("analytics.wcc_rand", lambda: wcc(comm, g))
        out["sssp"] = rp.step("analytics.delta_stepping", lambda: [
            delta_stepping(comm, g, r) for r in sssp_roots])
        out["gbfs"] = rp.step("analytics.grid_bfs_dirop", lambda: [
            distributed_bfs_dirop(comm, grid, int(r)) for r in roots])
        out["gwcc"] = rp.step("analytics.grid_wcc", lambda: wcc(comm, grid))
        out["gsssp"] = rp.step("analytics.grid_delta_stepping", lambda: [
            delta_stepping(comm, grid, r) for r in sssp_roots])

    rp.step("analytics", suite)
    levels = np.stack(out["bfs"], axis=1)  # (n_loc, roots)
    rp.counts.update(
        bfs_levels=int(sum(
            comm.allreduce(int(lv.max(initial=-1)), MAX) + 1
            for lv in out["bfs"])),
        graph_nbytes=_dist_nbytes(g) + _grid_nbytes(grid),
        n_gst=g.n_gst)
    rec = rp.export(("build", "analytics", "analytics.bfs_dirop",
                     "analytics.grid_bfs_dirop"))
    if want_outputs:
        bad = validate_bfs_levels(comm, g, out["bfs"][0], int(roots[0]))
        bad += validate_components(comm, g, out["wcc"].labels)
        bad += validate_distances(comm, g, out["sssp"][0].distances,
                                  sssp_roots[0])
        own1 = g.unmap[:g.n_loc]
        own2 = np.arange(grid.own_lo, grid.own_lo + grid.n_own,
                         dtype=np.int64)
        rec["outputs"] = {
            "violations": bad,
            "gids": {"bfs": own1, "msbfs": own1, "wcc": own1, "sssp": own1,
                     "gbfs": own2, "gwcc": own2, "gsssp": own2},
            "bfs": levels, "msbfs": out["msbfs"],
            "wcc": out["wcc"].labels,
            "sssp": np.stack([r.distances for r in out["sssp"]], axis=1),
            "gbfs": np.stack(out["gbfs"], axis=1),
            "gwcc": out["gwcc"].labels,
            "gsssp": np.stack([r.distances for r in out["gsssp"]], axis=1),
        }
    return rec


def _rmat_job(comm, tracer, chunks, n, roots, passes, first_id):
    bind_rank(comm)
    return [_rmat_pass(comm, tracer, chunks, n, roots, first_id + i,
                       want_outputs=(i == passes - 1))
            for i in range(passes)]


def _rmat_inputs(seed: int):
    """Undirected R-MAT edges, their both-ways list, per-rank chunks of
    each, and the fixed top-degree roots."""
    n = 1 << RMAT_SCALE
    und = shuffled(rmat_edges(RMAT_SCALE, m=RMAT_EDGE_FACTOR * n,
                              seed=DATASET_SEED), seed)
    sym = shuffled(np.concatenate([und, und[:, ::-1]]), seed)
    deg = np.bincount(sym[:, 0], minlength=n)
    roots = np.argsort(-deg, kind="stable")[:RMAT_ROOTS].astype(np.int64)
    chunks = list(zip(np.array_split(sym, NRANKS),
                      np.array_split(und, NRANKS)))
    return n, und, sym, roots, chunks


def run_rmat_traversal(seed: int, seconds: float, tracer: Tracer) -> Outcome:
    out = Outcome(manifest=base_manifest("rmat_traversal", seed, seconds))
    untraced = Tracer(False)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        n, und, sym, roots, chunks = _rmat_inputs(seed)
        run_spmd(NRANKS, _rmat_job, untraced, chunks, n, roots, 1, -1,
                 backend=BACKEND, timeout=300.0)
        setups.append(time.perf_counter() - t0)

    world = run_spmd(NRANKS, _rmat_job, tracer, chunks, n, roots,
                     n_passes(seconds, RMAT_PASS_S), 0, backend=BACKEND,
                     timeout=300.0)
    out.manifest.update(
        n=n, m=len(und), edges_blake2b=edge_digest(und),
        input=f"rmat_edges(scale={RMAT_SCALE}, m={RMAT_EDGE_FACTOR}*n, "
              f"seed={DATASET_SEED}), undirected: both directions stored, "
              "arrival order from --seed",
        roots=[int(r) for r in roots])
    # Two builds, BFS per root on both layouts, one multi-source BFS, two
    # WCC, delta-stepping per root on both layouts.
    calls = 2 * RMAT_ROOTS + 1 + 2 + 2 * RMAT_SSSP_ROOTS
    suite_s = _batch_e2e(out, world, setups, 2 + calls)

    _check_rmat(out, n, sym, roots, [rank[-1]["outputs"] for rank in world])
    if tracer.enabled:
        _rmat_layers(out, tracer, world, n, und, sym, suite_s)
    out.e2e["peak_rss_mb"] = peak_rss_mb()
    return out


def _check_rmat(out: Outcome, n, sym, roots, outputs: list[dict]) -> None:
    out.check(not outputs[0]["violations"],
              f"validators: {outputs[0]['violations'][:3]}")
    a = sp.csr_matrix((np.ones(len(sym), dtype=np.int32),
                       (sym[:, 0], sym[:, 1])), shape=(n, n))
    bfs = _by_gid(outputs, "bfs")
    ref = csgraph.shortest_path(a, unweighted=True, indices=roots).T
    ref_levels = np.where(np.isfinite(ref), ref, -2).astype(np.int64)
    out.check(np.array_equal(bfs, ref_levels), "BFS levels vs scipy")
    out.check(np.array_equal(_by_gid(outputs, "msbfs"), bfs),
              "multi_source_bfs == per-root BFS")
    n_comp, _ = csgraph.connected_components(a, directed=False)
    wcc_labels = _by_gid(outputs, "wcc")
    out.check(len(np.unique(wcc_labels)) == n_comp, "WCC count vs scipy")
    out.check(np.array_equal(_by_gid(outputs, "gbfs"), bfs),
              "grid BFS bitwise == 1-D")
    out.check(np.array_equal(_by_gid(outputs, "gwcc"), wcc_labels),
              "grid WCC bitwise == 1-D")
    out.check(np.array_equal(_by_gid(outputs, "gsssp"),
                             _by_gid(outputs, "sssp")),
              "grid delta-stepping bitwise == 1-D")


def _rmat_layers(out: Outcome, tracer: Tracer, world, n, und, sym, suite_s):
    selfs = _kernel_self_s(tracer, [
        "partition.make", "graph.build_1d", "graph.build_grid"]
        + [f"analytics.{k}" for k in RMAT_KERNELS])
    stats = evaluate_partition(RandomHashPartition(n, NRANKS, seed=7), sym)
    last = _batch_layers(out, world, selfs, RMAT_KERNELS, stats, n,
                         len(sym), suite_s)
    layer = out.layer
    layer["graph.build_grid_s"] = selfs["graph.build_grid"]
    levels = last[0]["counts"]["bfs_levels"]
    layer["analytics.bfs_levels"] = levels
    layer["analytics.bfs_edges_per_s"] = \
        RMAT_ROOTS * len(und) / selfs["analytics.bfs_dirop"]
    for key, step in (("1d", "bfs_dirop"), ("grid", "grid_bfs_dirop")):
        layer[f"analytics.frontier_bytes_per_level.{key}"] = sum(
            r["comm"][f"analytics.{step}"]["bytes_sent"]
            for r in last) / levels
