"""Module-level SPMD kernels shared by the backend tests.

Process-backed ranks receive their function by pickle-by-reference, so
everything a spawned rank runs must live at module level in an importable
module — that is this file.  The kernels mirror the closures the
threads-only tests use inline.
"""

from __future__ import annotations

import hashlib
import sys
from functools import partial

import numpy as np

from bfs_reference import reference_bfs
from build_reference import (
    reference_build_dist_graph,
    reference_build_grid_graph,
    reference_sort_adjacency,
)
from delta_reference import (
    reference_bellman_ford,
    reference_delta_stepping,
    reference_grid_delta_stepping,
)
from kcore_reference import reference_approx_kcore, reference_exact_kcore
from lp_reference import reference_label_propagation
from scc_reference import reference_scc
from wcc_reference import reference_wcc
from repro.analytics import (
    Frontier2D,
    approx_kcore,
    batched_closeness,
    delta_stepping,
    distributed_bfs_dirop,
    exact_kcore,
    global_max_degree_vertex,
    halo_of,
    harmonic_centrality_many,
    label_propagation,
    largest_scc,
    multi_source_bfs,
    pagerank,
    scc,
    sssp,
    wcc,
)
from repro.analytics.closure import ClosureAdjacency
from repro.graph import GridGraph, build_dist_graph, build_grid_graph
from repro.partition import (
    EdgeBlockPartition,
    ExplicitPartition,
    GridEdgePartition,
    RandomHashPartition,
    VertexBlockPartition,
)
from repro.runtime import MAX, MIN, SUM, AlltoallvPlan


def build_graph(comm, cfg: dict):
    """Build the shared test graph from a picklable cfg dict.

    cfg: ``{"edges": (m, 2) int64 array, "n": int, "part": kind}`` with
    the same partition constructions (and the rand seed) as
    ``conftest.make_partition``.
    """
    edges = cfg["edges"]
    n = cfg["n"]
    chunk = np.array_split(edges, comm.size)[comm.rank]
    kind = cfg.get("part", "vblock")
    if kind == "vblock":
        part = VertexBlockPartition(n, comm.size)
    elif kind == "eblock":
        part = EdgeBlockPartition.from_edge_chunks(comm, chunk[:, 0], n)
    elif kind == "rand":
        part = RandomHashPartition(n, comm.size, seed=42)
    else:
        raise ValueError(kind)
    return build_dist_graph(comm, chunk, part,
                            edge_values=_chunk_values(comm, cfg))


def _chunk_values(comm, cfg: dict):
    """This rank's share of ``cfg["values"]`` (one weight per edge), if any."""
    values = cfg.get("values")
    return None if values is None else np.array_split(values,
                                                      comm.size)[comm.rank]


def kern_pagerank(comm, cfg):
    g = build_graph(comm, cfg)
    res = pagerank(comm, g, max_iters=cfg.get("iters", 15), tol=1e-12)
    return g.unmap[: g.n_loc].copy(), res.scores, res.n_iters


def kern_wcc(comm, cfg):
    g = build_graph(comm, cfg)
    res = wcc(comm, g)
    return g.unmap[: g.n_loc].copy(), res.labels, int(res.giant_label)


def kern_wcc_oracle(comm, cfg):
    """``wcc()`` beside the coloring-loop reference on every graph of
    ``cfg["graphs"]`` (``{name: (n, edges)}``) under ``cfg["part"]``.

    Returns ``{name: (owned gids, labels, reference labels, giant label,
    reference giant label)}``.
    """
    out = {}
    for name, (n, edges) in cfg["graphs"].items():
        g = build_graph(comm, {"edges": edges, "n": n, "part": cfg["part"]})
        res = wcc(comm, g)
        ref_labels, ref_giant = reference_wcc(comm, g)
        out[name] = (g.unmap[: g.n_loc].copy(), res.labels, ref_labels,
                     res.giant_label, ref_giant)
    return out


def kern_label_propagation(comm, cfg):
    g = build_graph(comm, cfg)
    res = label_propagation(comm, g, n_iters=cfg.get("iters", 6), seed=3,
                            mode=cfg.get("mode", "sync"), n_sweeps=3)
    return (g.unmap[: g.n_loc].copy(), res.labels, res.n_iters,
            res.changed_per_iter)


def kern_scc(comm, cfg):
    g = build_graph(comm, cfg)
    big = largest_scc(comm, g)
    return (g.unmap[: g.n_loc].copy(), scc(comm, g), big.in_scc,
            big.size, big.pivot, big.n_trimmed, big.supersteps)


def kern_bfs_dirop(comm, cfg):
    g = build_graph(comm, cfg)
    levels = distributed_bfs_dirop(comm, g, cfg["root"])
    return g.unmap[: g.n_loc].copy(), levels


def kern_dirop_oracle(comm, cfg):
    """``distributed_bfs_dirop`` per source and per mode of
    ``cfg["modes"]`` beside the reference loop, on the 1-D layout
    ``cfg["part"]`` or (``"grid"``) on the 2-D grid.

    Returns the owned gids, the reference levels of those vertices (from
    a 1-D vertex-block build of the same chunks on a grid) and ``{(mode
    index, source): (levels, world ops, column ops, row ops, bfs.levels,
    bfs.push_levels, bfs.pull_levels, bfs.dense_pulls)}`` over the call
    alone; a grid rank outside the process grid has no column or row ops.
    """
    grid = cfg["part"] == "grid"
    sources = [int(s) for s in cfg["sources"]]
    if grid:
        g = build_grid(comm, cfg)
        f2 = Frontier2D(comm, g)  # the cached grid sub-communicators
        comms = [comm, f2.col_comm, f2.row_comm]
        ref_g = build_graph(comm, {**cfg, "part": "vblock"})
        gids = _own_gids(g)
    else:
        g = ref_g = build_graph(comm, cfg)
        # the graph's halo and its bool plan set up outside the calls
        halo_of(comm, g).exchange(np.zeros(g.n_total, dtype=bool))
        comms = [comm, None, None]
        gids = g.unmap[: g.n_loc].copy()
    want = np.stack([reference_bfs(comm, ref_g, s) for s in sources], axis=1)
    want_gids = ref_g.unmap[: ref_g.n_loc]
    counters = ("bfs.levels", "bfs.push_levels", "bfs.pull_levels",
                "bfs.dense_pulls")
    out = {}
    for i, mode in enumerate(cfg["modes"]):
        for s in sources:
            marks = [len(c.trace.events) if c else 0 for c in comms]
            before = dict(comm.trace.counters)
            levels = distributed_bfs_dirop(comm, g, s, **mode)
            ops = [[e.op for e in c.trace.events[m:]] if c else []
                   for c, m in zip(comms, marks)]
            bumped = [comm.trace.counters.get(k, 0) - before.get(k, 0)
                      for k in counters]
            out[i, s] = (levels, *ops, *bumped)
    return gids, (want_gids, want), out


def kern_msbfs(comm, cfg):
    g = build_graph(comm, cfg)
    levels = multi_source_bfs(comm, g, cfg["sources"],
                              direction=cfg.get("direction", "out"))
    return g.unmap[: g.n_loc].copy(), levels


def kern_bfs_words(comm, cfg):
    """``multi_source_bfs`` beside the reference loop, per direction, for
    every prefix length ``k`` in ``cfg["ks"]`` of ``cfg["sources"]``.

    Returns the owned gids, the ghost count and ``{(direction, k):
    (levels, reference levels, (op, bytes sent) per collective,
    bfs.levels, bfs.ghost_words)}``, the ops and counters over the
    batched call alone.
    """
    g = build_graph(comm, cfg)
    halo_of(comm, g)  # the graph's halo set up outside the calls
    sources = np.asarray(cfg["sources"], dtype=np.int64)
    out = {}
    for direction in ("out", "in", "both"):
        want = np.stack([reference_bfs(comm, g, s, direction)
                         for s in sources], axis=1)
        for k in cfg["ks"]:
            trace = comm.trace
            mark, before = len(trace.events), dict(trace.counters)
            levels = multi_source_bfs(comm, g, sources[:k], direction)
            ops = [(e.op, e.bytes_sent) for e in trace.events[mark:]]
            bumped = [trace.counters.get(c, 0) - before.get(c, 0)
                      for c in ("bfs.levels", "bfs.ghost_words")]
            out[direction, k] = (
                levels, np.ascontiguousarray(want[:, :k]), ops, *bumped)
    return g.unmap[: g.n_loc].copy(), g.n_gst, out


def kern_lp_oracle(comm, cfg):
    """``label_propagation`` beside the reference counter on every graph
    of ``cfg["graphs"]`` under ``cfg["part"]``, in both modes.

    Returns ``{(name, mode): (labels, n_iters, last_changed, the ops the
    call recorded, reference labels, reference n_iters, reference
    last_changed)}``.
    """
    out = {}
    for name, (n, edges) in cfg["graphs"].items():
        g = build_graph(comm, {"edges": edges, "n": n, "part": cfg["part"]})
        # the graph's halo and its int32 label plan set up outside the calls
        halo_of(comm, g).exchange(np.zeros(g.n_total, dtype=np.int32))
        for mode in ("sync", "async"):
            mark = len(comm.trace.events)
            res = label_propagation(comm, g, n_iters=6, seed=5, mode=mode,
                                    n_sweeps=3)
            ops = [e.op for e in comm.trace.events[mark:]]
            out[name, mode] = (res.labels, res.n_iters, res.last_changed, ops,
                               *reference_label_propagation(
                                   comm, g, n_iters=6, seed=5, mode=mode,
                                   n_sweeps=3))
    return out


def kern_harmonic(comm, cfg):
    """Reverse levels beside every harmonic and closeness result field."""
    g = build_graph(comm, cfg)
    sources = cfg["sources"]
    return (g.unmap[: g.n_loc].copy(),
            multi_source_bfs(comm, g, sources, direction="in"),
            harmonic_centrality_many(comm, g, sources),
            batched_closeness(comm, g, sources))


def kern_kcore(comm, cfg):
    g = build_graph(comm, cfg)
    res = approx_kcore(comm, g)
    return g.unmap[: g.n_loc].copy(), res.stage_removed, res.stages_run


def kern_kcore_oracle(comm, cfg):
    """Production k-core kernels beside the reference ones, per graph.

    cfg: ``{"graphs": {name: {"edges", "n"}}, "part": kind, "max_stage"}``.
    Returns ``{name: {variant: (new fields, reference fields)}}`` for the
    sweep with and without the LCC step and for the exact decomposition,
    plus each run's work counters.
    """
    out = {}
    for name, gcfg in cfg["graphs"].items():
        g = build_graph(comm, {**gcfg, "part": cfg["part"]})
        row = {"gids": g.unmap[: g.n_loc].copy()}
        for lcc in (True, False):
            new = approx_kcore(comm, g, max_stage=cfg["max_stage"], lcc_restrict=lcc)
            ref = reference_approx_kcore(comm, g, max_stage=cfg["max_stage"],
                                         lcc_restrict=lcc)
            row[f"approx_lcc={lcc}"] = (
                (new.stage_removed, new.stages_run, new.survivors),
                (ref.stage_removed, ref.stages_run, ref.survivors))
        new = exact_kcore(comm, g)
        ref = reference_exact_kcore(comm, g)
        row["exact"] = ((new.coreness, new.max_core),
                        (ref.coreness, ref.max_core))
        row["exact_rounds"] = (new.n_rounds, ref.n_rounds)
        out[name] = row
    return out


def kern_delta_stepping(comm, cfg):
    """Δ-stepping at the default Δ beside ``sssp`` (its Δ = ∞ case)."""
    g = build_graph(comm, cfg)
    ds = delta_stepping(comm, g, cfg["root"])
    bf = sssp(comm, g, cfg["root"])
    return (g.unmap[: g.n_loc].copy(),
            np.stack([ds.distances, bf.distances], axis=1),
            ds.n_phases, ds.n_relax_rounds, ds.reached, bf.n_iters)


def kern_closure_work(comm, cfg):
    """One ``approx_kcore`` sweep driven closure by closure the way the
    kernel drives it — every stage's peel, then one widest-path closure
    per pivot — next to the real call.

    Returns ``(calls, n_entries, stages_agree, driven, counted,
    falls_ok)``: per closure ``(kind, supersteps, edges_scanned)``; the
    undirected adjacency's stored-entry count; whether the driven stages
    equal ``approx_kcore``'s; the driven closures' total ``(supersteps,
    edges_scanned, pivots)``; what the real call bumped into
    ``comm.trace.counters``; and whether every widest-path closure
    re-read a row only after its width rose.
    """
    g = build_graph(comm, cfg)
    max_stage = cfg["max_stage"]
    keys = ("kcore.supersteps", "kcore.edges_scanned", "kcore.pivots")
    before = [comm.trace.counters.get(k, 0) for k in keys]
    want = approx_kcore(comm, g, max_stage=max_stage)
    counted = tuple(comm.trace.counters[k] - b for k, b in zip(keys, before))

    calls = []

    def run(kind, adj, closure):
        before = (adj.supersteps, adj.edges_scanned)
        out = closure()
        calls.append((kind, adj.supersteps - before[0],
                      adj.edges_scanned - before[1]))
        return out

    n_loc = g.n_loc
    und = ClosureAdjacency(comm, g)
    last = np.full(g.n_total, max_stage, dtype=np.int64)
    survivors = g.n_global
    for i in range(1, max_stage + 1):
        removed, n_removed = run("peel", und, partial(und.peel_below, 1 << i))
        last[removed] = i - 1
        survivors -= n_removed
        if survivors == 0:
            break

    halo_of(comm, g).exchange(last)
    floor = max_stage - last
    label = np.empty(g.n_total, dtype=np.int64)
    stage = np.zeros(n_loc, dtype=np.int64)
    region = np.ones(g.n_total, dtype=bool)
    adjs, falls_ok, i0 = [und], True, 1
    while True:
        inside = region & (last >= i0)
        pivot, _ = global_max_degree_vertex(comm, g, restrict=inside)
        if pivot < 0:
            stage[region[:n_loc]] = i0
            break
        label.fill(max_stage + 1)
        seed = g.to_local(np.array([pivot], dtype=np.int64))
        seed = seed[seed >= 0]
        label[seed] = floor[seed]
        adj = _RowLog(comm, g, alive=inside)
        adj.log = []
        run("widest", adj,
            partial(adj.propagate_min, label, floor=floor, seeds=seed))
        falls_ok &= _reread_only_on_falls(adj.log)
        adjs.append(adj)
        width = max_stage - label
        top = comm.allreduce(int(width[:n_loc].max(initial=-1)), MAX)
        low = region[:n_loc] & (width[:n_loc] < top)
        stage[low] = np.maximum(width[:n_loc][low], i0 - 1) + 1
        region &= width == top
        if top == max_stage:
            stage[region[:n_loc]] = max_stage + 1
            break
        i0 = top + 1
    driven = (sum(a.supersteps for a in adjs),
              sum(a.edges_scanned for a in adjs), len(adjs) - 1)
    return (calls, und.n_entries,
            bool(np.array_equal(stage, want.stage_removed)), driven, counted,
            falls_ok)


class _RowLog(ClosureAdjacency):
    """A :class:`ClosureAdjacency` that, while ``log`` is a list, records
    every tagged row read as ``(local ids, their tags at the read)``."""

    log = None

    def _neighbors(self, rows, ghost=False, tags=None):
        if self.log is not None and tags is not None:
            self.log.append((rows.copy(), tags[rows].copy()))
        return super()._neighbors(rows, ghost, tags)


def _reread_only_on_falls(log) -> bool:
    """Whether every row read again in one call's ``log`` saw a lower tag
    than at its previous read (the stated bound of ``propagate_min``)."""
    if not log:
        return True
    lids = np.concatenate([r for r, _ in log])
    tags = np.concatenate([t for _, t in log])
    order = np.argsort(lids, kind="stable")  # read order within a vertex
    lids, tags = lids[order], tags[order]
    again = lids[1:] == lids[:-1]
    return bool((tags[1:][again] < tags[:-1][again]).all())


def kern_scc_work(comm, cfg):
    """A full SCC decomposition driven closure by closure the way
    ``scc()`` drives it (trim, the giant's FW–BW, coloring rounds), next
    to the real call.

    Returns ``(calls, labels_agree, driven, counted, single, falls_ok)``:
    per closure ``(kind, supersteps, edges_scanned, stored entries of the
    adjacencies walked)``; whether the driven labels equal ``scc()``'s;
    the driven closures' total ``(supersteps, edges_scanned, rounds)``;
    what the real call bumped into ``comm.trace.counters``;
    ``largest_scc``'s result fields beside its own counter bump; and
    whether ``propagate_min`` re-read a row only after its label fell.
    """
    g = build_graph(comm, cfg)
    keys = ("scc.supersteps", "scc.edges_scanned", "scc.rounds")

    def counted(call, keys):
        before = [comm.trace.counters.get(k, 0) for k in keys]
        out = call()
        return out, tuple(comm.trace.counters[k] - b
                          for k, b in zip(keys, before))

    want, scc_counted = counted(lambda: scc(comm, g), keys)
    big, big_counted = counted(lambda: largest_scc(comm, g),
                               keys[:2])

    fwd = _RowLog(comm, g, "out")
    bwd = ClosureAdjacency(comm, g, "in", alive=fwd.alive)
    calls = []

    def run(kind, adjs, closure):
        before = [(a.supersteps, a.edges_scanned) for a in adjs]
        out = closure()
        calls.append((kind,
                      sum(a.supersteps - b[0] for a, b in zip(adjs, before)),
                      sum(a.edges_scanned - b[1] for a, b in zip(adjs, before)),
                      sum(a.n_entries for a in adjs)))
        return out

    n_loc = g.n_loc
    gids = g.unmap[:n_loc]
    labels = np.full(n_loc, -1, dtype=np.int64)
    trimmed, _ = run("peel", (fwd, bwd), lambda: fwd.peel_below(1, bwd))
    labels[trimmed] = gids[trimmed]
    pivot, _ = global_max_degree_vertex(comm, g, restrict=fwd.alive)
    dead = (run("reach", (fwd,), lambda: fwd.reach_from(pivot))[0]
            & run("reach", (bwd,), lambda: bwd.reach_from(pivot))[0])
    mine = dead[:n_loc]
    labels[mine] = comm.allreduce(
        int(gids[mine].min()) if mine.any() else g.n_global, MIN)
    color = np.empty(g.n_total, dtype=np.int64)
    rounds, falls_ok = 0, True
    while True:
        trimmed, _ = run("peel", (fwd, bwd),
                         lambda: fwd.peel_below(1, bwd, dead=dead))
        labels[trimmed] = gids[trimmed]
        color[:] = g.unmap
        fwd.log = []
        run("propagate", (fwd,), lambda: fwd.propagate_min(color))
        falls_ok &= _reread_only_on_falls(fwd.log)
        fwd.log = None
        roots = gids[fwd.alive[:n_loc] & (color[:n_loc] == gids)]
        dead, n_members = run("reach", (bwd,),
                              lambda: bwd.reach_from(roots, within=color))
        if n_members == 0:
            break
        rounds += 1
        labels[dead[:n_loc]] = color[:n_loc][dead[:n_loc]]
    driven = (fwd.supersteps + bwd.supersteps,
              fwd.edges_scanned + bwd.edges_scanned, rounds)
    return (calls, bool(np.array_equal(labels, want)), driven, scc_counted,
            ((big.supersteps, big.edges_scanned), big_counted), falls_ok)


def kern_scc_oracle(comm, cfg):
    """``scc()`` beside the pivot-loop reference on every graph of
    ``cfg["graphs"]`` (``{name: (n, edges)}``) under ``cfg["part"]``.

    Returns ``{name: (owned gids, labels, reference labels)}``.
    """
    out = {}
    for name, (n, edges) in cfg["graphs"].items():
        g = build_graph(comm, {"edges": edges, "n": n, "part": cfg["part"]})
        out[name] = (g.unmap[: g.n_loc].copy(), scc(comm, g),
                     reference_scc(comm, g))
    return out


def kern_reach_roots(comm, cfg):
    """Reach masks (owned part, by gid) from all of ``cfg["roots"]`` at
    once and from each root alone, per direction."""
    g = build_graph(comm, cfg)
    out = {}
    for direction in ("out", "in", "both"):
        adj = ClosureAdjacency(comm, g, direction)
        reach = [adj.reach_from(r) for r in [cfg["roots"], *cfg["roots"]]]
        out[direction] = [(mask[: g.n_loc].copy(), n) for mask, n in reach]
    return g.unmap[: g.n_loc].copy(), out


def build_grid(comm, cfg: dict):
    """2-D checkerboard build from the same picklable cfg dict."""
    edges = cfg["edges"]
    n = cfg["n"]
    chunk = np.array_split(edges, comm.size)[comm.rank]
    part = GridEdgePartition.from_edge_chunks(comm, chunk[:, 0], n,
                                              fallback=True)
    return build_grid_graph(comm, chunk, part,
                            edge_values=_chunk_values(comm, cfg),
                            symmetrize=cfg.get("symmetrize", False))


_DIST_ARRAYS = ("out_indexes", "out_edges", "in_indexes", "in_edges",
                "unmap", "ghost_tasks", "out_values", "in_values")
_GRID_ARRAYS = ("td_indexes", "td_edges", "bu_indexes", "bu_edges",
                "col_counts", "col_unmap", "td_values", "bu_values")


def graph_arrays(g) -> dict:
    """Every array a built graph holds, by name: for a ``DistGraph`` the
    hash map's key table and its occupied slots' values too, and the
    scalar fields as one ``meta`` array."""
    if isinstance(g, GridGraph):
        out = {name: getattr(g, name) for name in _GRID_ARRAYS}
        out["meta"] = np.array([g.n_global, g.m_global, g.row_lo,
                                g.grid_row, g.grid_col, g.symmetrized])
        return out
    out = {name: getattr(g, name) for name in _DIST_ARRAYS}
    keys = g.map._keys
    out["map.keys"] = keys
    out["map.vals"] = g.map._vals[keys != -1]
    out["meta"] = np.array([g.n_global, g.m_global])
    return out


def kern_build(comm, cfg):
    """Owned gids, out-degrees and a digest of every array (name, dtype,
    shape, bytes) of the 1-D build under ``cfg["part"]`` and of the grid
    build."""
    g = build_graph(comm, cfg)
    digest = hashlib.blake2b()
    for arrays in (graph_arrays(g), graph_arrays(build_grid(comm, cfg))):
        for name, a in arrays.items():
            meta = None if a is None else (a.dtype.str, a.shape)
            digest.update(f"{name}:{meta};".encode())
            if a is not None:
                digest.update(a.tobytes())
    return g.unmap[: g.n_loc].copy(), g.out_degrees(), digest.hexdigest()


def kern_build_oracle(comm, cfg):
    """Every builder beside its argsort reference on one edge list.

    cfg: ``{"edges", "n", "splits", "values", "owners", "symmetrize"}`` —
    rank r's chunk is ``edges[splits[r]:splits[r + 1]]`` (possibly empty),
    ``values`` is None or one weight per edge, ``owners`` the explicit
    partition's owner table.  Returns ``{case: (production arrays,
    reference arrays)}`` for the 1-D build under every partition kind
    (before and after ``sort_adjacency``) and for the grid build.
    """
    lo, hi = cfg["splits"][comm.rank], cfg["splits"][comm.rank + 1]
    chunk = cfg["edges"][lo:hi]
    vals = None if cfg["values"] is None else cfg["values"][lo:hi]
    n = cfg["n"]
    grid = GridEdgePartition.from_edge_chunks(comm, chunk[:, 0], n,
                                              fallback=True)
    parts = {
        "vblock": VertexBlockPartition(n, comm.size),
        "eblock": EdgeBlockPartition.from_edge_chunks(comm, chunk[:, 0], n),
        "rand": RandomHashPartition(n, comm.size, seed=42),
        "explicit": ExplicitPartition(cfg["owners"], comm.size),
        "grid": grid,
    }
    out = {}
    for kind, part in parts.items():
        new = build_dist_graph(comm, chunk, part, edge_values=vals)
        ref = reference_build_dist_graph(comm, chunk, part, edge_values=vals)
        out[kind] = (graph_arrays(new), graph_arrays(ref))
        out[f"{kind} sorted"] = (graph_arrays(new.sort_adjacency()),
                                 graph_arrays(reference_sort_adjacency(ref)))
    new = build_grid_graph(comm, chunk, grid, edge_values=vals,
                           symmetrize=cfg["symmetrize"])
    ref = reference_build_grid_graph(comm, chunk, grid, edge_values=vals,
                                     symmetrize=cfg["symmetrize"])
    out["2-D"] = (graph_arrays(new), graph_arrays(ref))
    return out


def _own_gids(g):
    return np.arange(g.own_lo, g.own_lo + g.n_own, dtype=np.int64)


def kern_grid_bfs(comm, cfg):
    g = build_grid(comm, cfg)
    levels = distributed_bfs_dirop(comm, g, cfg["root"])
    return _own_gids(g), levels


def kern_grid_wcc(comm, cfg):
    g = build_grid(comm, cfg)
    res = wcc(comm, g)
    return _own_gids(g), res.labels, int(res.giant_label)


def kern_grid_sssp(comm, cfg):
    g = build_grid(comm, cfg)
    res = delta_stepping(comm, g, cfg["root"])
    return _own_gids(g), res.distances, int(res.reached)


def _with_schedule(comm, g, call):
    """``call()``'s result beside the ``(op, bytes_sent)`` of every
    collective it issued on the world and grid sub-communicators."""
    comms = [comm]
    if isinstance(g, GridGraph):
        f2 = Frontier2D(comm, g)  # the cached grid sub-communicators
        comms += [c for c in (f2.row_comm, f2.col_comm) if c is not None]
    marks = [len(c.trace.events) for c in comms]
    res = call()
    return res, [[(e.op, e.bytes_sent) for e in c.trace.events[m:]]
                 for c, m in zip(comms, marks)]


def kern_delta_oracle(comm, cfg):
    """Δ-stepping beside the dense reference per Δ in ``cfg["deltas"]``,
    and (1-D) ``sssp`` beside the dense Bellman–Ford.

    cfg: ``{"edges", "n", "values", "part", "root", "deltas"}``; ``part``
    is a 1-D kind or ``"grid"``.  Δ = ∞ runs the reference at Δ = float
    max, the same single bucket.  Returns the owned gids and ``{key:
    (production, reference)}``, each side a tuple of distances, counters
    and collective schedule.
    """
    grid = cfg["part"] == "grid"
    root = cfg["root"]
    if grid:
        g = build_grid(comm, cfg)
        ref = partial(reference_grid_delta_stepping, comm, g, root)
    else:
        g = build_graph(comm, cfg)
        # the graph's halo and its float64 plan set up outside the calls
        halo_of(comm, g).exchange(np.zeros(g.n_total))
        ref = partial(reference_delta_stepping, comm, g, root)

    def side(call, fields):
        res, sched = _with_schedule(comm, g, call)
        return res.distances, tuple(getattr(res, f) for f in fields), sched

    out = {}
    counters = ("n_phases", "n_relax_rounds", "reached")
    for delta in cfg["deltas"]:
        ref_delta = sys.float_info.max if delta == np.inf else delta
        out[delta] = (
            side(lambda: delta_stepping(comm, g, root, delta),
                 counters),
            side(lambda: ref(ref_delta), counters))
    if not grid:  # schedules differ: sssp adds the phase allreduces
        counters = ("n_iters", "reached")
        out["sssp"] = (
            side(lambda: sssp(comm, g, root), counters)[:2],
            side(lambda: reference_bellman_ford(comm, g, root),
                 counters)[:2])
    return (_own_gids(g) if grid else g.unmap[: g.n_loc].copy()), out


def kern_delta_plan(comm, cfg):
    """Δ-stepping's cached relaxation plan on one graph.

    cfg: ``{"edges", "n", "values", "part", "root"}`` as for
    :func:`kern_delta_oracle`.  Runs explicit-Δ and explicit-weight calls
    on the fresh graph, two default calls, explicit calls again, and (1-D)
    ``sort_adjacency``.  Returns the owned gids, ``{case: (production,
    reference)}`` (distances, counters, schedule), and ``{check: bool}``
    for whether a plan was stored and kept at each step.
    """
    grid = cfg["part"] == "grid"
    root = cfg["root"]
    if grid:
        g = build_grid(comm, cfg)
        ref = partial(reference_grid_delta_stepping, comm, g, root)
    else:
        g = build_graph(comm, cfg)
        # the graph's halo and its float64 plan set up outside the calls
        halo_of(comm, g).exchange(np.zeros(g.n_total))
        ref = partial(reference_delta_stepping, comm, g, root)
    m = len(g.bu_edges if grid else g.in_edges)
    ones = np.ones(m)
    counters = ("n_phases", "n_relax_rounds", "reached")

    def side(call):
        res, sched = _with_schedule(comm, g, call)
        return (res.distances, tuple(getattr(res, f) for f in counters),
                sched)

    def case(**kw):
        return (side(lambda: delta_stepping(comm, g, root, **kw)),
                side(lambda: ref(**kw)))

    out, flags = {}, {}
    out["delta"] = case(delta=0.5)
    out["weights"] = case(weights=ones)
    flags["explicit calls store nothing"] = "relax_plan" not in g.derived
    out["first"] = case()
    plan = g.derived.get("relax_plan")
    flags["default call stores the plan"] = plan is not None
    out["second"] = case()
    out["weights after"] = case(weights=2 * ones)
    out["delta after"] = case(delta=1e6)
    flags["the plan is built once"] = g.derived.get("relax_plan") is plan
    if not grid:
        g.sort_adjacency()
        flags["sort_adjacency drops the plan"] = \
            "relax_plan" not in g.derived
    return (_own_gids(g) if grid else g.unmap[: g.n_loc].copy()), out, flags


def kern_collectives(comm, seed):
    """Mixed collective smoke: scalar, object, and flat-buffer paths."""
    rng = np.random.default_rng(seed + comm.rank)
    out = {}
    out["allreduce"] = comm.allreduce(comm.rank + 1, SUM)
    out["allreduce_max"] = comm.allreduce(
        float(rng.integers(0, 100)), MAX)
    out["allgather"] = comm.allgather(("rank", comm.rank))
    out["bcast"] = comm.bcast({"v": 42} if comm.rank == 0 else None, root=0)
    out["alltoall"] = comm.alltoall(
        [(comm.rank, d) for d in range(comm.size)])
    counts = [(comm.rank + d) % 3 + 1 for d in range(comm.size)]
    out["alltoallv"] = comm.alltoallv(
        [list(range(c)) for c in counts])
    got = comm.gatherv(np.arange(comm.rank + 2, dtype=np.int64), root=0)
    out["gatherv"] = (None if comm.rank
                      else (got[0].copy(), [int(c) for c in got[1]]))
    return out


def kern_plan(comm, rounds):
    """Fixed-shape alltoallv plans: fresh contents on every execute, and
    two live plans of different shape and dtype interleaved."""
    p, r = comm.size, comm.rank
    counts_a = np.array([(r + d) % 4 for d in range(p)], dtype=np.int64)
    counts_b = np.array([(r * d + 1) % 3 for d in range(p)], dtype=np.int64)
    plan_a = comm.alltoallv_plan(counts_a, dtype=np.int64)  # recv by alltoall
    plan_b = comm.alltoallv_plan(
        counts_b, recvcounts=[(s * r + 1) % 3 for s in range(p)],
        dtype=np.float32, tail=(2,))
    dest_a = np.repeat(np.arange(p), counts_a)
    dest_b = np.repeat(np.arange(p), counts_b)
    history = []
    for it in range(rounds):
        plan_a.sendbuf[:] = r * 1000 + dest_a * 10 + it
        plan_b.sendbuf[:, 0] = r + 0.5 * it
        plan_b.sendbuf[:, 1] = dest_b - 0.25 * it
        got_a = plan_a.execute().copy()
        got_b = plan_b.execute().copy()
        ref_a, _ = comm.alltoallv_flat(plan_a.sendbuf.copy(), counts_a)
        ref_b, _ = comm.alltoallv_flat(plan_b.sendbuf.copy(), counts_b)
        assert np.array_equal(got_a, ref_a)
        assert np.array_equal(got_b, ref_b)
        history.append((got_a, got_b, [int(c) for c in plan_a.recvcounts]))
    return history


def kern_route_updates(comm, seed):
    """``route_updates`` against the allgathered batch, batch by batch.

    Each rank must get exactly the rows whose source (out) or destination
    (in) it owns, in source-rank-then-chunk order, weights bit for bit.
    Batches grow, then shrink, and some ranks' chunks are empty.  Returns
    the ops each call recorded and the rows routed per call: (batch,
    out, in).
    """
    from repro.stream import DELETE, INSERT, UpdateBatch, route_updates

    n = 37
    part = VertexBlockPartition(n, comm.size)
    rng = np.random.default_rng(seed + comm.rank)
    ops, rows = [], []
    for i, k in enumerate((4, 40, 3, 0, 25, 1)):
        k = 0 if (i + comm.rank) % 3 == 0 else k + comm.rank
        weighted = i % 2 == 1
        batch = UpdateBatch(
            rng.integers(0, n, k), rng.integers(0, n, k),
            np.where(rng.random(k) < 0.5, INSERT, DELETE),
            rng.standard_normal(k) if weighted else None)
        full = UpdateBatch.concat(comm.allgather(batch))
        mark = len(comm.trace.events)
        got = route_updates(comm, part, batch)
        ops.append([e.op for e in comm.trace.events[mark:]])
        for owner, src, dst, op, vals in (
                (full.src, got.out_src, got.out_dst, got.out_op,
                 got.out_values),
                (full.dst, got.in_src, got.in_dst, got.in_op,
                 got.in_values)):
            mine = part.owner_of(owner) == comm.rank
            assert np.array_equal(src, full.src[mine])
            assert np.array_equal(dst, full.dst[mine])
            assert np.array_equal(op, full.op[mine])
            if weighted:
                assert np.array_equal(vals.view(np.int64),
                                      full.values[mine].view(np.int64))
            else:
                assert vals is None
        rows.append((batch.n, len(got.out_src), len(got.in_src)))
    return ops, rows


def kern_split(comm, _arg):
    color = comm.rank % 2
    sub = comm.split(color, key=comm.rank)
    tot = sub.allreduce(comm.rank, SUM)
    sub2 = comm.split(0 if comm.rank == 0 else None)
    lonely = sub2.size if sub2 is not None else -1
    return (color, sub.rank, sub.size, tot, lonely)


def kern_big_flat(comm, nrows):
    """One ``alltoallv_flat`` of ``nrows`` float64 rows per rank, split
    evenly over the destinations; returns the received rows' checksum
    pieces (source rank and row index of every row)."""
    p, r = comm.size, comm.rank
    send = np.arange(nrows, dtype=np.float64) + r * nrows
    counts = np.full(p, nrows // p, dtype=np.int64)
    counts[-1] += nrows - counts.sum()
    data, rc = comm.alltoallv_flat(send, counts)
    disp = np.concatenate(([0], np.cumsum(counts[:-1])))
    expect = np.concatenate([np.arange(disp[r], disp[r] + counts[r])
                             + s * nrows for s in range(p)])
    return bool(np.array_equal(data, expect)), rc.tolist()


def kern_fail(comm, fail_rank):
    comm.barrier()
    if comm.rank == fail_rank:
        # Deliberate divergence: this kernel tests abort propagation.
        raise ValueError(f"boom from rank {comm.rank}")  # spmdlint: disable=SPMD002
    comm.barrier()
    return "survived"


def kern_diverge(comm, _arg):
    # Rank 1 issues a different collective: the verifier must catch it.
    if comm.rank == 1:
        return comm.allgather(comm.rank)  # spmdlint: disable=SPMD001
    return comm.allreduce(comm.rank, SUM)  # spmdlint: disable=SPMD001


def kern_race(comm, _arg):
    # Write into a peer's borrowed (copy=False) payload: the sanitizer
    # must raise BufferRaceError instead of corrupting the peer's buffer.
    objs = comm.allgather(np.arange(4), copy=False)
    objs[(comm.rank + 1) % comm.size][0] = 99
    comm.barrier()
    return 0


def kern_return_unpicklable(comm, _arg):
    if comm.rank == 0:
        return lambda: None  # a closure: not picklable
    return None


def kern_stream_equiv(comm, cfg):
    """Incremental-vs-rebuild bitwise check, procs-shippable.

    Module-level mirror of the job inside
    ``test_stream_equivalence.run_equivalence``: apply each update epoch
    to a DynamicDistGraph and compare the incremental PageRank/WCC
    against static kernels on a from-scratch rebuild of the post-epoch
    edge list.  Returns one bool per epoch (all comparisons bitwise).
    """
    from repro.stream import (
        DynamicDistGraph,
        IncrementalPageRank,
        IncrementalWCC,
        UpdateBatch,
    )

    n = cfg["n"]
    chunk = np.array_split(cfg["edges"], comm.size)[comm.rank]
    part = VertexBlockPartition(n, comm.size)
    g = build_dist_graph(comm, chunk, part)
    dyn = DynamicDistGraph(comm, g,
                           compact_threshold=cfg.get("compact", 0.3))
    ipr = IncrementalPageRank(comm, dyn, max_iters=12, tol=1e-10)
    iwcc = IncrementalWCC(comm, dyn)
    ok = []
    for e, ops in enumerate(cfg["epochs"]):
        my = np.array_split(ops, comm.size)[comm.rank]
        dyn.apply(UpdateBatch(my[:, 0], my[:, 1], my[:, 2]))
        rchunk = np.array_split(cfg["state_edges"][e], comm.size)[comm.rank]
        rg = build_dist_graph(comm, rchunk, part).sort_adjacency()
        s_pr = pagerank(comm, rg, max_iters=12, tol=1e-10)
        i_pr = ipr.run()
        s_w = wcc(comm, rg)
        i_w = iwcc.run()
        ok.append(bool(np.array_equal(s_pr.scores, i_pr.scores)
                       and s_pr.n_iters == i_pr.n_iters
                       and np.array_equal(s_w.labels, i_w.labels)))
    return ok


def kern_replay_catchup(comm, cfg):
    """Journal replay as replica catch-up, procs-shippable.

    Two DynamicDistGraphs over the same base chunk and partition: ``live``
    applies each update batch as it arrives; ``replay`` applies the same
    sequenced batch list afterwards (what a replica's catch-up thread
    does with the group's update log).  Returns per-rank bitwise
    comparisons of the materialized views plus canonical result arrays,
    so the caller can also require threads == procs equality.
    """
    from repro.analytics import pagerank, wcc
    from repro.graph import build_dist_graph
    from repro.stream import DynamicDistGraph, UpdateBatch

    n = cfg["n"]
    chunk = np.array_split(cfg["edges"], comm.size)[comm.rank]
    kind = cfg.get("part", "vblock")
    if kind == "vblock":
        part = VertexBlockPartition(n, comm.size)
    elif kind == "eblock":
        part = EdgeBlockPartition.from_edge_chunks(comm, chunk[:, 0], n)
    elif kind == "rand":
        part = RandomHashPartition(n, comm.size, seed=42)
    elif kind == "grid":
        part = GridEdgePartition.from_edge_chunks(comm, chunk[:, 0], n,
                                                  fallback=True)
    else:
        raise ValueError(kind)
    live = DynamicDistGraph(
        comm, build_dist_graph(comm, chunk, part),
        compact_threshold=cfg.get("compact", 0.25))
    pinned = None
    for i, ops in enumerate(cfg["batches"]):
        my = np.array_split(ops, comm.size)[comm.rank]
        live.apply(UpdateBatch(my[:, 0], my[:, 1], my[:, 2]))
        # Interleaved serving reads (and a mid-stream epoch pin): the
        # replica being caught *up to* served queries while applying.
        if i == 0:
            pinned = live.epoch
            live.pin_epoch()
        pagerank(comm, live.view(), max_iters=4, tol=1e-12)
    if pinned is not None:
        live.release_epoch(pinned)

    replay = DynamicDistGraph(
        comm, build_dist_graph(comm, chunk, part),
        compact_threshold=cfg.get("compact", 0.25))
    for ops in cfg["batches"]:
        my = np.array_split(ops, comm.size)[comm.rank]
        replay.apply(UpdateBatch(my[:, 0], my[:, 1], my[:, 2]))

    va, vb = live.view(), replay.view()
    same_struct = bool(
        np.array_equal(va.out_indexes, vb.out_indexes)
        and np.array_equal(va.unmap[va.out_edges], vb.unmap[vb.out_edges])
        and np.array_equal(va.in_indexes, vb.in_indexes)
        and np.array_equal(va.unmap[va.in_edges], vb.unmap[vb.in_edges]))
    pa = pagerank(comm, va, max_iters=10, tol=1e-12)
    pb = pagerank(comm, vb, max_iters=10, tol=1e-12)
    wa = wcc(comm, va)
    wb = wcc(comm, vb)
    return {
        "epoch": (live.epoch, replay.epoch),
        "m_global": (live.m_global, replay.m_global),
        "same_struct": same_struct,
        "pr_bitwise": bool(np.array_equal(pa.scores, pb.scores)),
        "wcc_bitwise": bool(np.array_equal(wa.labels, wb.labels)),
        "own_gids": va.unmap[: va.n_loc].copy(),
        "pr": pa.scores,
        "wcc": wa.labels,
    }


def make_counter(payload):
    """Session factory: counts calls in resident per-rank state."""
    step = payload["step"]

    def fn(comm, state):
        state["calls"] = state.get("calls", 0) + step
        return comm.allgather(state["calls"])

    return fn


def halo_setups(events) -> int:
    """The halo setup collectives among trace ``events``."""
    return sum(e.op == "alltoallv" and e.region == "halo.setup"
               for e in events)


def make_resident_graph(payload):
    """Session factory: build ``payload`` (``{"edges", "n"}``) into the
    resident ``state["graph"]``, as the serving engine's build does."""

    def fn(comm, state):
        state["graph"] = build_graph(comm, {**payload, "part": "vblock"})

    return fn


def make_engine_job(payload):
    """Session factory: the serving engine's ``payload["factory"]`` job
    on the resident graph.  Returns its result beside the halo setups the
    job made, the id of the send queue the graph's cached halo retains,
    and whether that halo is bound to this job's communicator."""
    from repro.service import engine

    inner = getattr(engine, payload["factory"])(payload["payload"])

    def fn(comm, state):
        out = inner(comm, state)
        halo = state["graph"].derived.get("halo")
        return (out, halo_setups(comm.trace.events),
                id(halo._send_lids) if halo else None,
                halo is not None and halo.comm is comm)

    return fn


def make_failer(payload):
    def fn(comm, state):
        if comm.rank == payload["rank"]:
            raise RuntimeError("session job boom")  # spmdlint: disable=SPMD002
        comm.barrier()
        return state.get("calls", 0)

    return fn
