"""The local-fixed-point k-core kernels against the BSP reference kernels.

Both k-core steps are closures whose result is a function of the graph
alone, so the production kernels (``repro.analytics.closure`` supersteps)
must reproduce the reference kernels (``kcore_reference``: full degree
rescan per round, level-synchronous BFS) *exactly* — every field, every
rank count, every partition, both runtimes — while doing bounded work.
"""

from __future__ import annotations

import numpy as np
import pytest

import spmd_kernels as K
from conftest import PARTITION_KINDS
from repro.generators import rmat_edges, webcrawl_edges
from repro.graph import build_dist_graph
from repro.partition import VertexBlockPartition
from repro.runtime import run_spmd
from repro.stream import DynamicDistGraph, IncrementalKCore, UpdateBatch

MAX_STAGE = 9


def _clique(k, base=0):
    return [(base + i, base + j) for i in range(k) for j in range(k) if i != j]


def _edges(pairs):
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def _graphs():
    """name -> {"edges", "n"}; every shape the sweep branches on."""
    # Hub 0 has the highest degree and coreness 1: it is peeled at stage 1
    # and the LCC pivot must move to the clique hanging off leaf 1.
    star = [(0, v) for v in range(1, 41)] + [(1, 41)] + _clique(9, base=41)
    # Two dense components, a path, isolated vertices.
    multi = (_clique(10) + _clique(8, base=10)
             + [(18, 19), (19, 20), (20, 21)])
    # Hub 0 (60 leaves, last stage survived 1) bridges blob A (a 6-clique
    # at 1..6 whose vertex 1 has 40 leaves: last stage 3) and blob B (a
    # 12-clique at 7..18: last stage 4), and 1-7 bridges the blobs.  The
    # pivot is the hub, then vertex 1 once the hub dies, then a B vertex
    # once A dies: the region narrows twice.
    hub_blobs = ([(0, v) for v in range(100, 160)] + [(0, 1), (0, 2), (0, 7)]
                 + _clique(6, base=1) + _clique(12, base=7) + [(1, 7)]
                 + [(1, v) for v in range(160, 200)])
    # Cliques of 3, 5, 9 and 17 (last stages 1-4) chained by single
    # edges; each clique's first vertex has leaves, more on the sparser
    # cliques, so the pivot starts in the sparsest and moves inward.
    shells, base, leaf = [], 0, 40
    for size, leaves in ((3, 60), (5, 45), (9, 30), (17, 10)):
        shells += _clique(size, base=base)
        shells += [(base, v) for v in range(leaf, leaf + leaves)]
        if base:
            shells.append((base - 1, base))
        base, leaf = base + size, leaf + leaves
    return {
        "web": {"edges": webcrawl_edges(300, avg_degree=6, seed=11),
                "n": 300},
        "rmat": {"edges": rmat_edges(7, edge_factor=4.0, seed=5), "n": 128},
        "star_hub": {"edges": _edges(star), "n": 50},
        "multi_component": {"edges": _edges(multi), "n": 25},
        "hub_blobs": {"edges": _edges(hub_blobs), "n": 200},
        "nested_shells": {"edges": _edges(shells), "n": leaf},
        "no_edges": {"edges": _edges([]), "n": 6},
        # self-loop, duplicate and reciprocal edges; fewer vertices than
        # ranks at p=4, so one rank owns nothing.
        "tiny_multigraph": {"edges": _edges([(0, 0), (1, 2), (1, 2), (2, 1)]),
                            "n": 3},
    }


GRAPHS = _graphs()


def _check(outs):
    for rank_out in outs:
        for name, row in rank_out.items():
            for variant in ("approx_lcc=True", "approx_lcc=False", "exact"):
                new, ref = row[variant]
                for got, want in zip(new, ref):
                    if isinstance(want, np.ndarray):
                        assert got.dtype == want.dtype, (name, variant)
                        assert np.array_equal(got, want), (name, variant)
                    else:
                        assert got == want, (name, variant)
            # Local fixed points only ever merge BSP rounds.
            rounds, ref_rounds = row["exact_rounds"]
            assert rounds <= ref_rounds, name


@pytest.mark.parametrize("part", PARTITION_KINDS)
@pytest.mark.parametrize("nranks", [1, 2, 4])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_matches_reference_threads(name, nranks, part):
    cfg = {"graphs": {name: GRAPHS[name]}, "part": part,
           "max_stage": MAX_STAGE}
    _check(run_spmd(nranks, K.kern_kcore_oracle, cfg, backend="threads"))


@pytest.mark.parametrize("part", PARTITION_KINDS)
@pytest.mark.parametrize("nranks", [1, 2, 4])
def test_matches_reference_procs(nranks, part):
    """Same matrix on spawned processes (one world per cell runs every
    graph: a spawn costs more than the kernels)."""
    cfg = {"graphs": GRAPHS, "part": part, "max_stage": MAX_STAGE}
    _check(run_spmd(nranks, K.kern_kcore_oracle, cfg, backend="procs",
                    timeout=180.0))


def test_star_hub_pivot_leaves_at_stage_one():
    """The shape the star_hub graph exists for, checked on its own: the
    max-degree vertex goes at stage 1 and the clique outlives it."""
    cfg = {"graphs": {"s": GRAPHS["star_hub"]}, "part": "vblock",
           "max_stage": MAX_STAGE}
    outs = run_spmd(2, K.kern_kcore_oracle, cfg, backend="threads")
    gids = np.concatenate([o["s"]["gids"] for o in outs])
    stage = np.concatenate([o["s"]["approx_lcc=True"][0][0] for o in outs])
    stage = stage[np.argsort(gids)]
    assert stage[0] == 1 and (stage[1:41] == 1).all()
    assert (stage[41:] == 5).all()  # degree 2*8 = 16 survives k=16, not 32


@pytest.mark.parametrize("part", PARTITION_KINDS)
@pytest.mark.parametrize("nranks", [1, 2, 4])
@pytest.mark.parametrize("max_stage", [2, 4])
@pytest.mark.parametrize("name", ["hub_blobs", "nested_shells"])
def test_pivot_changes_at_low_max_stage(name, max_stage, nranks, part):
    """The graphs whose pivot dies mid-sweep, cut off before, at and after
    the pivot changes."""
    cfg = {"graphs": {name: GRAPHS[name]}, "part": part,
           "max_stage": max_stage}
    _check(run_spmd(nranks, K.kern_kcore_oracle, cfg, backend="threads"))


@pytest.mark.parametrize("part", PARTITION_KINDS)
@pytest.mark.parametrize("nranks", [1, 2, 4])
@pytest.mark.parametrize("name", ["web", "rmat", "multi_component",
                                  "hub_blobs", "nested_shells"])
def test_closure_work_is_bounded(name, nranks, part):
    """Every stage's peel first, then one widest-path closure per pivot.
    The peels together read each stored entry at most once, because a
    vertex dies once; a widest-path closure re-reads a row only after its
    vertex's width rose.  The driven schedule gives ``approx_kcore``'s
    stages, and its work totals are the trace counters."""
    cfg = {**GRAPHS[name], "part": part, "max_stage": MAX_STAGE}
    outs = run_spmd(nranks, K.kern_closure_work, cfg, backend="threads")
    for calls, n_entries, stages_agree, driven, counted, falls_ok in outs:
        assert stages_agree and falls_ok
        kinds = [kind for kind, _, _ in calls]
        n_peels = kinds.count("peel")
        assert kinds == ["peel"] * n_peels + ["widest"] * driven[2]
        assert sum(s for _, _, s in calls[:n_peels]) <= n_entries
        assert driven == counted
        assert driven[:2] == (sum(ss for _, ss, _ in calls),
                              sum(s for _, _, s in calls))
        if nranks == 1:
            # One superstep does the work, one confirms the fixed point.
            assert all(ss <= 2 for _, ss, _ in calls)
    pivots = {o[3][2] for o in outs}  # global
    assert len(pivots) == 1
    assert pivots.pop() == {"hub_blobs": 3, "nested_shells": 4}.get(name, 1)


def test_work_counters_reach_trace_and_stats():
    """supersteps / edges_scanned / pivots are reported three ways that
    must agree: on the result, in ``comm.trace.counters`` and, summed over
    recomputes, in ``IncrementalKCore.stats`` (a reused result adds
    nothing)."""
    web = GRAPHS["web"]

    def job(comm):
        chunk = np.array_split(web["edges"], comm.size)[comm.rank]
        g = build_dist_graph(comm, chunk,
                             VertexBlockPartition(web["n"], comm.size))
        dyn = DynamicDistGraph(comm, g)
        ikc = IncrementalKCore(comm, dyn, max_stage=MAX_STAGE)
        first = ikc.run()
        dyn.apply(UpdateBatch.inserts(np.array([[0, 7]])) if comm.rank == 0
                  else UpdateBatch.empty())
        second = ikc.run()
        dyn.apply(UpdateBatch.empty())
        assert ikc.run() is second  # no effective change: reused
        for key in ("supersteps", "edges_scanned", "pivots"):
            total = getattr(first, key) + getattr(second, key)
            assert ikc.stats[key] == total
            assert comm.trace.counters[f"kcore.{key}"] == total
        assert first.supersteps >= first.stages_run  # >= 1 per peel
        return first.supersteps, ikc.stats["recomputes"]

    outs = run_spmd(2, job, backend="threads")
    assert outs[0] == outs[1]  # supersteps are global
    assert outs[0][1] == 2


def test_closure_rows_are_shared_per_graph():
    """WCC and the k-core sweep on one graph read one cached row
    structure; ``sort_adjacency`` replaces the CSR arrays and drops it, so
    the next kernel builds rows over the sorted arrays."""
    from repro.analytics import approx_kcore, wcc
    from repro.analytics.closure import (
        ClosureRows, closure_rows, undirected_rows)

    web = GRAPHS["web"]

    def job(comm):
        chunk = np.array_split(web["edges"], comm.size)[comm.rank]
        g = build_dist_graph(comm, chunk,
                             VertexBlockPartition(web["n"], comm.size))
        wcc(comm, g)
        rows = closure_rows(g, "both")
        before = approx_kcore(comm, g, max_stage=MAX_STAGE)
        shared = closure_rows(g, "both") is rows
        shared &= undirected_rows(g)[1] is rows.adj
        g.sort_adjacency()
        after = approx_kcore(comm, g, max_stage=MAX_STAGE)
        fresh = closure_rows(g, "both")
        want = ClosureRows(g, "both").adj
        rebuilt = (np.array_equal(fresh.adj, want)
                   and not np.array_equal(rows.adj, want))  # order moved
        return (shared, rebuilt,
                np.array_equal(before.stage_removed, after.stage_removed))

    for shared, rebuilt, same in run_spmd(2, job, backend="threads"):
        assert shared and rebuilt and same
