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
    return {
        "web": {"edges": webcrawl_edges(300, avg_degree=6, seed=11),
                "n": 300},
        "rmat": {"edges": rmat_edges(7, edge_factor=4.0, seed=5), "n": 128},
        "star_hub": {"edges": _edges(star), "n": 50},
        "multi_component": {"edges": _edges(multi), "n": 25},
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
@pytest.mark.parametrize("name", ["web", "rmat", "multi_component"])
def test_closure_work_is_bounded(name, nranks, part):
    """Each closure reads a stored entry at most once, so a stage (peel +
    reach) reads at most twice the stored entries; and over the whole
    sweep the peels together read each entry at most once, because a
    vertex dies once."""
    cfg = {**GRAPHS[name], "part": part, "max_stage": MAX_STAGE}
    for calls, n_entries in run_spmd(nranks, K.kern_closure_work, cfg,
                                     backend="threads"):
        assert calls and calls[0][0] == "peel"
        for _, _, scanned in calls:
            assert scanned <= n_entries
        peel_total = sum(s for kind, _, s in calls if kind == "peel")
        assert peel_total <= n_entries
        stages = [calls[i:i + 2] for i in range(0, len(calls), 2)]
        for stage in stages:
            assert sum(s for _, _, s in stage) <= 2 * n_entries
        if nranks == 1:
            # One superstep does the work, one confirms the fixed point.
            assert all(ss <= 2 for _, ss, _ in calls)


def test_work_counters_reach_trace_and_stats():
    """supersteps / edges_scanned are reported three ways that must agree:
    on the result, in ``comm.trace.counters`` and, summed over recomputes,
    in ``IncrementalKCore.stats`` (a reused result adds nothing)."""
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
        for key in ("supersteps", "edges_scanned"):
            total = getattr(first, key) + getattr(second, key)
            assert ikc.stats[key] == total
            assert comm.trace.counters[f"kcore.{key}"] == total
        assert first.supersteps >= first.stages_run  # >= 1 per peel
        return first.supersteps, ikc.stats["recomputes"]

    outs = run_spmd(2, job, backend="threads")
    assert outs[0] == outs[1]  # supersteps are global
    assert outs[0][1] == 2
