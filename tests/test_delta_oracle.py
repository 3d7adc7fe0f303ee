"""The one SSSP engine against the dense loops in ``delta_reference.py``.

``delta_stepping`` (1-D), ``grid_delta_stepping`` and ``sssp`` (its Δ = ∞
case) relax only the sources whose distance changed; the references relax
every bucket member.  They must agree bit for bit on distances, on
``n_phases`` / ``n_relax_rounds`` / ``reached``, and on the per-call
``(op, bytes_sent)`` collective schedule, over 1/2/4 ranks ×
vblock/eblock/rand/grid, on graphs with stored edge values (duplicate
edges, self-loops), zero-weight edges and unreachable vertices, and
Δ ∈ {tiny, default, huge, ∞}.  Δ = ∞ is compared with the reference at
Δ = float max — the same single bucket ``[0, …)`` — and ``sssp`` with the
dense Bellman–Ford.  On an R-MAT graph with the default hash weights the
distances also match ``scipy.sparse.csgraph.dijkstra``.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

import spmd_kernels as K
from conftest import PARTITION_KINDS, dist_run, gather_by_gid
from repro.analytics import default_weights
from repro.generators import rmat_edges
from repro.runtime import run_spmd

DELTAS = (0.25, None, 1e6, np.inf)  # tiny, default (mean weight), huge, ∞
PARTS = PARTITION_KINDS + ("grid",)


def _weighted():
    """Random multigraph with stored values in [1, 10)."""
    rng = np.random.default_rng(7)
    n = 150
    edges = rng.integers(0, n, size=(700, 2), dtype=np.int64)
    return n, edges, 1.0 + 9.0 * rng.random(len(edges))


def _zeros_unreachable():
    """A fifth of the values are 0; vertices ≥ 100 are not reachable from
    the low half (edges only run into them from among themselves)."""
    rng = np.random.default_rng(11)
    n = 130
    low = rng.integers(0, 100, size=(500, 2), dtype=np.int64)
    high = rng.integers(100, n, size=(40, 2), dtype=np.int64)
    edges = np.concatenate([low, high])
    values = rng.integers(0, 5, len(edges)).astype(np.float64)
    values[rng.random(len(edges)) < 0.2] = 0.0
    return n, edges, values


def _oracle(edges, values, n, p, part, root):
    """Per-rank ``(gids, {key: (production, reference)})``; follows
    ``REPRO_BACKEND``, so the procs backend runs this file too."""
    cfg = {"edges": edges, "n": n, "values": values, "part": part,
           "root": root, "deltas": DELTAS}
    return run_spmd(p, K.kern_delta_oracle, cfg, timeout=180.0)


def _distances(outs, key):
    return gather_by_gid([(o[0], o[1][key][0][0]) for o in outs])


@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("part", PARTS)
@pytest.mark.parametrize("graph", [_weighted, _zeros_unreachable],
                         ids=["weighted", "zeros_unreachable"])
def test_matches_dense_reference(graph, p, part):
    n, edges, values = graph()
    root = int(edges[0, 0])
    outs = _oracle(edges, values, n, p, part, root)
    for _, per_key in outs:
        for key, (got, want) in per_key.items():
            assert got[0].tobytes() == want[0].tobytes(), key  # distances
            assert got[1:] == want[1:], key  # counters, schedule
    inf = _distances(outs, np.inf)
    for d in DELTAS:  # every Δ gives the same distances
        assert _distances(outs, d).tobytes() == inf.tobytes()
    assert inf[root] == 0.0
    if graph is _zeros_unreachable:
        assert np.isinf(inf[100:]).all()
        assert np.isfinite(inf).sum() > 50


@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("part", PARTS)
def test_rmat_matches_scipy_dijkstra(p, part):
    n = 256
    edges = np.unique(rmat_edges(8, edge_factor=6.0, seed=4), axis=0)
    root = int(np.bincount(edges[:, 0], minlength=n).argmax())

    def weights(comm, g):
        rows = np.repeat(np.arange(g.n_loc), np.diff(g.in_indexes))
        return g.unmap[g.in_edges], g.unmap[rows], default_weights(g)

    (src, dst, w), = dist_run(edges, n, 1, weights)
    want = dijkstra(csr_matrix((w, (src, dst)), shape=(n, n)), indices=root)

    outs = _oracle(edges, None, n, p, part, root)
    fin = np.isfinite(want)
    for d in DELTAS:
        got = _distances(outs, d)
        assert np.array_equal(np.isfinite(got), fin)
        assert np.allclose(got[fin], want[fin], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("part", PARTS)
def test_relax_plan_is_cached_per_graph(p, part):
    """The default plan (Δ and the light/heavy entry lists) is built by
    the first default call and read by the next: distances, counters and
    schedule equal the reference, except that the second call skips the
    two Δ reductions.  Explicit ``delta=`` / ``weights=`` calls neither
    store a plan nor read the stored one; ``sort_adjacency`` drops it."""
    n, edges, values = _weighted()
    root = int(edges[0, 0])
    outs = run_spmd(p, K.kern_delta_plan,
                    {"edges": edges, "n": n, "values": values, "part": part,
                     "root": root}, timeout=180.0)
    for _, cases, flags in outs:
        assert all(flags.values()), flags
        for key, (got, want) in cases.items():
            assert got[0].tobytes() == want[0].tobytes(), key
            assert got[1] == want[1], key
            if key != "second":
                assert got[2] == want[2], key
        first, second = cases["first"][0][2], cases["second"][0][2]
        assert [op for op, _ in first[0][:2]] == ["allreduce[SUM]"] * 2
        assert second[0] == first[0][2:] and second[1:] == first[1:]
        assert cases["second"][0][0].tobytes() == cases["first"][0][0].tobytes()
