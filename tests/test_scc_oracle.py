"""``scc()`` against the pivot-loop reference in ``scc_reference.py``.

The production decomposition (trim, the giant's FW–BW, then min-label
coloring rounds) and the reference (one pivot's FW–BW per round) both
label a vertex with the minimum id of its SCC, so their labels must be
equal bit for bit.  Checked over 1/2/4 ranks × vblock/eblock/rand on a
synthetic crawl, raw R-MAT (duplicates, self-loops), a DAG, one cycle,
disjoint small cycles, 2-cycles chained with ids ascending, descending
and shuffled along the links, a DAG of small cycles under shuffled ids
(where a vertex's least ancestor mostly lies outside its own SCC),
self-loops, a multigraph, isolated vertices, an empty graph and a graph
small enough that a rank owns no vertex.  The R-MAT labels are also
checked against
``scipy.sparse.csgraph.connected_components(connection="strong")``.
Follows ``REPRO_BACKEND``, so the procs backend runs this file too.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

import spmd_kernels as K
from conftest import PARTITION_KINDS, gather_by_gid
from repro.generators import rmat_edges, webcrawl_edges
from repro.runtime import run_spmd


def _edges(pairs) -> np.ndarray:
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def chained_pairs(k: int, ascending: bool = True) -> tuple[int, np.ndarray]:
    """``k`` 2-cycles ``2i <-> 2i+1`` linked by ``2i+1 -> 2i+2``: no vertex
    is trimmed and every pair is its own SCC.  ``ascending=False`` relabels
    ``v -> 2k-1-v``, so the links run from higher to lower ids."""
    pairs = [(2 * i, 2 * i + 1) for i in range(k)]
    pairs += [(2 * i + 1, 2 * i) for i in range(k)]
    pairs += [(2 * i + 1, 2 * i + 2) for i in range(k - 1)]
    edges = _edges(pairs)
    return 2 * k, edges if ascending else 2 * k - 1 - edges


def cycle_dag(n_cycles: int, seed: int) -> tuple[int, np.ndarray]:
    """Cycles of 1–4 vertices under shuffled ids, linked by random edges
    that follow one random order of the cycles: a DAG of SCCs in which a
    vertex's least ancestor is usually outside its own SCC."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 5, n_cycles)
    n = int(sizes.sum())
    ids = rng.permutation(n)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    pairs = [(ids[b + i], ids[b + (i + 1) % k])
             for b, k in zip(starts, sizes) if k > 1 for i in range(k)]
    a, b = np.sort(rng.integers(0, n_cycles, size=(3 * n_cycles, 2)),
                   axis=1).T
    links = a < b
    pairs += zip(ids[starts[a[links]] + rng.integers(0, sizes[a[links]])],
                 ids[starts[b[links]] + rng.integers(0, sizes[b[links]])])
    return n, _edges(pairs)


def _graphs() -> dict:
    rng = np.random.default_rng(5)
    n_pairs, pairs = chained_pairs(64)
    dag = np.sort(rng.integers(0, 80, size=(300, 2)), axis=1)
    cycles = [(4 * c + i, 4 * c + (i + 1) % 4) for c in range(5)
              for i in range(4)]
    loops = [(i, (i + 1) % 6) for i in range(6)] + [(i, i) for i in range(10)]
    return {
        "web": (500, np.unique(webcrawl_edges(500, avg_degree=6, seed=11),
                               axis=0)),
        "rmat": (256, rmat_edges(8, edge_factor=4.0, seed=3)),
        "dag": (80, dag[dag[:, 0] < dag[:, 1]]),
        "cycle": (7, _edges([(i, (i + 1) % 7) for i in range(7)])),
        "small_cycles": (20, _edges(cycles)),
        "pairs_up": chained_pairs(64),
        "pairs_down": chained_pairs(64, ascending=False),
        "pairs_shuffled": (n_pairs, rng.permutation(n_pairs)[pairs]),
        "cycle_dag": cycle_dag(60, seed=8),
        "self_loops": (10, _edges(loops)),
        "multi": (60, rng.integers(0, 60, size=(400, 2))),
        "isolated": (50, rng.integers(0, 20, size=(60, 2))),
        "empty": (4, _edges([])),
        "tiny": (3, _edges([(0, 1), (1, 0), (2, 2)])),
    }


GRAPHS = _graphs()


def _scipy_labels(n: int, edges: np.ndarray) -> np.ndarray:
    """Strong components with each labelled by its minimum id."""
    a = csr_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
                   shape=(n, n))
    _, comp = connected_components(a, directed=True, connection="strong")
    least = np.full(comp.max() + 1, n, dtype=np.int64)
    np.minimum.at(least, comp, np.arange(n))
    return least[comp]


@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("part", PARTITION_KINDS)
def test_labels_match_reference(p, part):
    outs = run_spmd(p, K.kern_scc_oracle, {"graphs": GRAPHS, "part": part},
                    timeout=300.0)
    for name, (n, edges) in GRAPHS.items():
        per_rank = [o[name] for o in outs]
        got = gather_by_gid(per_rank, 1)
        want = gather_by_gid(per_rank, 2)
        assert got.dtype == want.dtype == np.int64, name
        assert len(got) == n, name
        assert got.tobytes() == want.tobytes(), name
    if p == 4 and part == "vblock":
        assert any(len(o["tiny"][0]) == 0 for o in outs)
    rmat = gather_by_gid([o["rmat"] for o in outs], 1)
    assert np.array_equal(rmat, _scipy_labels(*GRAPHS["rmat"]))
    assert len(np.unique(rmat)) > 1 and rmat.max() > 0
