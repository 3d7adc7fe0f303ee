"""``wcc()`` against the coloring-loop reference in ``wcc_reference.py``.

The production kernel colors the vertices the giant's reach leaves with
one ``propagate_min`` closure; the reference re-reduces every leftover
row once per iteration.  Both label a vertex with the minimum id of its
weak component, so labels and the giant's label must be equal bit for
bit.  Checked over 1/2/4 ranks × vblock/eblock/rand on a synthetic crawl,
raw R-MAT (duplicates, self-loops), a giant with many small components
beside it, paths whose ids ascend and descend along the path (one
coloring hop per vertex), stars, self-loops only, isolated vertices, an
empty graph and a graph small enough that a rank owns no vertex.  The
main matrix follows ``REPRO_BACKEND``; the procs test runs it on spawned
processes whatever the environment says.
"""

from __future__ import annotations

import numpy as np
import pytest

import spmd_kernels as K
from conftest import PARTITION_KINDS, gather_by_gid
from repro.baselines import wcc_labels_ref
from repro.generators import rmat_edges, webcrawl_edges
from repro.runtime import run_spmd


def _edges(pairs) -> np.ndarray:
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def _graphs() -> dict:
    rng = np.random.default_rng(7)
    # A dense giant on 0..59 and 30 components of 1-5 vertices beside it,
    # under shuffled ids so the small components' least ids are scattered.
    giant = rng.integers(0, 60, size=(300, 2))
    sizes = rng.integers(1, 6, 30)
    starts = 60 + np.concatenate(([0], np.cumsum(sizes)[:-1]))
    small = [(b + i, b + i + 1) for b, k in zip(starts, sizes)
             for i in range(k - 1)]
    n_mixed = int(60 + sizes.sum())
    ids = rng.permutation(n_mixed)
    mixed = ids[np.concatenate((giant, _edges(small)))]
    path = _edges([(i, i + 1) for i in range(39)])
    return {
        "web": (400, webcrawl_edges(400, avg_degree=5, seed=13)),
        "rmat": (256, rmat_edges(8, edge_factor=3.0, seed=4)),
        "giant_and_small": (n_mixed, mixed),
        # Paths with no giant beside them: the pivot's reach takes one,
        # the coloring gets the rest.
        "paths_up": (120, np.concatenate((path, path + 40, path + 80))),
        "paths_down": (120, 119 - np.concatenate((path, path + 40,
                                                  path + 80))),
        "stars": (40, _edges([(c * 10, c * 10 + i) for c in range(4)
                              for i in range(1, 10)])),
        "self_loops": (8, _edges([(i, i) for i in range(8)])),
        "isolated": (50, rng.integers(0, 20, size=(40, 2))),
        "empty": (5, _edges([])),
        "tiny": (3, _edges([(0, 1), (1, 0), (2, 2)])),
    }


GRAPHS = _graphs()


def _check(outs):
    for name, (n, edges) in GRAPHS.items():
        per_rank = [o[name] for o in outs]
        got = gather_by_gid(per_rank, 1)
        want = gather_by_gid(per_rank, 2)
        assert got.dtype == want.dtype == np.int64, name
        assert len(got) == n, name
        assert got.tobytes() == want.tobytes(), name
        assert np.array_equal(got, wcc_labels_ref(n, edges)), name
        assert {(o[3], o[4]) for o in per_rank} == {(per_rank[0][4],) * 2}


@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("part", PARTITION_KINDS)
def test_labels_match_reference(p, part):
    outs = run_spmd(p, K.kern_wcc_oracle, {"graphs": GRAPHS, "part": part},
                    timeout=300.0)
    _check(outs)
    if p == 4 and part == "vblock":
        assert any(len(o["tiny"][0]) == 0 for o in outs)


@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("part", PARTITION_KINDS)
def test_labels_match_reference_procs(p, part):
    _check(run_spmd(p, K.kern_wcc_oracle, {"graphs": GRAPHS, "part": part},
                    backend="procs", timeout=300.0))
