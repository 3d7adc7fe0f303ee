"""Cross-backend equivalence: threads vs procs, bitwise.

The backend contract (DESIGN.md §12): a kernel's per-rank results are a
pure function of the collective schedule, so running the same kernel on
the threads runtime and on the spawned-process runtime must produce
**bitwise identical** outputs — same scores, same iteration counts, same
dtypes — at every rank count and partition kind.  All runs have the
collective-schedule verifier (conftest default) and the buffer sanitizer
enabled, which is the acceptance configuration for the procs backend.
"""

from __future__ import annotations

import numpy as np
import pytest

import spmd_kernels as K
from repro.generators import rmat_edges
from repro.runtime import run_spmd, spmd_traces

N = 128
SOURCES = np.array([0, 5, 77, 5], dtype=np.int64)  # one duplicated


@pytest.fixture(scope="module")
def graph_edges():
    return rmat_edges(7, edge_factor=4.0, seed=5)  # n=128, skewed degrees


def _run(kernel, cfg, nranks, backend):
    outs = run_spmd(nranks, kernel, cfg, backend=backend, timeout=180.0,
                    sanitize=True)
    gids = np.concatenate([np.asarray(o[0]) for o in outs])
    vals = np.concatenate([np.asarray(o[1]) for o in outs])
    order = np.argsort(gids)
    return vals[order], tuple(o[2:] for o in outs)


def _assert_bitwise(kernel, cfg, nranks):
    ref_vals, ref_extra = _run(kernel, cfg, nranks, "threads")
    got_vals, got_extra = _run(kernel, cfg, nranks, "procs")
    assert got_vals.dtype == ref_vals.dtype
    assert np.array_equal(got_vals, ref_vals)
    assert repr(got_extra) == repr(ref_extra)
    return ref_vals


@pytest.mark.parametrize("nranks", [1, 2, 4])
def test_pagerank_bitwise_across_ranks(graph_edges, nranks):
    cfg = {"edges": graph_edges, "n": N, "part": "vblock", "iters": 15}
    scores = _assert_bitwise(K.kern_pagerank, cfg, nranks)
    assert abs(scores.sum() - 1.0) < 1e-9


@pytest.mark.parametrize("nranks", [1, 2, 4])
def test_wcc_bitwise_across_ranks(graph_edges, nranks):
    cfg = {"edges": graph_edges, "n": N, "part": "vblock"}
    labels = _assert_bitwise(K.kern_wcc, cfg, nranks)
    assert len(np.unique(labels)) >= 1


@pytest.mark.parametrize("nranks", [1, 2, 4])
def test_bfs_dirop_bitwise_across_ranks(graph_edges, nranks):
    hub = int(np.bincount(graph_edges[:, 0], minlength=N).argmax())
    cfg = {"edges": graph_edges, "n": N, "part": "vblock", "root": hub}
    levels = _assert_bitwise(K.kern_bfs_dirop, cfg, nranks)
    assert (levels >= 0).sum() > 1  # the root reached something


@pytest.mark.parametrize("kernel", [K.kern_msbfs, K.kern_harmonic],
                         ids=["msbfs", "harmonic"])
@pytest.mark.parametrize("nranks", [1, 2, 4])
def test_bfs_engine_bitwise_across_ranks(graph_edges, nranks, kernel):
    cfg = {"edges": graph_edges, "n": N, "part": "vblock",
           "sources": SOURCES}
    levels = _assert_bitwise(kernel, cfg, nranks)
    assert levels.shape == (N, len(SOURCES))
    assert np.array_equal(levels[:, 1], levels[:, 3])  # duplicated source


@pytest.mark.parametrize("nranks", [1, 2, 4])
def test_scc_bitwise_across_ranks(graph_edges, nranks):
    cfg = {"edges": graph_edges, "n": N, "part": "vblock"}
    labels = _assert_bitwise(K.kern_scc, cfg, nranks)
    assert (labels <= np.arange(N)).all()  # min-id labels


@pytest.mark.parametrize("mode", ["sync", "async"])
@pytest.mark.parametrize("nranks", [1, 2, 4])
def test_label_propagation_bitwise_across_ranks(graph_edges, nranks, mode):
    cfg = {"edges": graph_edges, "n": N, "part": "vblock", "mode": mode}
    labels = _assert_bitwise(K.kern_label_propagation, cfg, nranks)
    assert ((labels >= 0) & (labels < N)).all()


@pytest.mark.parametrize("nranks", [1, 2, 4])
def test_delta_stepping_bitwise_across_ranks(graph_edges, nranks):
    cfg = {"edges": graph_edges, "n": N, "part": "vblock", "root": 0}
    dist = _assert_bitwise(K.kern_delta_stepping, cfg, nranks)
    assert np.array_equal(dist[:, 0], dist[:, 1])
    assert np.isfinite(dist).any()


@pytest.mark.parametrize("nranks", [1, 2, 4])
def test_build_bitwise_across_ranks(graph_edges, nranks):
    """Every 1-D and grid array, weighted: under procs the convert reads
    its received edges out of shared-memory plan buffers."""
    cfg = {"edges": graph_edges, "n": N, "part": "vblock",
           "values": np.linspace(0.5, 2.0, len(graph_edges)),
           "symmetrize": True}
    degrees = _assert_bitwise(K.kern_build, cfg, nranks)
    assert degrees.sum() == len(graph_edges)


@pytest.mark.parametrize("part", ["eblock", "rand"])
@pytest.mark.parametrize("kernel", [K.kern_pagerank, K.kern_wcc,
                                    K.kern_bfs_dirop, K.kern_scc,
                                    K.kern_label_propagation, K.kern_msbfs,
                                    K.kern_harmonic, K.kern_build,
                                    K.kern_delta_stepping],
                         ids=["pagerank", "wcc", "bfs", "scc", "lp", "msbfs",
                              "harmonic", "build", "delta_stepping"])
def test_bitwise_across_partition_kinds(graph_edges, kernel, part):
    cfg = {"edges": graph_edges, "n": N, "part": part, "iters": 12,
           "root": 0, "sources": SOURCES}
    _assert_bitwise(kernel, cfg, 2)


@pytest.mark.parametrize("part", ["eblock", "rand"])
def test_async_label_propagation_bitwise_across_partition_kinds(graph_edges,
                                                                part):
    cfg = {"edges": graph_edges, "n": N, "part": part, "mode": "async"}
    _assert_bitwise(K.kern_label_propagation, cfg, 2)


def test_mixed_collectives_bitwise(graph_edges):
    for nranks in (2, 4):
        t = run_spmd(nranks, K.kern_collectives, 7, timeout=120.0,
                     sanitize=True)
        p = run_spmd(nranks, K.kern_collectives, 7, backend="procs",
                     timeout=120.0, sanitize=True)
        assert repr(t) == repr(p)


def _per_op(trace):
    """``{op: [n_collectives, bytes_sent, msg_count]}`` of one rank."""
    out: dict = {}
    for e in trace.events:
        row = out.setdefault(e.op, [0, 0, 0])
        row[0] += 1
        row[1] += e.bytes_sent
        row[2] += e.msg_count
    return out


@pytest.mark.parametrize("kernel, sources", [
    (K.kern_pagerank, None), (K.kern_bfs_dirop, None), (K.kern_kcore, None),
    (K.kern_grid_bfs, None), (K.kern_msbfs, [0]), (K.kern_msbfs, [0, 5, 9]),
], ids=["pagerank", "bfs", "kcore", "grid_bfs", "msbfs_k1", "msbfs_k3"])
def test_traces_identical_across_backends(graph_edges, kernel, sources):
    """Both backends run every collective through one body, so each
    rank's per-op collective, byte and message counts are equal."""
    cfg = {"edges": graph_edges, "n": N, "part": "vblock", "root": 0,
           "sources": np.array(sources or [], dtype=np.int64)}
    ops = {}
    for backend in ("threads", "procs"):
        run_spmd(2, kernel, cfg, backend=backend, timeout=180.0)
        ops[backend] = [_per_op(t) for t in spmd_traces()]
    assert ops["procs"] == ops["threads"]
    assert all(ops["threads"])
