"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

# Run the whole suite with the collective-schedule verifier on, so every
# test doubles as a schedule-conformance check (divergent schedules raise
# CollectiveMismatchError instead of deadlocking).  setdefault lets a
# developer override with REPRO_VERIFY_COLLECTIVES=0.
os.environ.setdefault("REPRO_VERIFY_COLLECTIVES", "1")

from repro.graph import build_dist_graph
from repro.partition import (
    EdgeBlockPartition,
    GridEdgePartition,
    RandomHashPartition,
    VertexBlockPartition,
)
from repro.runtime import run_spmd

PARTITION_KINDS = ("vblock", "eblock", "rand")


def make_partition(kind: str, comm, n: int, edges_chunk: np.ndarray):
    """Build the named partition inside an SPMD context."""
    if kind == "vblock":
        return VertexBlockPartition(n, comm.size)
    if kind == "eblock":
        return EdgeBlockPartition.from_edge_chunks(comm, edges_chunk[:, 0], n)
    if kind == "rand":
        return RandomHashPartition(n, comm.size, seed=42)
    if kind == "grid":
        # fallback=True: tests run at arbitrary (incl. prime) rank counts.
        return GridEdgePartition.from_edge_chunks(
            comm, edges_chunk[:, 0], n, fallback=True)
    raise ValueError(kind)


def dist_run(edges: np.ndarray, n: int, nranks: int, fn, part_kind: str = "vblock",
             verify: bool | None = None):
    """Run ``fn(comm, graph)`` on ``nranks`` ranks over ``edges``.

    Each rank receives a contiguous slice of the edge list, builds the
    distributed graph under the requested partitioning, and calls ``fn``.
    Returns the list of per-rank results.

    Pinned to the threads backend: ``fn`` is a per-test closure, which
    process-backed ranks cannot receive, and this helper is the ground
    truth the cross-backend tests compare *against* (so it must not
    follow ``REPRO_BACKEND``).
    """

    def job(comm):
        chunk = np.array_split(edges, comm.size)[comm.rank]
        part = make_partition(part_kind, comm, n, chunk)
        g = build_dist_graph(comm, chunk, part)
        return fn(comm, g)

    return run_spmd(nranks, job, backend="threads", verify=verify)


def gather_by_gid(outs, value_index: int = 1):
    """Merge per-rank ``(gids, values, ...)`` tuples into global-id order."""
    gids = np.concatenate([np.asarray(o[0]) for o in outs])
    vals = np.concatenate([np.asarray(o[value_index]) for o in outs])
    order = np.argsort(gids)
    return vals[order]


@pytest.fixture(scope="session")
def small_web():
    """A deduplicated ~500-vertex synthetic crawl used across tests."""
    from repro.generators import webcrawl_edges

    n = 500
    edges = np.unique(webcrawl_edges(n, avg_degree=6, seed=11), axis=0)
    return n, edges


@pytest.fixture(scope="session")
def tiny_multi():
    """A small graph *with* duplicate edges and self-loops."""
    rng = np.random.default_rng(3)
    n = 60
    edges = rng.integers(0, n, size=(400, 2), dtype=np.int64)
    return n, edges
