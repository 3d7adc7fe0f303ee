"""Buffer-ownership sanitizer — overhead of the runtime checks.

Three configurations of the same kernels — plain, collective-schedule
verifier (``verify=True``), and buffer sanitizer (``sanitize=True``) — on
PageRank and multi-source BFS, plus the serving workload end-to-end.

Acceptance criterion (ISSUE): sanitize-mode must cost **<= 2x** the plain
runtime on the serving workload.  The analytics kernels move bytes through
``gatherv``/``alltoallv`` array paths the sanitizer does not intercept, so
their overhead is expected to be far smaller still; the fingerprint
re-checks and guarded-view wrapping only tax the object collectives.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_sanitizer.py -q
"""

from __future__ import annotations

import time

import numpy as np

from _common import fmt_table, partition_for, wc_edges
from repro.analytics import multi_source_bfs, pagerank
from repro.graph import build_dist_graph
from repro.runtime import run_spmd
from repro.service import AnalyticsEngine

N = 20_000
P = 2
K_BFS = 8

MODES = (
    ("plain", dict(verify=False, sanitize=False)),
    ("verify", dict(verify=True, sanitize=False)),
    ("sanitize", dict(verify=False, sanitize=True)),
)

#: Serving workload: a dashboard-refresh mix (no duplicates, so cache hits
#: cannot mask the per-query sanitizer cost we are measuring).
WORKLOAD = (
    [("bfs", {"source": s}) for s in (0, 17, 101, 999)]
    + [("closeness", {"vertex": v}) for v in (5, 42)]
    + [("pagerank", {"max_iters": 10})]
    + [("wcc", {})]
)


def _time_kernel(edges: np.ndarray, fn, **world_kw) -> float:
    """Timed ``fn(comm, g)`` over a fresh graph under the given world mode."""

    def job(comm):
        chunk = np.array_split(edges, comm.size)[comm.rank]
        part = partition_for("vblock", comm, N, chunk)
        g = build_dist_graph(comm, chunk, part)
        comm.barrier()
        t0 = time.perf_counter()
        fn(comm, g)
        comm.barrier()
        return time.perf_counter() - t0

    return max(run_spmd(P, job, **world_kw))


def test_sanitizer_overhead_on_kernels(benchmark, report):
    edges = wc_edges(N)
    sources = np.arange(K_BFS, dtype=np.int64) * (N // K_BFS)
    kernels = (
        ("pagerank", lambda c, g: pagerank(c, g, max_iters=10)),
        ("msbfs", lambda c, g: multi_source_bfs(c, g, sources)),
    )

    def measure():
        return {
            kern: {mode: _time_kernel(edges, fn, **kw)
                   for mode, kw in MODES}
            for kern, fn in kernels
        }

    times = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [
        [kern,
         round(times[kern]["plain"], 4),
         round(times[kern]["verify"], 4),
         round(times[kern]["sanitize"], 4),
         round(times[kern]["sanitize"] / times[kern]["plain"], 2)]
        for kern, _ in kernels
    ]
    report(
        "",
        fmt_table(
            ["kernel", "plain s", "verify s", "sanitize s", "sanitize/plain"],
            rows,
            title=f"sanitizer overhead, n={N:,}, p={P}"),
    )
    for kern, _ in kernels:
        assert times[kern]["sanitize"] > 0


def test_sanitizer_overhead_on_serving(benchmark, report):
    edges = wc_edges(N)

    def serve_all(**engine_kw) -> float:
        t0 = time.perf_counter()
        with AnalyticsEngine(P, edges=edges, n=N, **engine_kw) as eng:
            ids = [eng.submit(kind, **params) for kind, params in WORKLOAD]
            for jid in ids:
                eng.result(jid)
        return time.perf_counter() - t0

    def measure():
        return {mode: serve_all(**kw) for mode, kw in MODES}

    times = benchmark.pedantic(measure, rounds=1, iterations=1)
    ratio = times["sanitize"] / times["plain"]
    report(
        "",
        fmt_table(
            ["mode", "total s", "per-query s"],
            [[mode, round(times[mode], 3),
              round(times[mode] / len(WORKLOAD), 4)]
             for mode, _ in MODES],
            title=f"{len(WORKLOAD)}-query serving workload, n={N:,}, p={P}"),
        f"sanitize-mode is {ratio:.2f}x plain",
    )
    # Acceptance criterion: sanitize-mode overhead <= 2x on serving.
    assert ratio <= 2.0
