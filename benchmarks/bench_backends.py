"""Backend benchmark: threads vs procs rank runtimes, steady state.

Measures what the process-backed runtime costs and buys against the
in-process threads runtime, in the serving configuration (a persistent
session with the graph resident per rank, so per-job cost excludes
process spawn and graph build):

1. **pagerank** — the NumPy-heavy representative: kernels release the
   GIL inside vectorized ops, so threads already overlap compute and the
   procs backend mostly adds pickle/shared-memory transport overhead.
2. **pyheavy** — a pure-Python edge sweep (label-hash loop) with one
   small collective per iteration: the GIL serializes thread-ranks here,
   so on a multi-core host the procs backend approaches ``min(p, cores)``-way
   speedup.  This is the workload class the procs backend exists for.

On a single-core host (CI containers included) procs cannot win either
way — the recorded numbers say so honestly, which is why the baseline
stores ``cpu_count`` and the smoke guard compares **procs/threads ratio
drift** only against a same-core-count baseline.

Run as a pytest suite (``pytest benchmarks/bench_backends.py``) or CLI::

    python benchmarks/bench_backends.py --write   # record BENCH_backends.json
    python benchmarks/bench_backends.py --smoke   # CI guard: fail on >2x
                                                  # ratio regression
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
if str(BENCH_DIR) not in sys.path:  # CLI invocation from anywhere
    sys.path.insert(0, str(BENCH_DIR))
if not any((Path(p) / "repro").is_dir() for p in sys.path if p):
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from repro.generators import rmat_edges
from repro.runtime import SUM
from repro.runtime.backends import get_backend

SCALE = 11  # n=2048
EDGE_FACTOR = 8.0
PR_ITERS = 20
PY_ITERS = 4
RANKS = (2, 4, 8)
REPEATS = 3
BASELINE = BENCH_DIR / "BENCH_backends.json"


# ---------------------------------------------------------------------------
# session factories (module-level: shipped to spawned ranks by reference)
# ---------------------------------------------------------------------------
def make_build_state(payload):
    """Build the resident graph shard (timed separately as 'build')."""
    edges = payload["edges"]
    n = payload["n"]

    def fn(comm, state):
        from repro.analytics import halo_of
        from repro.graph import build_dist_graph
        from repro.partition import VertexBlockPartition

        chunk = np.array_split(edges, comm.size)[comm.rank]
        part = VertexBlockPartition(n, comm.size)
        g = build_dist_graph(comm, chunk, part)
        state["g"] = g
        halo_of(comm, g)  # the setup runs here, outside the timed jobs
        # Global-id edge pairs as plain ints: the pure-Python workload.
        lo = g.out_indexes
        srcs = np.repeat(np.arange(g.n_loc), np.diff(lo))
        state["py_edges"] = [
            (int(u), int(v))
            for u, v in zip(g.unmap[srcs], g.unmap[g.out_edges])]
        return int(len(g.out_edges))

    return fn


def make_pagerank_job(payload):
    iters = payload["iters"]

    def fn(comm, state):
        from repro.analytics import pagerank

        res = pagerank(comm, state["g"], max_iters=iters)
        return float(res.scores.sum())

    return fn


def make_pyheavy_job(payload):
    iters = payload["iters"]

    def fn(comm, state):
        acc = comm.rank + 1
        for _ in range(iters):
            for u, v in state["py_edges"]:
                acc = (acc * 31 + u * 7 + v) % 1_000_003
            acc = comm.allreduce(acc, SUM) % 1_000_003
        return acc

    return fn


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------
def _steady_seconds(sess, spec, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run = sess.run(spec, 300.0)
        dt = time.perf_counter() - t0
        if run.errors:
            raise RuntimeError(f"benchmark job failed: {run.errors}")
        best = min(best, dt)
    return best


def _measure(smoke: bool) -> dict:
    scale = 9 if smoke else SCALE
    ranks = (2,) if smoke else RANKS
    pr_iters = 8 if smoke else PR_ITERS
    py_iters = 2 if smoke else PY_ITERS
    n = 1 << scale
    edges = rmat_edges(scale, edge_factor=EDGE_FACTOR, seed=17)

    doc: dict = {
        "meta": {
            "cpu_count": os.cpu_count(),
            "smoke": smoke,
            "ranks": list(ranks),
            "n": n,
            "m": int(len(edges)),
            "pr_iters": pr_iters,
            "py_iters": py_iters,
        },
        "build_s": {}, "pagerank": {}, "pyheavy": {},
    }
    checks: dict = {}
    mod = __name__ if __name__ != "__main__" else "bench_backends"
    for backend in ("threads", "procs"):
        be = get_backend(backend)
        for p in ranks:
            sess = be.start_session(p, verify=False, sanitize=False)
            try:
                t0 = time.perf_counter()
                run = sess.run(
                    (mod, "make_build_state", {"edges": edges, "n": n}),
                    600.0)
                build_s = time.perf_counter() - t0
                if run.errors:
                    raise RuntimeError(f"build failed: {run.errors}")
                pr = _steady_seconds(
                    sess, (mod, "make_pagerank_job", {"iters": pr_iters}),
                    REPEATS)
                py = _steady_seconds(
                    sess, (mod, "make_pyheavy_job", {"iters": py_iters}),
                    REPEATS)
                # Cross-backend correctness spot check rides along.
                chk = sess.run(
                    (mod, "make_pagerank_job", {"iters": pr_iters}), 300.0)
                checks.setdefault(p, {})[backend] = chk.results[0]
            finally:
                sess.close()
            doc["build_s"].setdefault(str(p), {})[backend] = round(build_s, 4)
            doc["pagerank"].setdefault(str(p), {})[backend] = round(pr, 4)
            doc["pyheavy"].setdefault(str(p), {})[backend] = round(py, 4)
    for p, by_backend in checks.items():
        if by_backend["threads"] != by_backend["procs"]:
            raise RuntimeError(
                f"pagerank sum differs across backends at p={p}: "
                f"{by_backend}")
    return doc


def _ratios(doc: dict) -> dict[str, float]:
    """Load-invariant shape: procs time / threads time per workload."""
    out = {}
    for workload in ("pagerank", "pyheavy"):
        for p, t in doc[workload].items():
            if t["threads"] > 0:
                out[f"{workload}.p{p}"] = t["procs"] / t["threads"]
    return out


def _compare(doc: dict, base: dict) -> list[str]:
    if base["meta"].get("cpu_count") != doc["meta"].get("cpu_count"):
        print(f"note: baseline recorded on {base['meta'].get('cpu_count')} "
              f"cpus, this host has {doc['meta'].get('cpu_count')}; "
              f"skipping ratio comparison")
        return []
    want, got = _ratios(base), _ratios(doc)
    failures = []
    for key, base_ratio in want.items():
        now = got.get(key)
        if now is None:
            failures.append(f"{key}: missing from current run")
        elif now > base_ratio * 2.0:
            failures.append(
                f"{key}: procs/threads {now:.2f}x vs baseline "
                f"{base_ratio:.2f}x (>2x ratio regression)")
        else:
            print(f"ok: {key} procs/threads {now:.2f}x "
                  f"(baseline {base_ratio:.2f}x)")
    return failures


def _render(doc: dict) -> str:
    from _common import fmt_table

    rows = []
    for workload in ("build_s", "pagerank", "pyheavy"):
        for p, t in doc[workload].items():
            rows.append([workload, p, t["threads"], t["procs"],
                         f"{t['procs'] / max(t['threads'], 1e-9):.2f}x"])
    return fmt_table(
        ["workload", "ranks", "threads (s)", "procs (s)", "procs/threads"],
        rows,
        title=f"backends: n={doc['meta']['n']}, m={doc['meta']['m']}, "
              f"{doc['meta']['cpu_count']} cpus")


# ---------------------------------------------------------------------------
# pytest entry point
# ---------------------------------------------------------------------------
def test_report_backend_bench(benchmark, report):
    doc = benchmark.pedantic(lambda: _measure(smoke=True), rounds=1,
                             iterations=1)
    report("", _render(doc))
    # Acceptance is equivalence + sane overhead, not a speedup on this
    # host: the suite runs on arbitrary (often single-core) CI boxes.
    assert set(doc["pagerank"]) == {"2"}
    for t in doc["pagerank"].values():
        assert t["threads"] > 0 and t["procs"] > 0


# ---------------------------------------------------------------------------
# CLI: --write records the baseline; --smoke guards against drift
# ---------------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    import argparse

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="small sizes; compare procs/threads ratios against "
                         "the recorded baseline and fail on >2x drift")
    ap.add_argument("--write", action="store_true",
                    help="record the measurement as the new baseline")
    ap.add_argument("--json", type=Path, default=BASELINE,
                    help=f"baseline path (default {BASELINE.name})")
    args = ap.parse_args(argv)

    mode = "smoke" if args.smoke else "full"
    doc = _measure(smoke=args.smoke)
    print(_render(doc))
    print()

    stored = (json.loads(args.json.read_text())
              if args.json.exists() else {})
    if args.write or mode not in stored:
        stored[mode] = doc
        args.json.write_text(json.dumps(stored, indent=2) + "\n")
        print(f"baseline[{mode}] written: {args.json}")
        return 0

    failures = _compare(doc, stored[mode])
    if failures:
        print("\n".join("REGRESSION: " + f for f in failures),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
