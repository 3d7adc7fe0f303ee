"""Compare two result sets of the end-to-end benchmark.

A result set is a text file holding the output of one or more ``run.py``
invocations (report or driver form, concatenated), with at least one run
of every workload it covers::

    python3 benchmarks/e2e/run.py > base.txt
    python3 benchmarks/e2e/run.py > new.txt
    python3 benchmarks/e2e/compare.py base.txt new.txt

One row per workload and end-to-end metric: the medians, their ratio with
its base, and a verdict under the bound ``BENCHMARK.json`` fixes for the
metric — ``better`` / ``same`` / ``worse``, or ``unresolved`` when either
set's own spread (quartile distance over median; range over median below
four runs) exceeds that bound.  Counts that must repeat exactly are
compared for identity when both sets hold traced runs.  Exits non-zero on
any ``worse``, on a differing exact count, or when the failed share of a
workload rose by more than one percentage point.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Per-layer counts that repeat bit for bit on the SPMD workloads.
EXACT_WORKLOADS = ("web_batch", "rmat_traversal", "stream_churn")
EXACT = (
    "partition.edge_cut_frac", "partition.edge_imbalance",
    "graph.bytes_per_edge", "graph.ghost_frac", "runtime.bytes_sent.build",
    "runtime.msg_count.build", "runtime.n_collectives.build",
    "runtime.bytes_sent.analytics", "runtime.msg_count.analytics",
    "runtime.n_collectives.analytics", "runtime.bytes_sent.stream",
    "runtime.msg_count.stream", "runtime.n_collectives.stream",
    "analytics.bfs_levels", "analytics.pagerank_iters",
    "analytics.frontier_bytes_per_level.1d",
    "analytics.frontier_bytes_per_level.grid",
    "analytics.halo_bytes_per_iter", "stream.compactions",
    "stream.overlay_fraction_max", "stream.repair_ratio",
    "stream.rows_recomputed",
)
FAILED_SHARE_SLACK = 0.01
_MANIFEST = re.compile(r"^# (\S+) manifest: ")


def load(path: str) -> dict[str, list[dict]]:
    """Runs per workload: each result line belongs to the workload of the
    manifest line before it."""
    runs: dict[str, list[dict]] = {}
    workload = None
    for line in Path(path).read_text().splitlines():
        m = _MANIFEST.match(line)
        if m:
            workload = m.group(1)
        elif line.startswith('{"correct"') and workload is not None:
            runs.setdefault(workload, []).append(json.loads(line))
    return runs


def values(runs: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in runs
            if metric in r["metrics"]]


def spread(vals: list[float]) -> float:
    med = statistics.median(vals)
    if len(vals) < 2 or med == 0:
        return 0.0
    if len(vals) < 4:
        return (max(vals) - min(vals)) / abs(med)
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / abs(med)


def verdict(base: list[float], new: list[float], better: str,
            bound: float) -> tuple[float, float, float, str]:
    b, n = statistics.median(base), statistics.median(new)
    ratio = n / b if b else float("inf")
    worse_by = (n - b) / abs(b) if better == "lower" else (b - n) / abs(b)
    if max(spread(base), spread(new)) > bound:
        word = "unresolved"
    elif worse_by > bound:
        word = "worse"
    elif worse_by < -bound:
        word = "better"
    else:
        word = "same"
    return b, n, ratio, word


def failed_share(runs: list[dict]) -> float:
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def compare(base: dict, new: dict, out=sys.stdout) -> int:
    bad = 0
    print(f"{'workload':15s} {'metric':14s} {'base':>12s} {'new':>12s} "
          f"{'new/base':>9s} {'bound':>6s}  verdict", file=out)
    for w in SPEC["workloads"]:
        name = w["name"]
        if name not in base or name not in new:
            continue
        for m in SPEC["end_to_end"]:
            b, n = values(base[name], m["name"]), values(new[name], m["name"])
            if not b or not n:
                continue
            bm, nm, ratio, word = verdict(b, n, m["better"], m["bound"])
            bad += word == "worse"
            print(f"{name:15s} {m['name']:14s} {bm:12.4f} {nm:12.4f} "
                  f"{ratio:9.4f} {m['bound']:6.2f}  {word} "
                  f"(n={len(b)}/{len(n)}, {m['unit']})", file=out)
        fb, fn = failed_share(base[name]), failed_share(new[name])
        rose = fn > fb + FAILED_SHARE_SLACK
        bad += rose
        print(f"{name:15s} {'failed share':14s} {fb:12.4f} {fn:12.4f}"
              f"{'':17s}  {'worse' if rose else 'same'}", file=out)
        if name in EXACT_WORKLOADS:
            for metric in EXACT:
                b, n = values(base[name], metric), values(new[name], metric)
                if b and n and len(set(b + n)) > 1:
                    bad += 1
                    print(f"{name:15s} exact count {metric} differs: "
                          f"{sorted(set(b))} vs {sorted(set(n))}", file=out)
    return bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    bad = compare(load(argv[0]), load(argv[1]))
    print(f"{bad} regression(s)" if bad else "no regression")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
