"""End-to-end benchmark of the whole stack: one command, five workloads.

Driver form (one workload, in this process, result as the last line)::

    python3 benchmarks/e2e/run.py --workload web_batch --seed 1 \
        --seconds 20 --trace 0

Report form (every workload, each in a fresh subprocess so ``peak_rss_mb``
is its own; ``--trace`` adds a traced run per workload and the per-layer
metrics, and reports ``trace_overhead_frac`` between the two)::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed S] [--trace]

Metric names, units and bounds live in ``BENCHMARK.json`` at the root of
the checkout; this file prints exactly those.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _runner(name: str):
    if name in ("web_batch", "rmat_traversal"):
        import batch

        return getattr(batch, f"run_{name}")
    if name == "stream_churn":
        import stream

        return stream.run_stream_churn
    import serve

    return getattr(serve, f"run_{name}")


def span_cost_s(n: int = 2000) -> float:
    """Seconds one recorded span costs here, from timing ``n`` empty ones."""
    from harness import Tracer

    probe = Tracer(True)
    t0 = time.perf_counter()
    for i in range(n):
        with probe.span("probe", request=i):
            pass
    return (time.perf_counter() - t0) / n


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload in this process; print its report and result."""
    from harness import WORK_DIR, Tracer

    tracer = Tracer(trace)
    t0 = time.perf_counter()
    out = _runner(workload)(seed, seconds, tracer)
    out.manifest["wall_s"] = time.perf_counter() - t0
    if trace:
        tracer.write_jsonl(WORK_DIR / f"spans_{workload}_{seed}.jsonl")
        out.layer["trace.spans"] = len(tracer.spans)
        out.layer["trace.span_cost_frac"] = \
            len(tracer.spans) * span_cost_s() / out.manifest["timed_s"]

    print(f"# {workload} manifest: {json.dumps(out.manifest)}")
    for note in out.notes:
        print(f"# {note}")
    for what in out.check_failures:
        print(f"# CHECK FAILED: {what}")
    section = "per_layer" if trace else "end_to_end"
    values = out.layer if trace else out.e2e
    metrics = {}
    for m in SPEC[section]:
        # A layer the workload never enters did no work: report 0.
        value = float(values[m["name"]]) if not trace \
            else float(values.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{workload:15s} {m['name']:42s} {value:16.6f} {m['unit']}")
    if trace:  # the traced run's own end-to-end readings, for the overhead
        print(f"# {workload} traced_e2e: {json.dumps(out.e2e)}")
    print(f"{workload:15s} operations attempted {out.attempted} "
          f"failed {out.failed}")
    correct = not out.check_failures
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if correct else 1


def _child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh subprocess, echoing its report."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], stdout=subprocess.PIPE, text=True, timeout=180)
    sys.stdout.write(proc.stdout)
    if proc.returncode:
        raise SystemExit(f"{workload} (trace={trace}) exited "
                         f"{proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith(f"# {workload} traced_e2e: "):
            result["traced_e2e"] = json.loads(line.split(": ", 1)[1])
    return result


def report(workloads: list[str], seed: int, seconds: float,
           trace: bool) -> int:
    for workload in workloads:
        plain = _child(workload, seed, seconds, 0)
        if trace:
            traced = _child(workload, seed, seconds, 1)
            base = plain["metrics"]["op_p50_ms"]["value"]
            frac = traced["traced_e2e"]["op_p50_ms"] / base - 1.0
            print(f"{workload:15s} {'trace_overhead_frac':42s} "
                  f"{frac:16.6f} 1   (op_p50_ms traced vs untraced)")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", nargs="?", const="report", default=None,
                    choices=("0", "1", "report"),
                    help="0/1: run --workload here, untraced/traced; bare "
                         "flag: report form with a traced run per workload")
    args = ap.parse_args(argv)
    if args.trace in ("0", "1"):
        if not args.workload:
            ap.error("--trace 0|1 runs one workload: name it with --workload")
        return run_one(args.workload, args.seed, args.seconds,
                       args.trace == "1")
    todo = [args.workload] if args.workload else WORKLOADS
    return report(todo, args.seed, args.seconds, args.trace == "report")


if __name__ == "__main__":
    sys.exit(main())
