"""How the serving rates were frozen: closed-loop capacity of each serving
workload's group under its own request mix.

Not part of a benchmark run.  Run once on the commit that freezes (or
re-freezes) ``rates`` in ``serve.py``, and record the output in README.md::

    python3 benchmarks/e2e/calibrate.py [--seed 1] [--seconds 8]

Four closed-loop clients issue the workload's mix back to back (a shed
backs off and retries); capacity is completions per second.  The frozen
rates are about 0.25x / 0.5x / 2x of it, rounded.
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent.parent / "src"))

CLIENTS = 8


def capacity(spec, seed: int, seconds: float) -> float:
    from harness import child_rng
    from repro.serve import ShedError
    from serve import _drawer, _make_inputs, _set_up

    edges, hot, _schedules, _writes = _make_inputs(spec, seed, 1.0)
    group, _build_s, _ready_s = _set_up(spec, edges, hot)
    draw = _drawer(spec, hot)
    done = [0] * CLIENTS
    deadline = time.perf_counter() + seconds

    def client(c: int) -> None:
        rng = child_rng(seed, f"calibrate.{c}")
        while time.perf_counter() < deadline:
            kind, params = draw(rng)
            try:
                group.query(kind, **params)
                done[c] += 1
            except ShedError as exc:
                time.sleep(exc.retry_after_s)

    threads = [threading.Thread(target=client, args=(c,))
               for c in range(CLIENTS)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        group.shutdown()
    return sum(done) / seconds


def main() -> int:
    from serve import COLD_RW, HOT

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=8.0)
    args = ap.parse_args()
    for spec in (HOT, COLD_RW):
        qps = capacity(spec, args.seed, args.seconds)
        print(f"{spec.name:15s} closed-loop capacity {qps:8.1f} 1/s "
              f"({CLIENTS} clients, {args.seconds:g} s, seed {args.seed}); "
              f"frozen rates {spec.rates}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
