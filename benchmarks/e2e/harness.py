"""Shared measurement plumbing of the end-to-end benchmark.

Nothing here knows a workload: spans and self time, the percentile rule,
the run outcome every workload returns, and readers for the stack's public
communication counters.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import platform
import resource
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
#: Scratch space for generated inputs and span files (git-ignored).
WORK_DIR = HERE / ".work"

#: Every SPMD world of the benchmark: 2 thread-ranks on the 2-core box.
NRANKS = 2
BACKEND = "threads"
#: The graphs are fixed datasets, as the paper's crawl is: the generators'
#: heavy tails make kernel cost swing 2x from one generator seed to the
#: next, which would drown any regression.  ``--seed`` drives everything a
#: deployment would see vary on one dataset: the order edges arrive in,
#: root and hot-key choice, update batches and arrival schedules.
DATASET_SEED = 1


def bind_rank(comm) -> None:
    """Bind the calling rank's thread to its own core, as ``mpiexec
    --bind-to core`` would: where the OS puts two GIL-sharing rank threads
    otherwise changes from run to run, and moves sync-heavy epochs by 5 %."""
    cores = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cores[comm.rank % len(cores)]})


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------
class _NullSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """In-memory span recorder; a disabled tracer costs one attribute test.

    A span is ``(id, parent, name, t0, t1, thread, ids)``: ``parent`` is the
    span open on the same thread when this one started, ``ids`` carries the
    pass/epoch/request identifier shared by the spans of one operation.
    """

    def __init__(self, enabled: bool):
        self.enabled = bool(enabled)
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._stack = threading.local()

    def span(self, name: str, **ids):
        if not self.enabled:
            return _NULL_SPAN
        return self._span(name, ids)

    @contextmanager
    def _span(self, name: str, ids: dict):
        stack = self._stack.__dict__.setdefault("open", [])
        rec = {"id": next(self._ids), "parent": stack[-1] if stack else 0,
               "name": name, "thread": threading.current_thread().name,
               "t0": time.perf_counter(), "t1": None, **ids}
        stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["t1"] = time.perf_counter()
            stack.pop()
            self.spans.append(rec)  # list.append is atomic under the GIL

    def wrap(self, obj, method: str, name: str):
        """Replace ``obj.method`` by a version that runs inside a span —
        how a traced run sees calls one layer makes into the next."""
        inner = getattr(obj, method)

        def traced(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(obj, method, traced)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time per span id: duration minus the part of the interval that
    its child spans cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["t0"], s["t1"]))
    out = {}
    for s in spans:
        covered = 0.0
        end = s["t0"]
        for c0, c1 in sorted(children.get(s["id"], ())):
            c0, c1 = max(c0, end), min(c1, s["t1"])
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[s["id"]] = (s["t1"] - s["t0"]) - covered
    return out


# ---------------------------------------------------------------------------
# percentiles
# ---------------------------------------------------------------------------
#: Percentiles a report may quote, highest first.
TAIL_CANDIDATES = (99, 95, 90, 75)


def tail_percentile(n: int, beyond: int = 10) -> int:
    """The highest quotable percentile with at least ``beyond`` (ten)
    samples beyond it; 50 when the sample supports none."""
    for q in TAIL_CANDIDATES:
        if n * (100 - q) >= 100 * beyond:
            return q
    return 50


def pctl(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return pctl(values, 50)


# ---------------------------------------------------------------------------
# run outcome
# ---------------------------------------------------------------------------
@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    manifest: dict = field(default_factory=dict)
    e2e: dict[str, float] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    check_failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """One output check; a failed one is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.check_failures.append(what)


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (KiB on Linux) in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def edge_digest(edges: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(edges).tobytes(),
                           digest_size=8).hexdigest()


def base_manifest(workload: str, seed: int, seconds: float) -> dict:
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "nproc": os.cpu_count(), "nranks": NRANKS, "backend": BACKEND,
            "python": platform.python_version(), "numpy": np.__version__}


def shuffled(edges: np.ndarray, seed: int) -> np.ndarray:
    """The dataset's edges in the arrival order this seed gives them."""
    return edges[child_rng(seed, "edge.order").permutation(len(edges))]


def child_rng(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per named input stream of one seed."""
    tag = int.from_bytes(hashlib.blake2b(stream.encode(),
                                         digest_size=4).digest(), "big")
    return np.random.default_rng([seed, tag])


# ---------------------------------------------------------------------------
# public communication counters
# ---------------------------------------------------------------------------
COMM_COUNTS = ("bytes_sent", "msg_count", "n_collectives")
COMM_TIMES = ("idle_s", "comm_s", "compute_s")


def fold_ranks(per_rank: list[dict[str, float]]) -> dict[str, float]:
    """World totals of one phase: counts summed, seconds max over ranks
    (the critical path, as :func:`repro.runtime.aggregate_summaries`)."""
    out = {k: sum(d[k] for d in per_rank) for k in COMM_COUNTS}
    out.update({k: max(d[k] for d in per_rank) for k in COMM_TIMES})
    return out


def runtime_metrics(phase: str, folded: dict[str, float]) -> dict[str, float]:
    """``runtime.<metric>.<phase>`` entries from one folded phase."""
    names = {"idle_s": "wait_s", "comm_s": "xfer_s"}
    return {f"runtime.{names.get(k, k)}.{phase}": float(v)
            for k, v in folded.items()}
