#!/usr/bin/env bash
# Repository health check: lint (when ruff is available), the spmdlint SPMD
# correctness analysis (one whole-program strict pass over src/repro with
# the autofix drift gate, against the checked-in baseline, and one over
# benchmarks + examples against theirs), the seeded-violation fixture
# corpora (run as the parametrized pytest module
# tests/test_check_corpus.py), the runtime
# race fixtures, one smoke run per versioned benchmarks/BENCH_*.json
# baseline (backends, bfs2d, comm: fails on ratio regression vs
# the recorded baseline; serving load is measured by the e2e workloads,
# not here), the end-to-end benchmark's self-test, a short stream_churn
# run (exit code only: its incremental-vs-rebuild checks), a short
# serve_cold_rw run (exit code only: sampled responses vs a direct engine,
# no failed operation), a short web_batch run (exit code only: its
# output checks) and a short rmat_traversal run (exit code only: BFS
# levels vs scipy, multi_source_bfs == per-root BFS, grid == 1-D), a
# 2-replica `repro serve` CLI smoke, and the
# tier-1 suite twice (verifier on; then buffer sanitizer on as well) plus a
# procs-backend subset (backends, cross-backend equivalence, the graph
# construction oracle tests/test_build_oracle.py, engines, streaming).
#
# Usage: scripts/check.sh [extra pytest args...]
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== tracked compiled artifacts =="
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    tracked_pyc=$(git ls-files -- '*.pyc' '**/__pycache__/*' || true)
    if [ -n "$tracked_pyc" ]; then
        echo "FAIL: compiled artifacts are tracked:" >&2
        echo "$tracked_pyc" >&2
        exit 1
    fi
    echo "ok: no tracked .pyc/__pycache__ files"
else
    echo "skip: not a git checkout"
fi

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    ruff check src tests benchmarks examples scripts
else
    echo "== ruff not installed; skipping lint (pip install -e '.[dev]') =="
fi

echo "== spmdlint (strict, baselined, autofix drift gate) =="
# One pass: exit 1 when `repro check --fix` would still change a file
# (mechanical findings — SPMD013 wraps, PERF001/PERF003 hoists — must be
# applied and committed, not left for CI to discover), else exit 1 on any
# finding the checked-in baseline does not grandfather.
PYTHONPATH=src python -m repro check src/repro --strict \
    --baseline .spmdlint-baseline.json --cache .spmdlint-cache.json \
    --fix --check

echo "== spmdlint extras (benchmarks + examples, strict, baselined) =="
# A program of its own, so the harnesses' private helpers stay out of the
# src/repro summary table.  Grandfathered findings (the nested `job`
# closures thread-only harnesses pass to run_spmd) live in their own
# baseline so drift in benchmark code never masks (or is masked by)
# src/repro findings.
PYTHONPATH=src python -m repro check benchmarks examples --strict \
    --baseline .spmdlint-extras-baseline.json

echo "== spmdlint fixture corpora (pytest, parametrized) =="
PYTHONPATH=src python -m pytest -x -q tests/test_check_corpus.py

echo "== runtime race fixtures (sanitizer end-to-end) =="
for script in tests/fixtures/racecheck/race_*.py; do
    PYTHONPATH=src python "$script"
done

# Every versioned baseline benchmarks/BENCH_<name>.json is guarded by its
# bench's --smoke mode (small sizes, load-invariant ratios vs the recorded
# baseline).  Adding a baseline file automatically adds its smoke run here.
for baseline in benchmarks/BENCH_*.json; do
    name=$(basename "$baseline" .json)
    name=${name#BENCH_}
    bench="benchmarks/bench_${name}.py"
    if [ ! -f "$bench" ]; then
        echo "FAIL: $baseline has no matching $bench" >&2
        exit 1
    fi
    echo "== bench smoke: $bench (guards $baseline) =="
    PYTHONPATH=src python "$bench" --smoke
done

echo "== e2e benchmark: self-test + stream_churn / serve_cold_rw / web_batch / rmat_traversal correctness smokes =="
# Exit code only, no timing: stream_churn ends by checking incremental
# PageRank/WCC/k-core bitwise against static kernels on a from-scratch
# rebuild after 40 epochs of inserts, deletes and compactions — the
# strongest end-to-end oracle for the delta-CSR and the k-core sweep.
python3 benchmarks/e2e/selftest.py
python3 benchmarks/e2e/run.py --workload stream_churn --seed 1 --seconds 6 \
    --trace 0 >/dev/null
# Same form for the serving path: open-loop snapshot reads beside
# twice-a-second writes; the exit status carries the sampled responses
# checked against a direct single-engine answer at each response's epoch
# and failed == 0 (errors, timeouts).  No timing is asserted.
python3 benchmarks/e2e/run.py --workload serve_cold_rw --seed 1 --seconds 6 \
    --trace 0 >/dev/null
# And for the paper's own pipeline (striped read, 1-D build, six
# analytics): the exit status carries its PageRank / component / SCC /
# harmonic checks.  Label Propagation labels are not among them — the LP
# oracle lives in tests/test_lp_oracle.py until the e2e suite checks them.
python3 benchmarks/e2e/run.py --workload web_batch --seed 1 --seconds 6 \
    --trace 0 >/dev/null
# And for the traversal suite on a skewed R-MAT graph: the exit status
# carries direction-optimizing BFS levels vs scipy, multi_source_bfs vs
# the per-root BFS, and the grid kernels bitwise equal to the 1-D ones —
# the only end-to-end checks of bfs_dirop and the multi-source engine.
python3 benchmarks/e2e/run.py --workload rmat_traversal --seed 1 --seconds 6 \
    --trace 0 >/dev/null

echo "== serve smoke: 2-replica group, mixed query+update workload =="
# End-to-end through the CLI: start a replica group, serve point and
# global queries with snapshot reads while update batches stream through
# the shared log, and shut down cleanly (exit 0 is the clean-shutdown
# check; the grep asserts the group actually came up replicated).
serve_tmp=$(mktemp -d)
trap 'rm -rf "$serve_tmp"' EXIT
PYTHONPATH=src python - "$serve_tmp" <<'PY'
import sys
from pathlib import Path
import numpy as np
from repro.io import write_edges

tmp = Path(sys.argv[1])
rng = np.random.default_rng(23)
n = 400
write_edges(tmp / "g.bin", rng.integers(0, n, size=(2400, 2), dtype=np.int64))
(tmp / "q.txt").write_text(
    "pagerank max_iters=5\nbfs source=3\nbfs source=3\nwcc\nppr seed=7\n")
(tmp / "u.txt").write_text("".join(
    f"+ {rng.integers(0, n)} {rng.integers(0, n)}\n" for _ in range(12)))
PY
serve_out=$(PYTHONPATH=src python -m repro serve "$serve_tmp/g.bin" \
    --ranks 2 --replicas 2 --snapshot-reads \
    --queries "$serve_tmp/q.txt" --updates "$serve_tmp/u.txt" \
    --update-batch 4 --timeout 120)
echo "$serve_out" | tail -n 8
echo "$serve_out" | grep -q "replica group up: 2 replicas" || {
    echo "FAIL: serve smoke did not start a 2-replica group" >&2; exit 1; }
echo "$serve_out" | grep -q "served 5 queries" || {
    echo "FAIL: serve smoke did not serve the full workload" >&2; exit 1; }
# The batching linger and its option are gone (dispatch is work-conserving).
serve_help=$(PYTHONPATH=src python -m repro serve --help)
if grep -q -- "--batch-w""indow" <<<"$serve_help"; then
    echo "FAIL: repro serve still lists the deleted batching-window option" >&2
    exit 1
fi

echo "== pytest (tier 1, collective-schedule verifier on) =="
PYTHONPATH=src python -m pytest -x -q "$@"

echo "== pytest (buffer sanitizer on) =="
REPRO_SANITIZE_BUFFERS=1 PYTHONPATH=src python -m pytest -x -q "$@"

echo "== pytest smoke subset on the procs backend =="
# Engines and explicit-backend tests run on spawned-process ranks; the
# dist_run reference harness stays pinned to threads (ground truth).  The
# construction oracle runs here too: under procs the convert reads its
# received edges out of shared-memory plan buffers.
REPRO_BACKEND=procs PYTHONPATH=src python -m pytest -x -q \
    tests/test_backends.py tests/test_backend_equivalence.py \
    tests/test_build_oracle.py \
    tests/test_service.py tests/test_stream_service.py \
    tests/test_stream_equivalence.py::test_procs_backend_stream_bitwise
