#!/usr/bin/env bash
# Repository health check.  Each step below carries one comment saying
# what it guards; any failing step fails the script.
#
# Usage: scripts/check.sh [extra pytest args...]
set -euo pipefail

cd "$(dirname "$0")/.."

# No .pyc / __pycache__ file is tracked by git.
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

# Lint, when ruff is installed.
if command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    ruff check src tests benchmarks examples scripts
else
    echo "== ruff not installed; skipping lint (pip install -e '.[dev]') =="
fi

# One whole-program pass over src/repro: fails when `--fix` would still
# change a file (SPMD013 wraps, PERF001/PERF003 hoists), else on any
# finding the checked-in baseline does not grandfather.
echo "== spmdlint (strict, baselined, autofix drift gate) =="
PYTHONPATH=src python -m repro check src/repro --strict \
    --baseline .spmdlint-baseline.json --cache .spmdlint-cache.json \
    --fix --check

# benchmarks + examples as a program of their own, against their own
# baseline (the nested `job` closures thread-only harnesses pass to
# run_spmd), so drift there and in src/repro never mask each other.
echo "== spmdlint extras (benchmarks + examples, strict, baselined) =="
PYTHONPATH=src python -m repro check benchmarks examples --strict \
    --baseline .spmdlint-extras-baseline.json

# The analyzer finds every seeded violation in its fixture corpora.
echo "== spmdlint fixture corpora (pytest, parametrized) =="
PYTHONPATH=src python -m pytest -x -q tests/test_check_corpus.py

# The buffer sanitizer catches each seeded race end to end.
echo "== runtime race fixtures (sanitizer end-to-end) =="
for script in tests/fixtures/racecheck/race_*.py; do
    PYTHONPATH=src python "$script"
done

# Each benchmarks/BENCH_<name>.json baseline is guarded by its bench's
# --smoke mode: small sizes, load-invariant ratios vs the recorded values.
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

# The end-to-end benchmark's self-test, then four 6 s correctness runs
# (exit code only, no timing).
echo "== e2e benchmark: self-test + stream_churn / serve_cold_rw / web_batch / rmat_traversal correctness smokes =="
python3 benchmarks/e2e/selftest.py
# stream_churn: incremental PageRank/WCC/k-core bitwise equal to the
# static kernels on a from-scratch rebuild, after inserts, deletes and
# compactions.
python3 benchmarks/e2e/run.py --workload stream_churn --seed 1 --seconds 6 \
    --trace 0 >/dev/null
# serve_cold_rw: sampled snapshot-read responses equal a direct engine's
# answer at their epoch, and no operation failed.
python3 benchmarks/e2e/run.py --workload serve_cold_rw --seed 1 --seconds 6 \
    --trace 0 >/dev/null
# web_batch: the paper's pipeline passes its PageRank / component / SCC /
# harmonic checks (LP labels are checked by tests/test_lp_oracle.py).
python3 benchmarks/e2e/run.py --workload web_batch --seed 1 --seconds 6 \
    --trace 0 >/dev/null
# rmat_traversal: dir-opt BFS levels vs scipy, multi_source_bfs vs the
# per-root BFS, grid kernels bitwise equal to 1-D, and validate_distances
# on the Δ-stepping distances.
python3 benchmarks/e2e/run.py --workload rmat_traversal --seed 1 --seconds 6 \
    --trace 0 >/dev/null

# `repro serve` brings up a 2-replica group, serves queries with snapshot
# reads beside streamed updates, and shuts down cleanly.
echo "== serve smoke: 2-replica group, mixed query+update workload =="
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

# The runtime, plan, halo, LP and BFS tests with the schedule verifier
# off: the plain path every benchmark run takes, which both tier-1 passes
# below (verifier on) do not.
echo "== pytest (verifier off: runtime, plans, halo exchange, LP, BFS) =="
REPRO_VERIFY_COLLECTIVES=0 PYTHONPATH=src python -m pytest -x -q \
    tests/test_runtime_collectives.py tests/test_runtime_errors.py \
    tests/test_runtime_stress.py tests/test_comm_plan.py \
    tests/test_exchange.py tests/test_lp_oracle.py \
    tests/test_bfs_oracle.py tests/test_batched.py

# The tier-1 suite (the conftest turns the schedule verifier on).
echo "== pytest (tier 1, collective-schedule verifier on) =="
PYTHONPATH=src python -m pytest -x -q "$@"

# The tier-1 suite again with the buffer sanitizer on.
echo "== pytest (buffer sanitizer on) =="
REPRO_SANITIZE_BUFFERS=1 PYTHONPATH=src python -m pytest -x -q "$@"

# Engines, explicit-backend tests, the collective, failure, plan and
# split tests (the one Communicator._run and split, here on shared-memory
# slots), cross-backend result and trace equality, update owner routing
# and the kernel oracles (construction, SSSP and its cached plan, SCC,
# WCC, BFS, LP, grid) on spawned-process ranks; dist_run stays pinned to
# threads as the ground truth.
echo "== pytest smoke subset on the procs backend =="
REPRO_BACKEND=procs PYTHONPATH=src python -m pytest -x -q \
    tests/test_runtime_collectives.py tests/test_runtime_errors.py \
    tests/test_comm_plan.py tests/test_comm_split.py tests/test_grid2d.py \
    tests/test_backends.py tests/test_backend_equivalence.py \
    tests/test_build_oracle.py tests/test_delta_oracle.py \
    tests/test_scc_oracle.py tests/test_wcc_oracle.py \
    tests/test_bfs_oracle.py tests/test_lp_oracle.py \
    tests/test_service.py tests/test_stream_service.py \
    tests/test_stream.py::test_route_updates_matches_allgathered_batch \
    tests/test_stream_equivalence.py::test_procs_backend_stream_bitwise
