"""Runtime backend registry, procs launch semantics, and sessions.

The procs backend runs every rank in a spawned process over one
shared-memory slot region; these tests pin down the selection
logic (``backend=`` / ``$REPRO_BACKEND``), the launch-time pickling
diagnostics, failure propagation across process boundaries, and that the
PR-2 schedule verifier and PR-3 buffer sanitizer carry over unchanged.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import spmd_kernels as K
from repro.runtime import (
    BufferRaceError,
    CollectiveMismatchError,
    RankAborted,
    SpmdError,
    SpmdLaunchError,
    backend_names,
    get_backend,
    run_spmd,
)


# ---------------------------------------------------------------------------
# registry / selection
# ---------------------------------------------------------------------------
def test_backend_registry_names():
    assert backend_names() == ["threads", "procs"]


def test_get_backend_default_and_explicit(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert get_backend().name == "threads"
    assert get_backend("procs").name == "procs"
    assert get_backend("  THREADS ").name == "threads"


def test_get_backend_env_default(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "procs")
    assert get_backend().name == "procs"
    assert get_backend("threads").name == "threads"  # explicit wins


def test_get_backend_unknown_lists_available(monkeypatch):
    with pytest.raises(SpmdLaunchError, match="unknown runtime backend"):
        get_backend("bogus")
    with pytest.raises(SpmdLaunchError, match="available backends:.*threads"):
        get_backend("bogus")
    monkeypatch.setenv("REPRO_BACKEND", "nope")
    with pytest.raises(SpmdLaunchError, match=r"\$REPRO_BACKEND"):
        get_backend()


def test_run_spmd_unknown_backend():
    with pytest.raises(SpmdLaunchError, match="unknown runtime backend"):
        run_spmd(2, K.kern_collectives, 0, backend="bogus")


# ---------------------------------------------------------------------------
# procs: launch diagnostics
# ---------------------------------------------------------------------------
def test_procs_unpicklable_kernel_named():
    def local_closure(comm):
        return None

    with pytest.raises(SpmdLaunchError, match="local_closure"):
        run_spmd(2, local_closure, backend="procs", timeout=60.0)
    with pytest.raises(SpmdLaunchError, match="module level"):
        run_spmd(2, local_closure, backend="procs", timeout=60.0)


def test_procs_unpicklable_argument_named():
    import threading

    lock = threading.Lock()
    with pytest.raises(SpmdLaunchError, match="positional argument #1"):
        run_spmd(2, K.kern_collectives, lock, backend="procs", timeout=60.0)
    with pytest.raises(SpmdLaunchError, match="keyword argument 'extra'"):
        run_spmd(2, K.kern_collectives, 0, extra=lock, backend="procs",
                 timeout=60.0)


def test_procs_unpicklable_result_reported():
    with pytest.raises(SpmdError) as ei:
        run_spmd(2, K.kern_return_unpicklable, 0, backend="procs",
                 timeout=60.0)
    err = next(e for e in ei.value.failures.values()
               if isinstance(e, SpmdLaunchError))
    assert "rank 0" in str(err) and "picklable" in str(err)


# ---------------------------------------------------------------------------
# procs: failure, verifier, sanitizer semantics
# ---------------------------------------------------------------------------
def test_procs_rank_failure_propagates():
    with pytest.raises(SpmdError) as ei:
        run_spmd(3, K.kern_fail, 1, backend="procs", timeout=60.0)
    failures = ei.value.failures
    assert isinstance(failures[1], ValueError)
    assert "boom from rank 1" in str(failures[1])
    assert all(isinstance(failures[r], RankAborted)
               for r in failures if r != 1)


def test_procs_verifier_catches_divergence():
    with pytest.raises(SpmdError) as ei:
        run_spmd(2, K.kern_diverge, 0, backend="procs", timeout=60.0,
                 verify=True)
    assert all(isinstance(e, CollectiveMismatchError)
               for e in ei.value.failures.values())


def test_procs_sanitizer_catches_race():
    with pytest.raises(SpmdError) as ei:
        run_spmd(2, K.kern_race, 0, backend="procs", timeout=60.0,
                 sanitize=True)
    kinds = {type(e) for e in ei.value.failures.values()}
    assert BufferRaceError in kinds


def test_procs_single_rank_and_kwargs():
    out = run_spmd(1, K.kern_collectives, 3, backend="procs", timeout=60.0)
    assert out[0]["allreduce"] == 1
    assert out[0]["allgather"] == [("rank", 0)]


def test_procs_split():
    outs = run_spmd(4, K.kern_split, 0, backend="procs", timeout=90.0)
    assert [o[:3] for o in outs] == [
        (0, 0, 2), (1, 0, 2), (0, 1, 2), (1, 1, 2)]
    assert [o[3] for o in outs] == [2, 4, 2, 4]  # evens 0+2, odds 1+3
    assert [o[4] for o in outs] == [1, -1, -1, -1]


def test_procs_persistent_plan_matches_threads():
    t = run_spmd(3, K.kern_plan, 4, timeout=90.0, sanitize=True)
    p = run_spmd(3, K.kern_plan, 4, backend="procs", timeout=90.0,
                 sanitize=True)
    assert repr(t) == repr(p)


def test_procs_payload_beyond_the_arena():
    """A contribution larger than a rank's arena rides a per-call
    segment; receivers still slice their rows out of it."""
    from repro.runtime.backends.procs import _ARENA

    nrows = _ARENA // 8 + 4096
    outs = run_spmd(2, K.kern_big_flat, nrows, backend="procs",
                    timeout=90.0)
    half = nrows // 2
    assert outs == [(True, [half, half]),
                    (True, [nrows - half, nrows - half])]


def test_no_shm_leak_after_procs_runs():
    leftovers = [f for f in os.listdir("/dev/shm") if f.startswith("rpr")]
    assert leftovers == []


# ---------------------------------------------------------------------------
# sessions (the engine's substrate)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["threads", "procs"])
def test_session_state_persists_and_survives_failures(backend):
    sess = get_backend(backend).start_session(2, verify=True, sanitize=False)
    try:
        r1 = sess.run(("spmd_kernels", "make_counter", {"step": 5}), 60.0)
        r2 = sess.run(("spmd_kernels", "make_counter", {"step": 5}), 60.0)
        assert not r1.errors and not r2.errors
        assert r1.results == [[5, 5], [5, 5]]
        assert r2.results == [[10, 10], [10, 10]]
        assert r1.summaries[0] is not None
        assert r1.summaries[0]["n_collectives"] >= 1

        r3 = sess.run(("spmd_kernels", "make_failer", {"rank": 1}), 60.0)
        assert isinstance(r3.errors.get(1), RuntimeError)
        # The session (and its resident state) survives the failed job.
        r4 = sess.run(("spmd_kernels", "make_counter", {"step": 5}), 60.0)
        assert r4.results == [[15, 15], [15, 15]]
    finally:
        sess.close()


def test_engine_runs_on_procs_backend():
    from repro.service import AnalyticsEngine, JobFailedError

    rng = np.random.default_rng(8)
    edges = rng.integers(0, 48, size=(300, 2))
    with AnalyticsEngine(2, edges=edges, n=48, backend="procs",
                         verify=True, sanitize=True) as eng:
        assert eng.status()["backend"] == "procs"
        pr = eng.query("pagerank", max_iters=8)
        assert abs(pr["scores"].sum() - 1.0) < 1e-9
        with pytest.raises(JobFailedError, match="injected failure"):
            eng.query("_debug_fail", fail_rank=1)
        # Engine (and the resident shards) survive the failed job.
        assert eng.query("wcc")["giant_size"] > 0


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
def test_cli_bad_backend_lists_available(tmp_path, capsys):
    from repro.cli import main

    graph = tmp_path / "g.bin"
    graph.write_bytes(b"")
    rc = main(["analyze", str(graph), "--backend", "bogus"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown runtime backend 'bogus'" in err
    assert "available backends:" in err


def test_cli_env_backend_respected(tmp_path):
    """$REPRO_BACKEND drives the CLI; a bad value fails with the list."""
    env = dict(os.environ, REPRO_BACKEND="bogus",
               PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "info", "--help"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0  # non-SPMD commands never touch backends
    graph = tmp_path / "g.bin"
    graph.write_bytes(b"")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "analyze", str(graph)],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    assert "available backends:" in proc.stderr
