"""Failure semantics: rank errors must abort the world, never deadlock.

Kernels are module-level functions, so the file also runs on the procs
backend (``REPRO_BACKEND=procs``); the gate and SIGKILL tests at the end
name their backend.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.runtime import (
    SUM,
    RankAborted,
    SpmdError,
    World,
    run_spmd,
)


def _fail_rank1_then_barrier(c):
    if c.rank == 1:
        raise ValueError("boom on rank 1")
    c.barrier()  # would deadlock without abort handling


def _early_death(c):
    if c.rank == 0:
        raise RuntimeError("early death")
    for _ in range(3):
        c.barrier()


def _everyone_fails(c):
    raise OSError(f"rank {c.rank}")


def _real_bug_on_rank2(c):
    if c.rank == 2:
        raise KeyError("the real bug")
    c.barrier()


def _divide_by_zero(c):
    return 1 / 0


def _rank0_skips_barrier(c):
    if c.rank == 0:
        return "done"  # never reaches the barrier
    c.barrier()


def _rank_times_11(c):
    return c.rank * 11


def _allreduce_one(c):
    return c.allreduce(1, SUM)


def _fail_x(c):
    raise ValueError("x")


def _peers_report_rank_aborted(c):
    if c.rank == 0:
        raise ValueError("primary")
    try:
        c.barrier()
    except RankAborted as exc:
        raise RuntimeError(f"rank {c.rank} saw RankAborted") from exc


def test_single_rank_failure_propagates():
    with pytest.raises(SpmdError) as ei:
        run_spmd(3, _fail_rank1_then_barrier, timeout=10.0)
    assert 1 in ei.value.failures
    assert isinstance(ei.value.failures[1], ValueError)
    assert "boom" in str(ei.value)


def test_failure_before_any_collective():
    with pytest.raises(SpmdError) as ei:
        run_spmd(4, _early_death, timeout=10.0)
    assert isinstance(ei.value.failures[0], RuntimeError)


def test_multiple_failures_reported():
    with pytest.raises(SpmdError) as ei:
        run_spmd(3, _everyone_fails, timeout=10.0)
    assert set(ei.value.failures) == {0, 1, 2}


def test_secondary_aborts_filtered_out():
    """Peers killed by the abort must not mask the real failure."""
    with pytest.raises(SpmdError) as ei:
        run_spmd(3, _real_bug_on_rank2, timeout=10.0)
    assert set(ei.value.failures) == {2}
    assert isinstance(ei.value.__cause__, KeyError)


def test_rank0_failure_single_rank_world():
    with pytest.raises(SpmdError):
        run_spmd(1, _divide_by_zero)


def test_mismatched_collective_times_out():
    """A rank skipping a collective is converted into an error, not a hang."""
    t0 = time.perf_counter()
    with pytest.raises(SpmdError):
        run_spmd(2, _rank0_skips_barrier, timeout=0.5)
    assert time.perf_counter() - t0 < 10.0


def test_results_order_matches_ranks():
    out = run_spmd(5, _rank_times_11)
    assert out == [0, 11, 22, 33, 44]


def test_nranks_must_be_positive():
    with pytest.raises(ValueError):
        run_spmd(0, lambda c: None)


def test_world_is_reusable_after_failure():
    """A failed launch must not poison subsequent launches."""
    with pytest.raises(SpmdError):
        run_spmd(2, _fail_x)
    assert run_spmd(2, _allreduce_one) == [2, 2]


def test_abort_raises_rank_aborted_in_peers():
    with pytest.raises(SpmdError) as ei:
        run_spmd(3, _peers_report_rank_aborted, timeout=10.0)
    failures = ei.value.failures
    assert isinstance(failures[0], ValueError)
    assert {r: str(failures[r]) for r in (1, 2)} == {
        r: f"rank {r} saw RankAborted" for r in (1, 2)}


def test_abort_after_a_completed_generation_spares_it():
    """A generation every rank completed returns normally even when a
    peer aborts the world before its waiters wake; the abort lands on the
    next wait."""
    world = World(2, timeout=10.0)
    outcome = []

    def rank1():
        outcome.append(world.wait())
        try:
            world.wait()
        except RankAborted as exc:
            outcome.append(exc)

    t = threading.Thread(target=rank1)
    t.start()
    deadline = time.monotonic() + 10.0
    while not world._parked and time.monotonic() < deadline:
        time.sleep(0.001)  # until rank 1 blocks on the gate
    world.wait()  # rank 0 arrives last ...
    world.abort("after")  # ... and aborts at once
    t.join(timeout=10.0)
    assert not t.is_alive()
    assert isinstance(outcome[0], float)
    assert isinstance(outcome[1], RankAborted)
    assert str(outcome[1]) == "after"
    with pytest.raises(RankAborted, match="after"):
        world.wait()


def _gate_abort_after_completed_generation(c):
    """The threads gate test above, on a procs world: rank 0 arrives
    last while rank 1 is parked, and aborts at once."""
    from repro.runtime.backends.procs import _COUNT

    world = c._world
    if c.rank == 1:
        first = world.wait()
        try:
            world.wait()
        except RankAborted as exc:
            return first, str(exc)
        return first, None
    deadline = time.monotonic() + 10.0
    while world.region.words[_COUNT + world.gid] == 0 \
            and time.monotonic() < deadline:
        time.sleep(0.001)  # until rank 1 parks at the gate
    world.wait()
    world.abort("after")
    try:
        world.wait()
    except RankAborted as exc:
        return "raised", str(exc)
    return "returned", None


def _rank0_fails_outside_its_group(c):
    group = c.split(c.rank % 2)
    if c.rank == 0:
        raise ValueError("rank 0 fails before its group's allreduce")
    t0 = time.monotonic()
    try:
        group.allreduce(1, SUM)  # rank 2 parks: rank 0 never arrives
    except RankAborted:
        raise RuntimeError(
            f"raised after {time.monotonic() - t0:.3f} s") from None
    return "completed"


def test_failure_outside_a_split_group_wakes_its_peers():
    """A rank that fails outside its group's collective aborts that
    group's world too: its group peer raises at once, not at the world
    timeout."""
    with pytest.raises(SpmdError) as ei:
        run_spmd(4, _rank0_fails_outside_its_group, timeout=3.0)
    failures = ei.value.failures
    assert isinstance(failures[0], ValueError)
    msg = str(failures[2])
    assert msg.startswith("raised after "), msg
    assert float(msg.split()[2]) < 1.0, msg


def test_subworld_of_an_aborted_world_starts_aborted():
    world = World(2, timeout=10.0)
    world.abort("gone")
    with pytest.raises(RankAborted, match="gone"):
        world.subworld([0, 1]).wait()


def test_abort_reaches_subworlds_built_while_it_runs():
    """Subworlds built by one thread while another aborts the world all
    end aborted with its reason: none slips between the abort and its
    own registration (a missed one would time out instead)."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            world = World(2, timeout=2.0)
            subs: list[World] = []
            builder = threading.Thread(target=lambda: subs.extend(
                world.subworld([0, 1]) for _ in range(50)))
            builder.start()
            world.abort("stop")
            builder.join(timeout=10.0)
            assert not builder.is_alive()
            for sub in subs:
                with pytest.raises(RankAborted, match="stop"):
                    sub.wait()
    finally:
        sys.setswitchinterval(old)


def test_procs_abort_after_a_completed_generation_spares_it():
    out = run_spmd(2, _gate_abort_after_completed_generation,
                   backend="procs", timeout=10.0)
    assert out[0] == ("raised", "after")
    assert isinstance(out[1][0], float)  # its generation had completed
    assert out[1][1] == "after"


def _sigkill_rank1_mid_allreduce(c):
    import os
    import signal

    if c.rank == 1:
        threading.Timer(0.5, os.kill, (os.getpid(), signal.SIGKILL)).start()
        time.sleep(30.0)
    t0 = time.monotonic()
    try:
        c.allreduce(np.ones(4), SUM)  # parked: rank 1 never arrives
    except RankAborted as exc:
        raise RuntimeError(
            f"raised after {time.monotonic() - t0:.3f} s in run "
            f"{c._world.region.runid}: {exc}") from None
    return "completed"


def test_procs_sigkill_mid_allreduce_aborts_survivors():
    """Every survivor raises within the world timeout, and no shared
    memory segment of the run outlives it (other procs runs on the
    machine may hold their own)."""
    import os

    timeout = 20.0
    with pytest.raises(SpmdError) as ei:
        run_spmd(3, _sigkill_rank1_mid_allreduce, backend="procs",
                 timeout=timeout)
    failures = ei.value.failures
    assert "died" in str(failures[1])
    runids = set()
    for r in (0, 2):
        msg = str(failures[r])
        assert msg.startswith("raised after "), msg
        words = msg.split()
        assert float(words[2]) < timeout
        runids.add(words[6].rstrip(":"))
    (runid,) = runids
    assert [f for f in os.listdir("/dev/shm")
            if f.startswith(f"rpr{runid}")] == []
