"""Failure semantics: rank errors must abort the world, never deadlock."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.runtime import (
    RankAborted,
    SpmdError,
    World,
    run_spmd,
)


def test_single_rank_failure_propagates():
    def job(c):
        if c.rank == 1:
            raise ValueError("boom on rank 1")
        c.barrier()  # would deadlock without abort handling

    with pytest.raises(SpmdError) as ei:
        run_spmd(3, job, timeout=10.0)
    assert 1 in ei.value.failures
    assert isinstance(ei.value.failures[1], ValueError)
    assert "boom" in str(ei.value)


def test_failure_before_any_collective():
    def job(c):
        if c.rank == 0:
            raise RuntimeError("early death")
        for _ in range(3):
            c.barrier()

    with pytest.raises(SpmdError) as ei:
        run_spmd(4, job, timeout=10.0)
    assert isinstance(ei.value.failures[0], RuntimeError)


def test_multiple_failures_reported():
    def job(c):
        raise OSError(f"rank {c.rank}")

    with pytest.raises(SpmdError) as ei:
        run_spmd(3, job, timeout=10.0)
    assert set(ei.value.failures) == {0, 1, 2}


def test_secondary_aborts_filtered_out():
    """Peers killed by the abort must not mask the real failure."""

    def job(c):
        if c.rank == 2:
            raise KeyError("the real bug")
        c.barrier()

    with pytest.raises(SpmdError) as ei:
        run_spmd(3, job, timeout=10.0)
    assert set(ei.value.failures) == {2}
    assert isinstance(ei.value.__cause__, KeyError)


def test_rank0_failure_single_rank_world():
    with pytest.raises(SpmdError):
        run_spmd(1, lambda c: 1 / 0)


def test_mismatched_collective_times_out():
    """A rank skipping a collective is converted into an error, not a hang."""

    def job(c):
        if c.rank == 0:
            return "done"  # never reaches the barrier
        c.barrier()

    t0 = time.perf_counter()
    with pytest.raises(SpmdError):
        run_spmd(2, job, timeout=0.5)
    assert time.perf_counter() - t0 < 10.0


def test_results_order_matches_ranks():
    out = run_spmd(5, lambda c: c.rank * 11)
    assert out == [0, 11, 22, 33, 44]


def test_nranks_must_be_positive():
    with pytest.raises(ValueError):
        run_spmd(0, lambda c: None)


def test_world_is_reusable_after_failure():
    """A failed launch must not poison subsequent launches."""
    with pytest.raises(SpmdError):
        run_spmd(2, lambda c: (_ for _ in ()).throw(ValueError("x")))
    from repro.runtime import SUM

    assert run_spmd(2, lambda c: c.allreduce(1, SUM)) == [2, 2]


def test_abort_raises_rank_aborted_in_peers():
    seen = {}

    def job(c):
        if c.rank == 0:
            raise ValueError("primary")
        try:
            c.barrier()
        except RankAborted as e:
            seen[c.rank] = True
            raise

    with pytest.raises(SpmdError):
        run_spmd(3, job, timeout=10.0)
    assert seen == {1: True, 2: True}


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
