"""Runtime stress tests: long random collective sequences, repeated worlds,
concurrency hammering.  These guard the BSP machinery against ordering and
buffer-reuse bugs that short unit tests cannot reach.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.runtime import MAX, MIN, SUM, run_spmd


def _apply_op(comm, op_id: int, round_idx: int):
    """Execute one deterministic collective; return a checkable value."""
    r, p = comm.rank, comm.size
    if op_id == 0:
        return comm.allreduce(r + round_idx, SUM)
    if op_id == 1:
        return comm.allreduce(np.array([r, round_idx]), MAX).tolist()
    if op_id == 2:
        data, counts = comm.allgatherv(
            np.arange(r % 3, dtype=np.int64) + round_idx)
        return int(data.sum()), counts.tolist()
    if op_id == 3:
        send = [np.full((r + d + round_idx) % 4, r, dtype=np.int64)
                for d in range(p)]
        data, counts = comm.alltoallv(send)
        return int(data.sum()), counts.tolist()
    if op_id == 4:
        return comm.bcast(f"r{round_idx}", root=round_idx % p)
    if op_id == 5:
        comm.barrier()
        return "b"
    if op_id == 6:
        return comm.scan(r, SUM)
    return comm.allreduce(-r, MIN)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    p=st.integers(min_value=1, max_value=5),
    ops=st.lists(st.integers(min_value=0, max_value=7), min_size=1,
                 max_size=30),
)
def test_random_collective_sequences_agree(p, ops):
    """All ranks running the same random program agree on every collective
    result that is rank-independent, and none deadlocks."""

    def job(comm):
        out = []
        for i, op in enumerate(ops):
            out.append((op, _apply_op(comm, op, i)))
        return out

    outs = run_spmd(p, job, timeout=30.0)
    # Results of rank-symmetric collectives must match across ranks.
    symmetric = {0, 1, 4, 5}
    for i, op in enumerate(ops):
        if op in symmetric:
            assert all(o[i] == outs[0][i] for o in outs)


def test_many_sequential_worlds():
    """Launching hundreds of worlds must not leak or wedge."""
    for i in range(200):
        out = run_spmd(2, lambda c: c.allreduce(1, SUM))
        assert out == [2, 2]


def test_large_payload_alltoallv():
    def job(c):
        send = [np.arange(200_000, dtype=np.int64) for _ in range(c.size)]
        data, counts = c.alltoallv(send)
        assert counts.tolist() == [200_000] * c.size
        return int(data[::50_000].sum())

    outs = run_spmd(4, job)
    assert all(o == outs[0] for o in outs)


def test_lock_gate_under_fast_thread_switching():
    """More ranks than cores and a 1 µs switch interval: each of 300
    rounds sums exactly on every rank, and no parked waiter is lost (a
    lost wake-up would time the world out)."""

    def job(c):
        return [c.allreduce(c.rank + i, SUM) for i in range(300)]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        outs = run_spmd(6, job, timeout=60.0)
    finally:
        sys.setswitchinterval(old)
    assert outs == [[15 + 6 * i for i in range(300)]] * 6


def test_interleaved_split_worlds_hammer():
    """Sub-communicators used heavily alongside the parent world."""

    def job(c):
        sub = c.split(color=c.rank % 2)
        acc = 0
        for i in range(50):
            acc += sub.allreduce(i, SUM)
            if i % 10 == 0:
                c.barrier()
        return acc

    outs = run_spmd(4, job, timeout=60.0)
    assert outs[0] == outs[2] and outs[1] == outs[3]


def test_deep_nested_launches_forbidden_pattern_not_needed():
    """run_spmd from inside a rank would deadlock by design; the library
    never does it.  Verify instead that sequential launches inside one
    process reuse cleanly with different sizes."""
    for p in (1, 3, 2, 5, 1, 4):
        assert run_spmd(p, lambda c: c.allreduce(1, SUM)) == [p] * p
