"""Runtime collective-schedule verifier tests.

Covers mismatch diagnostics for each collective family (object, buffer,
reduction), the deadlock-vs-diagnosis contrast with the verifier off,
write-after-write slot-race detection, env-var plumbing, a timing
perturbation stress test, and an overhead smoke test.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.runtime import (
    MAX,
    SUM,
    VERIFY_ENV,
    CollectiveMismatchError,
    Communicator,
    RankAborted,
    SlotRaceError,
    SpmdError,
    World,
    run_spmd,
    verify_from_env,
)


def _mismatch_failures(excinfo) -> dict[int, CollectiveMismatchError]:
    failures = {r: e for r, e in excinfo.value.failures.items()
                if isinstance(e, CollectiveMismatchError)}
    assert failures, f"no CollectiveMismatchError in {excinfo.value.failures}"
    return failures


# ---------------------------------------------------------------------------
# mismatch diagnostics per collective family
# ---------------------------------------------------------------------------
def test_object_collective_root_mismatch():
    def job(comm):
        comm.bcast(comm.rank * 10, root=comm.rank % 2)  # roots diverge

    with pytest.raises(SpmdError) as excinfo:
        run_spmd(2, job, verify=True)
    failures = _mismatch_failures(excinfo)
    err = failures[min(failures)]
    assert "bcast" in str(err)
    assert "root" in str(err)
    # The exception names the diverging rank and both signatures.
    assert err.peers
    assert err.mine[1] == "bcast"


def test_operation_name_divergence():
    def job(comm):
        if comm.rank == 0:  # spmdlint: disable=SPMD001 - deliberate bug
            comm.barrier()
        else:
            comm.allreduce(1, SUM)

    with pytest.raises(SpmdError) as excinfo:
        run_spmd(2, job, verify=True)
    err = next(iter(_mismatch_failures(excinfo).values()))
    msg = str(err)
    assert "barrier" in msg and "allreduce" in msg
    assert "call #0" in msg


def test_reduction_op_mismatch():
    def job(comm):
        op = SUM if comm.rank == 0 else MAX
        comm.allreduce(comm.rank, op)

    with pytest.raises(SpmdError) as excinfo:
        run_spmd(2, job, verify=True)
    err = next(iter(_mismatch_failures(excinfo).values()))
    assert "allreduce[SUM]" in str(err) and "allreduce[MAX]" in str(err)


def test_reduction_shape_mismatch():
    def job(comm):
        shape = (4,) if comm.rank == 0 else (5,)
        comm.allreduce(np.ones(shape), SUM)

    with pytest.raises(SpmdError) as excinfo:
        run_spmd(2, job, verify=True)
    err = next(iter(_mismatch_failures(excinfo).values()))
    assert "(4,)" in str(err) and "(5,)" in str(err)


def test_buffer_collective_dtype_mismatch():
    def job(comm):
        dt = np.float64 if comm.rank == 0 else np.int64
        send = [np.zeros(2, dtype=dt) for _ in range(comm.size)]
        comm.alltoallv(send)

    with pytest.raises(SpmdError) as excinfo:
        run_spmd(2, job, verify=True)
    err = next(iter(_mismatch_failures(excinfo).values()))
    assert "float64" in str(err) and "int64" in str(err)


def test_all_ranks_raise_the_mismatch():
    def job(comm):
        comm.bcast(None, root=comm.rank)  # every rank names a different root

    with pytest.raises(SpmdError) as excinfo:
        run_spmd(4, job, verify=True)
    failures = _mismatch_failures(excinfo)
    # No rank is left deadlocked: each one observed the divergence itself.
    assert sorted(failures) == [0, 1, 2, 3]
    for rank, err in failures.items():
        assert err.rank == rank
        assert set(err.peers) == {0, 1, 2, 3} - {rank}


# ---------------------------------------------------------------------------
# legitimate asymmetry must pass
# ---------------------------------------------------------------------------
def test_matching_schedule_with_asymmetric_payloads_passes():
    def job(comm):
        # Per-destination counts differ per rank: legal for alltoallv.
        send = [np.full((comm.rank + d) % 3, comm.rank, dtype=np.int64)
                for d in range(comm.size)]
        recv, _ = comm.alltoallv(send)
        # Per-rank lengths differ: legal for allgatherv.
        mine = np.arange(comm.rank + 1, dtype=np.float64)
        gathered, _counts = comm.allgatherv(mine)
        # Scalars of different Python/NumPy types still match coarsely.
        total = comm.allreduce(
            np.int64(comm.rank) if comm.rank % 2 else comm.rank, SUM)
        return len(recv), len(gathered), int(total)

    outs = run_spmd(3, job, verify=True)
    assert all(o[1] == 1 + 2 + 3 for o in outs)
    assert all(o[2] == 3 for o in outs)


def test_rooted_collectives_tolerate_nonroot_none():
    def job(comm):
        value = {"payload": 7} if comm.rank == 1 else None
        got = comm.bcast(value, root=1)
        parts = comm.gather(comm.rank * 2, root=0)
        return got["payload"], parts

    outs = run_spmd(3, job, verify=True)
    assert [o[0] for o in outs] == [7, 7, 7]
    assert outs[0][1] == [0, 2, 4]


# ---------------------------------------------------------------------------
# contrast: verifier off -> divergence deadlocks until the timeout fires
# ---------------------------------------------------------------------------
def test_divergence_without_verifier_times_out_instead():
    def job(comm):
        if comm.rank == 0:  # spmdlint: disable=SPMD001 - deliberate bug
            comm.barrier()
        else:
            comm.allreduce(1, SUM)
        comm.barrier()

    with pytest.raises(SpmdError) as excinfo:
        run_spmd(2, job, timeout=0.5, verify=False)
    # Without signatures the runtime cannot tell the schedules apart: the
    # ops exchange garbage or hang, surfacing only as aborts/errors — never
    # as the precise CollectiveMismatchError diagnosis.
    assert not any(isinstance(e, CollectiveMismatchError)
                   for e in excinfo.value.failures.values())


# ---------------------------------------------------------------------------
# write-after-write slot race
# ---------------------------------------------------------------------------
def test_slot_race_detected():
    world = World(1, verify=True)
    comm = Communicator(world, 0)
    comm.barrier()  # legal use marks the slot consumed afterwards
    world.slots[0] = object()  # stale unconsumed payload (protocol bypass)
    with pytest.raises(SlotRaceError) as excinfo:
        comm.barrier()
    assert "rank 0" in str(excinfo.value)


def test_slot_reuse_is_clean_across_many_collectives():
    def job(comm):
        acc = 0
        for i in range(25):
            acc += comm.allreduce(i, SUM)
        return acc

    outs = run_spmd(2, job, verify=True)
    assert outs == [2 * sum(range(25))] * 2


# ---------------------------------------------------------------------------
# env-var and kwarg plumbing
# ---------------------------------------------------------------------------
def test_env_var_controls_default(monkeypatch):
    for raw, expected in [("1", True), ("true", True), ("YES", True),
                          ("on", True), ("0", False), ("off", False),
                          ("", False)]:
        monkeypatch.setenv(VERIFY_ENV, raw)
        assert verify_from_env() is expected, raw
        assert World(1).verify is expected, raw
    monkeypatch.delenv(VERIFY_ENV)
    assert verify_from_env() is False


def test_kwarg_overrides_env(monkeypatch):
    monkeypatch.setenv(VERIFY_ENV, "1")
    assert World(1, verify=False).verify is False
    monkeypatch.setenv(VERIFY_ENV, "0")
    assert World(1, verify=True).verify is True


def test_split_subworld_inherits_verify():
    def job(comm):
        sub = comm.split(comm.rank % 2)
        return sub._world.verify

    assert run_spmd(4, job, verify=True) == [True] * 4
    assert run_spmd(4, job, verify=False) == [False] * 4


# ---------------------------------------------------------------------------
# timing perturbation stress
# ---------------------------------------------------------------------------
def test_staggered_rank_entry_still_diagnoses():
    def job(comm):
        time.sleep(0.02 * comm.rank)  # ranks arrive at different times
        if comm.rank == comm.size - 1:  # spmdlint: disable=SPMD001
            comm.allreduce(1.0, SUM)
        else:
            comm.barrier()

    with pytest.raises(SpmdError) as excinfo:
        run_spmd(4, job, verify=True)
    _mismatch_failures(excinfo)


def test_staggered_rank_entry_matching_schedule_passes():
    def job(comm):
        total = 0
        for round_idx in range(4):
            time.sleep(0.005 * ((comm.rank + round_idx) % 3))
            total += comm.allreduce(comm.rank, SUM)
        return total

    outs = run_spmd(3, job, verify=True)
    assert outs == [4 * 3] * 3


# ---------------------------------------------------------------------------
# overhead smoke test
# ---------------------------------------------------------------------------
def test_verifier_overhead_is_bounded():
    def job(comm):
        for i in range(150):
            comm.allreduce(i, SUM)

    t0 = time.perf_counter()
    run_spmd(2, job, verify=True)
    elapsed = time.perf_counter() - t0
    # One signature comparison per collective: generous absolute sanity
    # bound rather than a flaky relative one.
    assert elapsed < 10.0


def test_exports():
    import repro.runtime as rt

    assert VERIFY_ENV == "REPRO_VERIFY_COLLECTIVES"
    for name in ("CollectiveMismatchError", "SlotRaceError", "VERIFY_ENV",
                 "verify_from_env"):
        assert name in rt.__all__
