"""Flat-buffer alltoallv and persistent AlltoallvPlan semantics.

Kernels are module-level functions, so the file also runs on the procs
backend (``REPRO_BACKEND=procs``), where a plan's send buffer is a
shared-memory segment.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import (
    AlltoallvPlan,
    CollectiveMismatchError,
    CommUsageError,
    SpmdError,
    run_spmd,
)


def _ragged_send(comm, dtype=np.float64):
    """A deterministic ragged payload: rank r sends r+d+1 rows to rank d."""
    p, r = comm.size, comm.rank
    counts = np.array([r + d + 1 for d in range(p)], dtype=np.int64)
    chunks = [np.arange(c, dtype=dtype) + 100 * r + 10 * d
              for d, c in enumerate(counts)]
    return np.concatenate(chunks).astype(dtype), counts, chunks


def _flat_matches_list_path(comm):
    flat, counts, chunks = _ragged_send(comm)
    data_f, counts_f = comm.alltoallv_flat(flat, counts)
    data_l, counts_l = comm.alltoallv(
        [np.array(c) for c in np.split(flat, np.cumsum(counts)[:-1])])
    assert np.array_equal(data_f, data_l)
    assert np.array_equal(counts_f, counts_l)
    return True


def _flat_2d_rows(comm):
    p, r = comm.size, comm.rank
    counts = np.arange(p, dtype=np.int64)  # d rows to rank d
    send = np.full((int(counts.sum()), 3), r, dtype=np.int64)
    data, rc = comm.alltoallv_flat(send, counts)
    assert data.shape == (int(rc.sum()), 3)
    expect = np.repeat(np.arange(p), r)  # r rows from every source
    assert np.array_equal(data[:, 0], expect)
    return True


def _flat_explicit_displacements(comm):
    p, r = comm.size, comm.rank
    pad = 4  # each destination's row lives at offset d*pad
    send = np.zeros(p * pad, dtype=np.float64)
    sdispls = np.arange(p, dtype=np.int64) * pad
    send[sdispls] = r * 10 + np.arange(p)
    counts = np.ones(p, dtype=np.int64)
    data, _ = comm.alltoallv_flat(send, counts, sdispls)
    assert np.array_equal(data, np.arange(p) * 10 + r)
    return True


def _flat_validation_errors(comm):
    p = comm.size
    with pytest.raises(CommUsageError):
        comm.alltoallv_flat(np.zeros(3), np.zeros(p + 1, dtype=np.int64))
    with pytest.raises(CommUsageError):
        comm.alltoallv_flat(np.zeros(3), np.full(p, -1, dtype=np.int64))
    with pytest.raises(CommUsageError):
        comm.alltoallv_flat(np.zeros(3), np.full(p, 99, dtype=np.int64))
    return True


def _plan_reuses_buffers(comm, explicit_recvcounts):
    p, r = comm.size, comm.rank
    counts = np.array([r + d + 1 for d in range(p)], dtype=np.int64)
    recvcounts = (np.array([d + r + 1 for d in range(p)], dtype=np.int64)
                  if explicit_recvcounts else None)
    plan = comm.alltoallv_plan(counts, recvcounts=recvcounts)
    assert isinstance(plan, AlltoallvPlan)
    sendbuf_id, recvbuf_id = id(plan.sendbuf), id(plan.recvbuf)
    for it in range(5):
        flat, _, _ = _ragged_send(comm)
        np.copyto(plan.sendbuf, flat + it)
        out = plan.execute()
        assert id(out) == recvbuf_id  # persistent receive buffer
        ref, _ = comm.alltoallv_flat(flat + it, counts)
        assert np.array_equal(out, ref)
    assert id(plan.sendbuf) == sendbuf_id
    return True


def _mismatched_plans(comm):
    p, r = comm.size, comm.rank
    # Rank 0 believes everyone exchanges 2 rows; the rest believe 1.
    c = 2 if r == 0 else 1
    counts = np.full(p, c, dtype=np.int64)
    plan = comm.alltoallv_plan(counts, recvcounts=counts)
    plan.execute()
    return True


def _diverging_plan_ids(comm):
    p = comm.size
    counts = np.ones(p, dtype=np.int64)
    plan_a = comm.alltoallv_plan(counts, recvcounts=counts)
    plan_b = comm.alltoallv_plan(counts, recvcounts=counts)
    chosen = plan_a if comm.rank == 0 else plan_b
    chosen.execute()
    return True


def _plan_refills(comm):
    p = comm.size
    counts = np.ones(p, dtype=np.int64)
    plan = comm.alltoallv_plan(counts, recvcounts=counts)
    for it in range(12):  # longer than the sanitizer's guard window
        plan.sendbuf[:] = comm.rank * 100 + it
        out = plan.execute()
        assert np.array_equal(
            out, np.arange(p, dtype=np.float64) * 100 + it)
        comm.barrier()
    return True


@pytest.mark.parametrize("p", [1, 2, 4, 8])
def test_flat_matches_list_path(p):
    assert all(run_spmd(p, _flat_matches_list_path))


def test_flat_2d_rows():
    """Counts are row counts: an (n, k) buffer ships k values per row."""
    assert all(run_spmd(3, _flat_2d_rows))


def test_flat_explicit_displacements():
    """sdispls selects rows out of a padded (non-packed) send layout."""
    assert all(run_spmd(4, _flat_explicit_displacements))


def test_flat_validation_errors():
    assert all(run_spmd(1, _flat_validation_errors))


@pytest.mark.parametrize("explicit_recvcounts", [False, True])
def test_plan_reuses_buffers_across_iterations(explicit_recvcounts):
    assert all(run_spmd(4, _plan_reuses_buffers, explicit_recvcounts))


def test_mismatched_plans_fail_loudly_on_all_ranks():
    """Ranks whose plans disagree on counts must all raise, not deadlock."""
    with pytest.raises(SpmdError) as excinfo:
        run_spmd(2, _mismatched_plans, verify=False)
    assert excinfo.value.failures  # every surviving rank got a diagnosis

    with pytest.raises(SpmdError):
        run_spmd(2, _mismatched_plans, verify=True)


def test_diverging_plan_ids_caught_by_verifier():
    """Two structurally identical plans are still *different* plans."""
    with pytest.raises(SpmdError) as excinfo:
        run_spmd(2, _diverging_plan_ids, verify=True)
    assert any(isinstance(e, CollectiveMismatchError)
               for e in excinfo.value.failures.values())


def test_plan_buffers_do_not_trip_sanitizer():
    """Refilling persistent plan buffers every epoch is not a buffer race."""
    assert all(run_spmd(4, _plan_refills, sanitize=True, verify=True))
