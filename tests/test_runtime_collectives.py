"""Unit tests for the SPMD runtime's collective operations.

Kernels are module-level functions, so the whole file also runs on the
procs backend (``REPRO_BACKEND=procs``, the procs subset of
``scripts/check.sh``): both backends run the one collective body,
``Communicator._run``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import (
    MAX,
    MAXLOC,
    MIN,
    MINLOC,
    PROD,
    SUM,
    SpmdError,
    run_spmd,
)

SIZES = [1, 2, 3, 5]


def _allreduce_rank_plus_one(c):
    return c.allreduce(c.rank + 1, SUM)


def _allreduce_array_ops(c):
    a = np.array([c.rank, -c.rank, 1], dtype=np.int64)
    return (
        c.allreduce(a, SUM).tolist(),
        c.allreduce(a, MAX).tolist(),
        c.allreduce(a, MIN).tolist(),
    )


def _allreduce_prod(c):
    return c.allreduce(2, PROD)


def _maxloc_minloc(c):
    return (
        c.allreduce((c.rank % 2, c.rank), MAXLOC),
        c.allreduce((c.rank % 2, c.rank), MINLOC),
    )


def _maxloc_tie(c):
    return c.allreduce((7, c.rank), MAXLOC)


def _bcast_from_last(c):
    payload = {"x": 42} if c.rank == c.size - 1 else None
    return c.bcast(payload, root=c.size - 1)


def _gather_and_allgather(c):
    return c.gather(c.rank * 10, root=0), c.allgather(c.rank * 10)


def _scatter(c):
    data = [f"item{i}" for i in range(c.size)] if c.rank == 0 else None
    return c.scatter(data, root=0)


def _alltoall(c):
    return c.alltoall([(c.rank, d) for d in range(c.size)])


def _scan_exscan(c):
    return c.scan(c.rank + 1, SUM), c.exscan(c.rank + 1, SUM)


def _alltoallv_contents(c):
    send = [
        np.full(c.rank + 2 * d, 100 * c.rank + d, dtype=np.int64)
        for d in range(c.size)
    ]
    return c.alltoallv(send)


def _alltoallv_empty(c):
    send = [np.empty(0, dtype=np.float64) for _ in range(c.size)]
    data, counts = c.alltoallv(send)
    return len(data), counts.sum(), data.dtype


def _allgatherv(c):
    return c.allgatherv(np.arange(c.rank, dtype=np.int64))


def _alltoallv_short_list(c):
    c.alltoallv([np.zeros(1)])  # only 1 buffer for 2 ranks


def _alltoallv_mixed_dtypes(c):
    c.alltoallv([np.zeros(1, np.int64), np.zeros(1, np.float64)])


def _bcast_bad_root(c):
    return c.bcast(1, root=5)


def _independent_arrays(c):
    a = np.array([1.0, 2.0])
    out = c.allreduce(a, SUM)
    out += 100.0  # must not corrupt peers' results
    c.barrier()
    return c.allreduce(np.array([1.0, 1.0]), SUM).tolist()


def _gatherv(c):
    return c.gatherv(np.full(c.rank + 1, c.rank, dtype=np.int64), root=0)


def _reduce_scatter(c):
    contrib = np.arange(3 * c.size, dtype=np.int64) + c.rank
    return c.reduce_scatter(contrib, SUM)


def _reduce_scatter_bad_length(c):
    c.reduce_scatter(np.arange(3), SUM)  # 3 not divisible by 2


@pytest.mark.parametrize("p", SIZES)
def test_allreduce_sum_scalar(p):
    out = run_spmd(p, _allreduce_rank_plus_one)
    assert out == [p * (p + 1) // 2] * p


@pytest.mark.parametrize("p", SIZES)
def test_allreduce_array_ops(p):
    for s, mx, mn in run_spmd(p, _allreduce_array_ops):
        tot = p * (p - 1) // 2
        assert s == [tot, -tot, p]
        assert mx == [p - 1, 0, 1]
        assert mn == [0, -(p - 1), 1]


@pytest.mark.parametrize("p", SIZES)
def test_allreduce_prod(p):
    out = run_spmd(p, _allreduce_prod)
    assert out == [2**p] * p


@pytest.mark.parametrize("p", SIZES)
def test_maxloc_minloc(p):
    for mx, mn in run_spmd(p, _maxloc_minloc):
        assert mx == ((1, 1) if p > 1 else (0, 0))
        assert mn == (0, 0)


def test_maxloc_tie_prefers_lower_index():
    out = run_spmd(4, _maxloc_tie)
    assert out[0] == (7, 0)


@pytest.mark.parametrize("p", SIZES)
def test_bcast(p):
    assert run_spmd(p, _bcast_from_last) == [{"x": 42}] * p


@pytest.mark.parametrize("p", SIZES)
def test_gather_and_allgather(p):
    outs = run_spmd(p, _gather_and_allgather)
    expect = [r * 10 for r in range(p)]
    assert outs[0][0] == expect
    for r in range(1, p):
        assert outs[r][0] is None
    assert all(o[1] == expect for o in outs)


@pytest.mark.parametrize("p", SIZES)
def test_scatter(p):
    assert run_spmd(p, _scatter) == [f"item{i}" for i in range(p)]


@pytest.mark.parametrize("p", SIZES)
def test_alltoall(p):
    outs = run_spmd(p, _alltoall)
    for r, got in enumerate(outs):
        assert got == [(s, r) for s in range(p)]


@pytest.mark.parametrize("p", SIZES)
def test_scan_exscan(p):
    outs = run_spmd(p, _scan_exscan)
    for r, (inc, exc) in enumerate(outs):
        assert inc == (r + 1) * (r + 2) // 2
        assert exc == r * (r + 1) // 2


@pytest.mark.parametrize("p", SIZES)
def test_alltoallv_contents(p):
    outs = run_spmd(p, _alltoallv_contents)
    for r, (data, counts) in enumerate(outs):
        expect_counts = [s + 2 * r for s in range(p)]
        assert counts.tolist() == expect_counts
        pos = 0
        for s in range(p):
            seg = data[pos : pos + expect_counts[s]]
            assert (seg == 100 * s + r).all()
            pos += expect_counts[s]


@pytest.mark.parametrize("p", SIZES)
def test_alltoallv_empty_buffers(p):
    for n, tot, dt in run_spmd(p, _alltoallv_empty):
        assert n == 0 and tot == 0 and dt == np.float64


@pytest.mark.parametrize("p", SIZES)
def test_allgatherv(p):
    outs = run_spmd(p, _allgatherv)
    expect = np.concatenate([np.arange(r) for r in range(p)]) if p > 1 else \
        np.empty(0)
    for data, counts in outs:
        assert counts.tolist() == list(range(p))
        assert data.tolist() == list(expect)


def test_alltoallv_wrong_length_raises():
    with pytest.raises(SpmdError):
        run_spmd(2, _alltoallv_short_list)


def test_alltoallv_dtype_mismatch_raises():
    with pytest.raises(SpmdError):
        run_spmd(2, _alltoallv_mixed_dtypes)


def test_bad_root_raises():
    with pytest.raises(SpmdError):
        run_spmd(2, _bcast_bad_root)


def test_barrier_is_synchronizing():
    """All ranks observe writes published before the barrier (thread
    ranks share the dict; process ranks could not)."""
    shared = {}

    def job(c):
        shared[c.rank] = c.rank
        c.barrier()
        return sorted(shared)

    outs = run_spmd(4, job, backend="threads")
    assert all(o == [0, 1, 2, 3] for o in outs)


def test_collectives_return_independent_arrays():
    """Reduced arrays must not alias another rank's buffer."""
    outs = run_spmd(3, _independent_arrays)
    assert all(o == [3.0, 3.0] for o in outs)


@pytest.mark.parametrize("p", SIZES)
def test_gatherv(p):
    outs = run_spmd(p, _gatherv)
    data, counts = outs[0]
    assert counts.tolist() == [r + 1 for r in range(p)]
    expect = np.concatenate([np.full(r + 1, r) for r in range(p)])
    assert data.tolist() == expect.tolist()
    for r in range(1, p):
        assert outs[r] is None


@pytest.mark.parametrize("p", SIZES)
def test_reduce_scatter(p):
    outs = run_spmd(p, _reduce_scatter)
    base = np.arange(3 * p, dtype=np.int64) * p + p * (p - 1) // 2
    for r, block in enumerate(outs):
        assert block.tolist() == base[3 * r : 3 * (r + 1)].tolist()


def test_reduce_scatter_bad_length():
    with pytest.raises(SpmdError):
        run_spmd(2, _reduce_scatter_bad_length)
