"""Sub-communicator creation (Communicator.split).

Kernels are module-level functions, so the file also runs on the procs
backend (``REPRO_BACKEND=procs``), where every group gets its own gate
counters in the run's shared-memory region.
"""

from __future__ import annotations

from repro.runtime import SUM, run_spmd


def _split_by_parity(c):
    sub = c.split(color=c.rank % 2)
    return sub.size, sub.rank, sub.allreduce(c.rank, SUM)


def _split_single_group(c):
    sub = c.split(color=0)
    return sub.size, sub.rank


def _split_key_reorders(c):
    # Reverse ordering: highest old rank becomes new rank 0.
    sub = c.split(color=0, key=-c.rank)
    return sub.rank


def _split_color_none_opts_out(c):
    sub = c.split(color=None if c.rank == 0 else 1)
    if c.rank == 0:
        assert sub is None
        return -1
    return sub.allreduce(1, SUM)


def _split_groups_are_independent(c):
    sub = c.split(color=c.rank % 2)
    # Odd group does extra collectives the even group never issues.
    if c.rank % 2 == 1:
        for _ in range(3):
            sub.barrier()
    return sub.allreduce(c.rank, SUM)


def _split_nested(c):
    half = c.split(color=c.rank // 2)  # {0,1}, {2,3}
    solo = half.split(color=half.rank)  # singletons
    return half.size, solo.size, solo.allreduce(c.rank, SUM)


def _split_world_still_usable(c):
    sub = c.split(color=c.rank % 2)
    sub.barrier()
    return c.allreduce(1, SUM)  # parent world collective afterwards


def _split_traces_are_fresh(c):
    sub = c.split(color=0)
    sub.allreduce(1, SUM)
    return len(sub.trace.events), len(c.trace.events)


def test_split_by_parity():
    outs = run_spmd(5, _split_by_parity)
    evens = [0, 2, 4]
    odds = [1, 3]
    for r, (size, new_rank, total) in enumerate(outs):
        group = evens if r % 2 == 0 else odds
        assert size == len(group)
        assert new_rank == group.index(r)
        assert total == sum(group)


def test_split_single_group():
    outs = run_spmd(4, _split_single_group)
    assert outs == [(4, 0), (4, 1), (4, 2), (4, 3)]


def test_split_key_reorders():
    assert run_spmd(4, _split_key_reorders) == [3, 2, 1, 0]


def test_split_color_none_opts_out():
    outs = run_spmd(3, _split_color_none_opts_out)
    assert outs == [-1, 2, 2]


def test_split_groups_are_independent():
    """Collectives in one group must not block another group."""
    outs = run_spmd(4, _split_groups_are_independent)
    assert outs == [2, 4, 2, 4]


def test_split_nested():
    outs = run_spmd(4, _split_nested)
    for r, (hs, ss, total) in enumerate(outs):
        assert hs == 2 and ss == 1 and total == r


def test_split_world_still_usable():
    assert run_spmd(4, _split_world_still_usable) == [4, 4, 4, 4]


def test_split_traces_are_fresh():
    sub_events, parent_events = run_spmd(2, _split_traces_are_fresh)[0]
    assert sub_events == 1
    assert parent_events >= 2  # allgather + alltoall of the split itself
