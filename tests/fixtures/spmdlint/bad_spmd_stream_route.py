# ruff: noqa
"""Seeded violation: update routing skipped on idle ranks (SPMD002).

The streaming temptation: a rank whose local chunk of the update batch
is empty "has nothing to send" and returns before the exchange.  But the
batch routing alltoallv is collective — that rank may still *receive*
updates touching vertices it owns, and every other rank blocks in the
exchange waiting for it.  Idle ranks must participate with empty counts
(see ``repro.stream.updates.route_updates``).
"""
import numpy as np


def route_nonempty_only(comm, partition, packed):
    if comm.rank != 0 and len(packed) == 0:
        return packed  # skips the collective below on idle ranks
    owners = partition.owner_of(packed[:, 0])
    order = np.argsort(owners, kind="stable")
    counts = np.bincount(owners, minlength=comm.size).astype(np.int64)
    return comm.alltoallv(packed[order], counts)
