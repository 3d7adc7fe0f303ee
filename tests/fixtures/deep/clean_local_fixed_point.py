"""Local-fixed-point supersteps that must produce zero findings.

The shape of ``repro.analytics.closure``: an outer loop of global
supersteps whose body first runs a *communication-free* inner loop to a
local fixed point — its trip count depends on this rank's frontier, which
is exactly what SPMD001 flags when a collective sits inside such a loop —
and then synchronizes: one allreduce of the flip count, and a halo
exchange guarded by that *allreduced* (hence rank-uniform) count.  Every
rank leaves the outer loop at the same superstep because the exit test
reads only the reduced value.

Near-misses a coarser reading would flag:

* the inner ``while len(rows)`` is rank-dependent but encloses no
  collective site, so no schedule can diverge inside it (not SPMD001);
* the allreduce operand changes every superstep, and the exchanged array
  is mutated by the inner loop, so neither call is loop-invariant (not
  PERF001);
* the early ``return`` in ``synchronize`` skips the exchange on a value
  every rank agrees on (not SPMD002/SPMD009).
"""

import numpy as np


def synchronize(comm, halo, flags, n_loc, n_flipped):
    total = comm.allreduce(n_flipped, "sum")
    if total == 0:
        return 0, np.empty(0, dtype=np.int64)
    before = flags[n_loc:].copy()
    halo.exchange(flags)
    return total, n_loc + np.flatnonzero(before != flags[n_loc:])


def close_over(comm, halo, indptr, adj, flags, n_loc, seeds):
    rows = seeds
    flags[rows] = True
    n_flipped = len(rows)
    n_total = 0
    while True:
        while len(rows):
            nbrs = np.concatenate(
                [adj[indptr[r]:indptr[r + 1]] for r in rows.tolist()])
            rows = np.unique(nbrs[~flags[nbrs] & (nbrs < n_loc)])
            flags[rows] = True
            n_flipped += len(rows)
        total, rows = synchronize(comm, halo, flags, n_loc, n_flipped)
        if total == 0:
            break
        n_total += total
        n_flipped = 0
    return n_total
