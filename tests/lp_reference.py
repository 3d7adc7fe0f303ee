"""Reference Label Propagation: the two-``lexsort`` counter the library
started with.

Kept as the oracle for ``test_lp_oracle.py``.  Each iteration sorts every
(row, neighbour-label) pair with one ``lexsort``, reduces run lengths, then
sorts the runs again by (row, count, tie hash) and takes the last run of
each row; async sweeps select their rows with a full-length mask.  Slow,
but the tie rule is spelled out by the sort order — the production counter
in :mod:`repro.analytics.label_propagation` must pick the same label for
every row, bit for bit.
"""

from __future__ import annotations

import importlib

import numpy as np

from repro.analytics.closure import undirected_rows
from repro.analytics.exchange import HaloExchange
from repro.graph.csr import expand_rows
from repro.runtime import SUM

# The package re-exports the function under the module's name, so the
# module itself comes from the import system, not from attribute access.
lp = importlib.import_module("repro.analytics.label_propagation")


def reference_max_count_labels(rows, labels, n_rows, row_gids, it, seed):
    """Most frequent label per row; ties go to the largest hash, then the
    largest label.  Returns ``(chosen, has_any)``.

    The hash is looked up on the production module at call time, so a test
    that monkeypatches ``lp._tie_hash`` changes both counters alike.
    """
    chosen = np.zeros(n_rows, dtype=np.int64)
    has_any = np.zeros(n_rows, dtype=bool)
    if len(rows) == 0:
        return chosen, has_any
    order = np.lexsort((labels, rows))
    r_sorted = rows[order]
    l_sorted = labels[order]
    new_run = np.empty(len(order), dtype=bool)
    new_run[0] = True
    new_run[1:] = (r_sorted[1:] != r_sorted[:-1]) | (l_sorted[1:] != l_sorted[:-1])
    run_starts = np.flatnonzero(new_run)
    run_rows = r_sorted[run_starts]
    run_labels = l_sorted[run_starts]
    run_counts = np.diff(np.append(run_starts, len(order)))
    tiebreak = lp._tie_hash(row_gids[run_rows], run_labels, it, seed)
    sel = np.lexsort((tiebreak, run_counts, run_rows))
    row_sorted = run_rows[sel]
    last_of_row = np.empty(len(sel), dtype=bool)
    last_of_row[-1] = True
    last_of_row[:-1] = row_sorted[1:] != row_sorted[:-1]
    winners = sel[last_of_row]
    chosen[run_rows[winners]] = run_labels[winners]
    has_any[run_rows[winners]] = True
    return chosen, has_any


def reference_label_propagation(comm, g, n_iters=10, seed=0, mode="sync",
                                n_sweeps=4):
    """The parent's driver loop around the reference counter.

    Returns ``(labels, n_iters, last_changed)`` with the production
    result's meaning.
    """
    halo = HaloExchange(comm, g)
    n_loc = g.n_loc
    indptr, nbrs = undirected_rows(g)
    rows = expand_rows(indptr)
    labels = g.unmap.astype(np.int64).copy()
    row_gids = g.unmap[:n_loc]
    changed = 0
    for it in range(n_iters):
        if mode == "sync":
            chosen, has_any = reference_max_count_labels(
                rows, labels[nbrs], n_loc, row_gids, it, seed)
            new_local = np.where(has_any, chosen, labels[:n_loc])
        else:
            before = labels[:n_loc].copy()
            bounds = np.linspace(0, n_loc, n_sweeps + 1).astype(np.int64)
            for s in range(n_sweeps):
                lo, hi = bounds[s], bounds[s + 1]
                if lo == hi:
                    continue
                in_chunk = (rows >= lo) & (rows < hi)
                chosen, has_any = reference_max_count_labels(
                    rows[in_chunk] - lo, labels[nbrs[in_chunk]],
                    int(hi - lo), row_gids[lo:hi], it * n_sweeps + s, seed)
                labels[lo:hi] = np.where(has_any, chosen, labels[lo:hi])
            new_local = labels[:n_loc].copy()
            labels[:n_loc] = before
        changed = comm.allreduce(
            int(np.count_nonzero(new_local != labels[:n_loc])), SUM)
        labels[:n_loc] = new_local
        if changed == 0:
            return labels[:n_loc].copy(), it + 1, 0
        halo.exchange(labels)
    return labels[:n_loc].copy(), n_iters, changed
