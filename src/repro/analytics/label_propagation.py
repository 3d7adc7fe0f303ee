"""Distributed Label Propagation community detection (paper §III-D1, Alg. 1).

Every vertex starts with its own global id as its label; each iteration a
vertex adopts the label occurring most frequently among its neighbors over
*both* in- and out-edges (the paper ignores directivity for propagation),
with ties broken randomly.  The paper runs a fixed number of iterations
(10 and 30 for the Table V community analyses).

Implementation notes
--------------------
* The paper's inner loop builds a per-vertex label→count hash map; the
  vectorized equivalent packs each (row, neighbor-label) entry into one
  integer key ``row * n_global + label`` and sorts the keys once per
  iteration.  The rows are already CSR-ordered, so the sort only permutes
  within a row: run lengths of equal keys are the counts, a
  ``maximum.reduceat`` gives each row's best count, and the tie hash is
  computed only for the runs that reach it — same O(Σdeg) work, no Python
  loop.  The rows and keys are ``int32`` whenever every key fits,
  ``n_loc · n_global < 2**31`` (half the bytes to gather and sort), else
  ``int64`` (:func:`_key_dtype`), a rank-local choice.  The label array
  is the halo payload, so its width comes from ``n_global`` alone
  (``int32`` while every gid fits) and is the same on every rank;
  ``row_keys + labels`` promotes to the wider type.  The sort order,
  hence every label, is the same at any width.  An ``int64`` key must
  fit too: ``n_loc · n_global < 2**63``, checked once per call
  (``ValueError``).
* Tie rule: the most frequent label; among equally frequent labels the
  largest :func:`_tie_hash` of (vertex gid, label, iteration, seed); on an
  exact 64-bit hash tie the largest label.
* Updates are synchronous (all vertices see the previous iteration's
  labels).  The paper's OpenMP loop is effectively asynchronous within a
  rank; synchronous updates make runs deterministic and rank-count
  invariant, which the tests rely on.  ``mode="async"`` counts chunk by
  chunk over contiguous slices of the CSR, writing labels in between.
* Ghost labels are refreshed with the retained-queue halo exchange — the
  same optimization the paper applies (send labels only, never ids).  An
  iteration issues one ``allreduce`` (the change count) and one plan
  execute.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import expand_rows
from ..graph.distgraph import DistGraph
from ..runtime import SUM, Communicator
from .closure import undirected_rows
from .exchange import halo_of

__all__ = ["LabelPropagationResult", "label_propagation"]


@dataclass(frozen=True)
class LabelPropagationResult:
    """Per-rank Label Propagation output."""

    labels: np.ndarray  # final label of each locally-owned vertex
    n_iters: int
    last_changed: int  # number of vertices that changed in the last iteration
    changed_per_iter: tuple[int, ...]  # global change count of each iteration


def _tie_hash(gids: np.ndarray, labels: np.ndarray, it: int, seed: int) -> np.ndarray:
    """Deterministic pseudo-random tie-break key per (vertex, label, iter).

    Keyed by *global* vertex id so the outcome is independent of which rank
    owns the vertex — Label Propagation results are identical for any rank
    count and partitioning.
    """
    with np.errstate(over="ignore"):
        z = (gids.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
             ^ labels.astype(np.uint64) * np.uint64(0xBF58476D1CE4E5B9)
             ^ np.uint64((seed * 1_000_003 + it) & 0xFFFFFFFFFFFFFFFF))
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    return z


def _key_dtype(n_loc: int, n_global: int) -> type:
    """``int32`` when every key ``row * n_global + label`` (row below
    ``n_loc``, label below ``n_global``) fits in it, else ``int64``."""
    return np.int32 if max(n_loc, 1) * n_global < 1 << 31 else np.int64


def _max_count_labels(
    rows: np.ndarray,
    row_keys: np.ndarray,
    labels: np.ndarray,
    row_gids: np.ndarray,
    it: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Most frequent label of every row that has entries.

    ``rows`` is the CSR-ordered row of each entry, ``row_keys`` is
    ``rows * n_global`` and ``labels`` the entry's neighbor label.  Returns
    ``(win_rows, win_labels, n_tied)``: the rows with at least one entry,
    their chosen labels, and how many of them had more than one label at
    the best count.
    """
    if len(rows) == 0:
        return rows, rows, 0
    keys = row_keys + labels
    # Keys of row r lie in [r * n_global, (r + 1) * n_global) and the rows
    # are ascending, so sorting permutes within rows: rows[i] is still the
    # row of keys[i], and keys[i] - row_keys[i] its label.
    keys.sort()
    run_starts = np.flatnonzero(_firsts(keys))
    run_counts = np.diff(run_starts, append=len(keys))
    # Every row boundary is a run boundary: a run opens a row exactly when
    # its first entry does.
    row_first = np.flatnonzero(_firsts(rows)[run_starts])
    best = np.maximum.reduceat(run_counts, row_first)
    cand = run_starts[np.flatnonzero(run_counts == np.repeat(
        best, np.diff(row_first, append=len(run_starts))))]
    cand_rows = rows[cand]
    cand_labels = keys[cand] - row_keys[cand]
    # Among a row's candidates (ascending labels) the largest hash wins; on
    # an exact hash tie the last, i.e. the largest label.
    tie = _tie_hash(row_gids[cand_rows], cand_labels, it, seed)
    group_first = np.flatnonzero(_firsts(cand_rows))
    group_size = np.diff(group_first, append=len(cand))
    top = np.flatnonzero(
        tie == np.repeat(np.maximum.reduceat(tie, group_first), group_size))
    top_rows = cand_rows[top]
    last = np.empty(len(top), dtype=bool)
    last[-1] = True
    np.not_equal(top_rows[1:], top_rows[:-1], out=last[:-1])
    win = top[np.flatnonzero(last)]
    return (cand_rows[win], cand_labels[win],
            int(np.count_nonzero(group_size > 1)))


def _firsts(a: np.ndarray) -> np.ndarray:
    """``a[i] != a[i - 1]`` for every ``i`` (``True`` at 0): the run
    starts of a sorted array, as a mask (a ``bool`` scan is the fast
    ``flatnonzero``)."""
    first = np.empty(len(a), dtype=bool)
    first[0] = True
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return first


def label_propagation(
    comm: Communicator,
    g: DistGraph,
    n_iters: int = 10,
    seed: int = 0,
    mode: str = "sync",
    n_sweeps: int = 4,
) -> LabelPropagationResult:
    """Run ``n_iters`` Label Propagation iterations.

    Parameters
    ----------
    n_iters:
        Fixed iteration count (the paper's stopping criterion).
    seed:
        Seed of the tie-breaking RNG.  The same (graph, seed) pair yields
        identical communities for any rank count.
    mode:
        ``"sync"`` (default): every vertex sees the previous iteration's
        labels — deterministic and rank-count invariant, used by the tests
        and Table V.
        ``"async"``: each iteration applies ``n_sweeps`` chunked in-place
        sub-sweeps before the halo refresh, approximating the paper's
        OpenMP loop where threads read labels updated within the same
        iteration.  Converges faster and avoids the bipartite oscillation
        of synchronous updates, at the cost of rank-count-dependent output
        (see ``bench_ablations``).
    n_sweeps:
        Sub-sweeps per iteration in async mode.

    Returns
    -------
    LabelPropagationResult
        ``labels[i]`` is the community label (a global vertex id) of local
        vertex ``i``; ``changed_per_iter`` is the global number of changed
        vertices of each iteration run.  The rank-local counters
        ``lp.entries_counted`` and ``lp.tied_rows`` are bumped into
        ``comm.trace.counters``.
    """
    if n_iters < 0:
        raise ValueError("n_iters must be non-negative")
    if mode not in ("sync", "async"):
        raise ValueError(f"mode must be 'sync' or 'async', got {mode!r}")
    if n_sweeps < 1:
        raise ValueError("n_sweeps must be >= 1")
    n_loc, n_global = g.n_loc, g.n_global
    if n_loc * n_global >= 1 << 63:
        raise ValueError(
            f"n_loc * n_global = {n_loc} * {n_global} overflows the int64 "
            "(row, label) key")
    with comm.region("label_propagation"):
        halo = halo_of(comm, g)

        key = _key_dtype(n_loc, n_global)
        indptr, nbrs = undirected_rows(g)
        rows = expand_rows(indptr).astype(key, copy=False)
        row_keys = rows * key(n_global)
        # init: own global id, at one width on every rank (the halo payload)
        labels = g.unmap.astype(_key_dtype(1, n_global))

        row_gids = g.unmap[:n_loc]
        # Async splits the local vertices into chunks whose entries are
        # contiguous in the CSR; later chunks see labels already updated by
        # earlier chunks this iteration.  Sync is the one-chunk case.
        sweeps = n_sweeps if mode == "async" else 1
        bounds = indptr[np.linspace(0, n_loc, sweeps + 1).astype(np.int64)]
        changed_per_iter: list[int] = []
        n_tied = 0
        for it in range(n_iters):
            before = labels[:n_loc].copy()
            for s in range(sweeps):
                a, b = bounds[s], bounds[s + 1]
                win_rows, win_labels, tied = _max_count_labels(
                    rows[a:b], row_keys[a:b], labels[nbrs[a:b]], row_gids,
                    it * sweeps + s, seed)
                labels[win_rows] = win_labels
                n_tied += tied
            changed_per_iter.append(comm.allreduce(
                int(np.count_nonzero(labels[:n_loc] != before)), SUM))
            halo.exchange(labels)
            if changed_per_iter[-1] == 0:
                break

        comm.trace.bump("lp.entries_counted", len(nbrs) * len(changed_per_iter))
        comm.trace.bump("lp.tied_rows", n_tied)
        return LabelPropagationResult(
            labels=labels[:n_loc].astype(np.int64),
            n_iters=len(changed_per_iter),
            last_changed=changed_per_iter[-1] if changed_per_iter else 0,
            changed_per_iter=tuple(changed_per_iter))
