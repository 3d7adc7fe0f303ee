"""Distributed Label Propagation community detection (paper §III-D1, Alg. 1).

Every vertex starts with its own global id as its label; each iteration a
vertex adopts the label occurring most frequently among its neighbors over
*both* in- and out-edges (the paper ignores directivity for propagation),
with ties broken randomly.  The paper runs a fixed number of iterations
(10 and 30 for the Table V community analyses).

Implementation notes
--------------------
* The paper's inner loop builds a per-vertex label→count hash map; the
  vectorized equivalent sorts the (vertex, neighbor-label) pairs once per
  iteration and reduces run lengths — same O(Σdeg) work, no Python loop.
* Updates are synchronous (all vertices see the previous iteration's
  labels).  The paper's OpenMP loop is effectively asynchronous within a
  rank; synchronous updates make runs deterministic and rank-count
  invariant, which the tests rely on.
* Ghost labels are refreshed with the retained-queue halo exchange — the
  same optimization the paper applies (send labels only, never ids).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import expand_rows
from ..graph.distgraph import DistGraph
from ..runtime import SUM, Communicator
from .closure import undirected_rows
from .exchange import HaloExchange

__all__ = ["LabelPropagationResult", "label_propagation"]


@dataclass(frozen=True)
class LabelPropagationResult:
    """Per-rank Label Propagation output."""

    labels: np.ndarray  # final label of each locally-owned vertex
    n_iters: int
    last_changed: int  # number of vertices that changed in the last iteration


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


def _max_count_labels(
    rows: np.ndarray,
    labels: np.ndarray,
    n_rows: int,
    row_gids: np.ndarray,
    it: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Most frequent label per row; hashed random tie-break.

    Returns ``(chosen, has_any)`` where ``chosen[v]`` is valid only when
    ``has_any[v]`` (vertices with no neighbors keep their old label).
    """
    chosen = np.zeros(n_rows, dtype=np.int64)
    has_any = np.zeros(n_rows, dtype=bool)
    if len(rows) == 0:
        return chosen, has_any
    order = np.lexsort((labels, rows))
    r_sorted = rows[order]
    l_sorted = labels[order]
    # Run boundaries of identical (row, label) pairs.
    new_run = np.empty(len(order), dtype=bool)
    new_run[0] = True
    new_run[1:] = (r_sorted[1:] != r_sorted[:-1]) | (l_sorted[1:] != l_sorted[:-1])
    run_starts = np.flatnonzero(new_run)
    run_rows = r_sorted[run_starts]
    run_labels = l_sorted[run_starts]
    run_counts = np.diff(np.append(run_starts, len(order)))
    # Pick, per row, the run with the highest count; ties go to the run
    # with the highest hashed key (uniform among tied labels).
    tiebreak = _tie_hash(row_gids[run_rows], run_labels, it, seed)
    sel = np.lexsort((tiebreak, run_counts, run_rows))
    row_sorted = run_rows[sel]
    last_of_row = np.empty(len(sel), dtype=bool)
    last_of_row[-1] = True
    last_of_row[:-1] = row_sorted[1:] != row_sorted[:-1]
    winners = sel[last_of_row]
    chosen[run_rows[winners]] = run_labels[winners]
    has_any[run_rows[winners]] = True
    return chosen, has_any


def label_propagation(
    comm: Communicator,
    g: DistGraph,
    n_iters: int = 10,
    seed: int = 0,
    halo: HaloExchange | None = None,
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
        vertex ``i``.
    """
    if n_iters < 0:
        raise ValueError("n_iters must be non-negative")
    if mode not in ("sync", "async"):
        raise ValueError(f"mode must be 'sync' or 'async', got {mode!r}")
    if n_sweeps < 1:
        raise ValueError("n_sweeps must be >= 1")
    with comm.region("label_propagation"):
        if halo is None:
            halo = HaloExchange(comm, g)
        n_loc, n_tot = g.n_loc, g.n_total

        indptr, nbrs = undirected_rows(g)
        rows = expand_rows(indptr)
        labels = g.unmap.astype(np.int64).copy()  # init: own global id

        row_gids = g.unmap[:n_loc]
        changed = 0
        for it in range(n_iters):
            if mode == "sync":
                chosen, has_any = _max_count_labels(
                    rows, labels[nbrs], n_loc, row_gids, it, seed)
                new_local = np.where(has_any, chosen, labels[:n_loc])
            else:
                # Async: split local vertices into chunks; later chunks see
                # labels already updated by earlier chunks this iteration.
                before = labels[:n_loc].copy()
                bounds = np.linspace(0, n_loc, n_sweeps + 1).astype(np.int64)
                for s in range(n_sweeps):
                    lo, hi = bounds[s], bounds[s + 1]
                    if lo == hi:
                        continue
                    in_chunk = (rows >= lo) & (rows < hi)
                    chosen, has_any = _max_count_labels(
                        rows[in_chunk] - lo, labels[nbrs[in_chunk]],
                        int(hi - lo), row_gids[lo:hi], it * n_sweeps + s,
                        seed)
                    labels[lo:hi] = np.where(has_any, chosen, labels[lo:hi])
                new_local = labels[:n_loc].copy()
                labels[:n_loc] = before  # restore for the change count
            changed = comm.allreduce(
                int(np.count_nonzero(new_local != labels[:n_loc])), SUM)
            labels[:n_loc] = new_local
            # tol=0 delta: only changed labels travel (bitwise-identical to
            # a dense refresh), which goes sparse as communities stabilize.
            halo.exchange_delta(labels)
            if changed == 0:
                return LabelPropagationResult(
                    labels=labels[:n_loc].copy(), n_iters=it + 1, last_changed=0)

        return LabelPropagationResult(
            labels=labels[:n_loc].copy(), n_iters=n_iters, last_changed=changed)
