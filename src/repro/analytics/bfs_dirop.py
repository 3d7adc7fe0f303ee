"""Direction-optimizing distributed BFS (Beamer-style; paper §III-D2).

The paper deliberately "omit[s] BFS-specific optimizations in our current
work" and cites the Graph500 line of research; this module supplies the
most important of those optimizations as the natural extension: switching
from *top-down* frontier expansion to *bottom-up* parent search when the
frontier covers a large fraction of the graph.

Top-down (Algorithm 2): every frontier vertex scans its out-edges and the
discovered ghosts travel back to their owners as one bool flag per ghost
slot over the halo's reverse queues (one ``alltoallv``).  Bottom-up: each
rank learns which of its *ghosts* are in the frontier from a
retained-queue halo exchange of one flag per ghost, then finds
{unvisited owned v with an in-neighbour in the frontier} with no further
communication.  Its candidates are a shrinking array of rows: the owned
vertices with an in-entry, built once per traversal and trimmed of the
visited ones before each bottom-up level.  The set has three local
spellings, and each rank picks one from its own entry counts (Buluç &
Madduri's bottom-up step, GBBS's sparse/dense edge map):

* **push** — the owned frontier's out-rows plus the ghost frontier's rows
  of the cached ``closure_rows(g, "out")`` (a ghost's row lists the owned
  vertices it leads to), scattered into a hit mask read at the
  candidates; taken when it reads no more entries than a pull;
* **gathered pull** — the candidates' in-entries, gathered and reduced
  with one ``logical_or.reduceat``;
* **product pull** — when the candidates hold more than
  :data:`DENSE_PULL_SHARE` of the in-entries, one sparse product of the
  graph's cached ``csr_operator(g, "in")`` with the flags, read at the
  candidates.

All three return the same ascending rows.  The choice is local and
changes no message: the wire schedule — top-down reverse flags or
bottom-up forward flags, picked by the global heuristic in
:func:`distributed_bfs_dirop` — is the same as when every bottom-up
level scanned every in-entry.  A top-down level is the BFS engine's own
step (:func:`~repro.analytics.bfs._top_down_step` at k = 1, on the same
bool ``seen`` flags the bottom-up levels mark); the step's own
end-of-traversal flag goes unused, because the heuristic's one
``allreduce`` of three counts per level already carries the global
frontier size.  Levels are identical to
:func:`~repro.analytics.bfs.distributed_bfs` and to the oracle in
``tests/bfs_reference.py`` in every mode (asserted by tests).

Trace counters: ``bfs.levels`` per traversal, ``bfs.push_levels`` /
``bfs.pull_levels`` — the levels this rank expanded by reading frontier
rows (every top-down level counts as push) or unvisited rows — and
``bfs.dense_pulls``, the pull levels that took the product.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ..graph.distgraph import DistGraph, GridGraph
from ..runtime import SUM, Communicator
from .bfs import _gather_ranges, _owned, _top_down_step
from .closure import closure_rows
from .common import NOT_VISITED, csr_operator
from .exchange import halo_of

__all__ = ["distributed_bfs_dirop"]


#: A pull whose candidate rows hold more than this share of the operator's
#: entries reads every row with one sparse product.  On the
#: ``rmat_traversal`` graph the product and the gather of random row sets
#: cost the same at a share of 0.24–0.28 (DESIGN.md §19).
DENSE_PULL_SHARE = 0.25


def _pull(op: sparse.csr_array, rows: np.ndarray,
          flags: np.ndarray) -> tuple[np.ndarray, bool]:
    """The rows of ``rows`` (ascending, none of them empty) holding an
    entry of ``op`` whose ``flags`` bit is set, and whether the product
    spelling ran.

    Candidate rows with more than :data:`DENSE_PULL_SHARE` of ``op``'s
    entries take one product, ``(op @ flags) > 0`` at ``rows``; fewer
    gather their entries for one ``logical_or.reduceat``.  Both spellings
    return the same rows.
    """
    indptr, adj = op.indptr, op.indices
    starts, ends = indptr[rows], indptr[rows + 1]
    lens = ends - starts
    if int(lens.sum()) > DENSE_PULL_SHARE * len(adj):
        return rows[(op @ flags.view(np.int8))[rows] > 0], True
    if not len(rows):
        return rows, False
    hit = np.logical_or.reduceat(flags[_gather_ranges(adj, starts, ends)],
                                 np.cumsum(lens) - lens)
    return rows[hit], False


def _bottom_up_step(g: DistGraph, seen: np.ndarray, rows: np.ndarray,
                    frontier: np.ndarray, in_frontier: np.ndarray,
                    in_deg: np.ndarray, out_deg: np.ndarray,
                    ) -> tuple[np.ndarray, bool, bool]:
    """The vertices of ``rows`` (the unvisited owned vertices with an
    in-entry, ascending) with an in-neighbour flagged in ``in_frontier``
    (owned and ghost slots current), marked in ``seen``; returns them,
    whether the step pushed and whether it pulled by one product."""
    closure = closure_rows(g, "out")
    ghost_front = np.flatnonzero(in_frontier[g.n_loc:])
    g_lo, g_hi = closure.ghost_indptr[ghost_front], \
        closure.ghost_indptr[ghost_front + 1]
    push = int(out_deg[frontier].sum() + (g_hi - g_lo).sum()) \
        <= int(in_deg[rows].sum())
    dense = False
    if push:
        # Every pushed target has the in-entry it was reached by, so the
        # hits among ``rows`` are all of them.
        hit = np.zeros(g.n_total, dtype=bool)
        hit[_gather_ranges(g.out_edges, g.out_indexes[frontier],
                           g.out_indexes[frontier + 1])] = True
        hit[_gather_ranges(closure.ghost_adj, g_lo, g_hi)] = True
        nxt = rows[hit[rows]]
    else:
        nxt, dense = _pull(csr_operator(g, "in"), rows, in_frontier)
    seen[nxt] = True
    return nxt, push, dense


def distributed_bfs_dirop(
    comm: Communicator,
    g: DistGraph | GridGraph,
    root_global: int,
    alpha: float = 15.0,
    beta: float = 20.0,
) -> np.ndarray:
    """Direction-optimizing BFS over out-edges from one root.

    A :class:`GridGraph` runs :func:`~repro.analytics.frontier2d.
    grid_bfs_dirop`, whose wire format does not depend on the direction,
    so ``alpha``/``beta`` apply to the 1-D layout only.

    Parameters
    ----------
    alpha:
        Switch to the bottom-up wire schedule once (frontier out-edges) ×
        alpha exceeds the global number of unvisited *vertices*.  Beamer's
        test compares against the unvisited vertices' edge mass instead;
        the vertex count is kept because it fixes which levels ship the
        ``alltoallv`` and which the flag halo — the traffic the
        ``BENCH_bfs2d`` ratios are recorded against.  How a bottom-up
        level reads its entries is chosen per rank, with no collective.
    beta:
        Switch back to top-down once the frontier shrinks below
        ``n / beta``.

    Returns
    -------
    Per-local-vertex levels, identical to the top-down kernel's output.
    """
    if isinstance(g, GridGraph):
        # 2-D checkerboard block: row/column-subgroup bitmap exchanges
        # instead of halo/alltoallv (lazy import; the grid kernels live
        # beside the other frontier-idiom ports).
        from .frontier2d import grid_bfs_dirop

        return grid_bfs_dirop(comm, g, root_global)
    if not (0 <= root_global < g.n_global):
        raise ValueError("root out of range")
    halo = halo_of(comm, g)
    n_loc, n_tot = g.n_loc, g.n_total

    levels = np.full(n_loc, NOT_VISITED, dtype=np.int64)
    seen = np.zeros(n_tot, dtype=bool)  # the engine's k = 1 flags
    in_frontier = np.zeros(n_tot, dtype=bool)

    _, frontier = _owned(g, np.array([root_global], dtype=np.int64))
    seen[frontier] = True

    out_deg, in_deg = g.out_degrees(), g.in_degrees()
    # The unvisited rows a bottom-up level can reach: those with an
    # in-entry, trimmed of the visited ones before each bottom-up level.
    rows = np.flatnonzero(in_deg > 0)
    level = pushes = dense_pulls = 0
    bottom_up = False

    def counts() -> np.ndarray:
        """Global (frontier size, frontier out-edges, unvisited vertices):
        the loop test and the direction heuristic in one allreduce."""
        return comm.allreduce(np.array(
            [len(frontier), out_deg[frontier].sum(),
             n_loc - np.count_nonzero(seen[:n_loc])], dtype=np.int64), SUM)

    global_front, front_edges, unvisited = counts()
    while global_front > 0:
        # --- heuristic: pick the wire schedule of the next expansion. ---
        if not bottom_up and front_edges * alpha > max(unvisited, 1):
            bottom_up = True
        elif bottom_up and global_front < g.n_global / beta:
            bottom_up = False

        levels[frontier] = level  # settle
        if bottom_up:
            # Publish frontier membership to ghosts, then search locally.
            in_frontier[:] = False
            in_frontier[frontier] = True
            halo.exchange(in_frontier)
            rows = rows[~seen[rows]]
            frontier, push, dense = _bottom_up_step(
                g, seen, rows, frontier, in_frontier, in_deg, out_deg)
            dense_pulls += dense
        else:
            frontier, _, _ = _top_down_step(g, halo, seen, frontier, None,
                                            "out")
            push = True
        pushes += push
        level += 1
        global_front, front_edges, unvisited = counts()

    comm.trace.bump("bfs.levels", level)
    comm.trace.bump("bfs.push_levels", pushes)
    comm.trace.bump("bfs.pull_levels", level - pushes)
    comm.trace.bump("bfs.dense_pulls", dense_pulls)
    return levels
