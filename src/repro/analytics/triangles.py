"""Distributed triangle counting and clustering coefficients (§VII).

Another member for the paper's "extend this collection" direction, and a
structurally different one: triangle counting needs *two-hop* information,
so unlike the six original analytics it cannot run on halo values alone.

The algorithm is the standard degree-ordered wedge check, distributed:

1. Orient every edge from its lower-rank endpoint to its higher-rank
   endpoint under the total order (degree, gid) — each triangle becomes
   exactly one wedge (u→v, u→w) with a closing edge v→w, and forward
   degrees are bounded by O(√m) on skewed graphs.
2. Each rank enumerates the wedges of its owned vertices; closing-edge
   existence queries (v, w) are grouped by the *owner of v* and answered
   with one ``alltoallv`` round against the remote forward-edge hash sets.

One subtlety: wedge endpoints v, w may both be ghosts, so their forward
orientation uses the (degree, gid) key, which requires ghost degrees — one
halo exchange supplies them.

Degenerate inputs (self-loops, parallel edges) are removed up front, so
counts match the simple-graph definition used by NetworkX.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import bucket_order, expand_rows, sorted_unique
from ..graph.distgraph import DistGraph
from ..graph.hashmap import IntHashMap
from ..runtime import SUM, Communicator
from .exchange import halo_of

__all__ = ["TriangleResult", "triangle_count"]


@dataclass(frozen=True)
class TriangleResult:
    """Per-rank triangle-count output."""

    local_triangles: np.ndarray  # per local vertex (each triangle counted at all 3)
    total: int  # global triangle count (each counted once)
    wedges_checked: int  # global number of closing-edge queries
    global_clustering: float  # 3*triangles / open+closed wedges


def _forward_key(deg: np.ndarray, gid: np.ndarray) -> np.ndarray:
    """Total-order key: degree-major, gid-minor (packed into int64)."""
    return (deg.astype(np.int64) << np.int64(40)) | gid.astype(np.int64)


def triangle_count(
    comm: Communicator,
    g: DistGraph,
) -> TriangleResult:
    """Count triangles of the undirected simple graph underlying ``g``."""
    with comm.region("triangles"):
        halo = halo_of(comm, g)
        n_loc, n_tot = g.n_loc, g.n_total

        # Undirected simple neighbor lists of local vertices (local ids),
        # with self-loops and duplicates removed.
        rows = np.concatenate([expand_rows(g.out_indexes),
                               expand_rows(g.in_indexes)])
        nbrs = np.concatenate([g.out_edges, g.in_edges])
        keep = rows != nbrs  # drop self-loops (covers ghost case: ghosts != local rows)
        packed = sorted_unique(rows[keep] * np.int64(n_tot) + nbrs[keep])
        rows_u, nbrs_u = packed // n_tot, packed % n_tot

        # Undirected simple degree per local vertex; ghosts via halo.
        deg = np.zeros(n_tot, dtype=np.int64)
        deg[:n_loc] = np.bincount(rows_u, minlength=n_loc)
        halo.exchange(deg)

        key = _forward_key(deg, g.unmap.astype(np.int64))
        forward = key[rows_u] < key[nbrs_u]
        f_rows, f_nbrs = rows_u[forward], nbrs_u[forward]

        # Local forward-edge membership set keyed by (gid_u, gid_v).
        # Packed as gid_u * n_global + gid_v (fits int64 for n < ~3e9... the
        # stand-ins are far smaller; guard anyway).
        if g.n_global and g.n_global > np.iinfo(np.int64).max // max(g.n_global, 1):
            raise ValueError("graph too large for packed edge keys")

        def pack(a_gid, b_gid):
            return a_gid * np.int64(g.n_global) + b_gid

        f_keys = pack(g.unmap[f_rows], g.unmap[f_nbrs])
        edge_set = IntHashMap(capacity_hint=max(16, len(f_keys)))
        edge_set.insert(f_keys, np.ones(len(f_keys), dtype=np.int64))

        # Wedge enumeration: for each owned u, all ordered pairs (v, w) of
        # forward neighbors with key(v) < key(w).  Vectorized per-row pair
        # expansion via sorted grouping.
        order = np.lexsort((key[f_nbrs], f_rows))
        fr = f_rows[order]
        fn = f_nbrs[order]
        f_counts = np.bincount(fr, minlength=n_loc)
        f_starts = np.zeros(n_loc + 1, dtype=np.int64)
        np.cumsum(f_counts, out=f_starts[1:])

        # For every row with d forward neighbors, emit d*(d-1)/2 pairs.
        d = f_counts
        n_pairs_per_row = d * (d - 1) // 2
        total_pairs = int(n_pairs_per_row.sum())
        tri_per_vertex = np.zeros(n_loc, dtype=np.int64)
        v_q = np.empty(total_pairs, dtype=np.int64)
        w_q = np.empty(total_pairs, dtype=np.int64)
        u_q = np.empty(total_pairs, dtype=np.int64)
        pos = 0
        # Row-block pair expansion: loop over distinct forward-degree
        # values (tiny count) and vectorize within each.
        for dv in np.unique(d):
            if dv < 2:
                continue
            rows_dv = np.flatnonzero(d == dv)
            base = f_starts[rows_dv]  # (R,)
            iu, ju = np.triu_indices(int(dv), k=1)
            # (R, P) index matrices into fn.
            vi = (base[:, None] + iu[None, :]).ravel()
            wi = (base[:, None] + ju[None, :]).ravel()
            cnt = len(rows_dv) * len(iu)
            v_q[pos : pos + cnt] = fn[vi]
            w_q[pos : pos + cnt] = fn[wi]
            u_q[pos : pos + cnt] = np.repeat(rows_dv, len(iu))
            pos += cnt
        assert pos == total_pairs

        # Wedge (u, v, w) closes iff forward edge (v, w) exists; v's owner
        # holds that fact.  Since fn is sorted by key within a row,
        # key(v) < key(w) already holds.
        v_gid = g.unmap[v_q]
        w_gid = g.unmap[w_q]
        order_q, offsets_q = bucket_order(g.owner_of_local(v_q), comm.size)
        recv_keys, recv_counts = comm.alltoallv_flat(
            pack(v_gid, w_gid)[order_q], np.diff(offsets_q))

        found = (edge_set.get(recv_keys, default=0) > 0).astype(np.int64)
        answers, _ = comm.alltoallv_flat(found, recv_counts)
        closed = np.zeros(total_pairs, dtype=np.int64)
        closed[order_q] = answers

        # Attribute triangles: each closed wedge (u,v,w) is one triangle;
        # credit all three corners (v/w may be remote: credit via exchange).
        np.add.at(tri_per_vertex, u_q[closed > 0], 1)
        # v and w credits, grouped by owner of the *global* vertex.
        for corner_gid in (v_gid[closed > 0], w_gid[closed > 0]):
            order_c, offsets_c = bucket_order(
                g.partition.owner_of(corner_gid), comm.size)
            got, _ = comm.alltoallv_flat(corner_gid[order_c],
                                         np.diff(offsets_c))
            if len(got):
                lids = g.map.get(got)
                np.add.at(tri_per_vertex, lids, 1)

        total = comm.allreduce(int(closed.sum()), SUM)
        wedges = comm.allreduce(total_pairs, SUM)
        # Global clustering coefficient: 3*triangles / wedges over the
        # *undirected* graph (wedges centered anywhere, open or closed).
        d_all = deg[:n_loc]
        all_wedges = comm.allreduce(int((d_all * (d_all - 1) // 2).sum()), SUM)
        gcc = (3.0 * total / all_wedges) if all_wedges else 0.0

        return TriangleResult(
            local_triangles=tri_per_vertex,
            total=total,
            wedges_checked=wedges,
            global_clustering=gcc,
        )
