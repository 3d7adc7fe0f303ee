"""Reference graph construction: the argsort-based builders, kept as an oracle.

The production builders in ``repro.graph.build`` group by small keys with
``bucket_order`` (16-bit radix passes) and read each row id off the ghost
map.  The builders here are the implementation they replaced: every
grouping is a stable ``np.argsort`` over ``int64`` keys, the 1-D convert
relabels sources with ``Partition.to_local`` and sorts the edges before
discovering ghosts.  Every output array — CSR indexes and edges, values,
``unmap``, ``ghost_tasks``, the hash map's table, the grid views — must
be byte-identical between the two.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import sorted_unique
from repro.graph.distgraph import DistGraph, GridGraph
from repro.graph.hashmap import IntHashMap
from repro.runtime import SUM


def reference_build_csr(n_rows, src, dst, dtype=np.int64):
    """CSR ``(indptr, adj)`` by ``bincount`` + one stable argsort."""
    src = np.asarray(src)
    dst = np.asarray(dst)
    if src.shape != dst.shape or src.ndim != 1:
        raise ValueError("src and dst must be matching 1-D arrays")
    if len(src) and (src.min() < 0 or src.max() >= n_rows):
        raise ValueError("src ids out of range for n_rows")
    counts = np.bincount(src, minlength=n_rows)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    order = np.argsort(src, kind="stable")
    return indptr, np.ascontiguousarray(dst[order], dtype=dtype)


def _grouped_send(owners, nparts, *columns):
    order = np.argsort(owners, kind="stable")
    counts = np.bincount(owners, minlength=nparts)
    return [col[order] for col in columns], counts


def reference_build_dist_graph(comm, edges_chunk, partition, edge_values=None):
    """The 1-D builder: owner exchange, then argsort CSR + ghost relabel."""
    edges_chunk = np.ascontiguousarray(edges_chunk, dtype=np.int64)
    if edge_values is not None:
        edge_values = np.ascontiguousarray(edge_values, dtype=np.float64)
    rank, p = comm.rank, comm.size
    m_global = comm.allreduce(len(edges_chunk), SUM)

    src, dst = edges_chunk[:, 0], edges_chunk[:, 1]
    owners = partition.owner_of(src)
    (send_src, send_dst), counts_out = _grouped_send(owners, p, src, dst)
    out_src_g, _ = comm.alltoallv_flat(send_src, counts_out)
    out_dst_g, _ = comm.alltoallv_flat(send_dst, counts_out)
    owners_in = partition.owner_of(dst)
    (send_dst_in, send_src_in), counts_in = _grouped_send(
        owners_in, p, dst, src)
    in_dst_g, _ = comm.alltoallv_flat(send_dst_in, counts_in)
    in_src_g, _ = comm.alltoallv_flat(send_src_in, counts_in)
    out_vals = in_vals = None
    if edge_values is not None:
        (send_v_out,), _ = _grouped_send(owners, p, edge_values)
        out_vals, _ = comm.alltoallv_flat(send_v_out, counts_out)
        (send_v_in,), _ = _grouped_send(owners_in, p, edge_values)
        in_vals, _ = comm.alltoallv_flat(send_v_in, counts_in)

    n_loc = partition.n_owned(rank)
    owned = partition.owned_gids(rank)
    out_rows = partition.to_local(rank, out_src_g)
    out_order = np.argsort(out_rows, kind="stable")
    out_indexes, out_adj_g = reference_build_csr(n_loc, out_rows, out_dst_g)
    in_rows = partition.to_local(rank, in_dst_g)
    in_order = np.argsort(in_rows, kind="stable")
    in_indexes, in_adj_g = reference_build_csr(n_loc, in_rows, in_src_g)
    if edge_values is not None:
        out_vals = out_vals[out_order]
        in_vals = in_vals[in_order]

    neighbors = np.concatenate([out_adj_g, in_adj_g])
    if len(neighbors):
        uniq = sorted_unique(neighbors)
        ghost_gids = uniq[partition.owner_of(uniq) != rank]
    else:
        ghost_gids = np.empty(0, dtype=np.int64)
    unmap = np.concatenate([owned, ghost_gids])
    gmap = IntHashMap(capacity_hint=len(unmap))
    gmap.insert(unmap, np.arange(len(unmap), dtype=np.int64))
    ghost_tasks = (partition.owner_of(ghost_gids) if len(ghost_gids)
                   else np.empty(0, dtype=np.int64))
    return DistGraph(
        rank=rank, nparts=p, n_global=partition.n_global,
        m_global=int(m_global), partition=partition,
        out_indexes=out_indexes, out_edges=gmap.get(out_adj_g),
        in_indexes=in_indexes, in_edges=gmap.get(in_adj_g),
        unmap=unmap, ghost_tasks=ghost_tasks, map=gmap,
        out_values=out_vals, in_values=in_vals)


def reference_build_grid_graph(comm, edges_chunk, partition, edge_values=None,
                               symmetrize=False):
    """The 2-D builder: block exchange, then two argsort CSR views and two
    more argsorts for the values."""
    edges_chunk = np.ascontiguousarray(edges_chunk, dtype=np.int64)
    if edge_values is not None:
        edge_values = np.ascontiguousarray(edge_values, dtype=np.float64)
    rank, p = comm.rank, comm.size
    c = partition.grid_cols
    m_global = comm.allreduce(len(edges_chunk), SUM)
    src, dst = edges_chunk[:, 0], edges_chunk[:, 1]
    if symmetrize:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        if edge_values is not None:
            edge_values = np.concatenate([edge_values, edge_values])
    blocks = (partition.owner_of(dst) // c) * c + partition.owner_of(src) % c
    (send_src, send_dst), counts = _grouped_send(blocks, p, src, dst)
    blk_src, _ = comm.alltoallv_flat(send_src, counts)
    blk_dst, _ = comm.alltoallv_flat(send_dst, counts)
    blk_vals = None
    if edge_values is not None:
        (send_vals,), _ = _grouped_send(blocks, p, edge_values)
        blk_vals, _ = comm.alltoallv_flat(send_vals, counts)

    i, j = partition.grid_coords(rank)
    if i >= 0:
        row_lo, row_hi = partition.row_range(i)
        col_counts = partition.col_chunk_counts(j)
        col_unmap = partition.col_slice_gids(j)
        v_idx = blk_dst - row_lo
        u_idx = partition.col_index_of(j, blk_src)
        td_indexes, td_edges = reference_build_csr(len(col_unmap), u_idx, v_idx)
        bu_indexes, bu_edges = reference_build_csr(row_hi - row_lo, v_idx, u_idx)
        td_vals = bu_vals = None
        if blk_vals is not None:
            td_vals = blk_vals[np.argsort(u_idx, kind="stable")]
            bu_vals = blk_vals[np.argsort(v_idx, kind="stable")]
    else:
        row_lo = 0
        col_counts = np.empty(0, dtype=np.int64)
        col_unmap = np.empty(0, dtype=np.int64)
        td_indexes = bu_indexes = np.zeros(1, dtype=np.int64)
        td_edges = bu_edges = np.empty(0, dtype=np.int64)
        td_vals = bu_vals = (np.empty(0, dtype=np.float64)
                             if blk_vals is not None else None)
    return GridGraph(
        rank=rank, nparts=p, n_global=partition.n_global,
        m_global=int(m_global), partition=partition, grid_row=i, grid_col=j,
        row_lo=int(row_lo), td_indexes=td_indexes, td_edges=td_edges,
        bu_indexes=bu_indexes, bu_edges=bu_edges, col_counts=col_counts,
        col_unmap=col_unmap, td_values=td_vals, bu_values=bu_vals,
        symmetrized=symmetrize)


def reference_sort_adjacency(g):
    """Rows ordered by neighbour global id with one ``lexsort`` per
    direction (what ``DistGraph.sort_adjacency`` did)."""
    for ind, name in ((g.out_indexes, "out"), (g.in_indexes, "in")):
        adj = getattr(g, f"{name}_edges")
        vals = getattr(g, f"{name}_values")
        if not len(adj):
            continue
        rows = np.repeat(np.arange(g.n_loc, dtype=np.int64), np.diff(ind))
        order = np.lexsort((g.unmap[adj], rows))
        setattr(g, f"{name}_edges", adj[order])
        if vals is not None:
            setattr(g, f"{name}_values", vals[order])
    return g
