"""Distributed graph construction (paper §III-A).

Each rank starts with an arbitrary chunk of the global edge list (from the
striped reader or a generator).  Edges are redistributed with
``alltoallv`` so every rank receives all out-edges of its owned vertices;
a second exchange with reversed edges delivers the in-edges.  The received
edge arrays are then converted to the CSR-like local representation with
ghost relabeling (:class:`~repro.graph.distgraph.DistGraph`): ghosts,
then ``unmap`` and ``map``, then each direction's rows read off ``map``,
then one :func:`~repro.graph.csr.bucket_order` per direction for its
``indexes`` and the order of its neighbours and values.

The two stages are timed separately because Table III of the paper reports
them separately (Exch and LConv columns).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..partition.base import Partition
from ..partition.grid import GridEdgePartition
from ..runtime import SUM, Communicator
from .csr import bucket_order, sorted_unique
from .distgraph import DistGraph, GridGraph
from .hashmap import IntHashMap

__all__ = ["BuildStats", "build_dist_graph", "build_dist_graph_with_stats",
           "build_dist_graph_from_file", "build_grid_graph"]


@dataclass(frozen=True)
class BuildStats:
    """Per-rank timings and sizes of the construction stages."""

    exchange_s: float  # edge redistribution (both directions)
    convert_s: float  # CSR conversion + ghost relabeling
    m_out: int  # out-edges received (local graph size)
    m_in: int  # in-edges received

    @property
    def total_s(self) -> float:
        return self.exchange_s + self.convert_s


def _grouped_send(
    owners: np.ndarray, nparts: int, *columns: np.ndarray,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Order each column by destination rank (stable within a rank).

    Returns ``(ordered_columns, counts)``, ready for
    ``comm.alltoallv_flat(col, counts)`` — the zero-copy path; the old
    ``np.split`` + object ``alltoallv`` form pickled every part (PERF002).
    """
    order, offsets = bucket_order(owners, nparts)
    return [col[order] for col in columns], np.diff(offsets)


def _local_csr(
    gmap: IntHashMap, n_loc: int, rank: int, row_gids: np.ndarray,
    nbr_gids: np.ndarray, vals: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """One direction's ``(indexes, edges, values)`` over local ids.

    Rows are read off the map: a row gid this rank does not own maps to a
    ghost id or to -1, and raises like ``Partition.to_local`` would.
    """
    rows = gmap.get(row_gids)
    if len(rows) and (rows.min() < 0 or rows.max() >= n_loc):
        bad = np.flatnonzero((rows < 0) | (rows >= n_loc))
        raise ValueError(f"{len(bad)} ids not owned by rank {rank} "
                         f"(first: {int(row_gids[bad[0]])})")
    order, indexes = bucket_order(rows, n_loc)
    edges = gmap.get(nbr_gids)[order]
    return indexes, edges, None if vals is None else vals[order]


def build_dist_graph_with_stats(
    comm: Communicator,
    edges_chunk: np.ndarray,
    partition: Partition,
    edge_values: np.ndarray | None = None,
) -> tuple[DistGraph, BuildStats]:
    """Collectively build the distributed graph from per-rank edge chunks.

    Parameters
    ----------
    edges_chunk:
        This rank's ``(m_chunk, 2)`` slice of the global directed edge list.
        Any distribution of edges across ranks is accepted.
    partition:
        Vertex ownership; must have ``nparts == comm.size`` and ``n_global``
        covering every vertex id in the edge list.
    edge_values:
        Optional float64 weight per chunk edge; weights travel with their
        edges through both exchanges and land in ``g.out_values`` /
        ``g.in_values``, aligned with the adjacency arrays.  All ranks must
        agree on whether values are provided.

    Returns
    -------
    (graph, stats):
        This rank's :class:`DistGraph` and its stage timings.
    """
    edges_chunk = np.ascontiguousarray(edges_chunk, dtype=np.int64)
    if edges_chunk.ndim != 2 or edges_chunk.shape[1] != 2:
        raise ValueError("edges_chunk must have shape (m, 2)")
    if partition.nparts != comm.size:
        raise ValueError(
            f"partition has {partition.nparts} parts but world size is {comm.size}")
    if edge_values is not None:
        edge_values = np.ascontiguousarray(edge_values, dtype=np.float64)
        if edge_values.shape != (len(edges_chunk),):
            raise ValueError("edge_values must have one entry per chunk edge")

    rank, p = comm.rank, comm.size
    with comm.region("build.exchange"):
        t0 = time.perf_counter()
        m_global = comm.allreduce(len(edges_chunk), SUM)

        # Out-edges: redistribute by owner of the source endpoint; in-edges:
        # reversed, by the owner of the (original) destination endpoint.
        # Values ride along in each direction's one grouping.
        src, dst = edges_chunk[:, 0], edges_chunk[:, 1]
        vals = () if edge_values is None else (edge_values,)
        (send_src, send_dst, *send_v_out), counts_out = _grouped_send(
            partition.owner_of(src), p, src, dst, *vals)
        out_src_g, _ = comm.alltoallv_flat(send_src, counts_out)
        out_dst_g, _ = comm.alltoallv_flat(send_dst, counts_out)
        (send_dst_in, send_src_in, *send_v_in), counts_in = _grouped_send(
            partition.owner_of(dst), p, dst, src, *vals)
        in_dst_g, _ = comm.alltoallv_flat(send_dst_in, counts_in)
        in_src_g, _ = comm.alltoallv_flat(send_src_in, counts_in)

        out_vals = in_vals = None
        if edge_values is not None:
            out_vals, _ = comm.alltoallv_flat(send_v_out[0], counts_out)
            in_vals, _ = comm.alltoallv_flat(send_v_in[0], counts_in)
        exchange_s = time.perf_counter() - t0

    with comm.region("build.convert"):
        t0 = time.perf_counter()
        n_loc = partition.n_owned(rank)

        # Ghost discovery: every received neighbour not owned here.
        uniq = sorted_unique(np.concatenate([out_dst_g, in_src_g]))
        owners_u = partition.owner_of(uniq)
        is_ghost = owners_u != rank
        ghost_tasks = owners_u[is_ghost]
        unmap = np.concatenate([partition.owned_gids(rank), uniq[is_ghost]])
        gmap = IntHashMap(capacity_hint=len(unmap))
        gmap.insert(unmap, np.arange(len(unmap), dtype=np.int64))

        out_indexes, out_edges, out_vals = _local_csr(
            gmap, n_loc, rank, out_src_g, out_dst_g, out_vals)
        in_indexes, in_edges, in_vals = _local_csr(
            gmap, n_loc, rank, in_dst_g, in_src_g, in_vals)
        convert_s = time.perf_counter() - t0

    g = DistGraph(
        rank=rank,
        nparts=p,
        n_global=partition.n_global,
        m_global=int(m_global),
        partition=partition,
        out_indexes=out_indexes,
        out_edges=out_edges,
        in_indexes=in_indexes,
        in_edges=in_edges,
        unmap=unmap,
        ghost_tasks=ghost_tasks,
        map=gmap,
        out_values=out_vals,
        in_values=in_vals,
    )
    stats = BuildStats(
        exchange_s=exchange_s,
        convert_s=convert_s,
        m_out=g.m_out,
        m_in=g.m_in,
    )
    return g, stats


def build_grid_graph(
    comm: Communicator,
    edges_chunk: np.ndarray,
    partition: GridEdgePartition,
    edge_values: np.ndarray | None = None,
    symmetrize: bool = False,
) -> GridGraph:
    """Collectively build the 2-D checkerboard edge-block distribution.

    Unlike the 1-D builder, each edge travels to exactly **one** rank —
    the grid block ``(row_of(owner(dst)), col_of(owner(src)))`` — and is
    stored twice locally (td and bu CSR views).  There is no ghost
    relabeling: per-phase frontier state is exchanged along the grid's
    rows and columns instead (:mod:`repro.analytics.frontier2d`).

    Parameters
    ----------
    symmetrize:
        Also deliver the reversed edge ``v → u`` for every input edge, so
        in-neighbor scans see the *undirected* adjacency (what the 2-D WCC
        port needs).  ``m_global`` still counts the original edges.
    """
    edges_chunk = np.ascontiguousarray(edges_chunk, dtype=np.int64)
    if edges_chunk.ndim != 2 or edges_chunk.shape[1] != 2:
        raise ValueError("edges_chunk must have shape (m, 2)")
    if not isinstance(partition, GridEdgePartition):
        raise TypeError("build_grid_graph needs a GridEdgePartition")
    if partition.nparts != comm.size:
        raise ValueError(
            f"partition has {partition.nparts} parts but world size is {comm.size}")
    if edge_values is not None:
        edge_values = np.ascontiguousarray(edge_values, dtype=np.float64)
        if edge_values.shape != (len(edges_chunk),):
            raise ValueError("edge_values must have one entry per chunk edge")

    rank, p = comm.rank, comm.size
    c = partition.grid_cols
    with comm.region("build2d.exchange"):
        m_global = comm.allreduce(len(edges_chunk), SUM)
        src, dst = edges_chunk[:, 0], edges_chunk[:, 1]
        if symmetrize:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
            if edge_values is not None:
                edge_values = np.concatenate([edge_values, edge_values])
        # Block (i, j) <=> rank i*c + j.
        blocks = (partition.owner_of(dst) // c) * c + partition.owner_of(src) % c
        vals = () if edge_values is None else (edge_values,)
        (send_src, send_dst, *send_vals), counts = _grouped_send(
            blocks, p, src, dst, *vals)
        blk_src, _ = comm.alltoallv_flat(send_src, counts)
        blk_dst, _ = comm.alltoallv_flat(send_dst, counts)
        blk_vals = None
        if edge_values is not None:
            blk_vals, _ = comm.alltoallv_flat(send_vals[0], counts)

    with comm.region("build2d.convert"):
        i, j = partition.grid_coords(rank)
        if i >= 0:
            row_lo, row_hi = partition.row_range(i)
            col_counts = partition.col_chunk_counts(j)
            col_unmap = partition.col_slice_gids(j)
            v_idx = blk_dst - row_lo
            u_idx = partition.col_index_of(j, blk_src)
            td_order, td_indexes = bucket_order(u_idx, len(col_unmap))
            bu_order, bu_indexes = bucket_order(v_idx, row_hi - row_lo)
            td_edges, bu_edges = v_idx[td_order], u_idx[bu_order]
            td_vals = bu_vals = None
            if blk_vals is not None:
                td_vals, bu_vals = blk_vals[td_order], blk_vals[bu_order]
        else:
            row_lo = 0
            col_counts = np.empty(0, dtype=np.int64)
            col_unmap = np.empty(0, dtype=np.int64)
            td_indexes = bu_indexes = np.zeros(1, dtype=np.int64)
            td_edges = bu_edges = np.empty(0, dtype=np.int64)
            td_vals = bu_vals = (np.empty(0, dtype=np.float64)
                                 if blk_vals is not None else None)

    return GridGraph(
        rank=rank,
        nparts=p,
        n_global=partition.n_global,
        m_global=int(m_global),
        partition=partition,
        grid_row=i,
        grid_col=j,
        row_lo=int(row_lo),
        td_indexes=td_indexes,
        td_edges=td_edges,
        bu_indexes=bu_indexes,
        bu_edges=bu_edges,
        col_counts=col_counts,
        col_unmap=col_unmap,
        td_values=td_vals,
        bu_values=bu_vals,
        symmetrized=symmetrize,
    )


def build_dist_graph(
    comm: Communicator,
    edges_chunk: np.ndarray,
    partition: Partition,
    edge_values: np.ndarray | None = None,
) -> DistGraph:
    """Like :func:`build_dist_graph_with_stats`, returning only the graph."""
    g, _ = build_dist_graph_with_stats(comm, edges_chunk, partition,
                                       edge_values=edge_values)
    return g


def build_dist_graph_from_file(
    comm: Communicator,
    path,
    partition: Partition,
    batch_edges: int = 1 << 22,
    width: int = 32,
) -> DistGraph:
    """Streaming construction directly from a shared binary edge file.

    The paper notes ingestion is "the most memory-intensive part" (24m
    bytes of aggregate memory to stage the exchange).  This builder bounds
    the staging memory instead: each rank reads and exchanges its share in
    ``batch_edges``-sized pieces, accumulating only the *received* edges
    (which are what the final structure stores anyway); the one-off full
    chunk buffer never exists.

    All ranks must pass the same ``batch_edges`` (the exchange loop is
    collective, padded to the global maximum batch count).
    """
    from ..io.edgelist import count_edges, read_edge_range
    from ..io.striped import edge_share
    from ..runtime import MAX

    m = count_edges(path, width)
    start, count = edge_share(m, comm.size, comm.rank)
    n_batches = int(comm.allreduce(-(-count // batch_edges) if count else 0,
                                   MAX))
    p = comm.size
    out_src_parts: list[np.ndarray] = []
    out_dst_parts: list[np.ndarray] = []

    with comm.region("build.stream"):
        for b in range(n_batches):
            lo = start + b * batch_edges
            n_here = max(0, min(batch_edges, start + count - lo))
            chunk = read_edge_range(path, lo, n_here, width)
            src, dst = chunk[:, 0], chunk[:, 1]
            owners = partition.owner_of(src)
            (send_src, send_dst), counts_b = _grouped_send(owners, p, src, dst)
            o_s, _ = comm.alltoallv_flat(send_src, counts_b)
            o_d, _ = comm.alltoallv_flat(send_dst, counts_b)
            out_src_parts.append(o_s)
            out_dst_parts.append(o_d)

    # Hand the accumulated received edges to the normal builder: their
    # sources are already owned here, so the out-direction exchange is a
    # self-delivery and only the in-direction redistribution does work.
    received = np.stack(
        [np.concatenate(out_src_parts) if out_src_parts else
         np.empty(0, dtype=np.int64),
         np.concatenate(out_dst_parts) if out_dst_parts else
         np.empty(0, dtype=np.int64)],
        axis=1,
    )
    g, _ = build_dist_graph_with_stats(comm, received, partition)
    return g
