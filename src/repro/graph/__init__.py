"""Distributed graph representation and construction (paper §III-A/C).

* :class:`DistGraph` — the per-rank structure of Table II (CSR out/in
  edges over relabeled local + ghost vertices, map/unmap/tasks arrays);
* :func:`build_dist_graph` — collective construction from per-rank edge
  chunks via ``alltoallv`` redistribution;
* :class:`IntHashMap` — the vectorized linear-probing global→local id map;
* :mod:`~repro.graph.csr` — CSR building and segment primitives.
"""

from .build import (
    BuildStats,
    build_dist_graph,
    build_dist_graph_from_file,
    build_dist_graph_with_stats,
    build_grid_graph,
)
from .compressed import CompressedCSR, varint_decode, varint_encode
from .csr import (
    build_csr,
    csr_row_lengths,
    expand_rows,
    segment_count_nonzero,
    segment_min,
    segment_sum,
)
from .distgraph import DistGraph, GridGraph
from .hashmap import IntHashMap
from .transform import (
    degree_order,
    induced_subgraph,
    random_order,
    relabel,
    simplify,
    symmetrize,
)

__all__ = [
    "DistGraph",
    "BuildStats",
    "build_dist_graph",
    "build_dist_graph_with_stats",
    "build_dist_graph_from_file",
    "build_grid_graph",
    "GridGraph",
    "IntHashMap",
    "build_csr",
    "csr_row_lengths",
    "expand_rows",
    "segment_sum",
    "segment_min",
    "segment_count_nonzero",
    "CompressedCSR",
    "varint_encode",
    "varint_decode",
    "relabel",
    "degree_order",
    "random_order",
    "symmetrize",
    "simplify",
    "induced_subgraph",
]
