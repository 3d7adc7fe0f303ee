"""The six graph analytics of the paper, plus the shared kernels.

PageRank-like (value propagation with retained-queue halo exchanges):

* :func:`pagerank` — power-iteration PageRank;
* :func:`label_propagation` — community detection;
* the coloring phase of :func:`wcc`.

BFS-like (frontier expansion, Algorithm 2) — the kernels that read levels:

* :func:`multi_source_bfs` — the one level-synchronous engine (k sources
  share each level's exchange); :func:`distributed_bfs` is its k = 1
  case and :func:`distributed_bfs_dirop`'s top-down levels run its step;
* :func:`harmonic_centrality` / :func:`closeness_centrality` — reverse
  multi-source BFS distance sums (one vertex is the k = 1 case).

Closure-like (the paper's BFS-like kernels that read no level: run to a
local fixed point, then synchronize):

* :mod:`~repro.analytics.closure` — :class:`ClosureAdjacency` with the
  ``peel_below`` / ``reach_from`` / ``propagate_min`` superstep primitives;
* :func:`largest_scc` — Forward–Backward SCC with trimming, and
  :func:`scc` — the full decomposition (Multistep: trim, FW–BW, coloring);
* phase 1 of :func:`wcc` (Multistep);
* :func:`approx_kcore` — geometric coreness-bound sweep, and
  :func:`exact_kcore`, both thin drivers over those primitives.

All functions are SPMD: call them from within :func:`repro.runtime.run_spmd`
with this rank's :class:`~repro.graph.DistGraph`.  Each reads the graph's
one retained-queue exchange through :func:`halo_of`, built on first use.
"""

from .batched import BatchedPPRResult, batched_personalized_pagerank
from .betweenness import BetweennessResult, betweenness_centrality
from .bfs import distributed_bfs, multi_source_bfs
from .bfs_dirop import distributed_bfs_dirop
from .diameter import DiameterEstimate, estimate_diameter
from .closeness import ClosenessResult, batched_closeness, closeness_centrality
from .common import NOT_VISITED, QUEUED, global_max_degree_vertex
from .delta_stepping import DeltaSteppingResult, delta_stepping
from .exchange import HaloExchange, halo_of
from .frontier2d import (
    Frontier2D,
    grid_bfs_dirop,
    grid_delta_stepping,
    grid_wcc,
)
from .hits import HITSResult, hits
from .harmonic import (
    HarmonicResult,
    harmonic_centrality,
    harmonic_centrality_many,
    top_degree_vertices,
)
from .kcore import KCoreResult, approx_kcore
from .kcore_exact import ExactKCoreResult, exact_kcore
from .label_propagation import LabelPropagationResult, label_propagation
from .pagerank import PageRankResult, pagerank
from .scc import SCCResult, largest_scc, scc
from .sssp import SSSPResult, default_weights, hash_edge_weights, sssp
from .triangles import TriangleResult, triangle_count
from .validation import (
    validate_bfs_levels,
    validate_components,
    validate_distances,
    validate_pagerank,
)
from .wcc import WCCResult, wcc

__all__ = [
    "HaloExchange",
    "halo_of",
    "distributed_bfs",
    "multi_source_bfs",
    "batched_personalized_pagerank",
    "BatchedPPRResult",
    "batched_closeness",
    "pagerank",
    "PageRankResult",
    "label_propagation",
    "LabelPropagationResult",
    "wcc",
    "WCCResult",
    "largest_scc",
    "scc",
    "SCCResult",
    "harmonic_centrality",
    "harmonic_centrality_many",
    "top_degree_vertices",
    "HarmonicResult",
    "approx_kcore",
    "KCoreResult",
    "exact_kcore",
    "ExactKCoreResult",
    "distributed_bfs_dirop",
    "Frontier2D",
    "grid_bfs_dirop",
    "grid_wcc",
    "grid_delta_stepping",
    "sssp",
    "SSSPResult",
    "default_weights",
    "hash_edge_weights",
    "triangle_count",
    "TriangleResult",
    "estimate_diameter",
    "DiameterEstimate",
    "delta_stepping",
    "DeltaSteppingResult",
    "validate_bfs_levels",
    "validate_components",
    "validate_pagerank",
    "validate_distances",
    "betweenness_centrality",
    "BetweennessResult",
    "hits",
    "HITSResult",
    "closeness_centrality",
    "ClosenessResult",
    "NOT_VISITED",
    "QUEUED",
    "global_max_degree_vertex",
]
