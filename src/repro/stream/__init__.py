"""Streaming updates: dynamic distributed graphs with exact incremental
analytics.

The subsystem has three layers — batched ingestion
(:mod:`~repro.stream.updates`), the mutable graph
(:mod:`~repro.stream.deltagraph`), and incremental kernels
(:mod:`~repro.stream.incremental`) whose results are bitwise identical to
the static analytics run on a from-scratch rebuild.  See DESIGN.md §11.
"""

from .deltagraph import (
    ApplyResult,
    DynamicDistGraph,
    EpochRecord,
    PinnedEpochError,
)
from .incremental import (
    IncrementalKCore,
    IncrementalPageRank,
    IncrementalWCC,
    IncrementalWCCResult,
    UnionFind,
)
from .updates import (
    DELETE,
    INSERT,
    RoutedUpdates,
    UpdateBatch,
    read_updates_text,
    route_updates,
    split_batch,
)

__all__ = [
    "ApplyResult",
    "DynamicDistGraph",
    "EpochRecord",
    "PinnedEpochError",
    "IncrementalKCore",
    "IncrementalPageRank",
    "IncrementalWCC",
    "IncrementalWCCResult",
    "UnionFind",
    "DELETE",
    "INSERT",
    "RoutedUpdates",
    "UpdateBatch",
    "read_updates_text",
    "route_updates",
    "split_batch",
]
