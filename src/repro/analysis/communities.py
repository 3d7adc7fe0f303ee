"""Community statistics over distributed label assignments (Table V, Fig. 5).

After Label Propagation, the paper reports for each of the largest
communities the vertex count ``n_in``, the intra-community edge count
``m_in``, the cut-edge count ``m_cut``, and a representative vertex.  It
also plots the frequency distribution of community sizes (Fig. 5).  These
are distributed reductions over the per-rank label arrays and local edge
sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analytics.exchange import halo_of
from ..graph.csr import expand_rows
from ..graph.distgraph import DistGraph
from ..runtime import Communicator

__all__ = [
    "CommunityStats",
    "label_counts",
    "community_stats",
    "community_size_distribution",
]


@dataclass(frozen=True)
class CommunityStats:
    """One Table-V row."""

    label: int  # community label (a global vertex id under LP)
    n_in: int  # member vertices
    m_in: int  # edges with both endpoints inside
    m_cut: int  # edges with exactly one endpoint inside
    representative: int  # lowest-id member vertex


def _merge_counts(comm: Communicator, keys: np.ndarray,
                  counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Combine per-rank (key, count) multisets into global totals.

    Uses one ``allgatherv`` of the packed pairs; every rank returns the
    identical merged result.
    """
    packed = np.stack([keys, counts], axis=1).reshape(-1).astype(np.int64)
    all_pairs, _ = comm.allgatherv(packed)
    pairs = all_pairs.reshape(-1, 2)
    if len(pairs) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    uniq, inv = np.unique(pairs[:, 0], return_inverse=True)
    totals = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(totals, inv, pairs[:, 1])
    return uniq, totals


def label_counts(comm: Communicator, labels_local: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Global (label, member-count) arrays from per-rank local labels."""
    keys, counts = np.unique(np.asarray(labels_local, dtype=np.int64),
                             return_counts=True)
    return _merge_counts(comm, keys, counts)


def _labels_with_ghosts(comm: Communicator, g: DistGraph,
                        labels_local: np.ndarray) -> np.ndarray:
    if len(labels_local) != g.n_loc:
        raise ValueError("labels_local must cover exactly the owned vertices")
    full = np.empty(g.n_total, dtype=np.int64)
    full[: g.n_loc] = labels_local
    return halo_of(comm, g).exchange(full)


def community_stats(
    comm: Communicator,
    g: DistGraph,
    labels_local: np.ndarray,
    top_k: int = 10,
) -> list[CommunityStats]:
    """The ``top_k`` communities by vertex count, with edge statistics.

    Every rank returns the identical list, ordered by descending ``n_in``
    (ties to lower label).  Edge counts use each rank's owned out-edges,
    so every directed edge is counted exactly once globally.
    """
    labels = _labels_with_ghosts(comm, g, labels_local)
    uniq, sizes = label_counts(comm, labels_local)
    order = np.lexsort((uniq, -sizes))
    top = uniq[order[:top_k]]

    # Edge tallies per (community, kind): kind 0 = internal, 1 = cut.
    src_lab = labels[expand_rows(g.out_indexes)]
    dst_lab = labels[g.out_edges]
    internal = src_lab == dst_lab
    # Internal edges belong to one community; cut edges touch two.
    int_keys, int_counts = np.unique(src_lab[internal], return_counts=True)
    cut_lab = np.concatenate([src_lab[~internal], dst_lab[~internal]])
    cut_keys, cut_counts = np.unique(cut_lab, return_counts=True)
    g_int_keys, g_int_counts = _merge_counts(comm, int_keys, int_counts)
    g_cut_keys, g_cut_counts = _merge_counts(comm, cut_keys, cut_counts)

    # Representative: lowest-id member of each top community.
    reps_local = np.full(len(top), np.int64(np.iinfo(np.int64).max))
    gids = g.unmap[: g.n_loc]
    for j, lab in enumerate(top):
        members = gids[labels_local == lab]
        if len(members):
            reps_local[j] = members.min()
    from ..runtime import MIN

    reps = comm.allreduce(reps_local, MIN)

    out = []
    for j, lab in enumerate(top):
        i_int = np.searchsorted(g_int_keys, lab)
        m_in = int(g_int_counts[i_int]) if (
            i_int < len(g_int_keys) and g_int_keys[i_int] == lab) else 0
        i_cut = np.searchsorted(g_cut_keys, lab)
        m_cut = int(g_cut_counts[i_cut]) if (
            i_cut < len(g_cut_keys) and g_cut_keys[i_cut] == lab) else 0
        n_in = int(sizes[uniq == lab][0])
        out.append(CommunityStats(label=int(lab), n_in=n_in, m_in=m_in,
                                  m_cut=m_cut, representative=int(reps[j])))
    return out


def community_size_distribution(
    comm: Communicator, labels_local: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fig. 5: frequency of community sizes.

    Returns ``(sizes, frequency)`` where ``frequency[i]`` is the number of
    communities having exactly ``sizes[i]`` members; identical on every
    rank.
    """
    _, member_counts = label_counts(comm, labels_local)
    sizes, freq = np.unique(member_counts, return_counts=True)
    return sizes.astype(np.int64), freq.astype(np.int64)
