"""Local compressed-sparse-row construction and segment primitives.

The per-task edge arrays received during graph construction are converted to
a CSR-like layout (paper §III-A): an ``indexes`` array of row starts and a
flat ``edges`` array of neighbor ids.  All builders are fully vectorized.

Every grouping by a small integer key — CSR rows, destination ranks,
ghost ids — is one :func:`bucket_order`: a counting sort whose order is
built from 16-bit radix digits, the widest NumPy's stable sort radix-sorts.

This module also provides the segment operations (per-row sums / maxima /
counts over a CSR) that the analytics use as their inner "loop over
adjacencies of v" — the innermost loop of the paper's triply-nested
structure, expressed as data-parallel array ops.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "bucket_order",
    "radix_order",
    "build_csr",
    "csr_row_lengths",
    "segment_sum",
    "segment_min",
    "segment_count_nonzero",
    "expand_rows",
    "sorted_unique",
]


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values via an explicit sort.

    Functionally ``np.unique`` for 1-D arrays, but implemented as
    sort + run-boundary selection: on this project's workloads (tens of
    millions of int64 keys) NumPy's ``unique`` can be more than an order
    of magnitude slower than its own ``sort``.  Only values come out, so
    the sort need not be stable: NumPy's default integer sort is several
    times faster than its stable one (timsort on ``int64``).
    """
    values = np.asarray(values)
    if len(values) == 0:
        return values.copy()
    s = np.sort(values)
    keep = np.empty(len(s), dtype=bool)
    keep[0] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def radix_order(keys: np.ndarray, n_keys: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for keys in ``[0, n_keys)``.

    Least-significant-digit radix passes of at most 16 bits: one pass up
    to ``2**16`` keys, two up to ``2**32``, and so on.  Each pass is one
    stable argsort of a ``uint8``/``uint16`` digit, which NumPy radix-sorts
    (on ``int64`` its stable sort is timsort).  Keys outside the range
    raise ``ValueError``.
    """
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise ValueError("keys must be a 1-D array")
    if len(keys) and (keys.min() < 0 or keys.max() >= n_keys):
        raise ValueError("keys out of range for n_keys")
    bits = max(int(n_keys) - 1, 0).bit_length()
    order = None
    for shift in range(0, max(bits, 1), 16):
        digit = (keys >> shift & 0xFFFF).astype(
            np.uint8 if bits - shift <= 8 else np.uint16)
        order = (np.argsort(digit, kind="stable") if order is None
                 else order[np.argsort(digit[order], kind="stable")])
    return order


def bucket_order(keys: np.ndarray, n_keys: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Group ``keys`` (each in ``[0, n_keys)``) by value, stably:
    ``(order, offsets)`` with ``order`` from :func:`radix_order` and bucket
    ``k`` at ``order[offsets[k]:offsets[k + 1]]`` (one ``bincount``)."""
    order = radix_order(keys, n_keys)
    offsets = np.zeros(int(n_keys) + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n_keys), out=offsets[1:])
    return order, offsets


def build_csr(
    n_rows: int,
    src: np.ndarray,
    dst: np.ndarray,
    dtype=np.int64,
) -> tuple[np.ndarray, np.ndarray]:
    """Build CSR ``(indptr, adj)`` from an unsorted edge list.

    Parameters
    ----------
    n_rows:
        Number of rows (local vertices).
    src, dst:
        Edge endpoint arrays; ``src`` values must lie in ``[0, n_rows)``.
        Edges are stably ordered within a row by their input position, so
        construction is deterministic.

    Returns
    -------
    (indptr, adj):
        ``indptr`` has length ``n_rows + 1``; the neighbors of row ``v`` are
        ``adj[indptr[v]:indptr[v+1]]``.
    """
    src = np.asarray(src)
    dst = np.asarray(dst)
    if src.shape != dst.shape or src.ndim != 1:
        raise ValueError("src and dst must be matching 1-D arrays")
    order, indptr = bucket_order(src, n_rows)
    return indptr, np.ascontiguousarray(dst[order], dtype=dtype)


def csr_row_lengths(indptr: np.ndarray) -> np.ndarray:
    """Per-row neighbor counts (degrees)."""
    return np.diff(indptr)


def expand_rows(indptr: np.ndarray) -> np.ndarray:
    """Row index of every CSR entry (inverse of ``build_csr`` grouping).

    ``expand_rows([0,2,2,5]) == [0,0,2,2,2]``.
    """
    n = len(indptr) - 1
    lengths = np.diff(indptr)
    return np.repeat(np.arange(n, dtype=np.int64), lengths)


def segment_sum(indptr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-row sum of ``values`` (one value per CSR entry).

    Empty rows sum to zero.  Uses ``np.add.reduceat`` with an empty-row fix.
    """
    n = len(indptr) - 1
    out = np.zeros(n, dtype=np.result_type(values.dtype, np.float64)
                   if values.dtype.kind == "f" else np.int64)
    if len(values) == 0 or n == 0:
        return out
    nonempty = indptr[:-1] < indptr[1:]
    if not nonempty.any():
        return out
    starts = indptr[:-1][nonempty]
    sums = np.add.reduceat(values, starts)
    out[nonempty] = sums
    return out


def segment_min(indptr: np.ndarray, values: np.ndarray, empty_value) -> np.ndarray:
    """Per-row minimum of ``values``; empty rows get ``empty_value``."""
    n = len(indptr) - 1
    out = np.full(n, empty_value, dtype=values.dtype if len(values) else np.int64)
    if len(values) == 0 or n == 0:
        return out
    nonempty = indptr[:-1] < indptr[1:]
    if not nonempty.any():
        return out
    starts = indptr[:-1][nonempty]
    out[nonempty] = np.minimum.reduceat(values, starts)
    return out


def segment_count_nonzero(indptr: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """Per-row count of true entries in a boolean per-entry array."""
    return segment_sum(indptr, flags.astype(np.int64))
