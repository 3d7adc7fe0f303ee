"""Vectorized linear-probing integer hash map (paper §III-C).

The paper's distributed graph avoids per-vertex ``n_global``-length arrays by
relabeling local + ghost vertices and keeping a *fast linear-probing hash
map* from global vertex id to local id (``map[global_id] = local_id``).
This module implements that data structure with NumPy open addressing so
that whole receive buffers can be translated in a handful of vectorized
probe rounds instead of one Python-level lookup per vertex.

Keys must be non-negative integers (vertex ids); values are int64.
"""

from __future__ import annotations

import numpy as np

__all__ = ["IntHashMap"]

_EMPTY = np.int64(-1)
# SplitMix64 multiplier — good avalanche behaviour for multiplicative hashing.
_MULT = np.uint64(0x9E3779B97F4A7C15)


def _hash(keys: np.ndarray, shift: int) -> np.ndarray:
    """Multiplicative (Fibonacci) hash of int keys into table indices
    (the top ``64 - shift`` bits of the product, so already in range)."""
    h = keys.astype(np.uint64)
    h *= _MULT
    h >>= np.uint64(shift)
    return h.view(np.int64)


class IntHashMap:
    """Open-addressing int→int map with batch (vectorized) operations.

    Parameters
    ----------
    capacity_hint:
        Expected number of entries; the table is sized to keep the load
        factor below ``max_load`` and grows automatically.
    max_load:
        Resize threshold.

    Notes
    -----
    * ``get``/``insert`` take whole arrays; a probe *round* resolves every
      pending query whose current slot is conclusive, so the Python-level
      loop runs O(max probe length) times, not O(batch size).
    * Duplicate keys within one ``insert`` batch are allowed; the last
      occurrence (in array order) wins, matching ``dict`` update semantics.
    """

    __slots__ = ("_keys", "_vals", "_size", "_log2cap", "_max_load")

    def __init__(self, capacity_hint: int = 16, max_load: float = 0.6):
        if not (0.1 <= max_load <= 0.9):
            raise ValueError("max_load must be in [0.1, 0.9]")
        self._max_load = max_load
        log2cap = 3
        while (1 << log2cap) * max_load < max(1, capacity_hint):
            log2cap += 1
        self._alloc(log2cap)
        self._size = 0

    def _alloc(self, log2cap: int) -> None:
        self._log2cap = log2cap
        cap = 1 << log2cap
        self._keys = np.full(cap, _EMPTY, dtype=np.int64)
        self._vals = np.empty(cap, dtype=np.int64)

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return len(self._keys)

    def __len__(self) -> int:
        return self._size

    @property
    def load_factor(self) -> float:
        return self._size / self.capacity

    def keys(self) -> np.ndarray:
        """All stored keys (unordered)."""
        return self._keys[self._keys != _EMPTY].copy()

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """(keys, values) arrays in matching (unordered) positions."""
        mask = self._keys != _EMPTY
        return self._keys[mask].copy(), self._vals[mask].copy()

    # ------------------------------------------------------------------
    def _maybe_grow(self, incoming: int) -> None:
        while (self._size + incoming) > self._max_load * self.capacity:
            old_keys, old_vals = self.items()
            self._alloc(self._log2cap + 1)
            self._size = 0
            if len(old_keys):
                self._insert_unique(old_keys, old_vals)

    def insert(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Batch-insert ``keys[i] -> values[i]`` (overwrites existing keys)."""
        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        if keys.shape != values.shape or keys.ndim != 1:
            raise ValueError("keys and values must be matching 1-D arrays")
        if len(keys) == 0:
            return
        if (keys < 0).any():
            raise ValueError("keys must be non-negative")
        # Deduplicate within the batch: keep the last occurrence of each key.
        uniq, first_idx = np.unique(keys[::-1], return_index=True)
        take = len(keys) - 1 - first_idx
        self._maybe_grow(len(uniq))
        self._insert_unique(keys[take], values[take])

    def _insert_unique(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Insert a batch of *distinct* keys."""
        shift = 64 - self._log2cap
        mask = self.capacity - 1
        idx = _hash(keys, shift) & mask
        pending = np.arange(len(keys))
        tkeys, tvals = self._keys, self._vals
        while len(pending):
            slots = idx[pending]
            slot_keys = tkeys[slots]
            is_match = slot_keys == keys[pending]
            is_empty = slot_keys == _EMPTY
            # Overwrites of already-present keys are conflict-free.
            if is_match.any():
                m = pending[is_match]
                tvals[idx[m]] = values[m]
            # Placements into empty slots: only one writer per slot may win
            # this round; losers re-check the (now occupied) slot next round.
            placed = np.zeros(len(pending), dtype=bool)
            if is_empty.any():
                cand = pending[is_empty]
                cand_slots = idx[cand]
                uniq_slots, first = np.unique(cand_slots, return_index=True)
                winners = cand[first]
                tkeys[idx[winners]] = keys[winners]
                tvals[idx[winners]] = values[winners]
                self._size += len(winners)
                placed_mask = np.zeros(len(cand), dtype=bool)
                placed_mask[first] = True
                placed[is_empty] = placed_mask
            done = is_match | placed
            pending = pending[~done]
            idx[pending] = (idx[pending] + 1) & mask

    def get(self, keys: np.ndarray, default: int = -1) -> np.ndarray:
        """Batch lookup; missing keys map to ``default``.

        Negative keys are never stored, so they miss without probing (−1
        is the empty-slot marker).  The first probe covers the whole batch;
        only keys whose home slot holds another key probe on.
        """
        keys = np.asarray(keys, dtype=np.int64)
        scalar = keys.ndim == 0
        keys = np.atleast_1d(keys)
        if len(keys) == 0 or self._size == 0:
            out = np.full(len(keys), default, dtype=np.int64)
            return int(out[0]) if scalar else out
        tkeys, tvals = self._keys, self._vals
        idx = _hash(keys, 64 - self._log2cap)
        slot_keys = tkeys[idx]
        valid = keys >= 0
        hit = (slot_keys == keys) & valid
        out = np.where(hit, tvals[idx], np.int64(default))
        pending = np.flatnonzero((slot_keys != _EMPTY) & valid & ~hit)
        mask = self.capacity - 1
        qkeys, idx = keys[pending], (idx[pending] + 1) & mask
        while len(pending):
            slot_keys = tkeys[idx]
            hit = slot_keys == qkeys
            out[pending[hit]] = tvals[idx[hit]]
            more = (slot_keys != _EMPTY) & ~hit
            pending, qkeys, idx = pending[more], qkeys[more], (idx[more] + 1) & mask
        return int(out[0]) if scalar else out

    def contains(self, keys: np.ndarray) -> np.ndarray:
        """Boolean membership test for a batch of keys."""
        sentinel = np.int64(np.iinfo(np.int64).min)
        return self.get(keys, default=int(sentinel)) != sentinel
