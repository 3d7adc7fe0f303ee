"""The distribution-state lattice for the abstract interpreter.

The distributed graph lives in *two* index spaces (DESIGN.md §14): global
vertex ids, and compact local ids where owned vertices occupy
``0..n_loc-1`` and ghosts ``n_loc..n_loc+n_gst-1``, bridged by the
``map`` (global→local hash map) / ``unmap`` (local→global array) pair.
Per-vertex data lives in arrays whose *distribution state* determines
which reductions and reads are meaningful.  This module defines the two
abstract domains the flow-sensitive pass (:mod:`.distcheck`) interprets
over, plus the purely syntactic recognizers that map source idioms onto
them:

**Index spaces** (element type of an id-carrying value)

``SPACE_GLOBAL``
    global vertex ids — results of ``unmap[...]`` / ``.to_global(...)``,
    the ``unmap`` array itself, and names/params with a ``gid``/``gids``
    segment;
``SPACE_LOCAL``
    compact local ids — results of ``map.get(...)`` / ``.to_local(...)``
    and names/params with a ``lid``/``lids`` segment;
``SPACE_OWNER``
    rank ids — results of ``owner_of(...)`` and ``ghost_tasks``;
``SPACE_UNKNOWN``
    everything else (the lattice top: no rule ever fires on it).

**Distribution states** (whole-array facts)

``DIST_GHOST``
    ghost-extended: length ``n_loc + n_gst`` (allocated from ``n_total``
    or ``n_loc + n_gst``); carries a halo freshness bit — local writes
    make the ghost slice *stale*, a halo exchange (or a callee whose
    summary refreshes it) makes it *fresh* again;
``DIST_OWNER``
    owner-partitioned: length ``n_loc``, no ghost slice;
``DIST_REPL``
    replicated: full ``n_global`` length on every rank.

Both domains are deliberately *provenance-keyed*: a value only enters a
non-top state through one of the recognizers below, so every rule built
on them stays precision-first (see the rule families' shared charter in
:mod:`._astutil`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace

__all__ = [
    "SPACE_UNKNOWN", "SPACE_GLOBAL", "SPACE_LOCAL", "SPACE_OWNER",
    "DIST_REPL", "DIST_OWNER", "DIST_GHOST",
    "ArrayState", "DistEnv",
]

# index spaces -------------------------------------------------------------
SPACE_UNKNOWN = "unknown"
SPACE_GLOBAL = "global"
SPACE_LOCAL = "local"
SPACE_OWNER = "owner"

# distribution states ------------------------------------------------------
DIST_REPL = "replicated"
DIST_OWNER = "owner-partitioned"
DIST_GHOST = "ghost-extended"

#: Array-allocating callables recognized at construction sites.
ALLOC_FNS = frozenset({"zeros", "empty", "ones", "full"})
ALLOC_LIKE_FNS = frozenset({"zeros_like", "empty_like", "ones_like",
                            "full_like"})

#: Extent kinds a length expression can resolve to.
_EXTENTS = ("n_loc", "n_gst", "n_total", "n_global")
#: Conventional local-variable spellings of each extent.
_EXTENT_NAMES = {
    "n_loc": "n_loc", "nloc": "n_loc",
    "n_gst": "n_gst", "ngst": "n_gst", "n_ghost": "n_gst",
    "n_total": "n_total", "n_tot": "n_total", "ntot": "n_total",
    "n_global": "n_global", "n_glob": "n_global",
}


@dataclass(frozen=True)
class ArrayState:
    """Distribution state of one array-valued name."""

    dist: str                    # DIST_REPL | DIST_OWNER | DIST_GHOST
    #: Line of the local write that staled the halo; None = fresh.
    stale_line: int | None = None
    #: Line of the allocation (for messages).
    alloc_line: int = 0

    def staled(self, line: int) -> "ArrayState":
        return replace(self, stale_line=line)

    def refreshed(self) -> "ArrayState":
        return replace(self, stale_line=None)


def _segments(name: str) -> list[str]:
    return name.lower().split("_")


def seeded_space(name: str) -> str:
    """Index space implied by a name's ``_``-separated segments.

    ``gids``/``gid`` segments mean global ids, ``lids``/``lid`` local ids
    (the repository-wide naming convention, e.g. ``ghost_gids``,
    ``send_lids``); anything else is unknown.
    """
    segs = _segments(name)
    if "gids" in segs or "gid" in segs:
        return SPACE_GLOBAL
    if "lids" in segs or "lid" in segs:
        return SPACE_LOCAL
    if name == "ghost_tasks":
        return SPACE_OWNER
    return SPACE_UNKNOWN


def is_ghosty_name(name: str) -> bool:
    """Does the name denote the ghost region (``ghost`` segment)?"""
    return "ghost" in _segments(name)


def root_name(node: ast.AST) -> str | None:
    """The base ``Name`` under a chain of subscripts/attributes, if any."""
    while isinstance(node, (ast.Subscript, ast.Attribute, ast.Starred)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


class DistEnv:
    """Flow state for one function: name → space / array state / extent.

    Copied at branch points and re-joined afterwards; the join is the
    usual may-analysis one — *stale* wins on halo bits, disagreeing facts
    fall back to the top element (absent).
    """

    def __init__(self) -> None:
        self.spaces: dict[str, str] = {}
        self.arrays: dict[str, ArrayState] = {}
        self.extents: dict[str, str] = {}
        #: name -> PERF002 provenance: the payload/counts behind a
        #: list-of-arrays built with ``np.split`` (fix metadata or {}).
        self.split_lists: dict[str, dict] = {}
        #: name -> (replication level, lineno) of an ndarray allocation
        #: whose size/dtype is not replicated (SPMD016 evidence).
        self.buf_alloc: dict[str, tuple[int, int]] = {}

    def copy(self) -> "DistEnv":
        out = DistEnv()
        out.spaces = dict(self.spaces)
        out.arrays = dict(self.arrays)
        out.extents = dict(self.extents)
        out.split_lists = dict(self.split_lists)
        out.buf_alloc = dict(self.buf_alloc)
        return out

    def join(self, other: "DistEnv") -> None:
        """In-place join with the state of a sibling path."""
        for name in list(self.spaces):
            if other.spaces.get(name) != self.spaces[name]:
                del self.spaces[name]
        for name in list(self.arrays):
            theirs = other.arrays.get(name)
            mine = self.arrays[name]
            if theirs is None or theirs.dist != mine.dist:
                del self.arrays[name]
            elif theirs.stale_line is not None and mine.stale_line is None:
                self.arrays[name] = theirs  # stale wins
        for name in list(self.extents):
            if other.extents.get(name) != self.extents[name]:
                del self.extents[name]
        for name in list(self.split_lists):
            if name not in other.split_lists:
                del self.split_lists[name]
        for name in list(self.buf_alloc):
            if name not in other.buf_alloc:
                del self.buf_alloc[name]

    # -- extents -----------------------------------------------------------
    def extent_of(self, node: ast.AST | None) -> str | None:
        """Which graph extent (``n_loc``/``n_gst``/``n_total``/
        ``n_global``) a length expression denotes, if recognizable."""
        if node is None:
            return None
        if isinstance(node, ast.Attribute) and node.attr in _EXTENTS:
            return node.attr
        if isinstance(node, ast.Name):
            if node.id in self.extents:
                return self.extents[node.id]
            return _EXTENT_NAMES.get(node.id)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            left = self.extent_of(node.left)
            right = self.extent_of(node.right)
            if {left, right} == {"n_loc", "n_gst"}:
                return "n_total"
        if isinstance(node, (ast.Tuple, ast.List)) and node.elts:
            # (n_total, k)-style shape: the leading dim carries the extent.
            return self.extent_of(node.elts[0])
        return None

    def alloc_dist(self, size: ast.AST | None) -> str | None:
        """Distribution state implied by an allocation-size expression."""
        ext = self.extent_of(size)
        if ext == "n_total":
            return DIST_GHOST
        if ext == "n_loc":
            return DIST_OWNER
        if ext == "n_global":
            return DIST_REPL
        return None
