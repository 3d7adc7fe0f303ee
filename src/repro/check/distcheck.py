"""Flow-sensitive distribution-state & index-space abstract interpreter.

The schedule/ownership linters check *when* ranks communicate; this pass
checks *what the data means*.  It interprets each function over the two
abstract domains of :mod:`.distlattice` — the index space of id-carrying
values and the distribution state of per-vertex arrays (with a halo
fresh/stale bit) — on the shared statement walker (:mod:`.walker`):
branch-join, and a two-pass loop body joined with the loop-entry state so
back-edge effects are visible.

Correctness rules (``SPMD013``–``SPMD016``):

* **SPMD013** — index-space confusion: a local id flows into
  ``map.get`` (expects global ids), a global id indexes ``unmap`` or a
  locally-allocated array (expects local ids), or a call binds a
  wrong-space argument to a parameter whose expectation was summarized
  from the callee's own ``map``/``unmap`` usage;
* **SPMD014** — stale-ghost read: the ghost slice of a ghost-extended
  array is read after a local write with no intervening halo exchange;
* **SPMD015** — whole-array reduction over a ghost-extended array:
  ghost copies are double-counted (reduce ``x[:n_loc]`` instead);
* **SPMD016** — collective reduction buffer whose shape/dtype differs
  across ranks at its construction site (rank-derived size, or an
  owner-partitioned/ghost-extended buffer whose length is ``n_loc``-ish).

Performance rules (``PERF001``–``PERF003``):

* **PERF001** — loop-invariant collective inside an iteration loop
  (mechanically hoistable: the autofixer moves it above the loop);
* **PERF002** — object-list collective over ``np.split`` parts where the
  flat-buffer path exists: ``alltoallv(np.split(x, np.cumsum(c)[:-1]))``
  is element-for-element equivalent to ``alltoallv_flat(x, c)`` (both
  return concatenated data in source-rank order) without the per-part
  pickling; the substitution is attached as a SARIF-only suggestion;
* **PERF003** — per-iteration ndarray allocation feeding an exchange or
  collective sink inside a hot loop (hoist the buffer and reuse it;
  auto-hoisted only for ``np.empty``/``np.empty_like``, where no
  per-iteration re-initialization semantics can be lost).

Composition: :func:`dist_facts` runs the same interpreter while the
summary table is built callees-first (:mod:`.summaries`), recording each
function's parameter *expectations* (global/local), halo *effects*
(refreshes / stales) and return provenance (space / split-list / ghost
allocation); :func:`lint_distribution` consumes the table at call sites
so states propagate across module boundaries.  Like every pass in this
package the rules are provenance-keyed and precision-first: a value only
leaves the top element through an explicit idiom, so a finding is almost
always real.  See DESIGN.md §14.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ._astutil import (
    RANK_LOCAL,
    Finding,
    _classify,
    _collective_op,
    _fn_params,
    _infer_env,
    _is_subcomm_receiver,
    _subcomm_names,
    _target_names,
    _walk_in_scope,
)
from .distlattice import (
    ALLOC_FNS,
    ALLOC_LIKE_FNS,
    DIST_GHOST,
    DIST_OWNER,
    DIST_REPL,
    SPACE_GLOBAL,
    SPACE_LOCAL,
    SPACE_OWNER,
    SPACE_UNKNOWN,
    _EXTENT_NAMES,
    ArrayState,
    DistEnv,
    is_ghosty_name,
    root_name,
    seeded_space,
)
from .walker import FlowWalker

__all__ = ["DIST_RULES", "PERF_RULES", "lint_distribution", "dist_facts"]

# ---------------------------------------------------------------------------
# rule catalog
# ---------------------------------------------------------------------------
#: Distribution-state correctness rules (this module).
DIST_RULES: dict[str, str] = {
    "SPMD013": "index-space confusion: a global vertex id indexes a "
               "local-id structure (unmap / locally-allocated array) or a "
               "local id flows into map.get, keyed on map/unmap/owner_of "
               "provenance",
    "SPMD014": "stale-ghost read: the ghost slice of a ghost-extended "
               "array is read after a local write with no intervening "
               "halo exchange",
    "SPMD015": "reduction over a ghost-extended array double-counts ghost "
               "copies (each ghost is also counted by its owner rank)",
    "SPMD016": "collective reduction buffer whose shape/dtype differs "
               "across ranks at its construction site",
}

#: SPMD performance rules (this module).
PERF_RULES: dict[str, str] = {
    "PERF001": "loop-invariant collective inside an iteration loop: every "
               "iteration pays a world-synchronous round for the same "
               "value (hoistable)",
    "PERF002": "object-list collective over np.split parts where the "
               "flat-buffer path (alltoallv_flat / AlltoallvPlan) sends "
               "the same bytes without per-part pickling",
    "PERF003": "per-iteration ndarray allocation inside an SPMD hot loop "
               "feeding an exchange/collective sink (hoist the buffer and "
               "reuse it)",
}

#: Collectives PERF001 considers hoistable when arguments are invariant.
_HOISTABLE = frozenset({
    "allreduce", "bcast", "gather", "allgather", "gatherv", "allgatherv",
    "scan", "exscan", "reduce",
})

#: np functions that preserve the index space of their (first) argument.
_NP_PROPAGATE = frozenset({
    "unique", "sort", "concatenate", "asarray", "ascontiguousarray",
    "array", "intersect1d", "union1d", "setdiff1d", "hstack", "copy",
})
#: ndarray methods that preserve the index space of their receiver.
_METHOD_PROPAGATE = frozenset({
    "astype", "copy", "ravel", "reshape", "flatten", "view",
})

#: ndarray reducers that fold the whole array (SPMD015 sinks).
_NP_REDUCERS = frozenset({"sum", "mean", "count_nonzero"})


def _is_np(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id in ("np", "numpy")


def _is_np_call(call: ast.Call, names: frozenset[str] | set[str]) -> bool:
    f = call.func
    return (isinstance(f, ast.Attribute) and f.attr in names
            and _is_np(f.value))


def _is_np_split(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("split", "array_split")
            and _is_np(node.func.value))


def _mapish(node: ast.AST) -> bool:
    """Is this expression the global→local hash map (``X.map`` / a name
    with a ``map`` segment other than ``unmap``)?"""
    if isinstance(node, ast.Attribute):
        return node.attr == "map"
    if isinstance(node, ast.Name):
        return "map" in node.id.lower().split("_") and node.id != "unmap"
    return False


def _call_arg_exprs(call: ast.Call) -> list[ast.expr]:
    return list(call.args) + [kw.value for kw in call.keywords]


# ---------------------------------------------------------------------------
# per-function facts for the summary table
# ---------------------------------------------------------------------------
def dist_facts(fi, table) -> dict:
    """Distribution fields of one function's summary (.summaries)."""
    interp = _DistInterp(fi.node, str(fi.module.path), frozenset(),
                         source=None, table=table, mod=fi.module)
    interp.walk(fi.node.body)
    spaces = {sp for sp, _, _ in interp.returns}
    return dict(
        expects=tuple(sorted(interp.param_expects.items())),
        refreshes=frozenset(interp.param_refreshes),
        stales=frozenset(interp.param_stales - interp.param_refreshes),
        returns_space=spaces.pop() if (
            len(spaces) == 1 and SPACE_UNKNOWN not in spaces) else None,
        returns_split=any(s for _, s, _ in interp.returns),
        returns_ghost=any(g for _, _, g in interp.returns))


# ---------------------------------------------------------------------------
# the interpreter
# ---------------------------------------------------------------------------
class _DistInterp(FlowWalker):
    """Abstract interpretation of one function over the dist lattice."""

    rejoin_loop_entry = True

    def __init__(self, fn: ast.FunctionDef | ast.AsyncFunctionDef,
                 path: str, select: frozenset[str], source: str | None,
                 table, mod):
        super().__init__(fn, path, select)
        self.source = source
        self.table = table
        self.mod = mod
        self.state = DistEnv()
        self.param_set = frozenset(_fn_params(fn))
        #: Names rebound inside the function (their seeded meaning died).
        self.rebound: set[str] = set()
        #: Summary facts observed during the walk.
        self.param_expects: dict[str, str] = {}
        self.param_refreshes: set[str] = set()
        self.param_stales: set[str] = set()
        #: (space, is_split_payload, is_ghost_alloc) per return statement.
        self.returns: list[tuple[str, bool, bool]] = []
        # Replication env for SPMD016 construction-site classification.
        self.repl_env = _infer_env(fn, list(self.param_set))
        # Sub-communicator receivers are exempt from SPMD016.
        self.subcomm_names = _subcomm_names(fn)
        for p in self.param_set:
            sp = seeded_space(p)
            if sp != SPACE_UNKNOWN:
                self.env.spaces[p] = sp
        for p in self.param_set:
            if p in _EXTENT_NAMES:
                self.env.extents[p] = _EXTENT_NAMES[p]

    @property
    def env(self) -> DistEnv:
        return self.state

    def run(self) -> list[Finding]:
        self.walk(self.fn.body)
        self._check_perf_loops()
        return self.findings

    def _segment(self, node: ast.AST) -> str | None:
        if self.source is None:
            return None
        try:
            return ast.get_source_segment(self.source, node)
        except Exception:
            return None

    # -- walker hooks: transfer rules ----------------------------------------
    def enter_if(self, stmt: ast.If, level: int) -> None:
        self._scan_expr(stmt.test)

    def loop_head(self, stmt) -> None:
        self._scan_expr(stmt.test if isinstance(stmt, ast.While)
                        else stmt.iter)
        self._bind_loop_target(stmt)

    def enter_with(self, stmt) -> None:
        for item in stmt.items:
            self._scan_expr(item.context_expr)
            if item.optional_vars is not None:
                for name in _target_names(item.optional_vars):
                    self._clear_name(name)

    def transfer(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self._scan_expr(stmt.value)
            for tgt in stmt.targets:
                self._assign(tgt, stmt.value, stmt)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._scan_expr(stmt.value)
                self._assign(stmt.target, stmt.value, stmt)
        elif isinstance(stmt, ast.AugAssign):
            self._scan_expr(stmt.value)
            if isinstance(stmt.target, (ast.Subscript, ast.Attribute)):
                self._store_target(stmt.target, stmt)
            # plain `x += e` keeps x's facts: uniform full-array updates
            # are the common idiom and do not desynchronize the halo
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._scan_expr(stmt.value)
                self._note_return(stmt.value)
        else:
            for _, value in ast.iter_fields(stmt):
                if isinstance(value, ast.expr):
                    self._scan_expr(value)
                elif isinstance(value, list):
                    for v in value:
                        if isinstance(v, ast.expr):
                            self._scan_expr(v)

    def _bind_loop_target(self, stmt) -> None:
        if not isinstance(stmt, (ast.For, ast.AsyncFor)):
            return
        sp = self.space_of(stmt.iter)
        for name in _target_names(stmt.target):
            self._clear_name(name)
            if sp != SPACE_UNKNOWN:
                self.env.spaces[name] = sp

    def _note_return(self, value: ast.expr) -> None:
        split = (_is_np_split(value)
                 or (isinstance(value, ast.Name)
                     and value.id in self.env.split_lists)
                 or (isinstance(value, ast.ListComp)
                     and _is_np_split(value.elt)))
        ghost = False
        if isinstance(value, ast.Name):
            st = self.env.arrays.get(value.id)
            ghost = st is not None and st.dist == DIST_GHOST
        elif isinstance(value, ast.Call) and _is_np_call(
                value, ALLOC_FNS | ALLOC_LIKE_FNS):
            ghost = self._alloc_state(value, 0) is not None and \
                self._alloc_state(value, 0).dist == DIST_GHOST
        self.returns.append((self.space_of(value), split, ghost))

    # -- assignment handling -------------------------------------------------
    def _clear_name(self, name: str) -> None:
        self.rebound.add(name)
        self.env.spaces.pop(name, None)
        self.env.arrays.pop(name, None)
        self.env.extents.pop(name, None)
        self.env.split_lists.pop(name, None)
        self.env.buf_alloc.pop(name, None)

    def _assign(self, target: ast.expr, value: ast.expr,
                stmt: ast.stmt) -> None:
        if isinstance(target, ast.Name):
            self._bind_name(target.id, value, stmt)
        elif isinstance(target, (ast.Tuple, ast.List)):
            elts = target.elts
            if (isinstance(value, (ast.Tuple, ast.List))
                    and len(value.elts) == len(elts)
                    and not any(isinstance(e, ast.Starred) for e in elts)):
                for t, v in zip(elts, value.elts):
                    self._assign(t, v, stmt)
                return
            summary = self._summary_for(value)
            for name in _target_names(target):
                self._clear_name(name)
                if summary is not None and summary.returns_split:
                    # e.g. ``send_u, send_v = _grouped_send(...)``: each
                    # element is an np.split parts list.
                    self.env.split_lists[name] = {}
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            self._store_target(target, stmt)
        elif isinstance(target, ast.Starred):
            for name in _target_names(target):
                self._clear_name(name)

    def _summary_for(self, value: ast.expr):
        if isinstance(value, ast.Call):
            return self.table.for_call(self.mod, value)
        return None

    def _bind_name(self, name: str, value: ast.expr,
                   stmt: ast.stmt) -> None:
        self._clear_name(name)
        ext = self.env.extent_of(value)
        if ext is not None:
            self.env.extents[name] = ext
            return
        if isinstance(value, ast.Name):
            # Alias: share the source name's facts.
            src = value.id
            if src in self.env.spaces:
                self.env.spaces[name] = self.env.spaces[src]
            elif seeded_space(src) != SPACE_UNKNOWN:
                self.env.spaces[name] = seeded_space(src)
            if src in self.env.arrays:
                self.env.arrays[name] = self.env.arrays[src]
            if src in self.env.split_lists:
                self.env.split_lists[name] = self.env.split_lists[src]
            if src in self.env.buf_alloc:
                self.env.buf_alloc[name] = self.env.buf_alloc[src]
            return
        if isinstance(value, ast.Call):
            if _is_np_call(value, ALLOC_FNS | ALLOC_LIKE_FNS):
                st = self._alloc_state(value, stmt.lineno)
                if st is not None:
                    self.env.arrays[name] = st
                level = max(
                    (_classify(a, self.repl_env)
                     for a in _call_arg_exprs(value)), default=0)
                if level >= RANK_LOCAL:
                    self.env.buf_alloc[name] = (level, stmt.lineno)
                return
            if _is_np_split(value):
                self.env.split_lists[name] = self._split_info(value)
                return
            summary = self._summary_for(value)
            if summary is not None:
                if summary.returns_split:
                    self.env.split_lists[name] = {}
                if summary.returns_ghost:
                    self.env.arrays[name] = ArrayState(
                        DIST_GHOST, None, stmt.lineno)
                if summary.returns_space is not None:
                    self.env.spaces[name] = summary.returns_space
                return
        sp = self.space_of(value)
        if sp != SPACE_UNKNOWN:
            self.env.spaces[name] = sp

    def _alloc_state(self, call: ast.Call, line: int) -> ArrayState | None:
        """Distribution state of an ``np.zeros``-style allocation."""
        if call.func.attr in ALLOC_LIKE_FNS:
            if call.args and isinstance(call.args[0], ast.Name):
                src = self.env.arrays.get(call.args[0].id)
                if src is not None:
                    return ArrayState(src.dist, None, line)
            return None
        size = call.args[0] if call.args else None
        if size is None:
            for kw in call.keywords:
                if kw.arg == "shape":
                    size = kw.value
        dist = self.env.alloc_dist(size)
        return ArrayState(dist, None, line) if dist is not None else None

    def _store_target(self, target: ast.expr, stmt: ast.stmt) -> None:
        if isinstance(target, ast.Subscript):
            self._scan_expr(target.slice)
            self._check_subscript_space(target)
        root = root_name(target)
        if root is None:
            return
        if isinstance(target, ast.Subscript):
            if root in self.param_set and root not in self.rebound:
                self.param_stales.add(root)
            st = self.env.arrays.get(root)
            if st is not None:
                if (st.dist == DIST_GHOST
                        and self._is_ghost_region(target.slice)):
                    # A direct ghost-region store is the halo-delivery
                    # idiom (values[n_loc:] = recv): treat as a refresh.
                    self.env.arrays[root] = st.refreshed()
                else:
                    self.env.arrays[root] = st.staled(stmt.lineno)

    # -- expression scan -----------------------------------------------------
    def _scan_expr(self, node: ast.AST | None) -> None:
        if node is None:
            return
        stack: list[ast.AST] = [node]
        while stack:
            n = stack.pop()
            if isinstance(n, ast.Lambda):
                continue
            if isinstance(n, ast.Call):
                self._handle_call(n)
            elif isinstance(n, ast.Subscript):
                self._check_subscript_load(n)
            stack.extend(ast.iter_child_nodes(n))

    # -- index-space inference -----------------------------------------------
    def space_of(self, node: ast.AST | None) -> str:
        if node is None:
            return SPACE_UNKNOWN
        if isinstance(node, ast.Name):
            if node.id in self.env.spaces:
                return self.env.spaces[node.id]
            if node.id in self.env.arrays or node.id in self.rebound:
                return SPACE_UNKNOWN
            return seeded_space(node.id)
        if isinstance(node, ast.Attribute):
            if node.attr == "unmap":
                return SPACE_GLOBAL
            if node.attr == "ghost_tasks":
                return SPACE_OWNER
            return seeded_space(node.attr)
        if isinstance(node, ast.Subscript):
            if (isinstance(node.value, ast.Attribute)
                    and node.value.attr == "unmap"):
                return SPACE_GLOBAL
            r = root_name(node)
            if r is not None and r in self.env.arrays:
                return SPACE_UNKNOWN  # data array: elements are values
            return self.space_of(node.value)
        if isinstance(node, ast.Call):
            return self._call_space(node)
        if isinstance(node, ast.BinOp):
            left, right = (self.space_of(node.left),
                           self.space_of(node.right))
            if left == right:
                return left
            if left == SPACE_UNKNOWN:
                return right
            if right == SPACE_UNKNOWN:
                return left
            return SPACE_UNKNOWN
        if isinstance(node, ast.UnaryOp):
            return self.space_of(node.operand)
        if isinstance(node, ast.IfExp):
            a, b = self.space_of(node.body), self.space_of(node.orelse)
            return a if a == b else SPACE_UNKNOWN
        if isinstance(node, ast.Starred):
            return self.space_of(node.value)
        return SPACE_UNKNOWN

    def _call_space(self, call: ast.Call) -> str:
        func = call.func
        if isinstance(func, ast.Attribute):
            if func.attr == "get" and _mapish(func.value):
                return SPACE_LOCAL
            if func.attr == "owner_of":
                return SPACE_OWNER
            if _is_np(func.value) and func.attr in _NP_PROPAGATE:
                if not call.args:
                    return SPACE_UNKNOWN
                a0 = call.args[0]
                if isinstance(a0, (ast.List, ast.Tuple)):
                    spaces = {self.space_of(e) for e in a0.elts}
                    spaces.discard(SPACE_UNKNOWN)
                    return spaces.pop() if len(spaces) == 1 \
                        else SPACE_UNKNOWN
                return self.space_of(a0)
            if func.attr in _METHOD_PROPAGATE:
                return self.space_of(func.value)
            return SPACE_UNKNOWN
        if isinstance(func, ast.Name) and func.id == "sorted" and call.args:
            return self.space_of(call.args[0])
        return SPACE_UNKNOWN

    # -- call handling: bridges, halo transitions, collectives ---------------
    def _handle_call(self, call: ast.Call) -> None:
        func = call.func
        attr = func.attr if isinstance(func, ast.Attribute) else None

        if attr == "get" and _mapish(func.value) and call.args:
            self._check_map_get(call)
            return
        if attr is not None and (attr.startswith("exchange")
                                 or attr == "execute"):
            for a in _call_arg_exprs(call):
                if isinstance(a, ast.Name):
                    if a.id in self.env.arrays:
                        st = self.env.arrays[a.id]
                        self.env.arrays[a.id] = st.refreshed()
                    if (a.id in self.param_set
                            and a.id not in self.rebound):
                        self.param_refreshes.add(a.id)
            return
        if attr == "apply_updates":
            # Incremental updates land in the local region: every known
            # ghost-extended array's halo is stale until re-exchanged.
            for name, st in list(self.env.arrays.items()):
                if st.dist == DIST_GHOST:
                    self.env.arrays[name] = st.staled(call.lineno)
            return

        op = _collective_op(call)
        if op is not None:
            if (op in ("allreduce", "reduce") and call.args
                    and not _is_subcomm_receiver(call, self.subcomm_names)):
                # Subgroup reductions may legitimately size their buffer
                # per subgroup (identical within the group's members).
                self._check_spmd016(op, call)
            if op in ("alltoallv", "alltoall") and call.args:
                self._check_perf002(call, op)
            return

        if (attr in ("sum", "mean") and isinstance(func.value, ast.Name)
                and not call.args):
            st = self.env.arrays.get(func.value.id)
            if st is not None and st.dist == DIST_GHOST:
                self._emit(
                    "SPMD015", call,
                    f"'{func.value.id}.{attr}()' reduces the whole "
                    f"ghost-extended array (allocated at line "
                    f"{st.alloc_line}): ghost entries are also counted "
                    f"by their owner rank — reduce "
                    f"'{func.value.id}[:n_loc]' instead")
            return
        if (attr in _NP_REDUCERS and isinstance(func, ast.Attribute)
                and _is_np(func.value) and call.args
                and isinstance(call.args[0], ast.Name)):
            st = self.env.arrays.get(call.args[0].id)
            if st is not None and st.dist == DIST_GHOST:
                self._emit(
                    "SPMD015", call,
                    f"'np.{attr}({call.args[0].id})' reduces the whole "
                    f"ghost-extended array (allocated at line "
                    f"{st.alloc_line}): ghost entries are also counted "
                    f"by their owner rank — reduce the owned slice "
                    f"'[:n_loc]' instead")
            return

        summary = self.table.for_call(self.mod, call)
        if summary is not None:
            self._apply_summary(summary, call)
            return
        # Unknown call: it may refresh or rewrite any array it receives —
        # clear staleness rather than risk a false SPMD014 downstream.
        for a in _call_arg_exprs(call):
            if isinstance(a, ast.Name) and a.id in self.env.arrays:
                self.env.arrays[a.id] = self.env.arrays[a.id].refreshed()

    def _apply_summary(self, summary, call: ast.Call) -> None:
        expects = summary.expects_map
        for pname, expr in summary.bind_args(call):
            want = expects.get(pname)
            got = self.space_of(expr)
            if want is not None and got != SPACE_UNKNOWN and got != want:
                if {want, got} == {SPACE_GLOBAL, SPACE_LOCAL}:
                    callee = summary.key.rsplit(".", 1)[-1]
                    self._emit(
                        "SPMD013", expr,
                        f"{got}-space ids passed to parameter '{pname}' "
                        f"of '{callee}', which uses them as {want} ids "
                        f"(map/unmap provenance in the callee)")
            if isinstance(expr, ast.Name):
                # Propagate the callee's halo effects onto our params.
                if (expr.id in self.param_set
                        and expr.id not in self.rebound):
                    if pname in summary.refreshes:
                        self.param_refreshes.add(expr.id)
                    elif pname in summary.stales:
                        self.param_stales.add(expr.id)
                    if pname in expects:
                        self.param_expects.setdefault(
                            expr.id, expects[pname])
                if expr.id in self.env.arrays:
                    st = self.env.arrays[expr.id]
                    if pname in summary.refreshes:
                        self.env.arrays[expr.id] = st.refreshed()
                    elif pname in summary.stales:
                        self.env.arrays[expr.id] = st.staled(call.lineno)

    # -- SPMD013 -------------------------------------------------------------
    def _check_map_get(self, call: ast.Call) -> None:
        arg = call.args[0]
        if (isinstance(arg, ast.Name) and arg.id in self.param_set
                and arg.id not in self.rebound):
            self.param_expects.setdefault(arg.id, SPACE_GLOBAL)
        if self.space_of(arg) != SPACE_LOCAL:
            return
        recv = call.func.value          # the ``X.map`` / map-named expr
        fix = None
        if (isinstance(recv, ast.Attribute)
                and arg.lineno == getattr(arg, "end_lineno", -1)):
            owner_src = self._segment(recv.value)
            arg_src = self._segment(arg)
            if owner_src and arg_src:
                fix = {"kind": "replace", "line": arg.lineno,
                       "col": arg.col_offset,
                       "end_col": arg.end_col_offset,
                       "text": f"{owner_src}.unmap[{arg_src}]",
                       "apply": True}
        recv_src = self._segment(recv) or "map"
        self._emit(
            "SPMD013", arg,
            f"local ids passed to '{recv_src}.get', which maps *global* "
            f"ids to local ids: translate first with unmap[...]",
            fix=fix)

    def _check_subscript_space(self, sub: ast.Subscript) -> None:
        """SPMD013 on array indexing (loads and stores alike)."""
        idx = sub.slice
        if isinstance(idx, (ast.Slice, ast.Tuple)):
            return
        if (isinstance(sub.value, ast.Attribute)
                and sub.value.attr == "unmap"):
            if (isinstance(idx, ast.Name) and idx.id in self.param_set
                    and idx.id not in self.rebound):
                self.param_expects.setdefault(idx.id, SPACE_LOCAL)
            if self.space_of(idx) == SPACE_GLOBAL:
                self._emit(
                    "SPMD013", sub,
                    "global ids index 'unmap', which is indexed by "
                    "*local* ids (local -> global): use map.get(...) for "
                    "the global -> local direction")
            return
        name = sub.value.id if isinstance(sub.value, ast.Name) else None
        if name is None:
            return
        st = self.env.arrays.get(name)
        if st is None:
            return
        sp = self.space_of(idx)
        if st.dist in (DIST_GHOST, DIST_OWNER) and sp == SPACE_GLOBAL:
            self._emit(
                "SPMD013", sub,
                f"global ids index '{name}', a {st.dist} array "
                f"(allocated at line {st.alloc_line}) indexed by local "
                f"ids: translate with map.get(...) first")
        elif st.dist == DIST_REPL and sp == SPACE_LOCAL:
            self._emit(
                "SPMD013", sub,
                f"local ids index '{name}', a replicated array indexed "
                f"by global ids: translate with unmap[...] first")

    # -- SPMD014 -------------------------------------------------------------
    def _is_ghost_region(self, idx: ast.AST) -> bool:
        if isinstance(idx, ast.Slice):
            return (idx.lower is not None
                    and self.env.extent_of(idx.lower) == "n_loc"
                    and (idx.upper is None
                         or self.env.extent_of(idx.upper) == "n_total"))
        if isinstance(idx, ast.Name):
            return is_ghosty_name(idx.id)
        return False

    def _check_subscript_load(self, sub: ast.Subscript) -> None:
        self._check_subscript_space(sub)
        name = sub.value.id if isinstance(sub.value, ast.Name) else None
        if name is None:
            return
        st = self.env.arrays.get(name)
        if (st is not None and st.dist == DIST_GHOST
                and st.stale_line is not None
                and self._is_ghost_region(sub.slice)):
            self._emit(
                "SPMD014", sub,
                f"ghost slice of '{name}' read after the local write at "
                f"line {st.stale_line} with no intervening halo "
                f"exchange: ghost values are stale copies of remote "
                f"owners")

    # -- SPMD016 -------------------------------------------------------------
    def _check_spmd016(self, op: str, call: ast.Call) -> None:
        a0 = call.args[0]
        if not isinstance(a0, ast.Name):
            return
        if a0.id in self.env.buf_alloc:
            _, line = self.env.buf_alloc[a0.id]
            self._emit(
                "SPMD016", call,
                f"'{op}' buffer '{a0.id}' is allocated (line {line}) "
                f"with a rank-dependent shape/dtype: element-wise "
                f"reduction requires identical buffers on every rank — "
                f"size it from a replicated value")
            return
        st = self.env.arrays.get(a0.id)
        if st is not None and st.dist in (DIST_OWNER, DIST_GHOST):
            self._emit(
                "SPMD016", call,
                f"'{op}' buffer '{a0.id}' is {st.dist} (allocated at "
                f"line {st.alloc_line}): its length varies per rank, so "
                f"ranks disagree on the reduction shape — reduce a "
                f"replicated/n_global buffer or a scalar")

    # -- PERF002 -------------------------------------------------------------
    def _split_info(self, call: ast.Call) -> dict:
        """Fix metadata for ``np.split(payload, np.cumsum(c)[:-1])``."""
        if len(call.args) < 2:
            return {}
        payload, splits = call.args[0], call.args[1]
        counts = None
        if (isinstance(splits, ast.Subscript)
                and isinstance(splits.value, ast.Call)
                and _is_np_call(splits.value, {"cumsum"})
                and splits.value.args
                and isinstance(splits.slice, ast.Slice)
                and splits.slice.lower is None
                and isinstance(splits.slice.upper, ast.UnaryOp)
                and isinstance(splits.slice.upper.op, ast.USub)
                and isinstance(splits.slice.upper.operand, ast.Constant)
                and splits.slice.upper.operand.value == 1):
            counts = splits.value.args[0]
        payload_src = self._segment(payload)
        counts_src = self._segment(counts) if counts is not None else None
        if payload_src and counts_src:
            return {"payload": payload_src, "counts": counts_src}
        return {}

    def _check_perf002(self, call: ast.Call, op: str) -> None:
        a0 = call.args[0]
        info = None
        if isinstance(a0, ast.Name) and a0.id in self.env.split_lists:
            info = self.env.split_lists[a0.id]
        elif _is_np_split(a0):
            info = self._split_info(a0)
        if info is None:
            return
        fix = None
        if (info.get("payload") and info.get("counts")
                and call.lineno == getattr(call, "end_lineno", -1)):
            comm_src = self._segment(call.func.value)
            if comm_src:
                fix = {"kind": "replace", "line": call.lineno,
                       "col": call.col_offset,
                       "end_col": call.end_col_offset,
                       "text": f"{comm_src}.alltoallv_flat("
                               f"{info['payload']}, {info['counts']})",
                       # Suggestion only: applying needs the payload and
                       # counts to still be live here, which the fixer
                       # does not prove — surfaced via SARIF fixes.
                       "apply": False}
        hint = (f": send '{info['payload']}' with counts "
                f"'{info['counts']}' via alltoallv_flat"
                if info.get("payload") else
                ": pass the un-split payload and counts to alltoallv_flat")
        self._emit(
            "PERF002", call,
            f"'{op}' over np.split parts pickles every part; the flat "
            f"path (alltoallv_flat / AlltoallvPlan) sends the same "
            f"bytes zero-copy in the same source-rank order{hint}",
            fix=fix)

    # -- PERF001 / PERF003 ---------------------------------------------------
    def _check_perf_loops(self) -> None:
        for node in _walk_in_scope(self.fn):
            if isinstance(node, (ast.For, ast.While)):
                self._perf_loop(node)

    def _loop_bindings(self, loop) -> tuple[dict[str, int], set[str]]:
        """(name -> rebind count, mutated-name set) for a loop subtree.

        Rebind counts cover only plain name bindings (a hoist candidate
        must be the name's sole binder); the mutated set additionally
        includes subscript/attribute store roots (in-place writes)."""
        counts: dict[str, int] = {}
        mutated: set[str] = set()

        def bump(names: Iterable[str]) -> None:
            for n in names:
                counts[n] = counts.get(n, 0) + 1
                mutated.add(n)

        for n in _walk_in_scope(loop):
            if isinstance(n, ast.Assign):
                for t in n.targets:
                    bump(_target_names(t))
                    r = root_name(t)
                    if r is not None and not isinstance(t, ast.Name):
                        mutated.add(r)
            elif isinstance(n, (ast.AnnAssign, ast.AugAssign)):
                bump(_target_names(n.target))
                r = root_name(n.target)
                if r is not None and not isinstance(n.target, ast.Name):
                    mutated.add(r)
            elif isinstance(n, (ast.For, ast.AsyncFor)):
                bump(_target_names(n.target))
            elif isinstance(n, ast.withitem):
                if n.optional_vars is not None:
                    bump(_target_names(n.optional_vars))
        if isinstance(loop, (ast.For, ast.AsyncFor)):
            bump(_target_names(loop.target))
        return counts, mutated

    @staticmethod
    def _call_arg_names(loop, exclude: ast.Call) -> set[str]:
        """Bare-Name arguments of calls in the loop (possible in-place
        mutation targets, e.g. ``halo.exchange(x)``), excluding the
        candidate call itself (collectives do not mutate their inputs)."""
        out: set[str] = set()
        for n in _walk_in_scope(loop):
            if isinstance(n, ast.Call) and n is not exclude:
                for a in _call_arg_exprs(n):
                    if isinstance(a, ast.Name):
                        out.add(a.id)
        return out

    @staticmethod
    def _names_in(nodes: Iterable[ast.AST]) -> set[str]:
        out: set[str] = set()
        for node in nodes:
            for n in ast.walk(node):
                if isinstance(n, ast.Name):
                    out.add(n.id)
        return out

    def _hoist_fix(self, stmt: ast.stmt, loop: ast.stmt) -> dict | None:
        if self.source is None:
            return None
        return {"kind": "hoist",
                "lines": [stmt.lineno,
                          getattr(stmt, "end_lineno", stmt.lineno)],
                "before": loop.lineno,
                "dedent": stmt.col_offset - loop.col_offset,
                "apply": True}

    def _perf_loop(self, loop: ast.For | ast.While) -> None:
        if len(loop.body) < 2:
            return
        bindings, stored = self._loop_bindings(loop)
        test_names = (self._names_in([loop.test])
                      if isinstance(loop, ast.While) else set())
        for stmt in loop.body:
            if (not isinstance(stmt, ast.Assign)
                    or len(stmt.targets) != 1
                    or not isinstance(stmt.targets[0], ast.Name)):
                continue
            target = stmt.targets[0].id
            val = stmt.value
            if not isinstance(val, ast.Call):
                continue
            arg_exprs = _call_arg_exprs(val)
            has_nested_call = any(
                isinstance(n, ast.Call)
                for a in arg_exprs for n in ast.walk(a))
            op = _collective_op(val)
            if op in _HOISTABLE:
                if has_nested_call or bindings.get(target, 0) != 1:
                    continue
                if target in test_names:
                    continue
                mutated = stored | self._call_arg_names(loop, exclude=val)
                mutated.discard(target)
                if self._names_in(arg_exprs) & mutated:
                    continue
                self._emit(
                    "PERF001", val,
                    f"'{op}' is loop-invariant (its arguments are not "
                    f"modified by the loop) but runs every iteration, "
                    f"paying a world-synchronous round each time: hoist "
                    f"it above the loop",
                    fix=self._hoist_fix(stmt, loop))
            elif _is_np_call(val, ALLOC_FNS | ALLOC_LIKE_FNS):
                if has_nested_call or bindings.get(target, 0) != 1:
                    continue
                mutated = stored | self._call_arg_names(loop, exclude=val)
                mutated.discard(target)
                if self._names_in(arg_exprs) & mutated:
                    continue
                if not self._feeds_comm_sink(target, loop):
                    continue
                fixable = val.func.attr in ("empty", "empty_like")
                self._emit(
                    "PERF003", val,
                    f"'np.{val.func.attr}' allocates a fresh buffer "
                    f"every iteration of a communication loop: hoist "
                    f"the allocation and reuse the buffer"
                    + ("" if fixable else
                       " (re-initialize in-place each iteration, e.g. "
                       "buf.fill(...), instead of reallocating)"),
                    fix=(self._hoist_fix(stmt, loop) if fixable
                         else None))

    def _feeds_comm_sink(self, name: str, loop: ast.stmt) -> bool:
        """Is ``name`` passed (bare) to an exchange/collective/plan call
        somewhere in the loop?"""
        for n in _walk_in_scope(loop):
            if not isinstance(n, ast.Call):
                continue
            func = n.func
            attr = func.attr if isinstance(func, ast.Attribute) else None
            is_sink = (_collective_op(n) is not None
                       or (attr is not None
                           and (attr.startswith("exchange")
                                or attr == "execute")))
            if not is_sink:
                continue
            for a in _call_arg_exprs(n):
                if isinstance(a, ast.Name) and a.id == name:
                    return True
        return False


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------
_ALL_RULES = frozenset(DIST_RULES) | frozenset(PERF_RULES)


def lint_distribution(mod, table, select: frozenset[str]) -> list[Finding]:
    """Run the distribution/index-space pass over every function of one
    module, composing callees through the summary table."""
    if not (select & _ALL_RULES):
        return []
    findings: list[Finding] = []
    for node in ast.walk(mod.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            findings.extend(_DistInterp(node, str(mod.path), select,
                                        mod.source, table, mod).run())
    return findings
