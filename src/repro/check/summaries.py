"""The one per-function summary table of the whole-program pass.

For every function in the :class:`~.callgraph.CallGraph`, this module
computes one :class:`FunctionSummary` holding every fact the rule
families need about a call site without re-analyzing the callee:

* **schedule** — the sequence of collectives the function *transitively*
  issues (its own ``comm.<op>()`` sites plus, spliced in source order,
  the schedules of the module-level functions it calls);
* **lattice effect** — how the replication lattice flows through the
  function: the level of its return value when all arguments are
  replicated (``return_level``), which parameters join into the return
  level (``return_params``), and which parameters *gate* (control-flow
  guard) or *size* (argument/trip-count) a transitive collective
  (``gate_params`` / ``size_params``);
* **distribution facts** — parameter index-space expectations, halo
  effects and return provenance, recorded by the distribution
  interpreter (:func:`.distcheck.dist_facts`).

Summaries are computed callees-first over the SCC condensation, so a
callee's summary is final before any caller consumes it; functions in a
recursion cycle fall back to their *direct* collective sites and see
each other's distribution facts as empty (documented soundness limit,
DESIGN.md §13).  Parameter effects are computed by differential taint:
classify the function once with every parameter replicated, once with
one parameter pinned ``RANK_DEPENDENT``, and attribute to that parameter
exactly the expressions whose level rises.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field, fields, replace
from typing import Callable

from ._astutil import (
    RANK_DEPENDENT,
    REPLICATED,
    _classify,
    _collective_op,
    _Env,
    _fn_params,
    _infer_env,
    _is_subcomm_receiver,
    _subcomm_names,
    _walk_in_scope,
)
from .callgraph import CallGraph, FunctionInfo
from .distcheck import dist_facts

__all__ = ["FunctionSummary", "SummaryTable", "build_summaries",
           "summaries_digest"]

#: Schedules longer than this are truncated with a trailing marker; the
#: schedule rules compare sequences for equality, and a truncated pair
#: that agrees on the first 64 ops is treated as matching
#: (precision-first).
MAX_SCHEDULE = 64


@dataclass(frozen=True)
class FunctionSummary:
    """Interprocedural facts about one function."""

    key: str
    #: Positional parameter names in declaration order (posonly + args).
    positional: tuple[str, ...]
    #: Every parameter name (incl. kwonly), for keyword binding.
    params: tuple[str, ...]
    # -- schedule facts -------------------------------------------------------
    #: Transitive collective ops, source order ("…" marks truncation,
    #: "rec:<name>" an unexpanded recursive callee).
    schedule: tuple[str, ...] = ()
    #: Lattice level of the return value with all parameters replicated.
    return_level: int = REPLICATED
    #: Parameters whose level joins into the return level.
    return_params: frozenset[str] = frozenset()
    #: Parameters that guard a (transitive) collective behind control flow.
    gate_params: frozenset[str] = frozenset()
    #: Parameters that feed a collective argument or a collective-loop
    #: trip count.
    size_params: frozenset[str] = frozenset()
    # -- distribution facts ---------------------------------------------------
    #: (param, expected index space) pairs, sorted — from the callee's
    #: own ``map.get``/``unmap[...]`` usage (direct or transitive).
    expects: tuple[tuple[str, str], ...] = ()
    #: Parameters whose ghost region the callee refreshes (halo exchange).
    refreshes: frozenset[str] = frozenset()
    #: Parameters the callee writes locally (subscript store) without a
    #: subsequent exchange being provable — treated as staling.
    stales: frozenset[str] = frozenset()
    #: Index space of the return value, when every return agrees.
    returns_space: str | None = None
    #: The function returns ``np.split`` parts (list-of-arrays payload).
    returns_split: bool = False
    #: The function returns a fresh ghost-extended allocation.
    returns_ghost: bool = False

    @property
    def issues(self) -> bool:
        return bool(self.schedule)

    @property
    def expects_map(self) -> dict[str, str]:
        return dict(self.expects)

    def bind_args(self, call: ast.Call) -> list[tuple[str, ast.expr]]:
        """Map call-site argument expressions onto parameter names."""
        out: list[tuple[str, ast.expr]] = []
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                break  # positions past a *splat are unknowable statically
            if i < len(self.positional):
                out.append((self.positional[i], arg))
        for kw in call.keywords:
            if kw.arg is not None and kw.arg in self.params:
                out.append((kw.arg, kw.value))
        return out


@dataclass
class SummaryTable:
    """Summary lookup plus the call-site helpers the rule families use."""

    graph: CallGraph
    by_key: dict[str, FunctionSummary] = field(default_factory=dict)

    def for_call(self, mod, call: ast.Call) -> FunctionSummary | None:
        fi = self.graph.resolve(mod, call)
        return self.by_key.get(fi.key) if fi is not None else None

    def call_level(self, mod) -> Callable[[ast.Call, _Env], int | None]:
        """An ``_Env.call_level`` hook bound to one module's imports."""

        def hook(call: ast.Call, env: _Env) -> int | None:
            summary = self.for_call(mod, call)
            if summary is None:
                return None
            level = summary.return_level
            for name, expr in summary.bind_args(call):
                if name in summary.return_params:
                    level = max(level, _classify(expr, env))
            return level

        return hook


# ---------------------------------------------------------------------------
# schedule expansion
# ---------------------------------------------------------------------------
def _ordered_scope_calls(fn: ast.AST) -> list[ast.Call]:
    calls = [n for n in _walk_in_scope(fn) if isinstance(n, ast.Call)]
    calls.sort(key=lambda c: (c.lineno, c.col_offset))
    return calls


def _expand_schedule(fi: FunctionInfo, table: SummaryTable,
                     in_progress: set[str]) -> tuple[str, ...]:
    ops: list[str] = []
    subcomms = _subcomm_names(fi.node)
    for call in _ordered_scope_calls(fi.node):
        if len(ops) >= MAX_SCHEDULE:
            ops.append("…")
            break
        op = _collective_op(call)
        if op is not None:
            # Subgroup-scoped collectives are not part of the function's
            # world schedule (the split/rows/cols factory call itself is).
            if not _is_subcomm_receiver(call, subcomms):
                ops.append(op)
            continue
        target = fi.module and table.graph.resolve(fi.module, call)
        if target is None:
            continue
        if target.key in in_progress:
            # Recursive cycle: stand in for the callee without expanding.
            ops.append(f"rec:{target.qualname}")
            continue
        callee = table.by_key.get(target.key)
        if callee is not None and callee.schedule:
            room = MAX_SCHEDULE - len(ops)
            ops.extend(callee.schedule[:room])
            if len(callee.schedule) > room:
                ops.append("…")
                break
    return tuple(ops[: MAX_SCHEDULE + 1])


# ---------------------------------------------------------------------------
# lattice effects (differential taint)
# ---------------------------------------------------------------------------
def _return_exprs(fn: ast.AST) -> list[ast.expr]:
    return [n.value for n in _walk_in_scope(fn)
            if isinstance(n, ast.Return) and n.value is not None]


def _collective_subtree(node: ast.AST, fi: FunctionInfo,
                        table: SummaryTable) -> bool:
    """Does this subtree (transitively) issue a collective?"""
    for child in ast.walk(node):
        if not isinstance(child, ast.Call):
            continue
        if _collective_op(child) is not None:
            return True
        target = table.graph.resolve(fi.module, child)
        if target is not None:
            s = table.by_key.get(target.key)
            if s is not None and s.issues:
                return True
    return False


def _param_effects(fi: FunctionInfo, params: list[str],
                   table: SummaryTable) -> dict:
    """Return-level/flow and gate/size parameter sets for one function."""
    fn = fi.node
    hook = table.call_level(fi.module)
    env0 = _infer_env(fn, params, call_level=hook)
    returns = _return_exprs(fn)
    base_return = max((_classify(e, env0) for e in returns),
                      default=REPLICATED)

    # Interesting sinks, precomputed once: branch/loop guards over
    # collective-issuing subtrees, and collective-feeding expressions.
    guards: list[ast.expr] = []
    for node in _walk_in_scope(fn):
        if isinstance(node, ast.If):
            subtree_has = any(
                _collective_subtree(s, fi, table)
                for s in node.body + node.orelse)
            if subtree_has:
                guards.append(node.test)
        elif isinstance(node, (ast.While, ast.For)):
            driver = node.test if isinstance(node, ast.While) else node.iter
            if any(_collective_subtree(s, fi, table) for s in node.body):
                guards.append(driver)
    size_exprs: list[ast.expr] = []
    for node in _walk_in_scope(fn):
        if isinstance(node, ast.Call):
            if _collective_op(node) is not None:
                size_exprs.extend(node.args)
                size_exprs.extend(kw.value for kw in node.keywords)
            else:
                callee = table.for_call(fi.module, node)
                if callee is None:
                    continue
                # An argument bound to a callee gate/size parameter is a
                # transitive gate/size sink.
                for pname, expr in callee.bind_args(node):
                    if pname in callee.gate_params | callee.size_params:
                        size_exprs.append(expr)

    return_params: set[str] = set()
    gate_params: set[str] = set()
    size_params: set[str] = set()
    for p in params:
        if p == "rank":
            # Already RANK_DEPENDENT in every env: the differential is
            # blind to it, but the schedule rules treat it natively.
            continue
        envP = _infer_env(fn, params, call_level=hook,
                          overrides={p: RANK_DEPENDENT})

        def rises(expr: ast.expr) -> bool:
            return _classify(expr, envP) > _classify(expr, env0)

        if returns and any(rises(e) for e in returns):
            return_params.add(p)
        if any(rises(g) for g in guards):
            gate_params.add(p)
        if any(rises(e) for e in size_exprs):
            size_params.add(p)
    return dict(return_level=base_return,
                return_params=frozenset(return_params),
                gate_params=frozenset(gate_params),
                size_params=frozenset(size_params))


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------
def build_summaries(graph: CallGraph) -> SummaryTable:
    """Compute summaries callees-first over the SCC condensation."""
    table = SummaryTable(graph)
    for component in graph.topo_order():
        in_progress = {fi.key for fi in component}
        # Pass 1 (schedules): members of a cycle see each other as
        # "rec:" markers; singleton components expand fully.
        for fi in component:
            args = fi.node.args
            table.by_key[fi.key] = FunctionSummary(
                key=fi.key,
                positional=tuple(a.arg for a in args.posonlyargs + args.args),
                params=tuple(_fn_params(fi.node)),
                schedule=_expand_schedule(fi, table, in_progress))
        # A recursion cycle whose members issue no real collective must
        # not look like one: drop schedules that are pure "rec:" markers
        # (e.g. a recursive payload-walking helper), else every recursive
        # function would become a phantom collective site.
        if not any(op for fi in component
                   for op in table.by_key[fi.key].schedule
                   if not op.startswith("rec:")):
            for fi in component:
                table.by_key[fi.key] = replace(table.by_key[fi.key],
                                               schedule=())
        # Pass 2 (lattice effects): runs with every member's schedule
        # visible, so gate/size sinks include intra-component calls.
        for fi in component:
            stub = table.by_key[fi.key]
            table.by_key[fi.key] = replace(
                stub, **_param_effects(fi, list(stub.params), table))
        # Pass 3 (distribution facts): a cycle member whose facts are not
        # recorded yet reads as a callee with no facts.
        for fi in component:
            table.by_key[fi.key] = replace(table.by_key[fi.key],
                                           **dist_facts(fi, table))
    return table


def summaries_digest(table: SummaryTable) -> str:
    """Stable content hash of the whole summary table.

    Findings for one file depend on every *summary* in the program, not
    on every byte of every other file — keying the findings cache on
    this digest keeps cache hits warm across edits that do not change any
    interprocedural fact.
    """
    h = hashlib.sha256()
    for key in sorted(table.by_key):
        s = table.by_key[key]
        h.update(repr(tuple(
            sorted(v) if isinstance(v, frozenset) else v
            for v in (getattr(s, f.name) for f in fields(s)))).encode())
    return h.hexdigest()
