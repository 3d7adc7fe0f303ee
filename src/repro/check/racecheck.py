"""Static buffer-ownership analysis ("racecheck"): rules SPMD006–008.

The runtime's aliasing object collectives (``bcast``/``scatter``/
``gather``/``allgather``/``alltoall``) default to ``copy=True`` and hand
every receiver a private deep copy; passing ``copy=False`` opts back into
zero-copy payload sharing, where several ranks hold references to the
*same* objects.  This module tracks those borrowed payloads through a
three-state ownership lattice:

``OWNED``
    private to this rank: fresh arrays, ``.copy()``/``comm.own()``
    results, and copy=True collective results (the default);
``ELEM_BORROWED``
    the container is fresh but its *elements* are shared — the shape of
    ``gather``/``allgather``/``alltoall`` results under ``copy=False``;
``BORROWED``
    the object itself is shared with peer ranks — ``bcast``/``scatter``
    results under ``copy=False``, and any element, view, or unpacking of
    an ``ELEM_BORROWED`` container.

A fourth per-name state — *escaped-to-shared* — records buffers this rank
*published* to a copy=False collective; mutating such a buffer before its
borrowers are done is the publish-side of the same race.

Rules (each suppressible with ``# spmdlint: disable=SPMDxxx``):

SPMD006
    in-place mutation of a borrowed payload (subscript/attribute stores,
    augmented assignment, mutating methods, ufunc ``out=``, or a module
    helper known to mutate the corresponding parameter);
SPMD007
    mutation of a buffer after publishing it to a copy=False collective
    (before re-binding the name to fresh data);
SPMD008
    storing a borrowed payload into a shared location — module globals,
    object attributes, caller-visible containers, returned result
    containers — without an owning ``.copy()`` / ``comm.own()``.

Borrow provenance is tracked on the shared statement walker
(:mod:`.walker`) through assignments, slices/views, conditional joins,
loops (two-pass, so a borrow created late in a loop body reaches its
top), and helper-function calls within the module.  The
analysis is precision-first like the schedule linter: only explicit
``copy=False`` keywords create borrows, and unknown calls are assumed to
return owned data.  The dynamic companion is
:mod:`repro.runtime.sanitize`.
"""

from __future__ import annotations

import ast
from typing import Any

from ._astutil import (
    Finding,
    _collective_op,
    _fn_params,
    _is_comm_expr,
    _target_names,
    _walk_in_scope,
)
from .walker import FlowWalker

__all__ = ["OWNERSHIP_RULES", "lint_ownership"]

# ---------------------------------------------------------------------------
# rule catalog (merged into repro.check.RULES by spmdlint)
# ---------------------------------------------------------------------------
OWNERSHIP_RULES: dict[str, str] = {
    "SPMD006": "in-place mutation of a payload borrowed from a copy=False "
               "collective: the write aliases every rank's data",
    "SPMD007": "buffer mutated after being published to a copy=False "
               "collective: peer ranks may still be reading it",
    "SPMD008": "borrowed collective payload stored to a shared location "
               "(global/attribute/caller-visible container) without an "
               "owning copy",
}

#: Object collectives whose copy=False results alias contributor objects.
ALIASING = frozenset({"bcast", "scatter", "gather", "allgather", "alltoall"})

#: Aliasing collectives returning a fresh container of borrowed elements.
ELEMENTWISE = frozenset({"gather", "allgather", "alltoall"})

# Ownership lattice (monotone: larger = more borrowed).
OWNED, ELEM_BORROWED, BORROWED = 0, 1, 2

#: Methods that mutate their receiver in place.
_MUTATING_METHODS = frozenset({
    "sort", "fill", "put", "resize", "partition", "setflags", "setfield",
    "byteswap", "itemset", "append", "extend", "insert", "remove", "clear",
    "update", "setdefault", "pop", "popitem", "reverse",
})

#: Method calls returning views (result ownership == receiver ownership).
_VIEW_METHODS = frozenset({"reshape", "ravel", "view", "squeeze",
                           "transpose", "swapaxes"})

#: Function/method names that pass buffers through without copying.
_PASSTHROUGH_FUNCS = frozenset({"asarray", "ascontiguousarray",
                                "atleast_1d", "atleast_2d"})

#: Builtins returning a fresh container over the *same* elements.
_SHALLOW_BUILTINS = frozenset({"list", "tuple", "sorted", "reversed",
                               "dict"})


def _copy_false(call: ast.Call) -> bool:
    """True when the call passes an explicit ``copy=False`` keyword."""
    return any(kw.arg == "copy" and isinstance(kw.value, ast.Constant)
               and kw.value.value is False for kw in call.keywords)


def _peel(expr: ast.expr) -> tuple[str | None, int, bool]:
    """Reduce an lvalue/receiver to ``(base name, subscript depth, attr?)``.

    ``vals[0][1]`` -> ("vals", 2, False); ``self.cache[k]`` ->
    ("self", 1, True); a non-name base (e.g. a call) yields ``None``.
    """
    depth = 0
    has_attr = False
    node = expr
    while True:
        if isinstance(node, ast.Subscript):
            depth += 1
            node = node.value
        elif isinstance(node, ast.Attribute):
            has_attr = True
            node = node.value
        elif isinstance(node, ast.Starred):
            node = node.value
        else:
            break
    return (node.id if isinstance(node, ast.Name) else None, depth, has_attr)


# ---------------------------------------------------------------------------
# module pass 1: which parameters does each helper mutate in place?
# ---------------------------------------------------------------------------
def _stmt_mutated_names(node: ast.AST) -> list[str]:
    """Base names a single AST node mutates in place (not rebinds)."""
    out: list[str] = []
    if isinstance(node, ast.Assign):
        for t in node.targets:
            if isinstance(t, ast.Subscript):
                base, _, _ = _peel(t)
                if base:
                    out.append(base)
    elif isinstance(node, ast.AugAssign):
        base, _, _ = _peel(node.target)
        if base:
            out.append(base)
    elif isinstance(node, ast.Call):
        fn = node.func
        if isinstance(fn, ast.Attribute) and fn.attr in _MUTATING_METHODS:
            base, _, _ = _peel(fn.value)
            if base:
                out.append(base)
        for kw in node.keywords:
            if kw.arg == "out":
                targets = (kw.value.elts if isinstance(kw.value, ast.Tuple)
                           else [kw.value])
                for t in targets:
                    base, _, _ = _peel(t)
                    if base:
                        out.append(base)
    return out


def _mutation_summaries(tree: ast.Module) -> dict[str, dict[str, Any]]:
    """Per-function summary of which parameters are mutated in place.

    Used to propagate SPMD006/007 through helper calls within a module:
    ``_scale(buf, 2.0)`` is a mutation of ``buf`` if ``_scale`` writes its
    first parameter.  Aliases of a parameter inside the helper
    (``view = arr[lo:hi]; view += 1``) count as mutations of it.
    """
    out: dict[str, dict[str, Any]] = {}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        all_params = positional + [a.arg for a in args.kwonlyargs]
        aliases: dict[str, set[str]] = {p: {p} for p in all_params}
        for _ in range(2):  # two rounds: alias-of-alias chains
            for node in _walk_in_scope(fn):
                if not isinstance(node, ast.Assign):
                    continue
                if not isinstance(node.value,
                                  (ast.Name, ast.Subscript, ast.Attribute)):
                    continue
                base, _, _ = _peel(node.value)
                if base is None:
                    continue
                for s in aliases.values():
                    if base in s:
                        for t in node.targets:
                            s.update(_target_names(t))
        mutated = set()
        for node in _walk_in_scope(fn):
            for name in _stmt_mutated_names(node):
                for p, s in aliases.items():
                    if name in s:
                        mutated.add(p)
        if mutated:
            out[fn.name] = {"positional": positional, "mutated": mutated}
    return out


# ---------------------------------------------------------------------------
# per-function ownership walk
# ---------------------------------------------------------------------------
class _OwnState:
    """Ownership flow state: name -> lattice level, plus the buffers this
    rank has published to a copy=False collective (name -> (op, line))."""

    def __init__(self, own: dict[str, int] | None = None,
                 published: dict[str, tuple[str, int]] | None = None):
        self.own = own if own is not None else {}
        self.published = published if published is not None else {}

    def copy(self) -> "_OwnState":
        return _OwnState(dict(self.own), dict(self.published))

    def join(self, other: "_OwnState") -> None:
        for k, v in other.own.items():  # max = more borrowed
            self.own[k] = max(self.own.get(k, OWNED), v)
        for k, v in other.published.items():
            self.published.setdefault(k, v)


class _OwnershipLinter(FlowWalker):
    """Tracks the ownership lattice through one function, in source order."""

    def __init__(self, fn: ast.FunctionDef | ast.AsyncFunctionDef,
                 path: str, select: frozenset[str],
                 mutators: dict[str, dict[str, Any]]):
        super().__init__(fn, path, select)
        self.mutators = mutators
        self.params = set(_fn_params(fn))
        self.globals_ = {name for node in _walk_in_scope(fn)
                         if isinstance(node, ast.Global)
                         for name in node.names}
        self.state = _OwnState()

    @property
    def own(self) -> dict[str, int]:
        return self.state.own

    @property
    def published(self) -> dict[str, tuple[str, int]]:
        return self.state.published

    def run(self) -> list[Finding]:
        # Borrows originate only from explicit copy=False collectives; a
        # function with none has nothing for this pass to track.
        if any(isinstance(n, ast.Call) and _copy_false(n)
               and _collective_op(n) in ALIASING
               for n in _walk_in_scope(self.fn)):
            self.walk(self.fn.body)
        return self.findings

    # -- reporting ---------------------------------------------------------
    def _emit_published(self, node: ast.AST, name: str) -> None:
        op, line = self.published[name]
        self._emit(
            "SPMD007", node,
            f"'{name}' was published to copy=False '{op}' (line {line}) "
            f"and is mutated while peers may still borrow it; mutate a "
            f"copy or re-bind the name to a fresh buffer first")

    def _emit_borrowed(self, node: ast.AST, name: str, how: str) -> None:
        self._emit(
            "SPMD006", node,
            f"{how} '{name}', a payload borrowed from a copy=False "
            f"collective; the write aliases every rank — take "
            f"comm.own({name}) (or drop copy=False) first")

    # -- walker hooks: transfer rules --------------------------------------
    def enter_if(self, stmt: ast.If, level: int) -> None:
        self._scan_effects(stmt.test)

    def loop_head(self, stmt) -> None:
        if isinstance(stmt, ast.While):
            self._scan_effects(stmt.test)
            return
        self._scan_effects(stmt.iter)
        iter_level = self._ownership(stmt.iter)
        elem = BORROWED if iter_level >= ELEM_BORROWED else OWNED
        self._store(stmt.target, elem, stmt)

    def enter_with(self, stmt) -> None:
        for item in stmt.items:
            self._scan_effects(item.context_expr)
            if item.optional_vars is not None:
                self._store(item.optional_vars,
                            self._ownership(item.context_expr), stmt)

    def transfer(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self._scan_effects(stmt.value)
            level = self._ownership(stmt.value)
            for target in stmt.targets:
                self._store(target, level, stmt, value=stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._scan_effects(stmt.value)
                self._store(stmt.target, self._ownership(stmt.value), stmt,
                            value=stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            self._scan_effects(stmt.value)
            self._check_augassign(stmt)
        elif isinstance(stmt, ast.Expr):
            self._scan_effects(stmt.value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._scan_effects(stmt.value)
                self._check_return(stmt)
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._scan_effects(child)

    # -- stores ------------------------------------------------------------
    def _store(self, target: ast.expr, level: int, stmt: ast.stmt,
               value: ast.expr | None = None) -> None:
        if isinstance(target, ast.Name):
            name = target.id
            if level >= ELEM_BORROWED and name in self.globals_:
                self._emit(
                    "SPMD008", stmt,
                    f"borrowed collective payload stored into module "
                    f"global '{name}': it outlives the borrow epoch and "
                    f"aliases peer ranks' buffers — store comm.own(...) "
                    f"instead")
            self.own[name] = level
            self.published.pop(name, None)  # re-binding ends the publish
        elif isinstance(target, (ast.Tuple, ast.List)):
            if (isinstance(value, (ast.Tuple, ast.List))
                    and len(value.elts) == len(target.elts)):
                for t, v in zip(target.elts, value.elts):
                    self._store(t, self._ownership(v), stmt, value=v)
            else:
                elem = BORROWED if level >= ELEM_BORROWED else OWNED
                for t in target.elts:
                    self._store(t, elem, stmt)
        elif isinstance(target, ast.Starred):
            self._store(target.value, level, stmt)
        elif isinstance(target, ast.Attribute):
            if level >= ELEM_BORROWED:
                self._emit(
                    "SPMD008", stmt,
                    f"borrowed collective payload stored into attribute "
                    f"'.{target.attr}': the object outlives the borrow "
                    f"epoch — store comm.own(...) / a .copy() instead")
            base, _, _ = _peel(target)
            if base is not None:
                if base in self.published:
                    self._emit_published(stmt, base)
                elif self.own.get(base, OWNED) == BORROWED:
                    self._emit_borrowed(stmt, base,
                                        "attribute write mutates")
        elif isinstance(target, ast.Subscript):
            self._subscript_store(target, level, stmt)

    def _subscript_store(self, target: ast.Subscript, level: int,
                         stmt: ast.stmt) -> None:
        base, depth, has_attr = _peel(target)
        if base is not None:
            state = self.own.get(base, OWNED)
            if base in self.published:
                self._emit_published(stmt, base)
            elif state == BORROWED or (state == ELEM_BORROWED
                                       and depth >= 2):
                self._emit_borrowed(stmt, base, "subscript write into")
            elif level >= ELEM_BORROWED and state == OWNED and (
                    has_attr or base in self.params
                    or base in self.globals_):
                # Replacing an element of an owned-but-shared container
                # (param dict, engine cache, global table) with a borrow.
                self._emit(
                    "SPMD008", stmt,
                    f"borrowed collective payload stored into "
                    f"caller-visible container '{base}': it outlives the "
                    f"borrow epoch — store comm.own(...) / a .copy() "
                    f"instead")

    def _check_augassign(self, stmt: ast.AugAssign) -> None:
        target = stmt.target
        base, depth, _ = _peel(target)
        if base is None:
            return
        state = self.own.get(base, OWNED)
        if base in self.published and isinstance(target, ast.Name):
            self._emit_published(stmt, base)
        elif base in self.published and depth >= 1:
            self._emit_published(stmt, base)
        elif state == BORROWED or (state == ELEM_BORROWED and depth >= 1):
            self._emit_borrowed(stmt, base, "augmented assignment mutates")

    def _check_return(self, stmt: ast.Return) -> None:
        value = stmt.value
        elts: list[ast.expr] = []
        if isinstance(value, ast.Dict):
            elts = [v for v in value.values if v is not None]
        elif isinstance(value, (ast.List, ast.Tuple)):
            elts = list(value.elts)
        for e in elts:
            if self._ownership(e) >= ELEM_BORROWED:
                self._emit(
                    "SPMD008", e,
                    "borrowed collective payload returned inside a result "
                    "container: the caller outlives the borrow epoch — "
                    "return comm.own(...) / .copy() data")

    # -- expression effects: publishes and call-mediated mutations ---------
    def _scan_effects(self, expr: ast.expr) -> None:
        for node in [expr, *_walk_in_scope(expr)]:
            if isinstance(node, ast.Call):
                self._call_effects(node)

    def _call_effects(self, call: ast.Call) -> None:
        op = _collective_op(call)
        if op in ALIASING and _copy_false(call):
            payload = call.args[0] if call.args else next(
                (kw.value for kw in call.keywords
                 if kw.arg in ("obj", "objs")), None)
            self._publish(payload, op, call.lineno)
            return
        fn = call.func
        if isinstance(fn, ast.Attribute) and fn.attr in _MUTATING_METHODS:
            self._flag_mutation(fn.value, call,
                                f"mutating method '.{fn.attr}()' on")
        for kw in call.keywords:
            if kw.arg == "out":
                targets = (kw.value.elts if isinstance(kw.value, ast.Tuple)
                           else [kw.value])
                for t in targets:
                    self._flag_mutation(t, call, "ufunc out= targets")
        if isinstance(fn, ast.Name) and fn.id in self.mutators:
            summary = self.mutators[fn.id]
            positional = summary["positional"]
            for i, arg in enumerate(call.args):
                if i < len(positional) and positional[i] in summary["mutated"]:
                    self._flag_mutation(
                        arg, call,
                        f"helper '{fn.id}()' mutates parameter "
                        f"'{positional[i]}', here bound to")
            for kw in call.keywords:
                if kw.arg in summary["mutated"]:
                    self._flag_mutation(
                        kw.value, call,
                        f"helper '{fn.id}()' mutates parameter "
                        f"'{kw.arg}', here bound to")

    def _flag_mutation(self, expr: ast.expr, call: ast.Call,
                       how: str) -> None:
        base, depth, _ = _peel(expr)
        if base is None:
            return
        state = self.own.get(base, OWNED)
        if base in self.published:
            self._emit_published(call, base)
        elif state == BORROWED or (state == ELEM_BORROWED and depth >= 1):
            self._emit_borrowed(call, base, how)

    def _publish(self, payload: ast.expr | None, op: str,
                 lineno: int) -> None:
        if payload is None:
            return
        if isinstance(payload, ast.Name):
            self.published[payload.id] = (op, lineno)
        elif isinstance(payload, (ast.List, ast.Tuple)):
            for e in payload.elts:
                self._publish(e, op, lineno)
        elif isinstance(payload, ast.Starred):
            self._publish(payload.value, op, lineno)

    # -- ownership classification ------------------------------------------
    def _ownership(self, expr: ast.expr | None) -> int:
        if expr is None or isinstance(expr, ast.Constant):
            return OWNED
        if isinstance(expr, ast.Name):
            return self.own.get(expr.id, OWNED)
        if isinstance(expr, ast.Attribute):
            return self._ownership(expr.value)
        if isinstance(expr, ast.Subscript):
            inner = self._ownership(expr.value)
            # An element/slice of a shared container (or a view of a
            # shared array) is itself shared.
            return BORROWED if inner > OWNED else OWNED
        if isinstance(expr, ast.Call):
            return self._call_ownership(expr)
        if isinstance(expr, ast.IfExp):
            return max(self._ownership(expr.body),
                       self._ownership(expr.orelse))
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            inner = max((self._ownership(e) for e in expr.elts),
                        default=OWNED)
            return ELEM_BORROWED if inner > OWNED else OWNED
        if isinstance(expr, ast.Dict):
            inner = max((self._ownership(v) for v in expr.values
                         if v is not None), default=OWNED)
            return ELEM_BORROWED if inner > OWNED else OWNED
        if isinstance(expr, ast.NamedExpr):
            level = self._ownership(expr.value)
            for name in _target_names(expr.target):
                self.own[name] = level
            return level
        if isinstance(expr, ast.Starred):
            return self._ownership(expr.value)
        return OWNED  # BinOp/Compare/comprehensions build fresh values

    def _call_ownership(self, call: ast.Call) -> int:
        op = _collective_op(call)
        if op is not None:
            if op in ALIASING and _copy_false(call):
                return ELEM_BORROWED if op in ELEMENTWISE else BORROWED
            return OWNED  # copy=True results and reductions are owned
        fn = call.func
        if isinstance(fn, ast.Attribute):
            if fn.attr == "own" and _is_comm_expr(fn.value):
                return OWNED  # the explicit copy-escape
            if fn.attr in _VIEW_METHODS:
                return self._ownership(fn.value)
            if fn.attr in _PASSTHROUGH_FUNCS:
                return max((self._ownership(a) for a in call.args),
                           default=OWNED)
            return OWNED  # .copy()/.astype()/reductions: owned
        if isinstance(fn, ast.Name) and fn.id in _SHALLOW_BUILTINS:
            inner = max((self._ownership(a) for a in call.args),
                        default=OWNED)
            return ELEM_BORROWED if inner > OWNED else OWNED
        return OWNED


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------
def lint_ownership(tree: ast.Module, path: str,
                   select: frozenset[str]) -> list[Finding]:
    """Run the ownership rules over every function of a parsed module."""
    mutators = _mutation_summaries(tree)
    findings: list[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            findings.extend(
                _OwnershipLinter(node, path, select, mutators).run())
    return findings
