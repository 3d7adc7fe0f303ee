"""Shared AST primitives for the static SPMD passes.

Every rule family — collective *schedule* (:mod:`.spmdlint`,
SPMD001–005 and SPMD009–011), buffer *ownership* (:mod:`.racecheck`,
SPMD006–008), backend *portability* (:mod:`.picklecheck`, SPMD012) and
*distribution* state (:mod:`.distcheck`, SPMD013–016, PERF001–003) —
recognizes collective call sites the same way, classifies expressions
over the same replication lattice, and reports through the same
:class:`Finding` record, so those pieces live here.

The replication lattice
-----------------------
Every expression is classified into a three-level lattice:

``REPLICATED``
    provably identical on all ranks under the codebase's conventions:
    constants, function arguments (``run_spmd`` passes the same arguments
    to every rank), module-level names, and the results of uniform-result
    collectives (``allreduce``, ``bcast``, ``allgather``, ``allgatherv``);
``RANK_LOCAL``
    potentially different per rank: results of per-rank collectives
    (``alltoallv``, ``gather``, ``scan``, …) and anything derived;
``RANK_DEPENDENT``
    explicitly keyed on the rank id (``comm.rank`` or any ``.rank``
    attribute) and anything derived from it.

:func:`_classify` computes the level of one expression under an
:class:`_Env` (name → level); :func:`_infer_env` runs the fixpoint over a
function body so taint flows through assignment chains.  An ``_Env`` may
carry a ``call_level`` hook: the schedule rules use it to classify calls
to *known* functions from their interprocedural summaries, and fall back
to the conservative max-over-arguments join for every other call.

Sub-communicators
-----------------
``comm.split`` / ``comm.rows`` / ``comm.cols`` return communicators over
a *subgroup* of the world.  The schedule rules (SPMD001–005) and the
reduction-shape rule (SPMD016) model the world-wide schedule, so
collectives issued on a sub-communicator are out of their scope:
:func:`_is_subcomm_name` recognizes the naming convention (``row_comm``,
``col_comm``, ``sub_comm``, ``grid_comm``, …) and :func:`_subcomm_names`
tracks names assigned from a factory call regardless of spelling.  The
factory call itself stays a world collective site; subgroup-internal
consistency is enforced at runtime by the verifier, whose collective
signatures are scoped to the subgroup a ``split`` creates.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

__all__ = ["Finding", "COLLECTIVES", "UNIFORM_RESULT", "SUBCOMM_FACTORIES",
           "REPLICATED", "RANK_LOCAL", "RANK_DEPENDENT"]

#: Collective method names recognized on a communicator receiver.
COLLECTIVES = frozenset({
    "barrier", "bcast", "gather", "allgather", "scatter", "alltoall",
    "allreduce", "reduce", "scan", "exscan", "allgatherv", "gatherv",
    "reduce_scatter", "alltoallv", "alltoallv_flat", "alltoallv_plan",
    "split", "rows", "cols",
})

#: Sub-communicator factories: *calling* one is a world collective (it
#: is ``split`` or the cached grid wrapper), but collectives issued on
#: the returned communicator are scoped to the subgroup, so the schedule
#: rules must not count them as world-wide sites (see spmdlint).
SUBCOMM_FACTORIES = frozenset({"split", "rows", "cols"})

#: Collectives whose result is identical on every rank.
UNIFORM_RESULT = frozenset(
    {"allreduce", "bcast", "allgather", "allgatherv", "barrier"})

# Expression replication lattice (monotone: larger = less replicated).
REPLICATED, RANK_LOCAL, RANK_DEPENDENT = 0, 1, 2


@dataclass
class Finding:
    """One lint finding (or suppressed would-be finding)."""

    rule: str
    message: str
    path: str
    line: int
    col: int
    function: str = "<module>"
    suppressed: bool = False
    baselined: bool = False
    #: Optional mechanical edit (JSON-able dict, see .fixer): kind
    #: "replace" (line/col span -> text) or "hoist" (move lines above a
    #: loop); "apply" False marks suggestion-only fixes (SARIF surfaces
    #: them, ``repro check --fix`` does not apply them).
    fix: dict | None = None

    def format(self) -> str:
        tag = (" (suppressed)" if self.suppressed
               else " (baselined)" if self.baselined else "")
        return (f"{self.path}:{self.line}:{self.col}: {self.rule} "
                f"[{self.function}] {self.message}{tag}")


def _final_identifier(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_comm_name(name: str) -> bool:
    """Word-boundary communicator-name test.

    ``comm``, ``sub_comm``, ``comm_world``, ``mpi_comm`` are communicators;
    ``common``, ``community``, ``recommend`` are not.  An identifier counts
    only when one of its ``_``-separated segments is exactly ``comm``.
    """
    return any(seg == "comm" for seg in name.lower().split("_"))


def _is_comm_expr(node: ast.expr) -> bool:
    ident = _final_identifier(node)
    return ident is not None and _is_comm_name(ident)


#: Name segments that mark a communicator identifier as subgroup-scoped.
_SUBCOMM_QUALIFIERS = frozenset(
    {"row", "rows", "col", "cols", "sub", "grid", "group"})


def _is_subcomm_name(name: str) -> bool:
    """Word-boundary *sub*-communicator-name test.

    ``row_comm``, ``col_comm``, ``sub_comm``, ``grid_comm`` name subgroup
    communicators by convention (a qualifying segment next to the
    ``comm`` segment); plain ``comm``, ``mpi_comm`` and ``comm_world``
    stay world communicators.
    """
    segs = name.lower().split("_")
    return "comm" in segs and not _SUBCOMM_QUALIFIERS.isdisjoint(segs)


def _subcomm_factory_op(call: ast.Call) -> str | None:
    """Factory name when ``call`` is ``<comm>.{split|rows|cols}(...)``."""
    op = _collective_op(call)
    return op if op in SUBCOMM_FACTORIES else None


def _subcomm_names(fn: ast.AST) -> frozenset[str]:
    """Names bound (directly or via aliasing) to sub-communicators.

    A name is subgroup-scoped when assigned from a subcomm factory call
    (``comm.split`` / ``comm.rows`` / ``comm.cols``), from another
    subcomm name, or from an attribute whose final identifier follows
    the subcomm naming convention (``self.col_comm``).
    """
    names: set[str] = set()

    def _value_is_subcomm(value: ast.expr) -> bool:
        if isinstance(value, ast.Call):
            return _subcomm_factory_op(value) is not None
        if isinstance(value, ast.Name):
            return value.id in names or _is_subcomm_name(value.id)
        if isinstance(value, ast.Attribute):
            return _is_subcomm_name(value.attr)
        return False

    for _ in range(4):
        before = len(names)
        for node in _walk_in_scope(fn):
            if isinstance(node, ast.Assign) and _value_is_subcomm(node.value):
                for tgt in node.targets:
                    names.update(_target_names(tgt))
            elif (isinstance(node, ast.AnnAssign) and node.value is not None
                    and _value_is_subcomm(node.value)):
                names.update(_target_names(node.target))
        if len(names) == before:
            break
    return frozenset(names)


def _is_subcomm_receiver(call: ast.Call,
                         names: frozenset[str] = frozenset()) -> bool:
    """Is this collective issued *on* a subgroup communicator?

    The factory call itself (``comm.split(...)``) is not a subcomm site
    — creating the group is a world collective; only operations on the
    result are subgroup-scoped.  ``names`` carries the in-scope names
    known to be split-derived (from :func:`_subcomm_names`); the naming
    convention applies even without it.
    """
    fn = call.func
    if not isinstance(fn, ast.Attribute):
        return False
    ident = _final_identifier(fn.value)
    return ident is not None and (ident in names or _is_subcomm_name(ident))


def _collective_op(call: ast.Call) -> str | None:
    """Name of the collective when ``call`` is ``<comm>.{op}(...)``."""
    fn = call.func
    if (isinstance(fn, ast.Attribute) and fn.attr in COLLECTIVES
            and _is_comm_expr(fn.value)):
        return fn.attr
    return None


def _target_names(target: ast.AST) -> list[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        out: list[str] = []
        for elt in target.elts:
            out.extend(_target_names(elt))
        return out
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    return []  # subscript/attribute stores do not (re)bind a name


def _fn_params(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    """Every parameter name of a function, in declaration order."""
    args = fn.args
    params = [a.arg for a in (args.posonlyargs + args.args + args.kwonlyargs)]
    if args.vararg:
        params.append(args.vararg.arg)
    if args.kwarg:
        params.append(args.kwarg.arg)
    return params


_SCOPE_BARRIERS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                   ast.Lambda)


def _walk_in_scope(node: ast.AST) -> Iterable[ast.AST]:
    """Walk a subtree without descending into nested function/class scopes."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, _SCOPE_BARRIERS):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


# ---------------------------------------------------------------------------
# replication classification
# ---------------------------------------------------------------------------
class _Env:
    """Name -> lattice level for one function scope (default: replicated).

    ``call_level`` is an optional hook ``(call, env) -> level | None`` that
    classifies calls to functions with known summaries; ``None`` falls
    back to the max-over-subexpressions join.
    """

    def __init__(self, params: Sequence[str],
                 call_level: Callable[[ast.Call, "_Env"], int | None]
                 | None = None):
        self.levels: dict[str, int] = {}
        self.call_level = call_level
        for p in params:
            # A parameter literally named "rank" carries the rank id.
            self.levels[p] = RANK_DEPENDENT if p == "rank" else REPLICATED

    def get(self, name: str) -> int:
        return self.levels.get(name, REPLICATED)

    def join(self, name: str, level: int) -> None:
        self.levels[name] = max(self.levels.get(name, REPLICATED), level)


def _classify(node: ast.AST | None, env: _Env) -> int:
    """Lattice level of an expression (monotone max over sub-expressions)."""
    if node is None:
        return REPLICATED
    if isinstance(node, ast.Constant):
        return REPLICATED
    if isinstance(node, ast.Name):
        return env.get(node.id)
    if isinstance(node, ast.Attribute):
        if node.attr == "rank":
            return RANK_DEPENDENT
        if node.attr == "size" and _is_comm_expr(node.value):
            return REPLICATED
        return _classify(node.value, env)
    if isinstance(node, ast.Call):
        op = _collective_op(node)
        if op is not None:
            # Replicated results stay replicated regardless of their inputs.
            return (REPLICATED if op in UNIFORM_RESULT else RANK_LOCAL)
        if env.call_level is not None:
            known = env.call_level(node, env)
            if known is not None:
                return known
        level = _classify(node.func, env)
        for arg in node.args:
            level = max(level, _classify(arg, env))
        for kw in node.keywords:
            level = max(level, _classify(kw.value, env))
        return level
    if isinstance(node, ast.Lambda):
        return REPLICATED
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                         ast.DictComp)):
        level = REPLICATED
        for gen in node.generators:
            it_level = _classify(gen.iter, env)
            level = max(level, it_level)
            for name in _target_names(gen.target):
                env.join(name, it_level)
            for cond in gen.ifs:
                level = max(level, _classify(cond, env))
        if isinstance(node, ast.DictComp):
            level = max(level, _classify(node.key, env),
                        _classify(node.value, env))
        else:
            level = max(level, _classify(node.elt, env))
        return level
    if isinstance(node, ast.NamedExpr):
        level = _classify(node.value, env)
        for name in _target_names(node.target):
            env.join(name, level)
        return level
    level = REPLICATED
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.expr, ast.keyword)):
            level = max(level, _classify(child, env))
    return level


def _infer_env(fn: ast.AST, params: Sequence[str],
               call_level: Callable[[ast.Call, _Env], int | None]
               | None = None,
               overrides: dict[str, int] | None = None) -> _Env:
    """Fixpoint pass over assignments so taint flows through name chains.

    ``overrides`` pins selected names to a starting level — the summary
    builder uses it to taint one parameter at a time and observe where the
    taint flows.
    """
    env = _Env(params, call_level=call_level)
    if overrides:
        env.levels.update(overrides)
    for _ in range(8):
        before = dict(env.levels)
        for node in _walk_in_scope(fn):
            if isinstance(node, ast.Assign):
                level = _classify(node.value, env)
                for tgt in node.targets:
                    for name in _target_names(tgt):
                        env.join(name, level)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                level = _classify(node.value, env)
                for name in _target_names(node.target):
                    env.join(name, level)
            elif isinstance(node, ast.AugAssign):
                level = _classify(node.value, env)
                for name in _target_names(node.target):
                    env.join(name, level)
            elif isinstance(node, ast.For):
                level = _classify(node.iter, env)
                for name in _target_names(node.target):
                    env.join(name, level)
            elif isinstance(node, ast.withitem):
                if node.optional_vars is not None:
                    level = _classify(node.context_expr, env)
                    for name in _target_names(node.optional_vars):
                        env.join(name, level)
        if overrides:
            env.levels.update(overrides)
        if env.levels == before:
            break
    return env
