"""The one statement walker shared by the flow-sensitive rule families.

The schedule (:mod:`.spmdlint`), ownership (:mod:`.racecheck`) and
distribution (:mod:`.distcheck`) families each walk one function body in
control-flow order.  :class:`FlowWalker` owns that walk:

* scope barriers — nested ``def``/``class``/``lambda`` bodies are skipped
  (every function is walked as its own scope);
* ``if`` arms, each run from a copy of the flow state and joined
  afterwards;
* loop bodies, walked twice with the first pass silent, so facts created
  late in the body reach its top when the reporting pass runs (a
  stateless family has nothing to carry and walks its loops once);
* ``try`` and ``with`` blocks;
* the stack of enclosing loops and the strongest rank-dependent guard.

A family keeps only its own state, join and transfer rules: it sets
:attr:`state` to an object with ``copy()`` and an in-place
``join(other)``, and overrides the hooks below.
"""

from __future__ import annotations

import ast
from typing import Sequence

from ._astutil import (
    RANK_DEPENDENT,
    RANK_LOCAL,
    REPLICATED,
    _SCOPE_BARRIERS,
    Finding,
)

__all__ = ["FlowWalker"]


class FlowWalker:
    """Walks one function's statements and reports through :meth:`_emit`."""

    #: Flow state (``copy()`` / in-place ``join(other)``); ``None`` for a
    #: stateless family.
    state = None
    #: Join the loop-entry state back in after each body pass (the body
    #: may run zero times).  A family rule: ownership does not, the
    #: distribution family does.
    rejoin_loop_entry = False

    def __init__(self, fn: ast.FunctionDef | ast.AsyncFunctionDef,
                 path: str, select: frozenset[str]):
        self.fn = fn
        self.path = path
        self.select = select
        self.findings: list[Finding] = []
        self.emitting = True
        #: Enclosing loops, innermost last.
        self.loops: list[ast.stmt] = []
        #: Strongest divergent guard around the current statement:
        #: "rank-dependent" > "rank-local" > None.
        self.guard: str | None = None
        self._seen: set[tuple] = set()

    # -- family hooks ---------------------------------------------------------
    def test_level(self, test: ast.expr) -> int:
        """Replication level of an ``if`` test (drives :attr:`guard`)."""
        return REPLICATED

    def enter_if(self, stmt: ast.If, level: int) -> None:
        """Before the arms of an ``if``."""

    def loop_head(self, stmt: ast.For | ast.AsyncFor | ast.While) -> None:
        """Before each pass over a loop body: the loop test or iterable,
        and the loop target."""

    def enter_with(self, stmt: ast.With | ast.AsyncWith) -> None:
        """Before a ``with`` body: the context managers and their targets."""

    def transfer(self, stmt: ast.stmt) -> None:
        """A statement that opens no block."""

    def leave_stmt(self, stmt: ast.stmt) -> None:
        """After a statement and every block it opens."""

    # -- reporting ------------------------------------------------------------
    def _emit(self, rule: str, node: ast.AST, message: str,
              fix: dict | None = None) -> None:
        if rule not in self.select or not self.emitting:
            return
        key = (rule, node.lineno, node.col_offset, message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(Finding(
            rule=rule, message=message, path=self.path,
            line=node.lineno, col=node.col_offset + 1,
            function=self.fn.name, fix=fix))

    # -- the walk -------------------------------------------------------------
    def walk(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self.walk_stmt(stmt)

    def walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, _SCOPE_BARRIERS):
            return  # nested scopes are walked as their own functions
        if isinstance(stmt, ast.If):
            self._walk_if(stmt)
        elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            self._walk_loop(stmt)
        elif isinstance(stmt, ast.Try):
            self.walk(stmt.body)
            for handler in stmt.handlers:
                self.walk(handler.body)
            self.walk(stmt.orelse)
            self.walk(stmt.finalbody)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            self.enter_with(stmt)
            self.walk(stmt.body)
        else:
            self.transfer(stmt)
        self.leave_stmt(stmt)

    def _walk_if(self, stmt: ast.If) -> None:
        level = self.test_level(stmt.test)
        self.enter_if(stmt, level)
        outer = self.guard
        if level == RANK_DEPENDENT:
            self.guard = "rank-dependent"
        elif level == RANK_LOCAL and outer != "rank-dependent":
            self.guard = "rank-local"
        entry = self.state.copy() if self.state is not None else None
        self.walk(stmt.body)
        body_exit, self.state = self.state, entry
        self.walk(stmt.orelse)
        if self.state is not None:
            self.state.join(body_exit)
        self.guard = outer

    def _walk_loop(self, stmt: ast.For | ast.AsyncFor | ast.While) -> None:
        entry = self.state.copy() if self.rejoin_loop_entry else None
        emitting = self.emitting
        for loud in ((True,) if self.state is None else (False, True)):
            self.emitting = emitting and loud
            self.loop_head(stmt)
            self.loops.append(stmt)
            self.walk(stmt.body)
            self.loops.pop()
            if entry is not None:
                self.state.join(entry)
        self.emitting = emitting
        self.walk(stmt.orelse)
