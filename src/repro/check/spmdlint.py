"""The collective-schedule rules, the rule catalog and the reports.

Model
-----
The analyzer treats every function that issues a collective — a call
``X.<op>(...)`` whose receiver's final identifier is communicator-named
(``comm``, ``*_comm``, ``comm_*``) — as an SPMD function, and classifies
every expression into the three-level replication lattice shared by all
static passes (see :mod:`._astutil`): ``REPLICATED`` < ``RANK_LOCAL`` <
``RANK_DEPENDENT``.

The heuristic is deliberately precision-first (a lint finding should almost
always be real): attributes of parameters (``g.n_global``) are assumed
replicated, so rank-locality enters only through ``comm.rank`` and the
per-rank collectives.  Calls that *forward* the communicator
(``helper(comm, …)``) count as collective sites for schedule purposes.
The rules are interprocedural: calls to summarized collective-issuing
helpers (:mod:`.summaries`) are schedule sites too, and calls to
summarized functions classify from their summaries, so SPMD001–005 and
the cross-call rules SPMD009–011 fire across call boundaries.

The schedule the rules model is the *world* schedule.  Collectives on a
sub-communicator (the result of ``comm.split``/``rows``/``cols``, or any
name following the ``row_comm``/``col_comm``/``sub_comm`` convention) are
scoped to their subgroup and exempt from SPMD001–005/SPMD016: a globally
rank-dependent guard such as ``rank // grid_cols == 0`` is uniform within
every grid-row subgroup, so exempting these sites is what keeps the 2-D
kernels lintable (``tests/fixtures/deep/clean_subcomm.py`` pins the
behavior).  The factory call itself remains a world collective site, and
subgroup-internal consistency is enforced at runtime by the verifier.

Findings carry a rule id, a precise ``path:line:col`` span, and honor
``# spmdlint: disable[=SPMD001[,SPMD002]]`` on the flagged line (or
``# spmdlint: disable-file`` anywhere in the file).
"""

from __future__ import annotations

import ast
import json
import re
from collections import Counter
from dataclasses import asdict
from typing import Iterable, Sequence

from ._astutil import (
    RANK_DEPENDENT,
    RANK_LOCAL,
    REPLICATED,
    Finding,
    _classify,
    _collective_op,
    _Env,
    _final_identifier,
    _fn_params,
    _infer_env,
    _is_comm_name,
    _is_subcomm_name,
    _is_subcomm_receiver,
    _subcomm_names,
    _target_names,
    _walk_in_scope,
)
from .distcheck import DIST_RULES, PERF_RULES
from .picklecheck import PORTABILITY_RULES
from .racecheck import OWNERSHIP_RULES
from .walker import FlowWalker

__all__ = ["Finding", "RULES", "SCHEDULE_RULES", "OWNERSHIP_RULES",
           "DEEP_RULES", "PORTABILITY_RULES", "DIST_RULES", "PERF_RULES",
           "RULE_DOCS", "RULE_FIXES", "lint_schedule",
           "render_text", "render_json", "render_github", "render_sarif",
           "suppression_hint"]

# ---------------------------------------------------------------------------
# rule catalog
# ---------------------------------------------------------------------------
#: Collective-*schedule* rules implemented by this module.
SCHEDULE_RULES: dict[str, str] = {
    "SPMD001": "rank-divergent collective: the arms of a rank-dependent "
               "branch issue different collectives",
    "SPMD002": "conditional early exit (return/raise/continue/break) under "
               "a rank-dependent or rank-local condition skips later "
               "collectives",
    "SPMD003": "collective inside a loop whose trip count is not derived "
               "from a replicated value (allreduce/bcast result, argument, "
               "or constant)",
    "SPMD004": "object-pickling collective on a hot path (inside a loop) "
               "where a buffer collective exists",
    "SPMD005": "reduction input built from unordered set iteration "
               "(ordering is not deterministic across ranks)",
}

#: Schedule rules that exist only across call boundaries (this module).
DEEP_RULES: dict[str, str] = {
    "SPMD009": "collective (transitively, through helper calls) reachable "
               "only under rank-dependent control flow: some ranks issue "
               "it, others never do",
    "SPMD010": "rank-dependent value passed into a parameter the callee "
               "uses to gate or size a collective",
    "SPMD011": "conflicting transitive collective sequences on the two "
               "paths to the same join point",
}

#: Every rule the ``repro check`` pass knows: schedule rules (this module,
#: intraprocedural and cross-call), buffer-ownership rules
#: (:mod:`.racecheck`), backend-portability rules (:mod:`.picklecheck`),
#: and distribution-state + perf rules (:mod:`.distcheck`).
RULES: dict[str, str] = {**SCHEDULE_RULES, **OWNERSHIP_RULES,
                         **DEEP_RULES, **PORTABILITY_RULES,
                         **DIST_RULES, **PERF_RULES}

#: Where each rule is documented (repo-relative anchor into DESIGN.md).
RULE_DOCS: dict[str, str] = {
    **{rule: "DESIGN.md#8-spmd-correctness-suite"
       for rule in SCHEDULE_RULES},
    **{rule: "DESIGN.md#9-buffer-ownership-model"
       for rule in OWNERSHIP_RULES},
    **{rule: "DESIGN.md#13-whole-program-spmd-analysis"
       for rule in {**DEEP_RULES, **PORTABILITY_RULES}},
    **{rule: "DESIGN.md#14-distribution-state-abstract-interpretation"
       for rule in {**DIST_RULES, **PERF_RULES}},
}

#: One-line fix advice per rule (rendered into SARIF rule help and README).
RULE_FIXES: dict[str, str] = {
    "SPMD001": "issue the same collective schedule on both arms (non-roots "
               "pass None/empty payloads) instead of branching the schedule",
    "SPMD002": "hoist the exit decision into a replicated value (allreduce "
               "the predicate) so every rank exits together",
    "SPMD003": "derive the trip count from an allreduce/bcast result so "
               "every rank runs the same number of iterations",
    "SPMD004": "switch to the buffer collective (gatherv/allgatherv/"
               "alltoallv) on the hot path",
    "SPMD005": "sort the set before reducing (len/min/max are fine as-is)",
    "SPMD006": "take comm.own(payload) (or drop copy=False) before writing",
    "SPMD007": "mutate a copy, or re-bind the name to fresh data before "
               "writing the published buffer",
    "SPMD008": "store comm.own(payload) / payload.copy() instead of the "
               "borrow",
    "SPMD009": "call the helper on every rank (it can no-op internally via "
               "replicated state) so the schedule stays uniform",
    "SPMD010": "replicate the value first (allreduce/bcast it) before "
               "passing it to a parameter that gates or sizes collectives",
    "SPMD011": "make both paths issue the same transitive collective "
               "sequence, or hoist the collectives above the branch",
    "SPMD012": "move the callable to module level and pass data through "
               "picklable arguments (see DESIGN.md §12 fn specs)",
    "SPMD013": "translate between index spaces at the boundary: "
               "map.get(gids) for global -> local, unmap[lids] for "
               "local -> global (--fix wraps the mechanical case)",
    "SPMD014": "insert a halo exchange between the local write and the "
               "ghost read (or read before writing)",
    "SPMD015": "reduce the owned slice x[:n_loc] (ghosts are counted by "
               "their owner rank)",
    "SPMD016": "size/type the reduction buffer from a replicated value "
               "(n_global, comm.size, an allreduce result)",
    "PERF001": "hoist the collective above the loop (--fix does this "
               "mechanically when the result name is loop-private)",
    "PERF002": "send the un-split payload through alltoallv_flat(payload, "
               "counts) or a persistent AlltoallvPlan",
    "PERF003": "allocate the buffer once before the loop and reuse it "
               "(--fix hoists np.empty allocations)",
}


def suppression_hint(rule: str) -> str:
    """The inline comment that suppresses ``rule`` on the flagged line."""
    return f"# spmdlint: disable={rule}"


#: Object (pickling) collectives and their buffer replacements.
BUFFER_ALTERNATIVE = {
    "gather": "gatherv",
    "allgather": "allgatherv",
    "alltoall": "alltoallv",
    "bcast": "allgatherv (all ranks contribute, non-roots an empty buffer)",
}

#: Reduction collectives (checked by SPMD005).
REDUCTIONS = frozenset(
    {"allreduce", "reduce", "reduce_scatter", "scan", "exscan"})


# ---------------------------------------------------------------------------
# suppression comments
# ---------------------------------------------------------------------------
_DISABLE_FILE_RE = re.compile(
    r"#\s*spmdlint:\s*disable-file(?:=(?P<rules>[A-Za-z0-9_, ]+))?")
_DISABLE_RE = re.compile(
    r"#\s*spmdlint:\s*disable(?!-)(?:=(?P<rules>[A-Za-z0-9_, ]+))?")


def _parse_suppressions(source: str) -> tuple[dict[int, set[str]], set[str]]:
    """Per-line and file-wide suppression sets ("ALL" disables every rule)."""
    per_line: dict[int, set[str]] = {}
    file_wide: set[str] = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        if "spmdlint" not in line:
            continue
        m = _DISABLE_FILE_RE.search(line)
        if m:
            rules = m.group("rules")
            file_wide |= ({r.strip() for r in rules.split(",") if r.strip()}
                          if rules else {"ALL"})
            continue
        m = _DISABLE_RE.search(line)
        if m:
            rules = m.group("rules")
            per_line[lineno] = ({r.strip() for r in rules.split(",")
                                 if r.strip()} if rules else {"ALL"})
    return per_line, file_wide


def apply_suppressions(findings: Iterable[Finding], source: str) -> None:
    """Mark findings muted by inline/file-wide suppression comments."""
    per_line, file_wide = _parse_suppressions(source)
    for f in findings:
        line_rules = per_line.get(f.line, set())
        if ("ALL" in file_wide or f.rule in file_wide
                or "ALL" in line_rules or f.rule in line_rules):
            f.suppressed = True


# ---------------------------------------------------------------------------
# collective-site recognition (shared primitives live in ._astutil)
# ---------------------------------------------------------------------------
def _forwards_comm(call: ast.Call,
                   subcomm_names: frozenset[str] = frozenset()) -> bool:
    """True when the call passes a *world* communicator onward.

    Forwarding only sub-communicators does not make the call a world
    schedule site: the callee's collectives are scoped to the subgroup.
    """
    for arg in list(call.args) + [kw.value for kw in call.keywords]:
        if isinstance(arg, ast.Name) and _is_comm_name(arg.id):
            if arg.id in subcomm_names or _is_subcomm_name(arg.id):
                continue
            return True
    return False


def _site_label(call: ast.Call,
                subcomm_names: frozenset[str] = frozenset()) -> str | None:
    """Schedule label of a call: a collective op or a comm-forwarding call.

    Collectives issued *on* a sub-communicator are not world sites (the
    factory call itself — ``comm.split``/``rows``/``cols`` — still is).
    """
    op = _collective_op(call)
    if op is not None:
        if _is_subcomm_receiver(call, subcomm_names):
            return None
        return op
    if _forwards_comm(call, subcomm_names):
        ident = _final_identifier(call.func)
        return f"call:{ident or '<dynamic>'}"
    return None


# ---------------------------------------------------------------------------
# the schedule linter
# ---------------------------------------------------------------------------
class _ScheduleLinter(FlowWalker):
    """Applies every schedule rule to one function scope.

    A stateless family on the shared walker: it reads the walker's guard
    and loop stacks, and its hooks only check.  Summaries come in twice —
    calls to collective-issuing helpers are schedule *sites* (so SPMD002
    and SPMD003 fire across call boundaries), and calls to summarized
    functions classify from their summaries (so a helper returning
    ``comm.rank``-derived data taints its caller).
    """

    def __init__(self, fn: ast.FunctionDef | ast.AsyncFunctionDef,
                 path: str, select: frozenset[str], mod, table):
        super().__init__(fn, path, select)
        self.mod = mod
        self.table = table
        self.subcomm_names = _subcomm_names(fn)
        self._call_level = table.call_level(mod)
        self.env = _infer_env(fn, _fn_params(fn),
                              call_level=self._call_level)
        self.sites = self._sites_in(fn)
        self.set_names = self._infer_set_names(fn)

    def run(self) -> list[Finding]:
        # SPMD010 findings exist even when this function has no sites of
        # its own (the collectives live in the callee).
        self._check_call_args()
        if self.sites:
            self.walk(self.fn.body)
        return self.findings

    # -- sites ---------------------------------------------------------------
    def _site_label(self, call: ast.Call) -> str | None:
        label = _site_label(call, self.subcomm_names)
        if label is not None:
            return label
        summary = self.table.for_call(self.mod, call)
        if summary is not None and summary.issues:
            if self._subcomm_only_call(call):
                return None  # callee's schedule runs on the subgroup
            ident = _final_identifier(call.func)
            return f"call:{ident or '<dynamic>'}"
        return None

    def _subcomm_only_call(self, call: ast.Call) -> bool:
        """Every communicator argument of the call is a sub-communicator.

        A summarized helper whose schedule was derived from a ``comm``
        parameter issues subgroup collectives when invoked with a
        row/column communicator — not world sites.
        """
        saw_subcomm = False
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            if isinstance(arg, ast.Name) and _is_comm_name(arg.id):
                if not (arg.id in self.subcomm_names
                        or _is_subcomm_name(arg.id)):
                    return False
                saw_subcomm = True
        return saw_subcomm

    def _sites_in(self, node: ast.AST) -> list[tuple[str, ast.Call]]:
        """All collective sites (direct and indirect) in one scope subtree."""
        out = []
        for child in _walk_in_scope(node):
            if isinstance(child, ast.Call):
                label = self._site_label(child)
                if label is not None:
                    out.append((label, child))
        return out

    def _infer_set_names(self, fn: ast.AST) -> set[str]:
        """Names bound (directly or transitively) to unordered sets."""
        names: set[str] = set()
        for _ in range(4):
            before = len(names)
            for node in _walk_in_scope(fn):
                if (isinstance(node, ast.Assign)
                        and self._has_unordered_input(node.value, names)):
                    for tgt in node.targets:
                        names.update(_target_names(tgt))
                elif (isinstance(node, ast.AnnAssign)
                        and node.value is not None
                        and self._has_unordered_input(node.value, names)):
                    names.update(_target_names(node.target))
            if len(names) == before:
                break
        return names

    def _sites_after(self, node: ast.stmt) -> list[str]:
        end = getattr(node, "end_lineno", node.lineno)
        return [label for label, call in self.sites if call.lineno > end]

    # -- walker hooks --------------------------------------------------------
    def test_level(self, test: ast.expr) -> int:
        return _classify(test, self.env)

    def enter_if(self, stmt: ast.If, level: int) -> None:
        self._check_branch(stmt, level)

    def loop_head(self, stmt) -> None:
        self._check_loop(stmt)

    def transfer(self, stmt: ast.stmt) -> None:
        # Continue/Break bind to the *innermost* enclosing loop.
        if self.guard is None:
            return
        if isinstance(stmt, (ast.Return, ast.Raise)):
            self._check_early_exit(stmt, self.guard)
        elif isinstance(stmt, (ast.Continue, ast.Break)) and self.loops:
            self._check_loop_exit(stmt, self.guard, self.loops[-1])

    def leave_stmt(self, stmt: ast.stmt) -> None:
        # expression-level rules apply to every statement uniformly
        self._check_calls(stmt)

    # -- SPMD001 / SPMD009 / SPMD011 -----------------------------------------
    def _direct_ops(self, stmts: Sequence[ast.stmt]) -> Counter:
        """Direct (collective or comm-forwarding) sites of statements."""
        return Counter(label for s in stmts
                       for label, call in self._sites_in(s)
                       if _site_label(call, self.subcomm_names) is not None)

    def _expanded_ops(self, stmts: Sequence[ast.stmt]) -> list[str]:
        """Transitive collective sequence of a statement list."""
        ops: list[str] = []
        sites = [site for s in stmts for site in self._sites_in(s)]
        sites.sort(key=lambda lc: (lc[1].lineno, lc[1].col_offset))
        for label, call in sites:
            summary = (self.table.for_call(self.mod, call)
                       if label.startswith("call:") else None)
            if summary is not None:
                ops.extend(summary.schedule)
            else:
                ops.append(label)  # a collective, or an unknown forwarder
        return ops

    def _check_branch(self, stmt: ast.If, level: int) -> None:
        """At a rank-dependent ``if``, the most specific of three rules:
        direct sites differ → SPMD001; only one arm's transitive expansion
        issues collectives → SPMD009; both do, in conflicting sequences →
        SPMD011."""
        if level != RANK_DEPENDENT:
            return
        body_direct = self._direct_ops(stmt.body)
        else_direct = self._direct_ops(stmt.orelse)
        if body_direct != else_direct:
            diff = sorted((body_direct - else_direct)
                          + (else_direct - body_direct))
            self._emit(
                "SPMD001", stmt,
                f"rank-dependent branch issues unmatched collectives "
                f"({', '.join(diff)}): every rank must run the same "
                f"schedule on both arms")
            return
        body_ops = self._expanded_ops(stmt.body)
        else_ops = self._expanded_ops(stmt.orelse)
        if body_ops == else_ops:
            return
        if bool(body_ops) != bool(else_ops):
            arm = "true" if body_ops else "else"
            ops = body_ops or else_ops
            self._emit(
                "SPMD009", stmt,
                f"collective schedule ({', '.join(sorted(set(ops))[:4])}) "
                f"is reachable only through the {arm} arm of a "
                f"rank-dependent branch (via helper calls): ranks that "
                f"skip the arm never issue it and the world deadlocks")
        else:
            self._emit(
                "SPMD011", stmt,
                f"the two paths from this rank-dependent branch issue "
                f"conflicting transitive collective sequences "
                f"([{', '.join(body_ops[:4])}] vs "
                f"[{', '.join(else_ops[:4])}]): every rank must reach the "
                f"join point with the same schedule")

    # -- SPMD002 -----------------------------------------------------------
    def _check_early_exit(self, stmt: ast.stmt, cond: str) -> None:
        later = self._sites_after(stmt)
        if later:
            kind = "return" if isinstance(stmt, ast.Return) else "raise"
            self._emit(
                "SPMD002", stmt,
                f"early {kind} under a {cond} condition skips "
                f"{len(later)} later collective(s) "
                f"({', '.join(sorted(set(later))[:4])}): ranks that "
                f"exit here desynchronize the schedule")

    def _check_loop_exit(self, stmt: ast.stmt, cond: str,
                         loop: ast.stmt) -> None:
        loop_sites = [(label, call) for s in loop.body
                      for label, call in self._sites_in(s)]
        if isinstance(stmt, ast.Continue):
            relevant = [label for label, call in loop_sites
                        if call.lineno > stmt.lineno]
            what = "collective(s) later in the loop body"
        else:
            relevant = [label for label, _ in loop_sites]
            what = "collective(s) in the loop body"
        if relevant:
            kw = "continue" if isinstance(stmt, ast.Continue) else "break"
            self._emit(
                "SPMD002", stmt,
                f"'{kw}' under a {cond} condition skips "
                f"{len(relevant)} {what} "
                f"({', '.join(sorted(set(relevant))[:4])})")

    # -- SPMD003 -----------------------------------------------------------
    def _check_loop(self, stmt: ast.While | ast.For) -> None:
        loop_sites = [label for s in stmt.body
                      for label, _ in self._sites_in(s)]
        if not loop_sites:
            return
        driver = stmt.test if isinstance(stmt, ast.While) else stmt.iter
        level = self._loop_driver_level(driver, stmt)
        if level >= RANK_LOCAL:
            kind = "condition" if isinstance(stmt, ast.While) else "iterable"
            self._emit(
                "SPMD003", stmt,
                f"loop {kind} is not replicated across ranks but the body "
                f"issues collectives ({', '.join(sorted(set(loop_sites))[:4])}"
                f"): derive the trip count from an allreduce/bcast so every "
                f"rank runs the same number of iterations")

    def _loop_driver_level(self, driver: ast.expr,
                           loop: ast.While | ast.For) -> int:
        """Flow-refined level of a loop condition/iterable.

        The monotone environment joins every assignment a name ever
        receives, which over-taints the standard refresh idiom::

            total = <local accumulation>          # rank-local
            ...
            total = comm.allreduce(total, SUM)    # replicated again
            while total > 0: ...

        A ``while`` test is re-evaluated after each body execution, so the
        level that matters is the *last* assignment in the body (falling
        back to the last one before the loop).  A ``for`` iterable is
        evaluated once, so only pre-loop assignments count.  The lexically
        last assignment is a heuristic (a conditional reassignment could be
        skipped at runtime) — acceptable for a precision-first linter.
        """
        refined = _Env([], call_level=self._call_level)
        refined.levels = dict(self.env.levels)
        names = {n.id for n in ast.walk(driver) if isinstance(n, ast.Name)}
        for name in names:
            last: tuple[tuple[int, int], int] | None = None  # ((pri, line), lvl)
            for node in _walk_in_scope(self.fn):
                end = getattr(node, "end_lineno", None)
                if end is None:
                    continue
                in_body = node.lineno > loop.lineno and end <= (
                    getattr(loop, "end_lineno", loop.lineno))
                before = end < loop.lineno
                use_body = isinstance(loop, ast.While)
                if not (before or (use_body and in_body)):
                    continue
                bound, level = self._binding_level(node, name)
                if not bound:
                    continue
                # Body assignments dominate pre-loop ones for while tests.
                key = (1 if (use_body and in_body) else 0, end)
                if last is None or key > last[0]:
                    last = (key, level)
            if last is not None:
                refined.levels[name] = last[1]
        return _classify(driver, refined)

    def _binding_level(self, node: ast.AST, name: str) -> tuple[bool, int]:
        """Does ``node`` (re)bind ``name``, and to what lattice level?"""
        if isinstance(node, ast.Assign):
            if any(name in _target_names(t) for t in node.targets):
                return True, _classify(node.value, self.env)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if name in _target_names(node.target):
                return True, _classify(node.value, self.env)
        elif isinstance(node, ast.AugAssign):
            if name in _target_names(node.target):
                # x += rhs depends on the previous x: stay conservative.
                return True, max(_classify(node.value, self.env),
                                 self.env.get(name))
        elif isinstance(node, ast.For):
            if name in _target_names(node.target):
                return True, _classify(node.iter, self.env)
        return False, REPLICATED

    # -- SPMD004 + SPMD005 -------------------------------------------------
    def _check_calls(self, stmt: ast.stmt) -> None:
        # Only inspect calls attached directly to this statement, not ones
        # nested in child blocks (those are visited with their own stmt).
        for node in self._direct_exprs(stmt):
            for call in [c for c in ast.walk(node)
                         if isinstance(c, ast.Call)]:
                op = _collective_op(call)
                if op is None:
                    continue
                if _is_subcomm_receiver(call, self.subcomm_names):
                    continue  # subgroup-scoped: not the world hot path
                if self.loops and op in BUFFER_ALTERNATIVE:
                    self._emit(
                        "SPMD004", call,
                        f"object-pickling collective '{op}' inside a loop "
                        f"serializes per call; use the buffer collective "
                        f"'{BUFFER_ALTERNATIVE[op]}' on this hot path")
                if op in REDUCTIONS and call.args:
                    if self._has_unordered_input(call.args[0],
                                                 self.set_names):
                        self._emit(
                            "SPMD005", call,
                            f"reduction '{op}' input iterates an unordered "
                            f"set; ordering differs across ranks, making "
                            f"the reduction non-deterministic — sort first")

    def _direct_exprs(self, stmt: ast.stmt) -> list[ast.expr]:
        out: list[ast.expr] = []
        for fname, value in ast.iter_fields(stmt):
            if fname in ("body", "orelse", "finalbody", "handlers"):
                continue
            if isinstance(value, ast.expr):
                out.append(value)
            elif isinstance(value, list):
                out.extend(v for v in value if isinstance(v, ast.expr))
        return out

    @classmethod
    def _has_unordered_input(cls, value: ast.AST,
                             set_names: set[str]) -> bool:
        """True if the expression iterates an unordered set.

        ``len``/``sorted``/``min``/``max`` are order-insensitive sinks, so
        sets flowing only through them are fine.
        """
        if isinstance(value, (ast.Set, ast.SetComp)):
            return True
        if isinstance(value, ast.Name):
            return value.id in set_names
        if isinstance(value, ast.Call):
            fname = (value.func.id if isinstance(value.func, ast.Name)
                     else None)
            if fname in ("set", "frozenset"):
                return True
            if fname in ("len", "sorted", "min", "max"):
                return False
        return any(cls._has_unordered_input(child, set_names)
                   for child in ast.iter_child_nodes(value))

    # -- SPMD010 -------------------------------------------------------------
    def _check_call_args(self) -> None:
        for call in _walk_in_scope(self.fn):
            if not isinstance(call, ast.Call):
                continue
            summary = self.table.for_call(self.mod, call)
            if summary is None:
                continue
            sinks = summary.gate_params | summary.size_params
            if not sinks:
                continue
            for pname, expr in summary.bind_args(call):
                if pname not in sinks:
                    continue
                if _classify(expr, self.env) != RANK_DEPENDENT:
                    continue
                how = ("gates" if pname in summary.gate_params else "sizes")
                self._emit(
                    "SPMD010", expr,
                    f"rank-dependent value passed to parameter '{pname}' "
                    f"of '{summary.key.rsplit('.', 1)[-1]}', which {how} "
                    f"a collective inside the callee: ranks would run "
                    f"divergent schedules — replicate the value "
                    f"(allreduce/bcast) first")


def lint_schedule(mod, table, select: frozenset[str]) -> list[Finding]:
    """Run the schedule rules over every function of one module."""
    findings: list[Finding] = []
    for node in ast.walk(mod.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            findings.extend(_ScheduleLinter(node, str(mod.path), select,
                                            mod, table).run())
    return findings

def render_text(findings: Sequence[Finding],
                show_suppressed: bool = False) -> str:
    """Human-readable report (one line per finding + a summary line)."""
    active = [f for f in findings if not f.suppressed and not f.baselined]
    muted = [f for f in findings if f.suppressed or f.baselined]
    lines = [f.format() for f in active]
    if show_suppressed:
        lines += [f.format() for f in muted]
    n_supp = sum(1 for f in findings if f.suppressed)
    n_base = sum(1 for f in findings if f.baselined and not f.suppressed)
    tail = f"spmdlint: {len(active)} finding(s), {n_supp} suppressed"
    if n_base:
        tail += f", {n_base} baselined"
    lines.append(tail)
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    """Machine-readable report: rule counts plus every finding.

    Each finding carries its rule's documentation anchor (``doc``) and the
    exact inline comment that would suppress it (``suppress``), so CI
    consumers can surface actionable context without a rule lookup table.
    """
    active = [f for f in findings if not f.suppressed and not f.baselined]
    counts = Counter(f.rule for f in active)
    payload = {
        "findings": [
            {**asdict(f),
             "doc": RULE_DOCS.get(f.rule, "DESIGN.md"),
             "suppress": suppression_hint(f.rule)}
            for f in findings
        ],
        "counts": {rule: counts.get(rule, 0) for rule in sorted(RULES)},
        "total": len(active),
        "suppressed": sum(1 for f in findings if f.suppressed),
        "baselined": sum(1 for f in findings
                         if f.baselined and not f.suppressed),
    }
    return json.dumps(payload, indent=2)


def render_github(findings: Sequence[Finding]) -> str:
    """GitHub Actions workflow annotations (``::error file=...``).

    One ``::error`` command per unsuppressed finding; GitHub renders them
    inline on the PR diff.  Messages are single-line by construction.
    """
    lines = []
    for f in findings:
        if f.suppressed or f.baselined:
            continue
        lines.append(
            f"::error file={f.path},line={f.line},col={f.col},"
            f"title={f.rule} [{f.function}]::{f.message} "
            f"(suppress: {suppression_hint(f.rule)}; "
            f"docs: {RULE_DOCS.get(f.rule, 'DESIGN.md')})")
    return "\n".join(lines)


#: SARIF 2.1.0 schema location (the format GitHub code scanning ingests).
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")


def render_sarif(findings: Sequence[Finding]) -> str:
    """SARIF 2.1.0 report (GitHub code-scanning upload format).

    Every catalog rule is described in the tool component (id, short
    description, fix advice, doc anchor); each finding becomes a result
    with a precise region.  Suppressed and baselined findings are carried
    with a ``suppressions`` entry so code scanning shows them as muted
    instead of new.
    """
    rules = [
        {
            "id": rule,
            "shortDescription": {"text": RULES[rule]},
            "help": {"text": f"Fix: {RULE_FIXES.get(rule, 'see docs')}. "
                             f"Docs: {RULE_DOCS.get(rule, 'DESIGN.md')}"},
            "defaultConfiguration": {"level": "error"},
        }
        for rule in sorted(RULES)
    ]
    rule_index = {r["id"]: i for i, r in enumerate(rules)}
    results = []
    for f in findings:
        result = {
            "ruleId": f.rule,
            "ruleIndex": rule_index.get(f.rule, -1),
            "level": "error",
            "message": {"text": f"[{f.function}] {f.message}"},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": str(f.path).replace("\\", "/"),
                                         "uriBaseId": "SRCROOT"},
                    "region": {"startLine": f.line, "startColumn": f.col},
                },
            }],
        }
        if f.suppressed or f.baselined:
            kind = "inSource" if f.suppressed else "external"
            just = ("inline spmdlint: disable comment" if f.suppressed
                    else "grandfathered by .spmdlint-baseline.json")
            result["suppressions"] = [
                {"kind": kind, "justification": just}]
        if f.fix is not None and f.fix.get("kind") == "replace":
            # Single-region text edits (SPMD013 unmap-wraps, PERF002
            # flat-path substitutions) surface as SARIF fixes; code
            # scanning renders them as suggested changes.  Hoist fixes
            # need the moved source text and are applied by ``--fix``.
            result["fixes"] = [{
                "description": {
                    "text": RULE_FIXES.get(f.rule, "apply the edit")},
                "artifactChanges": [{
                    "artifactLocation": {
                        "uri": str(f.path).replace("\\", "/"),
                        "uriBaseId": "SRCROOT"},
                    "replacements": [{
                        "deletedRegion": {
                            "startLine": f.fix["line"],
                            "startColumn": f.fix["col"] + 1,
                            "endLine": f.fix["line"],
                            "endColumn": f.fix["end_col"] + 1},
                        "insertedContent": {"text": f.fix["text"]},
                    }],
                }],
            }]
        results.append(result)
    payload = {
        "$schema": SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "spmdlint",
                    "informationUri":
                        "https://github.com/repro/repro#static-analysis",
                    "rules": rules,
                },
            },
            "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
            "results": results,
        }],
    }
    return json.dumps(payload, indent=2)
