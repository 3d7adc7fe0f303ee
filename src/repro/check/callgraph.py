"""Module-level call graph over a set of Python sources.

The whole-program pass (:mod:`.program`) needs to know, for a call site
``helper(world, data)``, *which* function ``helper`` is — across files —
so it can splice in that function's collective schedule and lattice
summary.  This module parses every file once, indexes functions, resolves
``import`` statements within the analyzed set, and exposes:

* :meth:`CallGraph.resolve` — call expression → :class:`FunctionInfo`
  (or ``None`` for calls the graph cannot see);
* :meth:`CallGraph.topo_order` — functions ordered callees-first over the
  strongly-connected-component condensation, so summaries can be computed
  bottom-up (recursion cycles collapse into one component).

Resolution is name-based and deliberately precision-first, matching the
linters it feeds:

* plain calls ``f(...)`` resolve to a module-level function ``f`` of the
  same module, or to ``from m import f`` / ``from m import f as g``
  targets when module ``m`` is part of the analyzed set;
* attribute calls ``m.f(...)`` resolve through ``import m`` aliases;
* *method* calls ``obj.f(...)`` are never resolved (no type inference) —
  methods are still indexed and linted as functions in their own
  right, but call edges into them are invisible.  See DESIGN.md §13 for
  the soundness consequences.

Dotted module names are derived from the filesystem (walking up through
``__init__.py`` packages); flat fixture files resolve by bare stem so
corpus modules can import each other.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

__all__ = ["FunctionInfo", "ModuleInfo", "CallGraph", "build_callgraph"]


@dataclass
class FunctionInfo:
    """One analyzed function (module-level function or method)."""

    key: str                    # "<module>.<qualname>", globally unique
    qualname: str               # e.g. "helper" or "Engine.run"
    module: "ModuleInfo"
    node: ast.FunctionDef | ast.AsyncFunctionDef
    is_method: bool

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<fn {self.key}>"


@dataclass
class ModuleInfo:
    """One parsed source file."""

    path: Path
    name: str                   # dotted module name ("repro.analytics.pr")
    source: str
    tree: ast.Module
    #: Module-level functions by bare name (call-resolution targets).
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: Every function including methods, by qualname (lint targets).
    all_functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: Local alias -> dotted target: "f" -> "pkg.mod.f", "m" -> "pkg.mod".
    imports: dict[str, str] = field(default_factory=dict)


def _module_name(path: Path) -> str:
    """Dotted module name from the package ancestry on disk."""
    path = path.resolve()
    parts = [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    name = ".".join(reversed(parts))
    if name.endswith(".__init__"):
        name = name[: -len(".__init__")]
    return name


def _collect_imports(mod: ModuleInfo) -> None:
    pkg_parts = mod.name.split(".")[:-1]
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else \
                    alias.name.split(".")[0]
                mod.imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # Relative import: resolve against this module's package.
                base = pkg_parts[: len(pkg_parts) - (node.level - 1)] \
                    if node.level <= len(pkg_parts) + 1 else []
                prefix = ".".join(base)
                source = (f"{prefix}.{node.module}" if node.module and prefix
                          else (node.module or prefix))
            else:
                source = node.module or ""
            if not source:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                mod.imports[local] = f"{source}.{alias.name}"


def _index_functions(mod: ModuleInfo) -> None:
    def visit(node: ast.AST, prefix: str, depth: int,
              in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                fi = FunctionInfo(
                    key=f"{mod.name}.{qual}", qualname=qual,
                    module=mod, node=child, is_method=in_class)
                mod.all_functions[qual] = fi
                if depth == 0 and not in_class:
                    mod.functions[child.name] = fi
                visit(child, f"{qual}.<locals>.", depth + 1, False)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", depth, True)
            else:
                visit(child, prefix, depth, in_class)

    visit(mod.tree, "", 0, False)


class CallGraph:
    """Parsed modules + resolved call edges over the analyzed file set."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}     # by dotted name
        self.by_path: dict[Path, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}  # by key
        #: Bare-stem aliases ("clean_helpers" -> dotted name) for flat
        #: fixture directories whose files import each other by stem.
        self._stem_alias: dict[str, str] = {}

    # -- construction -------------------------------------------------------
    def add_file(self, path: Path) -> ModuleInfo | None:
        """Parse and index one file; ``None`` when it does not parse."""
        path = Path(path)
        try:
            return self.add_source(path, path.read_text())
        except SyntaxError:
            return None

    def add_source(self, path: Path, source: str) -> ModuleInfo:
        """Parse and index one module's source (raises SyntaxError)."""
        tree = ast.parse(source, filename=str(path))
        mod = ModuleInfo(path=path, name=_module_name(path),
                         source=source, tree=tree)
        self.modules[mod.name] = mod
        self.by_path[path.resolve()] = mod
        self._stem_alias.setdefault(path.stem, mod.name)
        _collect_imports(mod)
        _index_functions(mod)
        for fi in mod.all_functions.values():
            self.functions[fi.key] = fi
        return mod

    def _lookup_module(self, dotted: str) -> ModuleInfo | None:
        if dotted in self.modules:
            return self.modules[dotted]
        alias = self._stem_alias.get(dotted)
        return self.modules.get(alias) if alias else None

    def _lookup_function(self, dotted: str) -> FunctionInfo | None:
        """Resolve "pkg.mod.f" to a module-level function in the set."""
        mod_name, _, fn_name = dotted.rpartition(".")
        mod = self._lookup_module(mod_name)
        if mod is None:
            return None
        if fn_name in mod.functions:
            return mod.functions[fn_name]
        # Chase one level of package re-export: "from repro.analytics
        # import pagerank" where the package __init__ itself imports
        # pagerank from a submodule.
        if fn_name in mod.imports:
            target = mod.imports[fn_name]
            tmod = self._lookup_module(target.rpartition(".")[0])
            if tmod is not None:
                return tmod.functions.get(target.rpartition(".")[2])
        return None

    # -- resolution ---------------------------------------------------------
    def resolve(self, mod: ModuleInfo, call: ast.Call) -> FunctionInfo | None:
        """The function a call expression targets, when statically visible."""
        fn = call.func
        if isinstance(fn, ast.Name):
            if fn.id in mod.functions:
                return mod.functions[fn.id]
            if fn.id in mod.imports:
                return self._lookup_function(mod.imports[fn.id])
            return None
        if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name):
            base = fn.value.id
            if base in mod.imports:
                target_mod = self._lookup_module(mod.imports[base])
                if target_mod is not None:
                    return target_mod.functions.get(fn.attr)
            maybe = self._lookup_module(base)
            if maybe is not None:
                return maybe.functions.get(fn.attr)
        return None

    def callees(self, fi: FunctionInfo) -> list[FunctionInfo]:
        """Unique resolved callees of one function, in source order."""
        seen: dict[str, FunctionInfo] = {}
        for node in _walk_calls(fi.node):
            target = self.resolve(fi.module, node)
            if target is not None and target.key not in seen:
                seen[target.key] = target
        return list(seen.values())

    # -- ordering -----------------------------------------------------------
    def topo_order(self) -> list[list[FunctionInfo]]:
        """SCC condensation in callees-first order (Tarjan, iterative)."""
        keys = list(self.functions)
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        sccs: list[list[FunctionInfo]] = []
        counter = 0
        adj = {k: [c.key for c in self.callees(self.functions[k])]
               for k in keys}

        for root in keys:
            if root in index:
                continue
            work: list[tuple[str, int]] = [(root, 0)]
            while work:
                node, i = work[-1]
                if i == 0:
                    index[node] = low[node] = counter
                    counter += 1
                    stack.append(node)
                    on_stack.add(node)
                advanced = False
                for j in range(i, len(adj[node])):
                    nxt = adj[node][j]
                    if nxt not in index:
                        work[-1] = (node, j + 1)
                        work.append((nxt, 0))
                        advanced = True
                        break
                    if nxt in on_stack:
                        low[node] = min(low[node], index[nxt])
                if advanced:
                    continue
                if low[node] == index[node]:
                    comp: list[FunctionInfo] = []
                    while True:
                        k = stack.pop()
                        on_stack.discard(k)
                        comp.append(self.functions[k])
                        if k == node:
                            break
                    sccs.append(comp)
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
        return sccs  # Tarjan emits components callees-first already


def _walk_calls(fn: ast.AST):
    """Call expressions inside one function scope (nested defs excluded)."""
    from ._astutil import _walk_in_scope

    for node in _walk_in_scope(fn):
        if isinstance(node, ast.Call):
            yield node


def build_callgraph(files: Sequence[Path]) -> CallGraph:
    """Parse and index every file into one call graph."""
    graph = CallGraph()
    for f in files:
        graph.add_file(Path(f))
    return graph
