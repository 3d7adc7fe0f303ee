"""The whole-program pass behind ``repro check``.

Whatever it is given — a source string, one file, or files and directory
trees — is analyzed as one program (a single file is a one-module
program):

1. a module-level call graph is built over every file (:mod:`.callgraph`)
   and one summary table is computed over it, callees first
   (:mod:`.summaries`);
2. every module runs every rule family against that table: schedule
   (:mod:`.spmdlint`), ownership (:mod:`.racecheck`), portability
   (:mod:`.picklecheck`) and distribution (:mod:`.distcheck`);
3. findings honor inline suppressions, can be grandfathered by a
   checked-in baseline (:func:`load_baseline`), and are memoized in a
   content-hash :class:`FindingsCache` keyed on ``(file sha, summary-table
   digest)`` so re-checking the full tree stays fast in
   ``scripts/check.sh``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path
from typing import Iterable, Sequence

from ._astutil import Finding
from .callgraph import CallGraph, ModuleInfo, build_callgraph
from .distcheck import lint_distribution
from .picklecheck import lint_portability
from .racecheck import lint_ownership
from .spmdlint import RULES, apply_suppressions, lint_schedule
from .summaries import SummaryTable, build_summaries, summaries_digest

__all__ = ["lint_source", "lint_file", "lint_paths", "iter_python_files",
           "FindingsCache", "load_baseline", "write_baseline",
           "apply_baseline", "baseline_key", "ruleset_digest"]

_RULESET_DIGEST: str | None = None


def ruleset_digest() -> str:
    """Content hash of the analyzer itself (every module in this package).

    Folded into every cache key so that editing any rule invalidates
    stale cached findings.  Computed once per process.
    """
    global _RULESET_DIGEST
    if _RULESET_DIGEST is None:
        h = hashlib.sha256()
        pkg = Path(__file__).resolve().parent
        for src in sorted(pkg.glob("*.py")):
            h.update(src.name.encode())
            h.update(src.read_bytes())
        _RULESET_DIGEST = h.hexdigest()
    return _RULESET_DIGEST


# ---------------------------------------------------------------------------
# one module against the program's summary table
# ---------------------------------------------------------------------------
def _lint_module(mod: ModuleInfo, table: SummaryTable,
                 select: frozenset[str]) -> list[Finding]:
    path = str(mod.path)
    findings = [*lint_schedule(mod, table, select),
                *lint_ownership(mod.tree, path, select),
                *lint_portability(mod.tree, path, select),
                *lint_distribution(mod, table, select)]
    apply_suppressions(findings, mod.source)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


# ---------------------------------------------------------------------------
# content-hash findings cache
# ---------------------------------------------------------------------------
class FindingsCache:
    """JSON file memoizing per-file findings.

    Key: ``sha256(source) + summary-table digest + rule selection +
    ruleset digest (analyzer source hash)``.  Because the digest covers
    interprocedural *summaries* rather than raw bytes of other files,
    editing a comment in one file leaves every other file's entry hot —
    while any edit to the analyzer itself misses everything.  Entries not
    touched by the current run are dropped on save, so the file cannot
    grow without bound.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self.hits = 0
        self.misses = 0
        self._entries: dict[str, list[dict]] = {}
        self._touched: set[str] = set()
        if self.path.exists():
            try:
                data = json.loads(self.path.read_text())
                if data.get("version") == ruleset_digest():
                    self._entries = data.get("entries", {})
            except (json.JSONDecodeError, OSError):
                self._entries = {}

    @staticmethod
    def key(source: str, digest: str, select: frozenset[str]) -> str:
        h = hashlib.sha256()
        h.update(source.encode())
        h.update(digest.encode())
        h.update(",".join(sorted(select)).encode())
        h.update(ruleset_digest().encode())
        return h.hexdigest()

    def get(self, key: str) -> list[Finding] | None:
        raw = self._entries.get(key)
        if raw is None:
            self.misses += 1
            return None
        self.hits += 1
        self._touched.add(key)
        return [Finding(**entry) for entry in raw]

    def put(self, key: str, findings: list[Finding]) -> None:
        self._entries[key] = [asdict(f) for f in findings]
        self._touched.add(key)

    def save(self) -> None:
        payload = {
            "version": ruleset_digest(),
            "entries": {k: v for k, v in self._entries.items()
                        if k in self._touched},
        }
        self.path.write_text(json.dumps(payload))


# ---------------------------------------------------------------------------
# baseline (grandfathered findings)
# ---------------------------------------------------------------------------
def baseline_key(f: Finding) -> str:
    """Line-drift-tolerant identity of a finding.

    Keyed on (path, rule, function, message) — not on line/column — so
    unrelated edits above a grandfathered finding do not resurrect it.
    """
    h = hashlib.sha256(
        f"{Path(f.path).as_posix()}|{f.rule}|{f.function}|{f.message}"
        .encode()).hexdigest()[:16]
    return h


def write_baseline(path: str | Path, findings: Iterable[Finding]) -> int:
    """Record every unsuppressed finding as grandfathered; returns count."""
    entries = sorted(
        {baseline_key(f): {"key": baseline_key(f), "rule": f.rule,
                           "path": Path(f.path).as_posix(),
                           "function": f.function}
         for f in findings if not f.suppressed}.values(),
        key=lambda e: (e["path"], e["rule"], e["key"]))
    payload = {"version": 1, "findings": entries}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return len(entries)


def load_baseline(path: str | Path) -> set[str]:
    """The set of grandfathered finding keys recorded in a baseline file."""
    data = json.loads(Path(path).read_text())
    return {entry["key"] for entry in data.get("findings", [])}


def apply_baseline(findings: Iterable[Finding], keys: set[str]) -> None:
    """Mark findings present in the baseline as grandfathered."""
    for f in findings:
        if not f.suppressed and baseline_key(f) in keys:
            f.baselined = True


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------
def _lint_program(graph: CallGraph, select: Iterable[str] | None,
                  cache: FindingsCache | str | Path | None = None,
                  ) -> list[Finding]:
    selected = frozenset(select) if select is not None else frozenset(RULES)
    table = build_summaries(graph)
    digest = summaries_digest(table)
    if cache is not None and not isinstance(cache, FindingsCache):
        cache = FindingsCache(Path(cache))
    findings: list[Finding] = []
    for mod in graph.by_path.values():
        key = FindingsCache.key(mod.source, digest, selected)
        cached = cache.get(key) if cache is not None else None
        if cached is None:
            cached = _lint_module(mod, table, selected)
            if cache is not None:
                cache.put(key, cached)
        findings.extend(cached)
    if cache is not None:
        cache.save()
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_source(source: str, path: str = "<string>",
                select: Iterable[str] | None = None) -> list[Finding]:
    """Lint one Python source string as a one-module program; returns
    findings (incl. suppressed)."""
    graph = CallGraph()
    graph.add_source(Path(path), source)
    return _lint_program(graph, select)


def iter_python_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files and/or directory trees into a ``**/*.py`` file list."""
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    return files


def lint_paths(paths: Sequence[str | Path],
               select: Iterable[str] | None = None,
               cache: FindingsCache | str | Path | None = None,
               ) -> list[Finding]:
    """Lint files and/or directory trees (``**/*.py``) as one program;
    unparseable files are skipped."""
    return _lint_program(build_callgraph(iter_python_files(paths)), select,
                         cache=cache)


def lint_file(path: str | Path,
              select: Iterable[str] | None = None) -> list[Finding]:
    """Lint one file as a one-module program."""
    return lint_paths([path], select=select)
