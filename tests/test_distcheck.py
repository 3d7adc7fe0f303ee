"""Distribution-state interpreter (SPMD013-016, PERF001-003) and --fix.

The per-rule firing corpus lives in tests/fixtures/distcheck and is
exercised by test_check_corpus.py; this module covers the pieces around
it — the autofixer round trip, the CLI --fix/--check plumbing, SARIF
fix emission, and the analyzer-keyed findings cache.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.check import (
    DIST_RULES,
    PERF_RULES,
    RULES,
    FindingsCache,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.check.fixer import apply_fixes, fixable
from repro.check.program import ruleset_digest
from repro.check.spmdlint import render_sarif
from repro.cli import main as cli_main

FIXTURES = Path(__file__).parent / "fixtures" / "distcheck"

MECHANICAL = ("bad_spmd013.py", "bad_perf001.py", "bad_perf003.py")


def unsuppressed(findings):
    return [f for f in findings if not f.suppressed]


def test_new_rules_are_in_the_catalog():
    assert set(DIST_RULES) == {"SPMD013", "SPMD014", "SPMD015", "SPMD016"}
    assert set(PERF_RULES) == {"PERF001", "PERF002", "PERF003"}
    assert set(DIST_RULES) | set(PERF_RULES) <= set(RULES)


# ---------------------------------------------------------------------------
# fix metadata attached to findings
# ---------------------------------------------------------------------------
def test_spmd013_fix_wraps_with_unmap():
    findings = unsuppressed(lint_file(FIXTURES / "bad_spmd013.py"))
    fixes = [f.fix for f in findings if f.fix is not None]
    assert any(fx["kind"] == "replace" and "unmap[" in fx["text"]
               and fx["apply"] for fx in fixes)


def test_perf001_fix_is_a_hoist():
    (finding,) = unsuppressed(lint_file(FIXTURES / "bad_perf001.py"))
    assert finding.fix["kind"] == "hoist" and finding.fix["apply"]
    start, end = finding.fix["lines"]
    assert finding.fix["before"] <= start <= end


def test_perf002_fix_is_suggestion_only():
    (finding,) = unsuppressed(lint_file(FIXTURES / "bad_perf002.py"))
    assert finding.fix is not None
    assert finding.fix["kind"] == "replace"
    assert not finding.fix["apply"]  # needs liveness the fixer can't prove
    assert "alltoallv_flat(payload, counts)" in finding.fix["text"]
    assert not fixable([finding])


# ---------------------------------------------------------------------------
# the --fix round trip: fix -> re-lint clean -> second fix is a no-op
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", MECHANICAL)
def test_fix_round_trip_is_clean_and_idempotent(name):
    source = (FIXTURES / name).read_text()
    findings = unsuppressed(lint_file(FIXTURES / name))
    fixed, n = apply_fixes(source, findings)
    assert n >= 1 and fixed != source

    refindings = unsuppressed(lint_source(fixed, path=name))
    mechanical = [f for f in refindings if f.fix and f.fix.get("apply")]
    assert mechanical == [], (
        f"{name}: mechanical findings survive their own fix:\n"
        + "\n".join(f.format() for f in mechanical))

    again, n2 = apply_fixes(fixed, refindings)
    assert n2 == 0 and again == fixed  # fixing twice is a no-op


def test_fixed_spmd013_translates_before_the_map():
    source = (FIXTURES / "bad_spmd013.py").read_text()
    findings = unsuppressed(lint_file(FIXTURES / "bad_spmd013.py"))
    fixed, _ = apply_fixes(source, findings)
    assert "g.map.get(g.unmap[lids])" in fixed


def test_fixed_perf001_hoists_above_the_loop():
    source = (FIXTURES / "bad_perf001.py").read_text()
    findings = unsuppressed(lint_file(FIXTURES / "bad_perf001.py"))
    fixed, _ = apply_fixes(source, findings)
    lines = fixed.splitlines()
    hoisted = next(i for i, ln in enumerate(lines)
                   if "comm.allreduce" in ln)
    loop = next(i for i, ln in enumerate(lines) if ln.lstrip(
        ).startswith("for "))
    assert hoisted < loop
    assert lines[hoisted].startswith("    norm =")  # dedented to loop level


# ---------------------------------------------------------------------------
# CLI plumbing: --fix writes, --fix --check is a dry-run gate
# ---------------------------------------------------------------------------
def test_cli_fix_check_flags_drift_without_writing(tmp_path):
    target = tmp_path / "bad_perf001.py"
    shutil.copy(FIXTURES / "bad_perf001.py", target)
    before = target.read_text()
    rc = cli_main(["check", str(target), "--fix", "--check"])
    assert rc == 1                       # drift detected
    assert target.read_text() == before  # nothing written


def test_cli_fix_applies_and_then_check_passes(tmp_path):
    target = tmp_path / "bad_perf001.py"
    shutil.copy(FIXTURES / "bad_perf001.py", target)
    rc = cli_main(["check", str(target), "--fix"])
    assert rc == 0
    assert target.read_text() != (FIXTURES / "bad_perf001.py").read_text()
    # Post-fix the tree is drift-free: the gate passes.
    assert cli_main(["check", str(target), "--fix", "--check"]) == 0


def test_cli_fix_on_clean_tree_is_a_no_op(tmp_path):
    target = tmp_path / "clean_perf001.py"
    shutil.copy(FIXTURES / "clean_perf001.py", target)
    before = target.read_text()
    assert cli_main(["check", str(target), "--fix"]) == 0
    assert target.read_text() == before


# ---------------------------------------------------------------------------
# SARIF carries replace-kind fixes as suggested changes
# ---------------------------------------------------------------------------
def test_sarif_emits_fixes_for_replace_edits():
    findings = unsuppressed(lint_file(FIXTURES / "bad_perf002.py"))
    sarif = json.loads(render_sarif(findings))
    (result,) = sarif["runs"][0]["results"]
    (fix,) = result["fixes"]
    (change,) = fix["artifactChanges"]
    (repl,) = change["replacements"]
    assert "alltoallv_flat" in repl["insertedContent"]["text"]
    assert repl["deletedRegion"]["startLine"] == findings[0].fix["line"]


# ---------------------------------------------------------------------------
# findings cache: keyed on the analyzer itself, not just inputs
# ---------------------------------------------------------------------------
def test_cache_key_includes_ruleset_digest(monkeypatch):
    from repro.check import program

    select = frozenset(RULES)
    k1 = FindingsCache.key("src", "digest", select)
    monkeypatch.setattr(program, "_RULESET_DIGEST", "different-analyzer")
    k2 = FindingsCache.key("src", "digest", select)
    assert k1 != k2


def test_cache_invalidates_when_analyzer_changes(tmp_path, monkeypatch):
    from repro.check import program

    cache_file = tmp_path / "cache.json"
    target = tmp_path / "bad_spmd014.py"
    shutil.copy(FIXTURES / "bad_spmd014.py", target)

    first = lint_paths([target], cache=cache_file)
    assert {f.rule for f in first} == {"SPMD014"}

    warm = FindingsCache(cache_file)
    lint_paths([target], cache=warm)
    assert warm.hits == 1 and warm.misses == 0  # same analyzer: cache hot

    # Simulate editing the analyzer (new ruleset digest): every entry is
    # stale, both at load (file stamp) and at lookup (key).
    monkeypatch.setattr(program, "_RULESET_DIGEST", "edited-analyzer")
    cold = FindingsCache(cache_file)
    assert cold._entries == {}
    lint_paths([target], cache=cold)
    assert cold.misses == 1 and cold.hits == 0


def test_ruleset_digest_is_stable_within_a_process():
    assert ruleset_digest() == ruleset_digest()
    assert len(ruleset_digest()) == 64
