"""Whole-program pass tests: call graph, summaries, cross-call rules,
baseline, cache, and the SPMD012 parity with the runtime pickling
diagnostics."""

from __future__ import annotations

import ast
import json
from collections import defaultdict
from pathlib import Path

import pytest

from repro.check import (
    FindingsCache,
    apply_baseline,
    baseline_key,
    lint_paths,
    load_baseline,
    write_baseline,
)
from repro.check.callgraph import build_callgraph
from repro.check.picklecheck import lint_portability
from repro.check.summaries import build_summaries

DEEP = Path(__file__).parent / "fixtures" / "deep"


@pytest.fixture(scope="module")
def corpus_findings():
    """One run over the whole corpus (cross-module resolution needs every
    fixture in the same call graph)."""
    by_file = defaultdict(list)
    for f in lint_paths([DEEP]):
        by_file[Path(f.path).name].append(f)
    return by_file


# ---------------------------------------------------------------------------
# fixture corpus: every deep rule fires on its seeded violation
# ---------------------------------------------------------------------------
BAD_EXPECT = {
    "bad_spmd009.py": "SPMD009",
    "bad_spmd009_chain.py": "SPMD009",
    "bad_spmd010.py": "SPMD010",
    "bad_spmd010_size.py": "SPMD010",
    "bad_spmd011.py": "SPMD011",
    "bad_spmd012.py": "SPMD012",
    "bad_spmd012_lambda.py": "SPMD012",
}


@pytest.mark.parametrize("name", sorted(BAD_EXPECT))
def test_deep_rule_fires_on_its_fixture(corpus_findings, name):
    found = [f for f in corpus_findings[name] if not f.suppressed]
    assert found, f"{name} produced no findings"
    assert {f.rule for f in found} == {BAD_EXPECT[name]}


def test_every_deep_rule_is_covered():
    assert set(BAD_EXPECT.values()) == {
        "SPMD009", "SPMD010", "SPMD011", "SPMD012"}


@pytest.mark.parametrize("name", ["clean_helpers.py", "clean_launch.py",
                                  "deep_helpers.py"])
def test_clean_fixtures_have_no_findings(corpus_findings, name):
    assert corpus_findings[name] == []


def test_lambda_fixture_flags_both_kernel_and_lock(corpus_findings):
    msgs = [f.message for f in corpus_findings["bad_spmd012_lambda.py"]]
    assert len(msgs) == 2
    assert any("lambda" in m for m in msgs)
    assert any("Lock()" in m for m in msgs)


# ---------------------------------------------------------------------------
# call graph + summaries
# ---------------------------------------------------------------------------
def test_callgraph_resolves_cross_module_imports():
    graph = build_callgraph(
        [DEEP / "bad_spmd009_chain.py", DEEP / "deep_helpers.py"])
    chain = graph.by_path[(DEEP / "bad_spmd009_chain.py").resolve()]
    call = next(n for n in ast.walk(chain.functions["settle"].node)
                if isinstance(n, ast.Call))
    target = graph.resolve(chain, call)
    assert target is not None and target.qualname == "sync_all"
    assert target.module.path.name == "deep_helpers.py"


def test_summaries_expand_transitive_schedules():
    graph = build_callgraph(
        [DEEP / "bad_spmd009_chain.py", DEEP / "deep_helpers.py"])
    table = build_summaries(graph)
    (settle,) = [s for k, s in table.by_key.items()
                 if k.endswith(".settle")]
    assert settle.schedule == ("barrier",)


def test_summaries_record_gate_and_size_params():
    graph = build_callgraph([DEEP / "bad_spmd010.py",
                             DEEP / "bad_spmd010_size.py"])
    table = build_summaries(graph)
    (gate,) = [s for k, s in table.by_key.items()
               if k.endswith(".maybe_sync")]
    assert "flag" in gate.gate_params
    (size,) = [s for k, s in table.by_key.items()
               if k.endswith(".share_prefix")]
    assert "n" in size.size_params


def test_pure_recursion_is_not_a_phantom_collective(tmp_path):
    # A self-recursive helper with no collectives anywhere must summarize
    # to an empty schedule (regression: "rec:" markers once made every
    # recursive function look like a collective site).
    f = tmp_path / "rec.py"
    f.write_text(
        "def walk(obj):\n"
        "    if isinstance(obj, list):\n"
        "        return [walk(v) for v in obj]\n"
        "    return obj\n"
        "\n"
        "def caller(world, data):\n"
        "    if world.comm.rank == 0:\n"
        "        return walk(data)\n"
        "    return world.comm.bcast(None, 0)\n")
    graph = build_callgraph([f])
    table = build_summaries(graph)
    (walk,) = [s for k, s in table.by_key.items() if k.endswith(".walk")]
    assert walk.schedule == ()
    # The caller's real defect (rank 0 returns before the bcast) fires as
    # SPMD002 — and ONLY that: the phantom would have added an SPMD009
    # claiming walk()'s arm issues a collective schedule.
    findings = lint_paths([f])
    assert {x.rule for x in findings} == {"SPMD002"}


def test_recursive_collective_cycle_keeps_its_schedule(tmp_path):
    f = tmp_path / "reccoll.py"
    f.write_text(
        "def descend(world, depth):\n"
        "    world.comm.barrier()\n"
        "    if depth:\n"
        "        descend(world, depth - 1)\n")
    table = build_summaries(build_callgraph([f]))
    (s,) = [v for k, v in table.by_key.items() if k.endswith(".descend")]
    assert "barrier" in s.schedule


def test_return_params_taint_flows_into_callers(tmp_path):
    f = tmp_path / "flow.py"
    f.write_text(
        "def pick(world, default):\n"
        "    if world.comm.rank > 0:\n"
        "        return world.comm.rank\n"
        "    return default\n"
        "\n"
        "def gate(world, n):\n"
        "    if n:\n"
        "        world.comm.barrier()\n"
        "\n"
        "def caller(world):\n"
        "    chosen = pick(world, 0)\n"
        "    gate(world, chosen)\n")
    findings = [x for x in lint_paths([f])
                if x.function == "caller"]
    # `chosen` is rank-dependent only via pick's *return value*: the
    # SPMD010 at gate() is invisible without interprocedural flow.
    assert any(x.rule == "SPMD010" for x in findings)


# ---------------------------------------------------------------------------
# suppressions across intraprocedural + cross-call rules on one line
# ---------------------------------------------------------------------------
MIXED = """\
def sized(world, n):
    return world.comm.allgatherv(list(range(n)))


def caller(world, flag):
    part = world.comm.gather(flag)
    if part:
        return sized(world, world.comm.rank){comment}
    return sized(world, 0)
"""


def _mixed_findings(tmp_path, comment=""):
    f = tmp_path / "mixed.py"
    f.write_text(MIXED.format(comment=comment))
    return [x for x in lint_paths([f]) if x.function == "caller"]


def test_one_line_can_carry_shallow_and_deep_rules(tmp_path):
    rules = {f.rule for f in _mixed_findings(tmp_path)}
    # SPMD002 fires interprocedurally (the skipped collective lives in
    # the callee); SPMD010 exists only across call boundaries.
    assert rules == {"SPMD002", "SPMD010"}


def test_multi_rule_suppression_mutes_both_families(tmp_path):
    findings = _mixed_findings(
        tmp_path, comment="  # spmdlint: disable=SPMD002,SPMD010")
    assert findings and all(f.suppressed for f in findings)


def test_partial_suppression_keeps_the_other_rule(tmp_path):
    findings = _mixed_findings(
        tmp_path, comment="  # spmdlint: disable=SPMD002")
    live = [f.rule for f in findings if not f.suppressed]
    assert live == ["SPMD010"]


def test_disable_file_with_rule_list_scopes_by_rule(tmp_path):
    f = tmp_path / "filewide.py"
    f.write_text("# spmdlint: disable-file=SPMD009\n"
                 + (DEEP / "bad_spmd009.py").read_text()
                 + "\n\n" + (DEEP / "bad_spmd010.py").read_text())
    findings = lint_paths([f])
    assert {x.rule for x in findings if x.suppressed} == {"SPMD009"}
    assert {x.rule for x in findings if not x.suppressed} == {"SPMD010"}


# ---------------------------------------------------------------------------
# baseline: grandfathered findings pass, new findings fail
# ---------------------------------------------------------------------------
def test_baseline_roundtrip_grandfathers_old_findings(tmp_path):
    src = tmp_path / "old.py"
    src.write_text((DEEP / "bad_spmd009.py").read_text())
    first = lint_paths([src])
    bl = tmp_path / "baseline.json"
    assert write_baseline(bl, first) == 1

    # Unchanged code: the finding is baselined, nothing is "new".
    again = lint_paths([src])
    apply_baseline(again, load_baseline(bl))
    assert all(f.baselined for f in again)

    # A new defect in the same file is NOT covered by the baseline.
    src.write_text(src.read_text() + "\n\n"
                   + (DEEP / "bad_spmd010.py").read_text())
    mixed = lint_paths([src])
    apply_baseline(mixed, load_baseline(bl))
    fresh = [f for f in mixed if not f.baselined]
    assert {f.rule for f in fresh} == {"SPMD010"}
    assert {f.rule for f in mixed if f.baselined} == {"SPMD009"}


def test_baseline_keys_tolerate_line_drift(tmp_path):
    src = tmp_path / "drift.py"
    src.write_text((DEEP / "bad_spmd009.py").read_text())
    (before,) = lint_paths([src])
    src.write_text("# a comment pushing every line down\n\n"
                   + (DEEP / "bad_spmd009.py").read_text())
    (after,) = lint_paths([src])
    assert after.line != before.line
    assert baseline_key(after) == baseline_key(before)


def test_checked_in_baseline_is_valid_and_current():
    repo = Path(__file__).parent.parent
    bl = repo / ".spmdlint-baseline.json"
    data = json.loads(bl.read_text())
    assert data["version"] == 1
    recorded = {e["key"] for e in data["findings"]}
    live = [f for f in lint_paths([repo / "src" / "repro"])
            if not f.suppressed]
    # Every live finding must be grandfathered (the strict gate in
    # scripts/check.sh depends on this) and the baseline must not carry
    # stale entries for findings that no longer exist.
    assert {baseline_key(f) for f in live} == recorded


# ---------------------------------------------------------------------------
# result cache
# ---------------------------------------------------------------------------
def test_cache_hits_on_unchanged_inputs(tmp_path):
    cache_file = tmp_path / "cache.json"
    cold = FindingsCache(cache_file)
    first = lint_paths([DEEP], cache=cold)
    assert cold.hits == 0 and cold.misses > 0

    warm = FindingsCache(cache_file)
    second = lint_paths([DEEP], cache=warm)
    assert warm.misses == 0 and warm.hits == cold.misses
    assert [f.format() for f in second] == [f.format() for f in first]


def test_cache_invalidates_only_what_a_summary_change_touches(tmp_path):
    for name in ("bad_spmd009.py", "deep_helpers.py"):
        (tmp_path / name).write_text((DEEP / name).read_text())
    cache_file = tmp_path / "cache.json"
    lint_paths([tmp_path], cache=cache_file)

    # A comment-only edit changes the file hash but no summary: the other
    # file stays warm.
    helpers = tmp_path / "deep_helpers.py"
    helpers.write_text(helpers.read_text() + "\n# trailing comment\n")
    warm = FindingsCache(cache_file)
    lint_paths([tmp_path], cache=warm)
    assert warm.hits >= 1 and warm.misses == 1

    # Adding a collective to a helper changes the summary table digest:
    # every file re-lints.
    helpers.write_text(helpers.read_text().replace(
        "def sync_all(world):\n    world.comm.barrier()",
        "def sync_all(world):\n    world.comm.barrier()\n"
        "    world.comm.barrier()"))
    cold = FindingsCache(cache_file)
    lint_paths([tmp_path], cache=cold)
    assert cold.hits == 0


def test_cache_misses_the_caller_when_helper_distribution_facts_change(
        tmp_path):
    helper = tmp_path / "ids_helper.py"
    caller = tmp_path / "ids_caller.py"
    helper.write_text("def lookup(g, ids):\n    return None\n")
    caller.write_text("from ids_helper import lookup\n\n\n"
                      "def caller(g, ids):\n    return lookup(g, ids)\n")
    cache_file = tmp_path / "cache.json"
    lint_paths([tmp_path], cache=cache_file)
    warm = FindingsCache(cache_file)
    lint_paths([tmp_path], cache=warm)
    assert warm.hits == 2 and warm.misses == 0

    # The helper starts passing a parameter to map.get: its schedule facts
    # are unchanged, only its distribution facts (an index-space
    # expectation on `ids`) are new — the unchanged caller must re-lint.
    helper.write_text("def lookup(g, ids):\n    g.map.get(ids)\n"
                      "    return None\n")
    cold = FindingsCache(cache_file)
    lint_paths([tmp_path], cache=cold)
    assert cold.hits == 0 and cold.misses == 2


# ---------------------------------------------------------------------------
# SPMD012 parity with the runtime pickling diagnostics (PR 6)
# ---------------------------------------------------------------------------
def test_picklecheck_flags_every_runtime_rejected_launch():
    """Every construct tests/test_backends.py proves the procs backend
    rejects at spawn must be flagged statically by SPMD012."""
    path = Path(__file__).parent / "test_backends.py"
    tree = ast.parse(path.read_text())
    findings = lint_portability(tree, str(path), frozenset({"SPMD012"}))
    msgs = [f.message for f in findings]
    closure = [m for m in msgs if "local_closure" in m]
    lock = [m for m in msgs if "Lock()" in m]
    assert len(closure) == 2   # both run_spmd launches of the closure
    assert len(lock) == 2      # positional and keyword unpicklable arg
