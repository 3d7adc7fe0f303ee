"""Parametrized seeded-violation corpora for every static pass.

This module is the single home of the fixture-corpus checks that used to
live as shell loops in scripts/check.sh: every ``bad_*`` fixture must
fire exactly its seeded rule family, every ``clean*`` fixture must be
silent.  scripts/check.sh now just runs this module.  Every corpus goes
through the one whole-program entry point: the file-at-a-time corpora as
one-file programs, ``fixtures/deep/`` as one program.
"""

from __future__ import annotations

import re
from collections import defaultdict
from pathlib import Path

import pytest

from repro.check import lint_paths

FIXTURES = Path(__file__).parent / "fixtures"
FILE_CORPORA = ("spmdlint", "racecheck", "distcheck")


def _rule_of(path: Path) -> str | None:
    """Seeded rule id from a ``bad_spmdNNN``/``bad_perfNNN`` name; None for
    fixtures with descriptive names (those assert only that *something*
    fires)."""
    m = re.match(r"bad_((?:spmd|perf)\d+)$", path.stem)
    return m.group(1).upper() if m else None


def _corpus(kind: str, pattern: str) -> list[Path]:
    found = sorted((FIXTURES / kind).glob(pattern))
    assert found, f"empty corpus: fixtures/{kind}/{pattern}"
    return found


# ---------------------------------------------------------------------------
# file-at-a-time corpora: each fixture is a one-module program
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "fixture",
    [p for kind in FILE_CORPORA for p in _corpus(kind, "bad_*.py")],
    ids=lambda p: f"{p.parent.name}/{p.name}")
def test_bad_fixture_fires_its_seeded_rule(fixture):
    findings = [f for f in lint_paths([fixture]) if not f.suppressed]
    assert findings, f"seeded violation not detected in {fixture}"
    rule = _rule_of(fixture)
    if rule is not None:
        assert {f.rule for f in findings} == {rule}


@pytest.mark.parametrize(
    "fixture",
    [p for kind in FILE_CORPORA for p in _corpus(kind, "clean*.py")],
    ids=lambda p: f"{p.parent.name}/{p.name}")
def test_clean_fixture_is_silent(fixture):
    assert lint_paths([fixture]) == [], f"false positive on {fixture}"


# ---------------------------------------------------------------------------
# deep corpus: linted as one program (cross-module resolution)
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def deep_by_file():
    by_file = defaultdict(list)
    for f in lint_paths([FIXTURES / "deep"]):
        by_file[Path(f.path).name].append(f)
    return by_file


@pytest.mark.parametrize("fixture", _corpus("deep", "bad_spmd*.py"),
                         ids=lambda p: p.name)
def test_deep_bad_fixture_fires_its_seeded_rule(deep_by_file, fixture):
    findings = [f for f in deep_by_file[fixture.name] if not f.suppressed]
    assert findings, f"seeded violation not detected in {fixture}"
    # Deep fixtures encode their rule as a name prefix (a suffix marks
    # the variant: bad_spmd009_chain.py still seeds SPMD009).
    expected = re.match(r"bad_(spmd\d+)", fixture.stem).group(1).upper()
    assert {f.rule for f in findings} == {expected}


@pytest.mark.parametrize("fixture",
                         _corpus("deep", "clean*.py")
                         + _corpus("deep", "deep_helpers.py"),
                         ids=lambda p: p.name)
def test_deep_clean_fixture_is_silent(deep_by_file, fixture):
    assert deep_by_file[fixture.name] == [], f"false positive on {fixture}"
