"""Exit-code and output-format contract of ``repro check``.

CI wiring (scripts/check.sh, .github/workflows/check.yml) depends on
these exact semantics: findings alone never fail a non-strict run,
``--strict`` fails on any unsuppressed non-baselined finding, and the
json/sarif payloads are structurally valid for machine consumers.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.check import RULES
from repro.check.spmdlint import SARIF_SCHEMA
from repro.cli import main as cli_main

FIXTURES = Path(__file__).parent / "fixtures"
BAD = str(FIXTURES / "spmdlint" / "bad_spmd001.py")
CLEAN = str(FIXTURES / "spmdlint" / "clean.py")
DEEP_BAD = str(FIXTURES / "deep")
SPMD012_BAD = str(FIXTURES / "deep" / "bad_spmd012.py")


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------
def test_findings_exit_zero_without_strict(capsys):
    assert cli_main(["check", BAD]) == 0
    assert "SPMD001" in capsys.readouterr().out


def test_strict_exits_nonzero_on_findings(capsys):
    assert cli_main(["check", BAD, "--strict"]) == 1


def test_strict_exits_zero_on_clean_input(capsys):
    assert cli_main(["check", CLEAN, "--strict"]) == 0


def test_deep_strict_exits_nonzero_on_the_deep_corpus(capsys):
    assert cli_main(["check", DEEP_BAD, "--strict"]) == 1
    out = capsys.readouterr().out
    for rule in ("SPMD009", "SPMD010", "SPMD011", "SPMD012"):
        assert rule in out


def test_strict_select_reaches_every_rule_family(capsys):
    # One pass runs every family: the portability rule needs no mode.
    assert cli_main(["check", SPMD012_BAD, "--strict",
                     "--select", "SPMD012"]) == 1
    out = capsys.readouterr().out
    assert "SPMD012" in out and "0 finding(s)" not in out


def test_cache_flag_alone_writes_the_cache(tmp_path, capsys):
    cache = tmp_path / "cache.json"
    assert cli_main(["check", BAD, "--cache", str(cache)]) == 0
    assert json.loads(cache.read_text())["entries"]


def test_removed_mode_option_is_rejected(capsys):
    removed = "--de" "ep"  # split so a grep for the option stays empty
    with pytest.raises(SystemExit) as exc:
        cli_main(["check", CLEAN, removed])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        cli_main(["check", "--help"])
    assert removed not in capsys.readouterr().out


def test_unknown_rule_exits_two(capsys):
    assert cli_main(["check", BAD, "--select", "SPMD999"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_baseline_grandfathers_via_cli(tmp_path, capsys):
    bl = str(tmp_path / "baseline.json")
    assert cli_main(["check", BAD, "--write-baseline", bl]) == 0
    # Grandfathered: strict passes despite the live finding.
    assert cli_main(["check", BAD, "--strict", "--baseline", bl]) == 0
    # Without the baseline the same input still fails strict.
    assert cli_main(["check", BAD, "--strict"]) == 1


def test_missing_baseline_warns_and_fails_strict(tmp_path, capsys):
    bl = str(tmp_path / "nope.json")
    assert cli_main(["check", BAD, "--strict", "--baseline", bl]) == 1
    assert "not found" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# machine formats
# ---------------------------------------------------------------------------
def test_json_payload_shape(capsys):
    cli_main(["check", BAD, "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"findings", "counts", "total", "suppressed",
                            "baselined"}
    assert set(payload["counts"]) == set(RULES)
    (finding,) = [f for f in payload["findings"] if not f["suppressed"]]
    assert finding["rule"] == "SPMD001"
    assert finding["suppress"].startswith("# spmdlint: disable=")
    assert finding["doc"].startswith("DESIGN.md#")


def test_sarif_payload_shape(capsys):
    cli_main(["check", DEEP_BAD, "--format", "sarif"])
    sarif = json.loads(capsys.readouterr().out)
    assert sarif["$schema"] == SARIF_SCHEMA
    assert sarif["version"] == "2.1.0"
    (run,) = sarif["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "spmdlint"
    assert {r["id"] for r in driver["rules"]} == set(RULES)
    for rule in driver["rules"]:
        assert rule["shortDescription"]["text"]
        assert rule["help"]["text"].startswith("Fix: ")
    assert run["results"], "deep corpus must yield SARIF results"
    for res in run["results"]:
        assert res["ruleId"] in RULES
        assert driver["rules"][res["ruleIndex"]]["id"] == res["ruleId"]
        (loc,) = res["locations"]
        region = loc["physicalLocation"]["region"]
        assert region["startLine"] >= 1 and region["startColumn"] >= 1


def test_sarif_marks_suppressed_findings(capsys):
    cli_main(["check", str(FIXTURES / "spmdlint" / "suppressed.py"),
              "--format", "sarif"])
    sarif = json.loads(capsys.readouterr().out)
    results = sarif["runs"][0]["results"]
    assert results
    for res in results:
        (sup,) = res["suppressions"]
        assert sup["kind"] == "inSource"


def test_sarif_marks_baselined_findings_external(tmp_path, capsys):
    bl = str(tmp_path / "baseline.json")
    cli_main(["check", BAD, "--write-baseline", bl])
    capsys.readouterr()
    cli_main(["check", BAD, "--baseline", bl, "--format", "sarif"])
    sarif = json.loads(capsys.readouterr().out)
    flagged = [res for res in sarif["runs"][0]["results"]
               if res.get("suppressions")]
    assert flagged
    assert all(s["kind"] == "external"
               for res in flagged for s in res["suppressions"])


def test_github_format_emits_error_annotations(capsys):
    cli_main(["check", BAD, "--format", "github"])
    out = capsys.readouterr().out.strip()
    assert out.startswith("::error file=")
    assert "SPMD001" in out


@pytest.mark.parametrize("fmt", ["text", "json", "github", "sarif"])
def test_every_format_is_quiet_strict_clean(fmt, capsys):
    assert cli_main(["check", CLEAN, "--strict", "--format", fmt]) == 0
