"""Lint engine: SARIF output and repeat CLI runs."""

from __future__ import annotations

import json
import os

from repro.lint import lint_paths
from repro.lint.cli import main as lint_main
from repro.lint.sarif import to_sarif

FIXTURES = os.path.join(os.path.dirname(__file__), "lint_fixtures")


# -- SARIF -----------------------------------------------------------------


def test_sarif_output_shape_and_determinism():
    bad = os.path.join(FIXTURES, "d101_global_random.py")
    result = lint_paths([bad], force_kind="library")
    assert result.violations
    rendered = to_sarif(result)
    assert rendered == to_sarif(result)
    document = json.loads(rendered)
    assert document["version"] == "2.1.0"
    run = document["runs"][0]
    rule_ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
    assert rule_ids == sorted(rule_ids)
    entry = run["results"][0]
    violation = result.violations[0]
    assert entry["ruleId"] == violation.rule
    region = entry["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == violation.line
    assert region["startColumn"] == violation.col + 1  # 0-based -> 1-based


def test_cli_sarif_and_output_file(tmp_path, capsys):
    bad = os.path.join(FIXTURES, "d101_global_random.py")
    out = tmp_path / "report.sarif"
    code = lint_main(
        [bad, "--kind=library", "--format=sarif", f"--output={out}"]
    )
    assert code == 1
    capsys.readouterr()
    document = json.loads(out.read_text(encoding="utf-8"))
    assert document["runs"][0]["results"]


def test_cli_runs_repeat_byte_identical_and_write_no_files(
    tmp_path, monkeypatch, capsys
):
    """Two CLI runs print the same bytes and leave the working
    directory as they found it."""
    monkeypatch.chdir(tmp_path)
    argv = [FIXTURES, "--kind=library", "--format=json"]
    assert lint_main(argv) == 1
    first = capsys.readouterr().out
    assert lint_main(argv) == 1
    assert capsys.readouterr().out == first
    assert list(tmp_path.iterdir()) == []
