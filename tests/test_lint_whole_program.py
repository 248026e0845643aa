"""Lint engine: cache, SARIF."""

from __future__ import annotations

import json
import os

from repro.lint import lint_paths
from repro.lint.cache import LintCache, digest_text, rules_fingerprint
from repro.lint.cli import main as lint_main
from repro.lint.sarif import to_sarif
from repro.lint.violations import all_rules

FIXTURES = os.path.join(os.path.dirname(__file__), "lint_fixtures")


# -- incremental cache -----------------------------------------------------


def _lint_fixture_dir(cache_dir):
    tree = os.path.join(FIXTURES, "layering")
    return lint_paths(
        [tree], force_kind="library", cache_dir=str(cache_dir)
    )


def test_cache_hits_after_cold_run_and_identical_output(tmp_path):
    cache_dir = tmp_path / "cache"
    cold = _lint_fixture_dir(cache_dir)
    warm = _lint_fixture_dir(cache_dir)
    assert cold.cache_hits == 0 and cold.cache_misses > 0
    assert warm.cache_misses == 0
    assert warm.cache_hits == cold.cache_misses
    # Cached replay renders byte-identically.
    assert warm.to_json() == cold.to_json()
    assert warm.to_text() == cold.to_text()


def test_cache_invalidated_by_content_change(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        '"""A module."""\n\n\ndef f():\n    """F."""\n    return 1\n',
        encoding="utf-8",
    )
    cache_dir = tmp_path / "cache"
    first = lint_paths(
        [str(source)], force_kind="library", cache_dir=str(cache_dir)
    )
    assert first.cache_hits == 0
    # Unchanged content replays.
    second = lint_paths(
        [str(source)], force_kind="library", cache_dir=str(cache_dir)
    )
    assert second.cache_misses == 0
    # Edited content misses and re-lints (now with a finding).
    source.write_text(
        '"""A module."""\nimport random\n\n\ndef f():\n    """F."""\n'
        "    return random.random()\n",
        encoding="utf-8",
    )
    third = lint_paths(
        [str(source)], force_kind="library", cache_dir=str(cache_dir)
    )
    assert third.cache_hits == 0
    assert any(v.rule == "D101" for v in third.violations)


def test_cache_invalidated_by_rule_version_bump(tmp_path, monkeypatch):
    source = tmp_path / "module.py"
    source.write_text(
        '"""A module."""\n\n\ndef f():\n    """F."""\n    return 1\n',
        encoding="utf-8",
    )
    cache_dir = tmp_path / "cache"
    lint_paths([str(source)], force_kind="library", cache_dir=str(cache_dir))
    warm = lint_paths(
        [str(source)], force_kind="library", cache_dir=str(cache_dir)
    )
    assert warm.cache_misses == 0
    # Bumping a rule's version changes the fingerprint, so
    # the per-file entry written above no longer matches.
    file_rule = next(r for r in all_rules() if r.rule_id == "D101")
    monkeypatch.setattr(file_rule, "version", 99, raising=False)
    bumped = lint_paths(
        [str(source)], force_kind="library", cache_dir=str(cache_dir)
    )
    assert bumped.cache_misses == 1


def test_rules_fingerprint_tracks_versions():
    class _Probe:
        rule_id = "X900"
        version = 1

    class _Dropped:
        rule_id = "X901"
        version = 1

    first = rules_fingerprint([_Probe(), _Dropped()])
    # A dropped rule changes the fingerprint, so a warm cache never
    # replays a finding of a rule that no longer exists.
    dropped = rules_fingerprint([_Probe()])
    _Probe.version = 2
    bumped = rules_fingerprint([_Probe()])
    assert len({first, dropped, bumped}) == 3


def test_cache_survives_corrupt_entries(tmp_path):
    cache = LintCache(str(tmp_path))
    key = LintCache.file_key("a.py", digest_text("x"), "library", "fp")
    entry = os.path.join(str(tmp_path), key[:2], f"{key}.json")
    os.makedirs(os.path.dirname(entry), exist_ok=True)
    with open(entry, "w", encoding="utf-8") as handle:
        handle.write("{not json")
    assert cache.load(key) is None
    assert cache.misses == 1


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
        [bad, "--kind=library", "--format=sarif",
         f"--cache-dir={tmp_path / 'cache'}", f"--output={out}"]
    )
    assert code == 1
    capsys.readouterr()
    document = json.loads(out.read_text(encoding="utf-8"))
    assert document["runs"][0]["results"]


def test_cli_jobs_and_cache_flags(tmp_path, capsys):
    """``--cache-dir`` round trip: the cold run writes one file entry
    there; the warm run replays it, byte-identical."""
    clean = os.path.join(FIXTURES, "clean.py")
    cache_dir = tmp_path / "cache"
    argv = [clean, "--kind=library", "--format=json", f"--cache-dir={cache_dir}"]
    assert lint_main(argv) == 0
    cold = capsys.readouterr().out
    entries = sorted(cache_dir.glob("*/*.json"))
    assert len(entries) == 1
    stamps = [entry.stat().st_mtime_ns for entry in entries]
    assert lint_main(argv) == 0
    assert capsys.readouterr().out == cold
    assert sorted(cache_dir.glob("*/*.json")) == entries
    assert [entry.stat().st_mtime_ns for entry in entries] == stamps
