"""reprolint: fixture corpus, suppressions, JSON output, and the real tree."""

from __future__ import annotations

import json
import os
import re

import pytest

from repro.errors import ConfigurationError
from repro.lint import all_rules, lint_paths
from repro.lint.cli import main as lint_main
from repro.lint.engine import classify_kind, infer_package
from repro.lint.layers import LAYERS, layer_of
from repro.lint import layers, violations
from repro.lint.violations import register_rule

FIXTURES = os.path.join(os.path.dirname(__file__), "lint_fixtures")

#: fixture file -> (rule id, marker substring, expected count for that rule)
FIXTURE_EXPECTATIONS = [
    ("d101_global_random.py", "D101", "# MARK", 1),
    ("d102_unseeded_random.py", "D102", "# MARK", 1),
    ("d103_numpy_random.py", "D103", "# MARK", 1),
    ("d104_wall_clock.py", "D104", "# MARK", 1),
    ("d105_os_entropy.py", "D105", "# MARK", 1),
    ("d109_instance_default.py", "D109", "# MARK", 2),  # call + literal
    ("d111_missing_docstring.py", "D111", "# MARK", 3),  # function + class + method
    ("d112_pool_hygiene.py", "D112", "# MARK", 2),  # two imports
    ("e301_foreign_raise.py", "E301", "# MARK", 1),
    ("e302_broad_except.py", "E302", "# MARK", 1),
    (
        os.path.join("layering", "repro", "geo", "l401_upward_import.py"),
        "L401",
        "# MARK",
        1,
    ),
    (
        os.path.join("layering", "repro", "service", "l401_oracle_import.py"),
        "L401",
        "# MARK",
        1,
    ),
    (
        os.path.join("layering", "repro", "mystery", "l402_undeclared.py"),
        "L402",
        None,  # reported at line 1 (the package itself is undeclared)
        1,
    ),
]


def test_every_rule_has_a_firing_fixture():
    """The fixture corpus and the registry name the same rules.

    A rule without a firing fixture is untested; a fixture row whose rule
    is gone outlives the code it polices.
    """
    firing = {rule for _, rule, _, count in FIXTURE_EXPECTATIONS if count > 0}
    assert {rule.rule_id for rule in all_rules()} == firing


def test_static_analysis_doc_tables_name_every_rule():
    """docs/static-analysis.md's rule tables and the registry agree."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "docs", "static-analysis.md"), encoding="utf-8") as handle:
        documented = set(re.findall(r"^\| ([A-Z]\d{3}) \|", handle.read(), re.MULTILINE))
    assert documented == {rule.rule_id for rule in all_rules()}


def _marker_line(path: str, marker: str) -> int:
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, 1):
            if marker in line:
                return line_number
    raise AssertionError(f"no {marker!r} marker in {path}")


def _fixture_ids():
    """The rule id per row; a rule's later rows append their fixture stem."""
    ids = []
    for fixture, rule, _, _ in FIXTURE_EXPECTATIONS:
        stem = os.path.splitext(os.path.basename(fixture))[0]
        ids.append(f"{rule}-{stem}" if rule in ids else rule)
    return ids


@pytest.mark.parametrize(
    "fixture,rule_id,marker,count",
    FIXTURE_EXPECTATIONS,
    ids=_fixture_ids(),
)
def test_fixture_triggers_rule_at_marked_line(fixture, rule_id, marker, count):
    path = os.path.join(FIXTURES, fixture)
    result = lint_paths([path], force_kind="library", rule_ids=[rule_id])
    assert len(result.violations) == count, result.to_text()
    expected_line = 1 if marker is None else _marker_line(path, marker)
    violation = result.violations[0]
    assert violation.rule == rule_id
    assert violation.path == path
    assert violation.line == expected_line


@pytest.mark.parametrize(
    "fixture,rule_id",
    [(fixture, rule) for fixture, rule, _, _ in FIXTURE_EXPECTATIONS],
    ids=_fixture_ids(),
)
def test_fixture_flagged_under_full_rule_set(fixture, rule_id):
    path = os.path.join(FIXTURES, fixture)
    result = lint_paths([path], force_kind="library")
    assert rule_id in {violation.rule for violation in result.violations}


def test_parse_error_reported_as_p001():
    path = os.path.join(FIXTURES, "p001_parse_error.py.txt")
    result = lint_paths([path], force_kind="library")
    assert [violation.rule for violation in result.violations] == ["P001"]
    assert result.violations[0].path == path


def test_unreadable_sources_are_p001_findings(tmp_path):
    """A non-UTF-8 byte and a NUL byte are parse errors, not tracebacks."""
    undecodable = tmp_path / "undecodable.py"
    undecodable.write_bytes(b"x = 1\ny = '\xff'\n")
    nul = tmp_path / "nul.py"
    nul.write_bytes(b"x = 1\ny = 2\x00\n")
    result = lint_paths([str(tmp_path)], force_kind="library")
    assert [(v.rule, v.path, v.line) for v in result.violations] == [
        ("P001", str(nul), 1),
        ("P001", str(undecodable), 2),
    ], result.to_text()
    assert result.files_scanned == 0


def test_second_run_sees_an_edited_layer_table(tmp_path, monkeypatch, capsys):
    """Every run lints afresh: an edit outside the linted file (here the
    layer table) changes the next run's findings."""
    module = tmp_path / "repro" / "geo" / "shapes.py"
    module.parent.mkdir(parents=True)
    module.write_text("from repro.topology import graph\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    argv = ["repro", "--kind=library"]
    assert lint_main(argv) == 0  # geo and topology share layer 1
    capsys.readouterr()
    monkeypatch.setitem(layers._LAYER_OF, "topology", 2)
    assert lint_main(argv) == 1
    assert "L401 (layer-violation)" in capsys.readouterr().out


def test_clean_fixture_has_zero_findings():
    """Sanctioned patterns pass, including the in-file D101 suppression."""
    path = os.path.join(FIXTURES, "clean.py")
    result = lint_paths([path], force_kind="library")
    assert result.ok, result.to_text()


def test_d112_flags_thread_pool_imports_outside_the_pool_homes():
    """ShardPool is the one fan-out: a ThreadPoolExecutor import is a
    finding in library code and clean inside a sanctioned pool home."""
    violating = os.path.join(FIXTURES, "d112_thread_pool.py")
    result = lint_paths([violating], force_kind="library", rule_ids=["D112"])
    assert [violation.line for violation in result.violations] == [
        _marker_line(violating, "# MARK")
    ], result.to_text()
    assert "ThreadPoolExecutor" in result.violations[0].message
    home = os.path.join(FIXTURES, "pool_home", "repro", "core", "pool.py")
    result = lint_paths([home], force_kind="library", rule_ids=["D112"])
    assert result.ok, result.to_text()


def test_suppression_is_line_and_rule_scoped():
    path = os.path.join(FIXTURES, "clean.py")
    # The suppressed D101 call resurfaces if we ask for a rule the
    # comment does not name ... (no other rule fires there, so check
    # the opposite: removing the only suppressed rule finds nothing).
    result = lint_paths([path], force_kind="library", rule_ids=["D101"])
    assert result.ok
    # ... and the same code in a fixture without the comment is caught.
    bad = os.path.join(FIXTURES, "d101_global_random.py")
    assert not lint_paths([bad], force_kind="library", rule_ids=["D101"]).ok


def test_fixture_corpus_is_skipped_when_walking_tests():
    """Directory walks prune lint_fixtures; only explicit paths lint them."""
    result = lint_paths([os.path.dirname(__file__)])
    fixture_paths = [
        violation.path
        for violation in result.violations
        if "lint_fixtures" in violation.path
    ]
    assert fixture_paths == []


def test_real_tree_is_clean():
    """The acceptance gate: zero findings over the entire repository."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = [
        os.path.join(root, name)
        for name in ("src", "tests", "benchmarks", "examples", "tools")
    ]
    result = lint_paths([path for path in paths if os.path.isdir(path)])
    assert result.ok, result.to_text()


def test_json_output_is_stable_and_parseable():
    path = os.path.join(FIXTURES, "d104_wall_clock.py")
    first = lint_paths([path], force_kind="library")
    second = lint_paths([path], force_kind="library")
    assert first.to_json() == second.to_json()
    payload = json.loads(first.to_json())
    assert payload["version"] == 1
    assert payload["violation_count"] == len(payload["violations"])
    entry = payload["violations"][0]
    assert list(entry) == ["rule", "name", "path", "line", "col", "message"]
    assert entry["rule"] == "D104"


def test_cli_exit_codes(capsys):
    bad = os.path.join(FIXTURES, "d101_global_random.py")
    assert lint_main([bad, "--kind=library", "--format=json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"][0]["rule"] == "D101"
    clean = os.path.join(FIXTURES, "clean.py")
    assert lint_main([clean, "--kind=library"]) == 0
    assert lint_main(["--list-rules"]) == 0


def test_kind_classification_and_package_inference():
    assert classify_kind(os.path.join("tests", "test_x.py")) == "tests"
    assert classify_kind(os.path.join("benchmarks", "bench.py")) == "benchmarks"
    assert classify_kind(os.path.join("src", "repro", "rng.py")) == "library"
    assert infer_package(os.path.join("src", "repro", "bgp", "updates.py")) == "bgp"
    assert infer_package(os.path.join("src", "repro", "rng.py")) == "rng"
    assert infer_package(os.path.join("tests", "test_x.py")) is None


def test_unknown_kind_rejected():
    with pytest.raises(ConfigurationError):
        lint_paths(["src"], force_kind="nonsense")


def test_nonexistent_path_rejected(capsys):
    missing = os.path.join(FIXTURES, "no_such_file.py")
    with pytest.raises(ConfigurationError, match="no such file"):
        lint_paths([missing])
    with pytest.raises(SystemExit) as excinfo:
        lint_main([missing])
    assert excinfo.value.code == 2
    assert "no such file" in capsys.readouterr().err


def test_unknown_rule_id_rejected(capsys):
    clean = os.path.join(FIXTURES, "clean.py")
    with pytest.raises(ConfigurationError, match="Z999"):
        lint_paths([clean], rule_ids=["Z999"])
    with pytest.raises(SystemExit) as excinfo:
        lint_main([clean, "--rule=Z999"])
    assert excinfo.value.code == 2
    assert "Z999" in capsys.readouterr().err


def test_every_repro_package_is_declared_in_some_layer():
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "src",
        "repro",
    )
    for entry in sorted(os.listdir(src)):
        package = entry[:-3] if entry.endswith(".py") else entry
        if package.startswith((".", "__pycache__")):
            continue
        if entry.endswith(".py") and package in ("__init__", "__main__"):
            assert layer_of(package) is not None
            continue
        assert layer_of(package) is not None, f"{package} missing from LAYERS"


def test_layer_dag_is_well_formed():
    seen = set()
    for members in LAYERS:
        for member in members:
            assert member not in seen, f"{member} declared twice"
            seen.add(member)


def test_rule_registry_rejects_duplicates_and_bad_rules(monkeypatch):
    rules = all_rules()
    # Register into a copy, so the probe plugin below does not outlive
    # this test.
    monkeypatch.setattr(violations, "_REGISTRY", dict(violations._REGISTRY))
    assert len({rule.rule_id for rule in rules}) == len(rules)
    existing = rules[0].rule_id

    with pytest.raises(ConfigurationError):

        @register_rule
        class Duplicate:
            rule_id = existing
            name = "duplicate"
            description = "clashes with a built-in"
            kinds = ("library",)

            def check(self, source):
                return []

    with pytest.raises(ConfigurationError):

        @register_rule
        class Incomplete:
            rule_id = "X999"

    # A well-formed plugin registers (and is immediately visible).
    @register_rule
    class PluginProbe:
        rule_id = "X901"
        name = "plugin-probe"
        description = "registration smoke test"
        kinds = ("library",)

        def check(self, source):
            return []

    assert "X901" in {rule.rule_id for rule in all_rules()}
