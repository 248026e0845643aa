"""Whole-program lint engine: index, call graph, cache, SARIF."""

from __future__ import annotations

import json
import os
import textwrap

from repro.lint import lint_paths
from repro.lint.cache import LintCache, digest_text, rules_fingerprint
from repro.lint.callgraph import CallGraph, format_chain
from repro.lint.cli import main as lint_main
from repro.lint.engine import collect_files, parse_file
from repro.lint.index import ProjectIndex, module_name_of
from repro.lint.rules.interproc import (
    WholeProgramContext,
    _discover_pool_roots,
)
from repro.lint.sarif import to_sarif
from repro.lint.violations import all_rules

FIXTURES = os.path.join(os.path.dirname(__file__), "lint_fixtures")


def _write_tree(root, files):
    paths = []
    for relative, body in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body), encoding="utf-8")
        paths.append(str(path))
    return sorted(paths)


def _parse_all(paths):
    sources = []
    for path in collect_files(paths):
        source, _ = parse_file(path, force_kind="library")
        if source is not None:
            sources.append(source)
    return sources


# -- ProjectIndex ----------------------------------------------------------


def test_module_name_anchors_at_last_repro_component():
    assert module_name_of("src/repro/bgp/cache.py") == "repro.bgp.cache"
    assert module_name_of("src/repro/rng.py") == "repro.rng"
    assert module_name_of("src/repro/bgp/__init__.py") == "repro.bgp"
    assert (
        module_name_of("tests/lint_fixtures/interproc/w501_collision/repro/alpha.py")
        == "repro.alpha"
    )
    assert module_name_of("tools/checkdocs.py") == "tools.checkdocs"


def test_index_resolves_imports_methods_and_globals(tmp_path):
    paths = _write_tree(
        tmp_path,
        {
            "repro/first.py": """
                '''Module one.'''

                _TABLE = {}
                LIMIT = 3


                def top(value):
                    '''Top-level.'''
                    return value


                class Engine:
                    '''A class.'''

                    def run(self):
                        '''Method calling a sibling method.'''
                        return self.step()

                    def step(self):
                        '''Sibling.'''
                        return 1
            """,
            "repro/second.py": """
                '''Module two.'''

                from repro.first import top


                def caller(value):
                    '''Crosses the module boundary.'''
                    return top(value)
            """,
        },
    )
    index = ProjectIndex.build(_parse_all(paths))
    first = index.module_named("repro.first")
    second = index.module_named("repro.second")
    assert first is not None and second is not None
    assert "repro.first.top" in index.functions
    assert "repro.first.Engine.run" in index.functions
    assert first.mutable_globals.keys() == {"_TABLE"}
    assert "LIMIT" in first.global_names

    import ast

    call = next(
        node
        for node in ast.walk(second.tree)
        if isinstance(node, ast.Call)
    )
    assert index.resolve(second, call.func) == "repro.first.top"
    run_info = index.functions["repro.first.Engine.run"]
    self_call = next(
        node
        for node in ast.walk(run_info.node)
        if isinstance(node, ast.Call)
    )
    assert (
        index.resolve(first, self_call.func, class_name="Engine")
        == "repro.first.Engine.step"
    )


# -- CallGraph -------------------------------------------------------------


def test_callgraph_edges_reachability_and_nested_attribution(tmp_path):
    paths = _write_tree(
        tmp_path,
        {
            "repro/graph.py": """
                '''Call-graph shapes: direct, reference, nested.'''


                def leaf():
                    '''Bottom.'''
                    return 0


                def middle():
                    '''Calls leaf directly.'''
                    return leaf()


                def host(worker):
                    '''Higher-order: receives a callable.'''
                    return worker()


                def outer():
                    '''Nested def calls leaf; host receives middle by name.'''

                    def inner():
                        return leaf()

                    host(middle)
                    return inner()
            """,
        },
    )
    index = ProjectIndex.build(_parse_all(paths))
    graph = CallGraph(index)
    edges = {
        (site.caller, site.callee, site.is_reference)
        for sites in graph.edges.values()
        for site in sites
    }
    assert ("repro.graph.middle", "repro.graph.leaf", False) in edges
    # Nested def's call attributes to the enclosing function.
    assert ("repro.graph.outer", "repro.graph.leaf", False) in edges
    # middle passed as an argument becomes a reference edge.
    assert ("repro.graph.outer", "repro.graph.middle", True) in edges

    reach = graph.reachable(["repro.graph.outer"])
    assert "repro.graph.leaf" in reach
    assert "repro.graph.middle" in reach
    chain = graph.chain(reach, "repro.graph.leaf")
    assert chain[0] == "repro.graph.outer"
    assert chain[-1] == "repro.graph.leaf"
    assert " -> " in format_chain(chain)


def test_pool_root_discovery_covers_indirection_and_hosts(tmp_path):
    """Direct targets resolve, a pool opened through ``ExitStack`` is
    still a pool, and a nested-def or lambda target makes its enclosing
    function the root."""
    paths = _write_tree(
        tmp_path,
        {
            "repro/fan.py": """
                '''Pool-target shapes: direct, ExitStack, nested, lambda.'''

                from concurrent.futures import ProcessPoolExecutor
                from contextlib import ExitStack


                def _direct(payload):
                    '''Submitted directly.'''
                    return payload


                def _stacked(payload):
                    '''Submitted to a pool opened inside an ExitStack.'''
                    return payload


                def run_direct(items):
                    '''pool.map with a resolved name.'''
                    with ProcessPoolExecutor() as pool:
                        return list(pool.map(_direct, items))


                def run_stacked(items):
                    '''stack.enter_context(...) wraps the pool constructor.'''
                    with ExitStack() as stack:
                        pool = stack.enter_context(ProcessPoolExecutor())
                        return list(pool.map(_stacked, items))


                def run_nested(items):
                    '''A nested def target attributes to this function.'''

                    def work(payload):
                        return payload

                    with ProcessPoolExecutor() as pool:
                        return list(pool.map(work, items))


                def run_lambda(items):
                    '''A lambda target attributes to this function.'''
                    with ProcessPoolExecutor() as pool:
                        return list(pool.map(lambda payload: payload, items))
            """,
        },
    )
    index = ProjectIndex.build(_parse_all(paths))
    assert _discover_pool_roots(index) == {
        "repro.fan._direct",
        "repro.fan._stacked",
        "repro.fan.run_nested",
        "repro.fan.run_lambda",
    }


# -- incremental cache -----------------------------------------------------


def _lint_fixture_dir(cache_dir):
    tree = os.path.join(FIXTURES, "interproc", "w503_accum")
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
    assert warm.project_cache_hit and not cold.project_cache_hit
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
    # Bumping a file rule's version changes the file fingerprint, so
    # the per-file entry written above no longer matches — but the
    # project fingerprint covers only project-scope rules, so that
    # entry still replays.
    file_rule = next(r for r in all_rules() if r.rule_id == "D101")
    monkeypatch.setattr(file_rule, "version", 99, raising=False)
    bumped = lint_paths(
        [str(source)], force_kind="library", cache_dir=str(cache_dir)
    )
    assert bumped.cache_misses == 1
    assert bumped.project_cache_hit
    # Bumping a project rule invalidates the project entry too.
    project_rule = next(r for r in all_rules() if r.rule_id == "W501")
    monkeypatch.setattr(project_rule, "version", 99, raising=False)
    rebumped = lint_paths(
        [str(source)], force_kind="library", cache_dir=str(cache_dir)
    )
    assert not rebumped.project_cache_hit


def test_rules_fingerprint_tracks_versions():
    class _Probe:
        rule_id = "X900"
        version = 1

    first = rules_fingerprint([_Probe()])
    _Probe.version = 2
    second = rules_fingerprint([_Probe()])
    assert first != second


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
    """``--cache-dir`` round trip: the cold run writes one file entry and
    one project entry there; the warm run replays them, byte-identical."""
    clean = os.path.join(FIXTURES, "clean.py")
    cache_dir = tmp_path / "cache"
    argv = [clean, "--kind=library", "--format=json", f"--cache-dir={cache_dir}"]
    assert lint_main(argv) == 0
    cold = capsys.readouterr().out
    entries = sorted(cache_dir.glob("*/*.json"))
    assert len(entries) == 2
    stamps = [entry.stat().st_mtime_ns for entry in entries]
    assert lint_main(argv) == 0
    assert capsys.readouterr().out == cold
    assert sorted(cache_dir.glob("*/*.json")) == entries
    assert [entry.stat().st_mtime_ns for entry in entries] == stamps


# -- whole-program context sharing ----------------------------------------


def test_context_is_lazy_and_shared():
    tree = os.path.join(FIXTURES, "interproc", "w502_escape")
    sources = []
    for path in collect_files([tree]):
        source, _ = parse_file(path, force_kind="library")
        sources.append(source)
    context = WholeProgramContext(sources)
    assert context._index is None
    index = context.index
    assert context.index is index  # built once
    graph = context.graph
    assert context.graph is graph
    assert context.pool_roots  # the fixture has a process pool


def test_real_tree_whole_program_rules_are_clean():
    """W501/W502/W503 over the real tree: zero unsuppressed findings."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = [
        os.path.join(root, name)
        for name in ("src", "tests", "benchmarks", "examples", "tools")
    ]
    result = lint_paths(
        [path for path in paths if os.path.isdir(path)],
        rule_ids=["W501", "W502", "W503"],
    )
    assert result.ok, result.to_text()
