"""reprolint engine: collect files, parse, run rules, filter, format.

The engine is rule-agnostic: it knows how to turn paths into parsed
:class:`SourceFile` records, how per-line ``# reprolint:
disable=<rule>`` suppressions work, and how to render findings as text
or machine-readable JSON.  Everything domain-specific lives in
:mod:`repro.lint.rules`.

Results are cached incrementally (``cache_dir=``): per-file results
keyed by content digest and rule versions, the whole-program pass keyed
over the full file manifest (see :mod:`repro.lint.cache`).  A cached
replay renders byte-identically to a fresh run.
"""

from __future__ import annotations

import ast
import json
import os
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.cache import LintCache, digest_text, rules_fingerprint
from repro.lint.violations import (
    ALL_KINDS,
    BENCHMARKS,
    EXAMPLES,
    LIBRARY,
    TESTS,
    Violation,
    all_rules,
    rule_wants_context,
)

#: Directory names never descended into while walking.  ``lint_fixtures``
#: holds files that deliberately violate every rule; they are linted only
#: when named explicitly (as the fixture tests do).
_SKIP_DIRS = {"lint_fixtures", "__pycache__", ".git", ".ruff_cache", ".pytest_cache"}

_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_\-,\s]+)")

#: Rule ID used for files that fail to parse.
PARSE_ERROR_RULE = "P001"


@dataclass
class SourceFile:
    """One parsed source file plus everything rules need to know."""

    path: str  # as reported in findings
    kind: str  # library/tests/benchmarks/examples
    package: Optional[str]  # top-level package under repro/, if any
    text: str
    tree: ast.Module
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)

    def suppressed(self, line: int, rule_id: str, rule_name: str) -> bool:
        tokens = self.suppressions.get(line)
        if not tokens:
            return False
        return "all" in tokens or rule_id in tokens or rule_name in tokens


@dataclass
class LintResult:
    """Outcome of one lint run.

    ``cache_hits``/``cache_misses`` count per-file cache lookups and
    ``project_cache_hit`` records whether the whole-program pass was
    replayed; none of the three appear in :meth:`to_json` or
    :meth:`to_text` — cached and uncached runs must render identically.
    """

    violations: List[Violation]
    files_scanned: int
    cache_hits: int = 0
    cache_misses: int = 0
    project_cache_hit: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> str:
        """Stable machine output: sorted findings, fixed key order."""
        payload = {
            "version": 1,
            "files_scanned": self.files_scanned,
            "violation_count": len(self.violations),
            "violations": [
                {
                    "rule": violation.rule,
                    "name": violation.name,
                    "path": violation.path,
                    "line": violation.line,
                    "col": violation.col,
                    "message": violation.message,
                }
                for violation in self.violations
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=False)

    def to_text(self) -> str:
        lines = [violation.format() for violation in self.violations]
        noun = "finding" if len(self.violations) == 1 else "findings"
        lines.append(
            f"reprolint: {len(self.violations)} {noun} in "
            f"{self.files_scanned} files"
        )
        return "\n".join(lines)


def classify_kind(path: str) -> str:
    """Which tree a file belongs to, from its path components."""
    parts = _parts(path)
    if "tests" in parts:
        return TESTS
    if "benchmarks" in parts:
        return BENCHMARKS
    if "examples" in parts:
        return EXAMPLES
    return LIBRARY


def infer_package(path: str) -> Optional[str]:
    """Top-level package of a file under a ``repro/`` tree, or None.

    ``src/repro/bgp/updates.py`` -> ``bgp``; ``src/repro/rng.py`` ->
    ``rng``; ``src/repro/__init__.py`` -> ``__init__``.  The *last*
    ``repro`` component wins so fixture trees nested under ``tests/``
    still resolve.
    """
    parts = _parts(path)
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro" and index + 1 < len(parts):
            nxt = parts[index + 1]
            if nxt.endswith(".py"):
                return nxt[: -len(".py")]
            return nxt
    return None


def _parts(path: str) -> Tuple[str, ...]:
    return tuple(part for part in os.path.normpath(path).split(os.sep) if part)


def collect_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of .py files.

    Explicitly named files are always included (that is how the fixture
    corpus gets linted); directories are walked with ``_SKIP_DIRS``
    pruned.
    """
    collected: Set[str] = set()
    for path in paths:
        if os.path.isfile(path):
            collected.add(path)
            continue
        if not os.path.isdir(path):
            from repro.errors import ConfigurationError

            raise ConfigurationError(f"no such file or directory: {path!r}")
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(
                d for d in dirs if d not in _SKIP_DIRS and not d.startswith(".")
            )
            for name in files:
                if name.endswith(".py"):
                    collected.add(os.path.join(root, name))
    return sorted(collected)


def parse_file(path: str, force_kind: Optional[str] = None) -> Tuple[Optional[SourceFile], Optional[Violation]]:
    """Parse one file into a SourceFile, or a parse-error violation."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        tree = ast.parse(text, filename=path)
    except SyntaxError as error:
        return None, Violation(
            rule=PARSE_ERROR_RULE,
            name="parse-error",
            path=path,
            line=error.lineno or 1,
            col=(error.offset or 1) - 1,
            message=f"cannot parse file: {error.msg}",
        )
    suppressions: Dict[int, Set[str]] = {}
    for line_number, line in enumerate(text.splitlines(), 1):
        match = _SUPPRESS_RE.search(line)
        if match:
            tokens = {
                token.strip()
                for token in match.group(1).split(",")
                if token.strip()
            }
            suppressions[line_number] = tokens
    source = SourceFile(
        path=path,
        kind=force_kind or classify_kind(path),
        package=infer_package(path),
        text=text,
        tree=tree,
        suppressions=suppressions,
    )
    return source, None


def run_file_rules(
    source: SourceFile, rules: Sequence[object]
) -> List[Violation]:
    """File-scoped findings for one file, suppressions applied."""
    findings: List[Violation] = []
    for rule in rules:
        if rule.scope != "file" or source.kind not in rule.kinds:
            continue
        for violation in rule.check([source]):
            if source.suppressed(violation.line, rule.rule_id, rule.name):
                continue
            findings.append(violation)
    return findings


def _select_rules(rule_ids: Optional[Sequence[str]]) -> List[object]:
    selected = all_rules()
    if rule_ids is None:
        return selected
    known = {rule.rule_id for rule in selected}
    unknown = sorted(set(rule_ids) - known)
    if unknown:
        from repro.errors import ConfigurationError

        raise ConfigurationError(f"unknown rule id(s): {', '.join(unknown)}")
    wanted = set(rule_ids)
    return [rule for rule in selected if rule.rule_id in wanted]


def _run_project_rules(
    files: Sequence[SourceFile], rules: Sequence[object]
) -> List[Violation]:
    """Project-scoped findings over the full file set, suppressed.

    Rules declaring ``wants_context`` share one lazily-built
    whole-program context (symbol index plus call graph) instead of
    each constructing their own.
    """
    from repro.lint.rules.interproc import WholeProgramContext

    context = WholeProgramContext(files)
    by_path = {source.path: source for source in files}
    findings: List[Violation] = []
    for rule in rules:
        applicable = [source for source in files if source.kind in rule.kinds]
        if not applicable:
            continue
        if rule_wants_context(rule):
            produced = list(rule.check(applicable, context))
        else:
            produced = list(rule.check(applicable))
        for violation in produced:
            source = by_path.get(violation.path)
            if source is not None and source.suppressed(
                violation.line, rule.rule_id, rule.name
            ):
                continue
            findings.append(violation)
    return findings


def lint_paths(
    paths: Sequence[str],
    force_kind: Optional[str] = None,
    rule_ids: Optional[Sequence[str]] = None,
    *,
    cache_dir: Optional[str] = None,
) -> LintResult:
    """Lint ``paths`` and return every unsuppressed finding, sorted.

    ``force_kind`` overrides tree classification (the fixture tests use
    it to hold test-tree fixtures to library rules); ``rule_ids``
    restricts the run to a subset of rules; ``cache_dir`` enables the
    incremental result cache, whose replays render byte-identically to
    a fresh run.
    """
    if force_kind is not None and force_kind not in ALL_KINDS:
        from repro.errors import ConfigurationError

        raise ConfigurationError(f"unknown tree kind {force_kind!r}")
    selected = _select_rules(rule_ids)
    file_rules = [rule for rule in selected if rule.scope == "file"]
    project_rules = [rule for rule in selected if rule.scope == "project"]
    cache = LintCache(cache_dir) if cache_dir else None

    files: List[SourceFile] = []
    findings: List[Violation] = []
    digests: Dict[str, str] = {}
    for path in collect_files(paths):
        source, parse_violation = parse_file(path, force_kind=force_kind)
        if parse_violation is not None:
            findings.append(parse_violation)
        if source is not None:
            files.append(source)
            digests[source.path] = digest_text(source.text)

    # Per-file pass: replay cached results, lint the rest.
    file_fingerprint = rules_fingerprint(file_rules)
    for source in files:
        key = LintCache.file_key(
            source.path, digests[source.path], source.kind, file_fingerprint
        )
        cached = cache.load(key) if cache is not None else None
        if cached is not None:
            findings.extend(cached)
            continue
        file_findings = run_file_rules(source, file_rules)
        findings.extend(file_findings)
        if cache is not None:
            cache.store(key, file_findings)

    # Whole-program pass: one cache entry over the full manifest.
    project_cache_hit = False
    if project_rules and files:
        project_fingerprint = rules_fingerprint(project_rules)
        manifest = [
            (source.path, digests[source.path], source.kind) for source in files
        ]
        project_key = LintCache.project_key(manifest, project_fingerprint)
        cached = cache.load(project_key) if cache is not None else None
        if cached is not None:
            project_cache_hit = True
            findings.extend(cached)
        else:
            produced = _run_project_rules(files, project_rules)
            findings.extend(produced)
            if cache is not None:
                cache.store(project_key, produced)

    findings.sort(key=lambda violation: violation.sort_key())
    return LintResult(
        violations=findings,
        files_scanned=len(files),
        cache_hits=cache.hits if cache is not None else 0,
        cache_misses=cache.misses if cache is not None else 0,
        project_cache_hit=project_cache_hit,
    )
