"""reprolint engine: collect files, parse, run rules, filter, format.

The engine is rule-agnostic: it knows how to turn paths into parsed
:class:`SourceFile` records, how per-line ``# reprolint:
disable=<rule>`` suppressions work, and how to render findings as text
or machine-readable JSON.  Everything domain-specific lives in
:mod:`repro.lint.rules`.

Each file is walked once: :func:`parse_file` stores the tree's nodes,
in walk order, on the :class:`SourceFile`, and every rule iterates that
list instead of walking the tree again.  Nothing is cached between
runs, so every run lints what is on disk with the rules as they are.
"""

from __future__ import annotations

import ast
import json
import os
import re
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.violations import (
    ALL_KINDS,
    BENCHMARKS,
    EXAMPLES,
    LIBRARY,
    TESTS,
    Violation,
    all_rules,
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
    tree: ast.Module
    nodes: List[ast.AST]  # every node of ``tree``, in walk order
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    _derived: Dict[str, object] = field(default_factory=dict)

    def derived(self, key: str, build: Callable[["SourceFile"], object]) -> object:
        """A per-file fact several rules share, built once on first use."""
        if key not in self._derived:
            self._derived[key] = build(self)
        return self._derived[key]

    def suppressed(self, line: int, rule_id: str, rule_name: str) -> bool:
        tokens = self.suppressions.get(line)
        if not tokens:
            return False
        return "all" in tokens or rule_id in tokens or rule_name in tokens


@dataclass
class LintResult:
    """Outcome of one lint run."""

    violations: List[Violation]
    files_scanned: int

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> str:
        """Stable machine output: sorted findings, fixed key order."""
        payload = {
            "version": 1,
            "files_scanned": self.files_scanned,
            "violation_count": len(self.violations),
            "violations": [asdict(violation) for violation in self.violations],
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
    """Parse one file into a SourceFile, or a parse-error violation.

    A file that is not UTF-8, or that holds a NUL byte, is a parse error
    like a syntax error.  ``ast.parse`` rejects a NUL byte with
    ``ValueError`` on Python 3.9 and 3.10 and with ``SyntaxError`` on
    later interpreters.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as error:
        line = error.object[: error.start].count(b"\n") + 1
        return None, _parse_error(
            path, line, 0, f"not UTF-8 ({error.reason} at byte {error.start})"
        )
    try:
        tree = ast.parse(text, filename=path)
    except SyntaxError as error:
        return None, _parse_error(
            path, error.lineno or 1, (error.offset or 1) - 1, error.msg
        )
    except ValueError as error:
        return None, _parse_error(path, 1, 0, str(error))
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
        tree=tree,
        nodes=list(ast.walk(tree)),
        suppressions=suppressions,
    )
    return source, None


def _parse_error(path: str, line: int, col: int, reason: str) -> Violation:
    return Violation(
        rule=PARSE_ERROR_RULE,
        name="parse-error",
        path=path,
        line=line,
        col=col,
        message=f"cannot parse file: {reason}",
    )


def run_file_rules(
    source: SourceFile, rules: Sequence[object]
) -> List[Violation]:
    """Findings for one file, suppressions applied."""
    findings: List[Violation] = []
    for rule in rules:
        if source.kind not in rule.kinds:
            continue
        for violation in rule.check(source):
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


def lint_paths(
    paths: Sequence[str],
    force_kind: Optional[str] = None,
    rule_ids: Optional[Sequence[str]] = None,
) -> LintResult:
    """Lint ``paths`` and return every unsuppressed finding, sorted.

    ``force_kind`` overrides tree classification (the fixture tests use
    it to hold test-tree fixtures to library rules); ``rule_ids``
    restricts the run to a subset of rules.
    """
    if force_kind is not None and force_kind not in ALL_KINDS:
        from repro.errors import ConfigurationError

        raise ConfigurationError(f"unknown tree kind {force_kind!r}")
    rules = _select_rules(rule_ids)
    files_scanned = 0
    findings: List[Violation] = []
    for path in collect_files(paths):
        source, parse_violation = parse_file(path, force_kind=force_kind)
        if parse_violation is not None:
            findings.append(parse_violation)
        if source is None:
            continue
        files_scanned += 1
        findings.extend(run_file_rules(source, rules))

    findings.sort(key=lambda violation: violation.sort_key())
    return LintResult(violations=findings, files_scanned=files_scanned)
