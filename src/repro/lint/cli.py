"""Command-line entry point for reprolint.

``python -m repro.lint [paths...]`` or the ``reprolint`` console
script.  Exit status is 0 when no findings survive suppression, 1
otherwise, and 2 for usage errors — so ``make lint`` can gate CI.

Every run lints the files as they are on disk and writes nothing but
its report.  ``--format sarif`` emits SARIF 2.1.0 for CI annotation
(``--output`` writes it to a file); no option changes the findings.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.lint.engine import lint_paths
from repro.lint.violations import ALL_KINDS, all_rules

_DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples", "tools")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description=(
            "Determinism & invariant static analysis for the repro "
            "simulation substrate."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help=(
            "files or directories to lint (default: any of "
            f"{', '.join(_DEFAULT_PATHS)} that exist)"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: %(default)s)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--kind",
        choices=ALL_KINDS,
        default=None,
        help=(
            "treat every file as this tree kind instead of classifying "
            "by path (the fixture tests use --kind=library)"
        ),
    )
    parser.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="RULE_ID",
        default=None,
        help="run only this rule ID (repeatable)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule and exit",
    )
    return parser


def _list_rules() -> str:
    lines = []
    for rule in all_rules():
        lines.append(f"{rule.rule_id}  {rule.name}  [{','.join(rule.kinds)}]")
        lines.append(f"      {rule.description}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)
    if options.list_rules:
        print(_list_rules())
        return 0
    if options.paths:
        paths: List[str] = list(options.paths)
    else:
        paths = [path for path in _DEFAULT_PATHS if os.path.isdir(path)]
        if not paths:
            parser.error("no default tree found; name files or directories")
    try:
        result = lint_paths(
            paths,
            force_kind=options.kind,
            rule_ids=options.rules,
        )
    except ConfigurationError as error:
        parser.error(str(error))
    if options.format == "json":
        report = result.to_json()
    elif options.format == "sarif":
        from repro.lint.sarif import to_sarif

        report = to_sarif(result)
    else:
        report = result.to_text()
    if options.output:
        with open(options.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    else:
        print(report)
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
