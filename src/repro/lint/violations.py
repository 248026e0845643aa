"""Violation record, rule protocol, and the rule registry.

A *rule* is any object satisfying the small protocol below; rules are
registered with :func:`register_rule` (usable as a decorator on a rule
class) and discovered by the engine through :func:`all_rules`.  Adding a
rule to reprolint therefore means writing one module under
``repro/lint/rules/`` and importing it from ``repro.lint.rules`` —
nothing in the engine changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Protocol, Sequence, Tuple

from repro.errors import ConfigurationError

#: Tree kinds a source file can belong to.  Rules declare which kinds
#: they inspect: library invariants (wall clocks, layering, raises) do
#: not bind test code, while global-randomness bans bind everything.
LIBRARY = "library"
TESTS = "tests"
BENCHMARKS = "benchmarks"
EXAMPLES = "examples"
ALL_KINDS = (LIBRARY, TESTS, BENCHMARKS, EXAMPLES)


@dataclass(frozen=True)
class Violation:
    """One finding: rule identity plus location plus a human message."""

    rule: str  # short stable ID, e.g. "D101"
    name: str  # kebab-case rule name, e.g. "global-random"
    path: str  # path as given to the engine
    line: int  # 1-based
    col: int  # 0-based, as in the AST
    message: str

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} ({self.name}) {self.message}"


class Rule(Protocol):
    """The plugin protocol every reprolint rule implements.

    A rule checks one parsed file at a time, and only files whose tree
    kind is in ``kinds``.  It reads the file's nodes from
    ``source.nodes`` rather than walking ``source.tree`` again.
    """

    rule_id: str
    name: str
    description: str
    kinds: Sequence[str]

    def check(self, source: "SourceFile") -> Iterable[Violation]:  # noqa: F821
        """Yield the violations in one file."""
        ...


_REGISTRY: Dict[str, Rule] = {}


def register_rule(rule_class):
    """Class decorator: instantiate and register a rule.

    Raises :class:`~repro.errors.ConfigurationError` on duplicate rule
    IDs so two plugins can never silently shadow each other.
    """
    rule = rule_class()
    for attribute in ("rule_id", "name", "description", "kinds"):
        if not hasattr(rule, attribute):
            raise ConfigurationError(
                f"lint rule {rule_class.__name__} lacks required attribute "
                f"{attribute!r}"
            )
    if rule.rule_id in _REGISTRY:
        raise ConfigurationError(f"duplicate lint rule id {rule.rule_id!r}")
    _REGISTRY[rule.rule_id] = rule
    return rule_class


def all_rules() -> List[Rule]:
    """Registered rules, sorted by rule ID for deterministic output."""
    import repro.lint.rules  # noqa: F401  (importing registers built-ins)

    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]
