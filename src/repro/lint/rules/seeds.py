"""Seed-stream uniqueness rules (family ``S2xx``).

:func:`repro.rng.derive_seed` namespaces child streams by a string
label; two call sites using the same label (for the same parent seed)
silently share a stream, which is the classic correlated-randomness
bug.  These rules collect every literal or f-string label passed to
``derive_seed``/``derive_rng`` across the library tree and flag
duplicates (S201) and literal/template collisions (S202).

Labels that are plain variables are ignored: wrapper helpers such as
``derive_rng`` legitimately forward a caller-supplied label; one that
reaches two call sites that way fails the test suite's run-time
``derive_seed`` recorder instead.  :mod:`repro.rng` is exempt too.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Tuple

from repro.lint.violations import LIBRARY, Violation, register_rule

_DERIVE_NAMES = ("derive_seed", "derive_rng")

#: Placeholder standing in for a ``{...}`` field in an f-string label.
_HOLE = "\x00"


class _LabelSite:
    def __init__(self, path: str, line: int, col: int, kind: str, text: str) -> None:
        self.path = path
        self.line = line
        self.col = col
        self.kind = kind  # "literal" | "template"
        self.text = text  # literal value, or template with _HOLE markers

    def display(self) -> str:
        return self.text.replace(_HOLE, "{...}")


def _label_argument(call: ast.Call) -> Optional[ast.expr]:
    if len(call.args) >= 2:
        return call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "label":
            return keyword.value
    return None


def _normalise(node: ast.expr) -> Optional[Tuple[str, str]]:
    """(kind, text) for a literal/f-string label, or None if dynamic."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return "literal", node.value
    if isinstance(node, ast.JoinedStr):
        parts: List[str] = []
        for value in node.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                parts.append(value.value)
            else:
                parts.append(_HOLE)
        text = "".join(parts)
        return ("template", text) if _HOLE in text else ("literal", text)
    return None


def _collect_sites(files) -> List[_LabelSite]:
    sites: List[_LabelSite] = []
    for source in files:
        if source.package == "rng":
            continue
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_derive = (
                isinstance(func, ast.Name) and func.id in _DERIVE_NAMES
            ) or (
                isinstance(func, ast.Attribute) and func.attr in _DERIVE_NAMES
            )
            if not is_derive:
                continue
            label = _label_argument(node)
            if label is None:
                continue
            normalised = _normalise(label)
            if normalised is None:
                continue
            kind, text = normalised
            sites.append(
                _LabelSite(
                    path=source.path,
                    line=label.lineno,
                    col=label.col_offset,
                    kind=kind,
                    text=text,
                )
            )
    return sites


def _template_regex(template: str) -> "re.Pattern[str]":
    pattern = "".join(
        ".+" if chunk == _HOLE else re.escape(chunk)
        for chunk in re.split(f"({_HOLE})", template)
        if chunk
    )
    return re.compile(f"^{pattern}$")


@register_rule
class DuplicateSeedLabelRule:
    """S201: the same label derived at two different call sites."""

    rule_id = "S201"
    name = "duplicate-seed-label"
    description = (
        "two call sites pass the same label to derive_seed/derive_rng, so "
        "their streams are identical; namespace labels by module/purpose"
    )
    scope = "project"
    kinds = (LIBRARY,)

    def check(self, files) -> Iterable[Violation]:
        groups: Dict[str, List[_LabelSite]] = {}
        for site in _collect_sites(files):
            groups.setdefault(site.text, []).append(site)
        for text in sorted(groups):
            sites = groups[text]
            locations = sorted({(s.path, s.line) for s in sites})
            if len(locations) < 2:
                continue
            for site in sites:
                others = ", ".join(
                    f"{p}:{ln}"
                    for p, ln in locations
                    if (p, ln) != (site.path, site.line)
                )
                yield Violation(
                    rule=self.rule_id,
                    name=self.name,
                    path=site.path,
                    line=site.line,
                    col=site.col,
                    message=(
                        f"seed label {site.display()!r} is also derived at "
                        f"{others}; identical labels share one stream"
                    ),
                )


@register_rule
class CollidingSeedLabelRule:
    """S202: a literal label that a dynamic f-string label can produce."""

    rule_id = "S202"
    name = "colliding-seed-label"
    description = (
        "a literal seed label matches what an f-string label elsewhere can "
        "expand to, so the streams can collide at runtime"
    )
    scope = "project"
    kinds = (LIBRARY,)

    def check(self, files) -> Iterable[Violation]:
        sites = _collect_sites(files)
        literals = [s for s in sites if s.kind == "literal"]
        templates = [s for s in sites if s.kind == "template"]
        for literal in literals:
            for template in templates:
                if (literal.path, literal.line) == (template.path, template.line):
                    continue
                if _template_regex(template.text).match(literal.text):
                    yield Violation(
                        rule=self.rule_id,
                        name=self.name,
                        path=literal.path,
                        line=literal.line,
                        col=literal.col,
                        message=(
                            f"literal seed label {literal.text!r} can collide "
                            f"with template {template.display()!r} at "
                            f"{template.path}:{template.line}"
                        ),
                    )
