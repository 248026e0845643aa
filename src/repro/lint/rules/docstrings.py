"""Public-API documentation rule (``D111``).

The reproduction is grown PR by PR by contributors with no memory of
each other; the public surface of every library package is the contract
they navigate by.  ``D111`` requires a docstring on every public
module-level function and class in library code — and on the public
methods of public classes — so that surface stays self-describing.

Names starting with ``_`` (including dunders and ``__init__``) are
private by convention and exempt, as are nested functions and the
``lint`` package itself (its rule plugins describe themselves through
``description`` attributes).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional

from repro.lint.rules.determinism import _violation
from repro.lint.violations import LIBRARY, Violation, register_rule


@register_rule
class MissingDocstringRule:
    """D111: public library functions/classes must carry docstrings."""

    rule_id = "D111"
    name = "missing-docstring"
    description = (
        "public module-level functions and classes in library code (and "
        "public methods of public classes) must have a docstring; "
        "underscore-prefixed names, nested functions, and the lint "
        "package are exempt"
    )
    kinds = (LIBRARY,)

    def check(self, source) -> Iterable[Violation]:
        """Flag every undocumented public definition in one file."""
        if source.package == "lint":
            return
        for node in source.tree.body:
            yield from self._check_definition(source, node)

    def _check_definition(
        self, source, node: ast.AST, owner: Optional[str] = None
    ) -> Iterator[Violation]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("_"):
                return
            if ast.get_docstring(node) is None:
                label = (
                    f"method {owner}.{node.name}()"
                    if owner
                    else f"function {node.name}()"
                )
                yield _violation(
                    self, source, node,
                    f"public {label} has no docstring; state what it "
                    "computes (or prefix the name with '_')",
                )
        elif isinstance(node, ast.ClassDef):
            if node.name.startswith("_"):
                return
            if ast.get_docstring(node) is None:
                yield _violation(
                    self, source, node,
                    f"public class {node.name} has no docstring; state "
                    "what it models (or prefix the name with '_')",
                )
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from self._check_definition(
                        source, child, owner=node.name
                    )
