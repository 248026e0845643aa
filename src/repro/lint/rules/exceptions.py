"""Exception-discipline rules (family ``E3xx``).

Library code under ``src/repro/`` raises only the :mod:`repro.errors`
hierarchy, so callers can catch :class:`~repro.errors.ReproError` at a
boundary and know nothing domain-specific escaped.  Swallowing
``Exception`` without re-raising is banned for the mirror-image reason:
it hides failures that should surface.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterable, List, Set

from repro.lint.violations import LIBRARY, Violation, register_rule

#: Raises that never indicate a domain error.
_ALWAYS_ALLOWED = frozenset({"NotImplementedError", "StopIteration", "KeyboardInterrupt"})


def _errors_hierarchy() -> FrozenSet[str]:
    """Exception class names exported by :mod:`repro.errors`."""
    import repro.errors as errors_module

    return frozenset(
        name
        for name, obj in vars(errors_module).items()
        if isinstance(obj, type) and issubclass(obj, BaseException)
    )


def _terminal_name(node: ast.expr):
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _caught_names(nodes: List[ast.AST]) -> Set[str]:
    """Names bound by ``except ... as name`` anywhere in the module.

    Re-raising a caught exception (``raise err``) is always fine; a
    flow-sensitive check is not worth the complexity here.
    """
    names: Set[str] = set()
    for node in nodes:
        if isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
    return names


@register_rule
class ForeignRaiseRule:
    """E301: library raise of a non-repro.errors exception type."""

    rule_id = "E301"
    name = "foreign-raise"
    description = (
        "library code raises only repro.errors types (bare re-raise and "
        "NotImplementedError excepted), so ReproError is the one boundary "
        "callers need"
    )
    kinds = (LIBRARY,)

    def check(self, source) -> Iterable[Violation]:
        if source.package == "errors":
            return
        allowed = _errors_hierarchy() | _ALWAYS_ALLOWED
        caught = _caught_names(source.nodes)
        for node in source.nodes:
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            name = _terminal_name(node.exc)
            if name is None or name in allowed or name in caught:
                continue
            yield Violation(
                rule=self.rule_id,
                name=self.name,
                path=source.path,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"raises {name}, which is outside the repro.errors "
                    "hierarchy; raise a ReproError subclass (subclass the "
                    "builtin too if callers expect it)"
                ),
            )


@register_rule
class BroadExceptRule:
    """E302: bare ``except:`` / ``except Exception:`` that swallows."""

    rule_id = "E302"
    name = "broad-except"
    description = (
        "bare except / except Exception without a re-raise swallows "
        "unexpected failures; catch the narrowest repro.errors type"
    )
    kinds = (LIBRARY,)

    def check(self, source) -> Iterable[Violation]:
        for node in source.nodes:
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if self._reraises(node.body):
                continue
            caught = "bare except" if node.type is None else "except Exception"
            yield Violation(
                rule=self.rule_id,
                name=self.name,
                path=source.path,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"{caught} without re-raise swallows unexpected "
                    "failures; catch a specific repro.errors type or "
                    "re-raise"
                ),
            )

    @staticmethod
    def _is_broad(handler_type) -> bool:
        if handler_type is None:
            return True
        name = _terminal_name(handler_type)
        return name in ("Exception", "BaseException")

    @staticmethod
    def _reraises(body: List[ast.stmt]) -> bool:
        stack: List[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(node))
        return False
