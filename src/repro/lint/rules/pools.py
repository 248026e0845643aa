"""Process-pool hygiene (rule ``D112``).

Process-level fan-out lives in one sanctioned home,
:mod:`repro.core.pool` (the sharded paths all route through its
``ShardPool``), because every pool carries the same two correctness
obligations: results must merge bit-identically to the single-process
path, and every target callable must be a *top-level* function so it
pickles under the ``spawn`` start method (a lambda or a nested ``def``
imports fine under ``fork`` and then breaks on every other platform, or
silently captures stale parent state).  This rule enforces both halves:
no pool machinery outside the pool home, and no unpicklable submission
targets anywhere.  Thread pools get the first half only: ``ShardPool``
is the library's one fan-out mechanism, so a ``ThreadPoolExecutor``
import outside the pool home is flagged too.
"""

from __future__ import annotations

import ast
import os
from typing import Iterable, List, Optional, Set, Tuple

from repro.lint.rules.determinism import _violation
from repro.lint.violations import ALL_KINDS, LIBRARY, Violation, register_rule

#: The one module allowed to import pool machinery, as a path suffix
#: matched against the reported file path with separators normalised.
_POOL_HOME_SUFFIX = "repro/core/pool.py"


def _is_pool_home(path: str) -> bool:
    return path.replace(os.sep, "/").endswith(_POOL_HOME_SUFFIX)


def _nested_def_names(tree: ast.Module) -> Set[str]:
    """Names of every function defined inside another function."""
    nested: Set[str] = set()
    for outer in ast.walk(tree):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(outer):
            if inner is outer:
                continue
            if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested.add(inner.name)
    return nested


def _lambda_names(tree: ast.Module) -> Set[str]:
    """Names bound (anywhere) to a bare lambda expression."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _pool_bound_names(tree: ast.Module, pool_ctors: Set[str]) -> Set[str]:
    """Names bound to a ``ProcessPoolExecutor(...)`` / ``Pool(...)`` call.

    Covers plain assignment and ``with ... as pool`` bindings; the
    flow-insensitive approximation matches how the rest of the ruleset
    infers types.
    """
    bound: Set[str] = set()

    def record(target: Optional[ast.AST], value: ast.AST) -> None:
        if (
            isinstance(target, ast.Name)
            and isinstance(value, ast.Call)
            and _callee_name(value.func) in pool_ctors
        ):
            bound.add(target.id)

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                record(target, node.value)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                record(item.optional_vars, item.context_expr)
    return bound


def _callee_name(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


@register_rule
class ProcessPoolHygieneRule:
    """D112: process pools outside repro.core.pool or with unpicklable targets."""

    rule_id = "D112"
    name = "process-pool-hygiene"
    description = (
        "process-level fan-out belongs in repro.core.pool; importing "
        "multiprocessing, ProcessPoolExecutor or ThreadPoolExecutor "
        "elsewhere in the library is flagged, and pool submit/map "
        "targets must be top-level functions — lambdas and nested defs "
        "do not pickle under spawn"
    )
    scope = "file"
    kinds = ALL_KINDS
    version = 5

    _POOL_CTORS = frozenset({"ProcessPoolExecutor", "Pool", "ShardPool"})

    def check(self, files) -> Iterable[Violation]:
        source = files[0]
        findings: List[Tuple[int, Violation]] = []
        pool_ctor_names = set(self._POOL_CTORS)
        restrict_imports = (
            source.kind == LIBRARY and not _is_pool_home(source.path)
        )
        for node, message, alias in self._import_findings(source.tree):
            if alias:
                pool_ctor_names.add(alias)
            if restrict_imports:
                findings.append(
                    (node.lineno, _violation(self, source, node, message))
                )
        findings.extend(
            (node.lineno, _violation(self, source, node, message))
            for node, message in self._target_findings(source.tree, pool_ctor_names)
        )
        for _, violation in sorted(findings, key=lambda pair: pair[0]):
            yield violation

    def _import_findings(self, tree: ast.Module):
        """Every pool-machinery import: ``(node, message, bound_alias)``."""
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "multiprocessing":
                        yield (
                            node,
                            "import of 'multiprocessing' outside a "
                            "sanctioned pool home; route process fan-out "
                            "through repro.core.pool",
                            None,
                        )
                        break
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module.split(".")[0] == "multiprocessing":
                    yield (
                        node,
                        "import from 'multiprocessing' outside a "
                        "sanctioned pool home; route process fan-out "
                        "through repro.core.pool",
                        None,
                    )
                elif module.startswith("concurrent.futures"):
                    for alias in node.names:
                        if alias.name == "ProcessPoolExecutor":
                            yield (
                                node,
                                "import of ProcessPoolExecutor outside "
                                "a sanctioned pool home; route process "
                                "fan-out through repro.core.pool",
                                alias.asname or alias.name,
                            )
                        elif alias.name == "ThreadPoolExecutor":
                            yield (
                                node,
                                "import of ThreadPoolExecutor outside "
                                "a sanctioned pool home; repro.core.pool "
                                "is the one fan-out mechanism",
                                None,
                            )

    def _target_findings(self, tree: ast.Module, pool_ctors: Set[str]):
        """Every ``pool.submit/map`` whose target cannot pickle."""
        pools = _pool_bound_names(tree, pool_ctors)
        if not pools:
            return
        nested = _nested_def_names(tree)
        lambdas = _lambda_names(tree)
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("submit", "map")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in pools
                and node.args
            ):
                continue
            target = node.args[0]
            if isinstance(target, ast.Lambda):
                yield (
                    node,
                    f"pool.{node.func.attr}() target is a lambda, which "
                    "does not pickle under the spawn start method; use a "
                    "top-level function",
                )
            elif isinstance(target, ast.Name) and (
                target.id in nested or target.id in lambdas
            ):
                yield (
                    node,
                    f"pool.{node.func.attr}() target {target.id!r} is not "
                    "a top-level function, so it does not pickle under "
                    "the spawn start method",
                )
