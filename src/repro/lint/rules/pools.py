"""Process-pool rules: hygiene (``D112``) and shard float sums (``W503``).

Process-level fan-out lives in one sanctioned home,
:mod:`repro.core.pool` (the sharded paths all route through its
``ShardPool``), because every pool carries the same two correctness
obligations: results must merge bit-identically to the single-process
path, and every target callable must be a *top-level* function so it
pickles under the ``spawn`` start method (a lambda or a nested ``def``
imports fine under ``fork`` and then breaks on every other platform, or
silently captures stale parent state).  D112 enforces both halves:
no pool machinery outside the pool home, and no unpicklable submission
targets anywhere.  Thread pools get the first half only: ``ShardPool``
is the library's one fan-out mechanism, so a ``ThreadPoolExecutor``
import outside the pool home is flagged too.

W503 looks at what a pool target runs.  Its roots are the
``submit``/``map`` targets of pools bound in the file (the same binding
logic as D112); from there a plain-name walk over the file's top-level
``def``\\ s finds everything a worker reaches without leaving the file,
and no reached loop may grow a float accumulator: float addition is
non-associative, so a sum whose order depends on shard boundaries breaks
bit-identity.  It stays a static rule because a run cannot see that
hazard: every artifact rounds the loads a per-shard sum would move.
A module global a worker reads is left to ``tools/determinism.py``,
which compares every pooled form's bytes with its in-process form's.
"""

from __future__ import annotations

import ast
import os
from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.lint.rules.determinism import _callee_name, _violation
from repro.lint.violations import ALL_KINDS, LIBRARY, Violation, register_rule

#: The one module allowed to import pool machinery, as a path suffix
#: matched against the reported file path with separators normalised.
_POOL_HOME_SUFFIX = "repro/core/pool.py"

_POOL_CTORS = frozenset({"ProcessPoolExecutor", "Pool", "ShardPool"})

_OUTSIDE_HOME = (
    "outside a sanctioned pool home; route process fan-out through repro.core.pool"
)

_FunctionNode = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_pool_home(path: str) -> bool:
    return path.replace(os.sep, "/").endswith(_POOL_HOME_SUFFIX)


def _nested_def_names(tree: ast.AST) -> Set[str]:
    """Names of every function defined inside another function."""
    nested: Set[str] = set()
    for outer in ast.walk(tree):
        if not isinstance(outer, _FunctionNode):
            continue
        for inner in ast.walk(outer):
            if inner is not outer and isinstance(inner, _FunctionNode):
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


def _pool_ctor_names(tree: ast.Module) -> Set[str]:
    """Pool constructors, plus any ``ProcessPoolExecutor`` import alias."""
    names = set(_POOL_CTORS)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            "concurrent.futures"
        ):
            names.update(
                alias.asname
                for alias in node.names
                if alias.name == "ProcessPoolExecutor" and alias.asname
            )
    return names


def _constructs_pool(value: ast.AST, pool_ctors: Set[str]) -> bool:
    """Whether an expression constructs a process pool.

    Handles the bare ctor and one level of wrapping —
    ``stack.enter_context(ShardPool(...))`` — which is how pools are
    opened inside an ``ExitStack``.
    """
    if not isinstance(value, ast.Call):
        return False
    calls = [value, *(arg for arg in value.args if isinstance(arg, ast.Call))]
    return any(_callee_name(call.func) in pool_ctors for call in calls)


def _pool_bound_names(tree: ast.Module) -> Set[str]:
    """Names bound to a pool by assignment or ``with ... as``.

    The flow-insensitive approximation matches how the rest of the
    ruleset infers types.
    """
    pool_ctors = _pool_ctor_names(tree)
    bound: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            pairs = [(target, node.value) for target in node.targets]
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            pairs = [(item.optional_vars, item.context_expr) for item in node.items]
        else:
            continue
        for target, value in pairs:
            if isinstance(target, ast.Name) and _constructs_pool(value, pool_ctors):
                bound.add(target.id)
    return bound


def _pool_calls(root: ast.AST, pools: Set[str]) -> Iterator[ast.Call]:
    """Every ``pool.submit(...)``/``pool.map(...)`` under ``root``."""
    for node in ast.walk(root):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("submit", "map")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in pools
            and node.args
        ):
            yield node


def _top_level_defs(tree: ast.Module) -> Dict[str, ast.AST]:
    return {node.name: node for node in tree.body if isinstance(node, _FunctionNode)}


def pool_roots(tree: ast.Module) -> Set[str]:
    """Top-level defs of ``tree`` that run as process-pool targets.

    A ``submit``/``map`` target naming a top-level def is a root; a
    lambda or nested-def target makes its enclosing top-level def the
    root, since the worker executes on that function's behalf.
    """
    pools = _pool_bound_names(tree)
    if not pools:
        return set()
    defs = _top_level_defs(tree)
    nested = _nested_def_names(tree)
    roots: Set[str] = set()
    for statement in tree.body:
        for call in _pool_calls(statement, pools):
            target = call.args[0]
            if isinstance(target, ast.Name) and target.id in defs:
                roots.add(target.id)
            elif isinstance(statement, _FunctionNode) and (
                isinstance(target, ast.Lambda)
                or (isinstance(target, ast.Name) and target.id in nested)
            ):
                roots.add(statement.name)
    return roots


def pool_reach(tree: ast.Module) -> Dict[str, Optional[str]]:
    """Top-level defs a pool target reaches, each with its discoverer.

    Breadth-first from :func:`pool_roots` (sorted), following every
    plain name in a reached body that names another top-level def —
    calls and references alike.  Roots map to ``None``.
    """
    defs = _top_level_defs(tree)
    reach: Dict[str, Optional[str]] = {root: None for root in sorted(pool_roots(tree))}
    queue = deque(reach)
    while queue:
        current = queue.popleft()
        for node in ast.walk(defs[current]):
            if isinstance(node, ast.Name) and node.id in defs and node.id not in reach:
                reach[node.id] = current
                queue.append(node.id)
    return reach


def _chain(reach: Dict[str, Optional[str]], name: str) -> str:
    names = [name]
    while reach[names[-1]] is not None:
        names.append(reach[names[-1]])
    return " -> ".join(reversed(names))


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
    version = 6

    def check(self, files) -> Iterable[Violation]:
        source = files[0]
        findings: List[Tuple[int, Violation]] = []
        if source.kind == LIBRARY and not _is_pool_home(source.path):
            findings.extend(
                (node.lineno, _violation(self, source, node, message))
                for node, message in self._import_findings(source.tree)
            )
        findings.extend(
            (node.lineno, _violation(self, source, node, message))
            for node, message in self._target_findings(source.tree)
        )
        for _, violation in sorted(findings, key=lambda pair: pair[0]):
            yield violation

    def _import_findings(self, tree: ast.Module):
        """Every pool-machinery import: ``(node, message)``."""
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                if any(alias.name.split(".")[0] == "multiprocessing" for alias in node.names):
                    yield node, f"import of 'multiprocessing' {_OUTSIDE_HOME}"
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module.split(".")[0] == "multiprocessing":
                    yield node, f"import from 'multiprocessing' {_OUTSIDE_HOME}"
                elif module.startswith("concurrent.futures"):
                    for alias in node.names:
                        if alias.name == "ProcessPoolExecutor":
                            yield node, f"import of ProcessPoolExecutor {_OUTSIDE_HOME}"
                        elif alias.name == "ThreadPoolExecutor":
                            yield (
                                node,
                                "import of ThreadPoolExecutor outside "
                                "a sanctioned pool home; repro.core.pool "
                                "is the one fan-out mechanism",
                            )

    def _target_findings(self, tree: ast.Module):
        """Every ``pool.submit/map`` whose target cannot pickle."""
        pools = _pool_bound_names(tree)
        if not pools:
            return
        nested = _nested_def_names(tree)
        lambdas = _lambda_names(tree)
        for node in _pool_calls(tree, pools):
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


@register_rule
class FloatAccumulationRule:
    """W503: float accumulators grown in loops by pool-reachable code."""

    rule_id = "W503"
    name = "shard-float-accumulation"
    description = (
        "functions a process-pool submit/map target reaches within its "
        "file must not grow float accumulators in loops: float addition "
        "is non-associative, so any order dependence on shard boundaries "
        "breaks bit-identity; accumulate integers, or sum in the parent "
        "in a fixed order"
    )
    scope = "file"
    kinds = (LIBRARY,)
    version = 5

    def check(self, files) -> Iterable[Violation]:
        source = files[0]
        reach = pool_reach(source.tree)
        defs = _top_level_defs(source.tree)
        for name in sorted(reach):
            for line, col, target in self._float_loops(defs[name]):
                yield Violation(
                    self.rule_id, self.name, source.path, line, col,
                    f"float accumulation into '{target}' inside a loop; "
                    f"'{name}' is reachable from a process-pool target "
                    f"({_chain(reach, name)}), where accumulation order can "
                    "depend on sharding",
                )

    def _float_loops(self, function: ast.AST):
        float_names = self._float_named(function)
        for loop in ast.walk(function):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            for node in ast.walk(loop):
                if node is loop:
                    continue
                if (
                    isinstance(node, ast.AugAssign)
                    and isinstance(node.op, ast.Add)
                    and self._float_like(node.value, float_names)
                ):
                    target = self._target_name(node.target)
                    if target is not None:
                        yield (node.lineno, node.col_offset, target)
                elif (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.value, ast.BinOp)
                    and isinstance(node.value.op, ast.Add)
                ):
                    target = node.targets[0]
                    left, right = node.value.left, node.value.right
                    if isinstance(target, ast.Name):
                        name = target.id
                        if (
                            isinstance(left, ast.Name)
                            and left.id == name
                            and self._float_like(right, float_names)
                        ) or (
                            isinstance(right, ast.Name)
                            and right.id == name
                            and self._float_like(left, float_names)
                        ):
                            yield (node.lineno, node.col_offset, name)
                    elif isinstance(target, ast.Subscript) and isinstance(
                        target.value, ast.Name
                    ):
                        # d[k] = d.get(k, 0.0) + x  /  d[k] = d[k] + x
                        base = target.value.id
                        if self._reads_base(left, base) and self._float_like(
                            node.value, float_names
                        ):
                            yield (
                                node.lineno,
                                node.col_offset,
                                f"{base}[...]",
                            )

    @staticmethod
    def _reads_base(expr: ast.AST, base: str) -> bool:
        """Does the left operand read back the accumulator ``base``?

        Matches ``base[k]`` and ``base.get(k, default)`` — the two
        read-modify-write spellings of dict accumulation.
        """
        if (
            isinstance(expr, ast.Subscript)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == base
        ):
            return True
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "get"
            and isinstance(expr.func.value, ast.Name)
            and expr.func.value.id == base
        ):
            return True
        return False

    @staticmethod
    def _target_name(target: ast.AST) -> Optional[str]:
        if isinstance(target, ast.Name):
            return target.id
        if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
            return f"{target.value.id}[...]"
        return None

    @staticmethod
    def _float_named(function: ast.AST) -> Set[str]:
        """Names float-typed by annotation or float-like assignment."""
        names: Set[str] = set()
        arguments = function.args
        for arg in list(arguments.args) + list(arguments.kwonlyargs):
            if (
                arg.annotation is not None
                and isinstance(arg.annotation, ast.Name)
                and arg.annotation.id == "float"
            ):
                names.add(arg.arg)
        for node in ast.walk(function):
            if (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and isinstance(node.annotation, ast.Name)
                and node.annotation.id == "float"
            ):
                names.add(node.target.id)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and _has_float_marker(
                    node.value, set()
                ):
                    names.add(target.id)
        return names

    @classmethod
    def _float_like(cls, expr: ast.AST, float_names: Set[str]) -> bool:
        # An explicit integer cast of the whole expression is exempt.
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Name)
            and expr.func.id in ("int", "len")
        ):
            return False
        return _has_float_marker(expr, float_names)


def _has_float_marker(expr: ast.AST, float_names: Set[str]) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            return True
        if isinstance(node, ast.Name) and node.id in float_names:
            return True
    return False
