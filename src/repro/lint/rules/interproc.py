"""Inter-procedural rules (family ``W5xx``) over the whole-program index.

Three hazards are invisible to any single-file pass:

* **W501** — seed-taint tracking.  ``derive_seed``/``derive_rng``
  labels are followed *across call edges*: a helper that forwards a
  caller-supplied label is expanded at each call site, so two modules
  that independently materialise the same effective label are caught
  even though no single file contains both literals.  The same pass
  tracks unseeded randomness (global ``random`` state, ``Random()``
  with no seed, ``numpy.random``) through the call graph and flags
  library call sites that reach it cross-module — a per-line
  suppression on the draw itself does not sanction distant callers.
* **W502** — pool-escape analysis.  Any state mutated by a function
  reachable from a process-pool submit target must not be a module
  global: under the ``spawn`` start method each worker re-imports the
  module, so parent and worker copies diverge silently.  This extends
  the per-file D112 hygiene check transitively.
* **W503** — order-sensitive float accumulation.  Functions reachable
  from shard workers must not grow float accumulators in loops: float
  addition is non-associative, so any accumulation whose order can
  depend on shard boundaries breaks bit-identity.

All three rules share one :class:`WholeProgramContext` (built lazily by
the engine) holding the :class:`~repro.lint.index.ProjectIndex` and
:class:`~repro.lint.callgraph.CallGraph` for the run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.callgraph import CallGraph, format_chain
from repro.lint.index import FunctionInfo, ModuleInfo, ProjectIndex
from repro.lint.rules.determinism import _ImportMap, _RANDOM_GLOBAL_FNS
from repro.lint.rules.seeds import _HOLE, _template_regex
from repro.lint.violations import LIBRARY, Violation, register_rule

_DERIVE_NAMES = ("derive_seed", "derive_rng")

_PROCESS_POOL_CTORS = frozenset({"ProcessPoolExecutor", "Pool", "ShardPool"})

_MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "add", "update", "setdefault", "pop",
        "popitem", "remove", "discard", "clear", "appendleft", "move_to_end",
    }
)

#: Module-level bindings to these constructors are synchronisation
#: primitives: unpicklable, and re-created per spawn worker on module
#: re-import, so cross-process exclusion through them silently fails.
_LOCK_FACTORIES = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore", "Event", "Barrier"}
)


class WholeProgramContext:
    """Shared per-run analysis state: parsed files, index, call graph.

    The engine builds one context per lint run and hands it to every
    project rule whose class sets ``wants_context = True``; the index
    and graph are constructed on first use and shared by all of them.
    """

    def __init__(self, files: Sequence[object]) -> None:
        self.files = list(files)
        self._index: Optional[ProjectIndex] = None
        self._graph: Optional[CallGraph] = None
        self._roots: Optional[Set[str]] = None

    @property
    def index(self) -> ProjectIndex:
        if self._index is None:
            self._index = ProjectIndex.build(self.files)
        return self._index

    @property
    def graph(self) -> CallGraph:
        if self._graph is None:
            self._graph = CallGraph(self.index)
        return self._graph

    @property
    def pool_roots(self) -> Set[str]:
        if self._roots is None:
            self._roots = _discover_pool_roots(self.index)
        return self._roots


# -- pool-root discovery ---------------------------------------------------


def _constructs_pool(value: ast.AST) -> bool:
    """Whether an expression constructs a process pool.

    Handles the bare ctor and one level of wrapping —
    ``stack.enter_context(ProcessPoolExecutor(...))`` — which is how
    pools are opened inside an ``ExitStack``.
    """
    if not isinstance(value, ast.Call):
        return False
    calls = [value, *(arg for arg in value.args if isinstance(arg, ast.Call))]
    return any(_callee_attr(call.func) in _PROCESS_POOL_CTORS for call in calls)


def _callee_attr(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _nested_defs(root: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for outer in ast.walk(root):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(outer):
            if inner is outer:
                continue
            if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(inner.name)
    return names


def _pool_names(scope: ast.AST) -> Set[str]:
    """Local names bound to a pool by assignment or ``with ... as``."""
    pools: Set[str] = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign) and _constructs_pool(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    pools.add(target.id)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                bound = item.optional_vars
                if isinstance(bound, ast.Name) and _constructs_pool(
                    item.context_expr
                ):
                    pools.add(bound.id)
    return pools


def _map_call_args(
    info: FunctionInfo, call: ast.Call
) -> Dict[str, ast.AST]:
    """Map a call's arguments onto ``info``'s parameter names."""
    params = list(info.params)
    if info.class_name is not None and params and params[0] == "self":
        params = params[1:]
    bound: Dict[str, ast.AST] = {}
    for position, argument in enumerate(call.args):
        if position < len(params):
            bound[params[position]] = argument
    for keyword in call.keywords:
        if keyword.arg is not None:
            bound[keyword.arg] = keyword.value
    return bound


def _discover_pool_roots(index: ProjectIndex) -> Set[str]:
    """Qualnames of every function that runs as a pool submit/map target.

    A target is the first argument of ``pool.submit``/``pool.map`` on a
    name bound to a pool.  Targets that are nested ``def``s or lambdas
    attribute to the enclosing function.
    """
    roots: Set[str] = set()
    for module in index.modules.values():
        module_level = ast.Module(
            body=[
                node
                for node in module.tree.body
                if not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                )
            ],
            type_ignores=[],
        )
        scopes: List[Tuple[ast.AST, Optional[FunctionInfo]]] = [(module_level, None)]
        scopes.extend((info.node, info) for info in module.functions.values())
        for scope, info in scopes:
            pools = _pool_names(scope)
            if not pools:
                continue
            nested = _nested_defs(scope)
            for node in ast.walk(scope):
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
                if isinstance(target, ast.Lambda) or (
                    isinstance(target, ast.Name) and target.id in nested
                ):
                    if info is not None:
                        roots.add(info.qualname)
                    continue
                class_name = info.class_name if info is not None else None
                resolved = index.resolve(module, target, class_name)
                if resolved is not None and resolved in index.functions:
                    roots.add(resolved)
    return roots


def _context_for(files: Sequence[object], context: Optional[WholeProgramContext]):
    if context is not None:
        return context
    return WholeProgramContext(files)


def _violation_at(rule, path: str, line: int, col: int, message: str) -> Violation:
    return Violation(
        rule=rule.rule_id,
        name=rule.name,
        path=path,
        line=line,
        col=col,
        message=message,
    )


# -- W501: inter-procedural seed-taint tracking ----------------------------


@dataclass
class _LabelTemplate:
    """A derive label inside one function, holes not yet filled.

    ``parts`` is a sequence of ``("t", text)``, ``("p", param)`` and
    ``("a", "")`` (anonymous hole) chunks; ``derive_path``/``line``
    locate the underlying ``derive_seed``/``derive_rng`` call.
    """

    parts: Tuple[Tuple[str, str], ...]
    derive_path: str
    derive_line: int

    def has_param_holes(self) -> bool:
        return any(kind == "p" for kind, _ in self.parts)


@dataclass
class _EffectiveSite:
    path: str
    line: int
    col: int
    text: str  # literal text, or template with _HOLE markers
    forwarded: bool
    derive_path: str
    derive_line: int

    @property
    def is_literal(self) -> bool:
        return _HOLE not in self.text

    def display(self) -> str:
        return self.text.replace(_HOLE, "{...}")


def _is_derive_call(node: ast.Call) -> bool:
    name = _callee_attr(node.func)
    return name in _DERIVE_NAMES


def _label_argument(call: ast.Call) -> Optional[ast.AST]:
    if len(call.args) >= 2:
        return call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "label":
            return keyword.value
    return None


def _template_parts(
    expr: ast.AST, params: Set[str]
) -> Optional[Tuple[Tuple[str, str], ...]]:
    """Decompose a label expression, or None if untrackably dynamic."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return (("t", expr.value),)
    if isinstance(expr, ast.Name):
        if expr.id in params:
            return (("p", expr.id),)
        return None
    if isinstance(expr, ast.JoinedStr):
        parts: List[Tuple[str, str]] = []
        for value in expr.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                parts.append(("t", value.value))
            elif (
                isinstance(value, ast.FormattedValue)
                and isinstance(value.value, ast.Name)
                and value.value.id in params
            ):
                parts.append(("p", value.value.id))
            else:
                parts.append(("a", ""))
        return tuple(parts)
    return None


def _render(parts: Sequence[Tuple[str, str]]) -> str:
    chunks: List[str] = []
    for kind, text in parts:
        chunks.append(text if kind == "t" else _HOLE)
    return "".join(chunks)


@register_rule
class SeedTaintRule:
    """W501: effective seed-label collisions and entropy across call edges."""

    rule_id = "W501"
    name = "seed-taint"
    description = (
        "follows derive_seed/derive_rng labels across call edges: helpers "
        "forwarding a caller-supplied label are expanded per call site, so "
        "effective labels that collide across modules are flagged, and "
        "library call sites reaching unseeded randomness (global random, "
        "numpy.random, Random() without a seed) through another module are "
        "reported even when the draw itself carries a local suppression"
    )
    scope = "project"
    kinds = (LIBRARY,)
    wants_context = True
    version = 1

    def check(self, files, context=None) -> Iterable[Violation]:
        context = _context_for(files, context)
        index = context.index
        library_paths = {source.path for source in files}
        yield from self._label_collisions(index, library_paths)
        yield from self._entropy_reach(context, library_paths)

    # -- label tracking ---------------------------------------------------

    def _label_collisions(
        self, index: ProjectIndex, library_paths: Set[str]
    ) -> Iterable[Violation]:
        forwarders: Dict[str, List[_LabelTemplate]] = {}
        direct: List[_EffectiveSite] = []

        def is_exempt(module: ModuleInfo) -> bool:
            return module.name in ("repro.rng", "rng")

        # Pass 1: direct derive calls — fixed labels become sites,
        # param-holed labels make the enclosing function a forwarder.
        for module in index.modules.values():
            if is_exempt(module):
                continue
            for info in module.functions.values():
                params = set(info.params)
                for node in ast.walk(info.node):
                    if not (isinstance(node, ast.Call) and _is_derive_call(node)):
                        continue
                    label = _label_argument(node)
                    if label is None:
                        continue
                    parts = _template_parts(label, params)
                    if parts is None:
                        continue
                    template = _LabelTemplate(
                        parts=parts,
                        derive_path=module.path,
                        derive_line=node.lineno,
                    )
                    if template.has_param_holes():
                        forwarders.setdefault(info.qualname, []).append(template)
                    elif module.path in library_paths:
                        direct.append(
                            _EffectiveSite(
                                path=module.path,
                                line=label.lineno,
                                col=label.col_offset,
                                text=_render(parts),
                                forwarded=False,
                                derive_path=module.path,
                                derive_line=node.lineno,
                            )
                        )

        # Pass 2 (fixpoint): calls into forwarders either produce
        # effective sites (literal/anon args) or extend the forwarder
        # set (param args) until nothing new appears.
        effective: List[_EffectiveSite] = []
        seen_sites: Set[Tuple[str, int, int, str]] = set()
        for _ in range(10):
            grew = False
            for module in index.modules.values():
                if is_exempt(module):
                    continue
                for info in module.functions.values():
                    params = set(info.params)
                    for node in ast.walk(info.node):
                        if not isinstance(node, ast.Call):
                            continue
                        callee = index.resolve(module, node.func, info.class_name)
                        if callee is None or callee not in forwarders:
                            continue
                        callee_info = index.function_at(callee)
                        if callee_info is None or callee_info.qualname == info.qualname:
                            continue
                        bound = _map_call_args(callee_info, node)
                        for template in list(forwarders[callee]):
                            substituted = self._substitute(template, bound, params)
                            if substituted is None:
                                continue
                            if substituted.has_param_holes():
                                if not self._known(forwarders.get(info.qualname), substituted):
                                    forwarders.setdefault(info.qualname, []).append(
                                        substituted
                                    )
                                    grew = True
                            elif module.path in library_paths:
                                key = (
                                    module.path,
                                    node.lineno,
                                    node.col_offset,
                                    _render(substituted.parts),
                                )
                                if key not in seen_sites:
                                    seen_sites.add(key)
                                    effective.append(
                                        _EffectiveSite(
                                            path=module.path,
                                            line=node.lineno,
                                            col=node.col_offset,
                                            text=key[3],
                                            forwarded=True,
                                            derive_path=substituted.derive_path,
                                            derive_line=substituted.derive_line,
                                        )
                                    )
            if not grew:
                break

        yield from self._report_collisions(direct + effective)

    @staticmethod
    def _known(
        templates: Optional[List[_LabelTemplate]], candidate: _LabelTemplate
    ) -> bool:
        if not templates:
            return False
        return any(entry.parts == candidate.parts for entry in templates)

    @staticmethod
    def _substitute(
        template: _LabelTemplate,
        bound: Dict[str, ast.AST],
        caller_params: Set[str],
    ) -> Optional[_LabelTemplate]:
        parts: List[Tuple[str, str]] = []
        for kind, text in template.parts:
            if kind != "p":
                parts.append((kind, text))
                continue
            argument = bound.get(text)
            if argument is None:
                # Parameter defaulted or dynamically supplied: the hole
                # stays anonymous.
                parts.append(("a", ""))
                continue
            sub = _template_parts(argument, caller_params)
            if sub is None:
                parts.append(("a", ""))
            else:
                parts.extend(sub)
        return _LabelTemplate(
            parts=tuple(parts),
            derive_path=template.derive_path,
            derive_line=template.derive_line,
        )

    def _report_collisions(
        self, sites: List[_EffectiveSite]
    ) -> Iterable[Violation]:
        sites = sorted(sites, key=lambda s: (s.path, s.line, s.col, s.text))
        literals = [s for s in sites if s.is_literal]
        templates = [s for s in sites if not s.is_literal]

        # Identical effective literals at >= 2 locations, at least one
        # of them produced through a forwarder (direct-direct pairs are
        # S201's to report).
        groups: Dict[str, List[_EffectiveSite]] = {}
        for site in literals:
            groups.setdefault(site.text, []).append(site)
        for text in sorted(groups):
            group = groups[text]
            locations = sorted({(s.path, s.line) for s in group})
            if len(locations) < 2 or not any(s.forwarded for s in group):
                continue
            for site in group:
                if not site.forwarded:
                    continue
                others = ", ".join(
                    f"{p}:{ln}"
                    for p, ln in locations
                    if (p, ln) != (site.path, site.line)
                )
                yield _violation_at(
                    self, site.path, site.line, site.col,
                    f"effective seed label {site.text!r} (via "
                    f"{site.derive_path}:{site.derive_line}) is also derived "
                    f"at {others}; identical labels share one stream",
                )

        # A literal matching a template from a different site, when at
        # least one side is forwarded.
        for literal in literals:
            for template in templates:
                if (literal.path, literal.line) == (template.path, template.line):
                    continue
                if not (literal.forwarded or template.forwarded):
                    continue
                if _template_regex(template.text).match(literal.text):
                    site = literal if literal.forwarded else template
                    other = template if site is literal else literal
                    yield _violation_at(
                        self, site.path, site.line, site.col,
                        f"effective seed label {site.display()!r} can collide "
                        f"with {other.display()!r} at {other.path}:{other.line}",
                    )

        # Identical templates fed through *different* derive calls: two
        # independent f-strings with the same shape can collide at
        # runtime.  The same derive call reached twice (one shared
        # helper) is the sanctioned single-derivation-point pattern.
        template_groups: Dict[str, List[_EffectiveSite]] = {}
        for site in templates:
            template_groups.setdefault(site.text, []).append(site)
        for text in sorted(template_groups):
            group = template_groups[text]
            points = {(s.derive_path, s.derive_line) for s in group}
            locations = sorted({(s.path, s.line) for s in group})
            if len(locations) < 2 or len(points) < 2:
                continue
            if not any(s.forwarded for s in group):
                continue
            for site in group:
                if not site.forwarded:
                    continue
                others = ", ".join(
                    f"{p}:{ln}"
                    for p, ln in locations
                    if (p, ln) != (site.path, site.line)
                )
                yield _violation_at(
                    self, site.path, site.line, site.col,
                    f"effective seed label template {site.display()!r} is "
                    f"also produced at {others} through a different "
                    "derive call; the streams can collide at runtime",
                )

    # -- entropy reachability ---------------------------------------------

    def _entropy_reach(
        self, context: WholeProgramContext, library_paths: Set[str]
    ) -> Iterable[Violation]:
        index = context.index
        graph = context.graph
        origins: Dict[str, Tuple[str, int, str]] = {}
        for module in index.modules.values():
            if module.name in ("repro.rng", "rng"):
                continue
            imports = _ImportMap(module.tree)
            for info in module.functions.values():
                reason = self._entropy_use(info.node, imports)
                if reason is not None:
                    origins[info.qualname] = (module.path, reason[1], reason[0])

        if not origins:
            return

        # Propagate taint up the call graph; remember each function's
        # originating draw for the message.
        origin_of: Dict[str, str] = {name: name for name in origins}
        frontier = sorted(origins)
        while frontier:
            next_frontier: List[str] = []
            for tainted in frontier:
                for site in graph.callers.get(tainted, []):
                    if site.caller in origin_of:
                        continue
                    if site.caller not in index.functions:
                        continue
                    origin_of[site.caller] = origin_of[tainted]
                    next_frontier.append(site.caller)
            frontier = sorted(next_frontier)

        reported: Set[Tuple[str, int, str]] = set()
        for callee in sorted(origin_of):
            for site in graph.callers.get(callee, []):
                if site.is_reference:
                    continue
                caller_info = index.function_at(site.caller)
                if caller_info is None or caller_info.path not in library_paths:
                    continue
                callee_info = index.function_at(callee)
                if callee_info is None or callee_info.module == caller_info.module:
                    continue
                origin = origin_of[callee]
                origin_path, origin_line, origin_reason = origins[origin]
                key = (site.path, site.line, callee)
                if key in reported:
                    continue
                reported.add(key)
                yield _violation_at(
                    self, site.path, site.line, site.col,
                    f"call into '{_short_name(callee)}' reaches unseeded "
                    f"randomness ({origin_reason} at {origin_path}:"
                    f"{origin_line}); thread an explicit derive_rng stream "
                    "through the call instead",
                )

    @staticmethod
    def _entropy_use(
        node: ast.AST, imports: _ImportMap
    ) -> Optional[Tuple[str, int]]:
        for child in ast.walk(node):
            if isinstance(child, ast.Call):
                func = child.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in imports.random_modules
                ):
                    if func.attr in _RANDOM_GLOBAL_FNS:
                        return (f"random.{func.attr}()", child.lineno)
                    if func.attr == "SystemRandom":
                        return ("random.SystemRandom()", child.lineno)
                    if (
                        func.attr == "Random"
                        and not child.args
                        and not child.keywords
                    ):
                        return ("random.Random() without a seed", child.lineno)
                elif isinstance(func, ast.Name):
                    if func.id in imports.random_fn_aliases:
                        return (
                            f"random.{imports.random_fn_aliases[func.id]}()",
                            child.lineno,
                        )
                    if func.id in imports.system_random_aliases:
                        return ("random.SystemRandom()", child.lineno)
                    if (
                        func.id in imports.random_class_aliases
                        and not child.args
                        and not child.keywords
                    ):
                        return ("random.Random() without a seed", child.lineno)
            elif isinstance(child, ast.Attribute):
                if (
                    child.attr == "random"
                    and isinstance(child.value, ast.Name)
                    and child.value.id in imports.numpy_modules
                ):
                    return ("numpy.random global state", child.lineno)
        return None


def _short_name(qualname: str) -> str:
    parts = qualname.split(".")
    if len(parts) <= 2:
        return qualname
    return ".".join(parts[-2:])


# -- W502: pool-escape analysis --------------------------------------------


@register_rule
class PoolEscapeRule:
    """W502: module-global state mutated by process-pool-reachable code."""

    rule_id = "W502"
    name = "pool-escape"
    description = (
        "functions reachable from a process-pool submit/map target must "
        "not rebind or mutate module globals: under the spawn start "
        "method every worker re-imports the module, so parent and worker "
        "copies diverge silently (transitive extension of D112)"
    )
    scope = "project"
    kinds = (LIBRARY,)
    wants_context = True
    version = 3

    def check(self, files, context=None) -> Iterable[Violation]:
        context = _context_for(files, context)
        index = context.index
        graph = context.graph
        roots = context.pool_roots
        if not roots:
            return []
        library_paths = {source.path for source in files}
        reach = graph.reachable(roots, include_references=True)
        findings: List[Violation] = []
        for qualname in sorted(reach):
            info = index.function_at(qualname)
            if info is None or info.path not in library_paths:
                continue
            module = index.module_named(info.module)
            if module is None:
                continue
            chain = format_chain(graph.chain(reach, qualname))
            for line, col, message in self._mutations(info, module):
                findings.append(
                    _violation_at(
                        self, info.path, line, col,
                        f"{message}; '{info.display}' is reachable from a "
                        f"process-pool target ({chain}) — under spawn each "
                        "worker re-imports the module, so parent and worker "
                        "copies diverge silently",
                    )
                )
            for line, col, name in self._lock_reads(info, module):
                findings.append(
                    _violation_at(
                        self, info.path, line, col,
                        f"synchronises on module-global lock '{name}'; "
                        f"'{info.display}' is reachable from a process-pool "
                        f"target ({chain}) — each spawn worker re-imports "
                        "the module and gets its own lock, so the exclusion "
                        "is ineffective across processes",
                    )
                )
        return findings

    def _lock_reads(self, info: FunctionInfo, module: ModuleInfo):
        lock_globals: Set[str] = set()
        for node in module.tree.body:
            if not (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
            ):
                continue
            ctor = _callee_attr(node.value.func)
            if ctor in _LOCK_FACTORIES:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        lock_globals.add(target.id)
        if not lock_globals:
            return
        for node in ast.walk(info.node):
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in lock_globals
            ):
                yield (node.lineno, node.col_offset, node.id)

    def _mutations(self, info: FunctionInfo, module: ModuleInfo):
        declared_global: Set[str] = set()
        local_binds: Set[str] = set()
        for node in ast.walk(info.node):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        local_binds.add(target.id)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                if isinstance(node.target, ast.Name):
                    local_binds.add(node.target.id)
            elif isinstance(node, ast.For):
                if isinstance(node.target, ast.Name):
                    local_binds.add(node.target.id)
        local_binds -= declared_global

        def is_global_mutable(name: str) -> bool:
            return name in module.mutable_globals and name not in local_binds

        for node in ast.walk(info.node):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id in declared_global
                        and target.id in module.global_names
                    ):
                        yield (
                            node.lineno, node.col_offset,
                            f"rebinds module global '{target.id}'",
                        )
                    elif (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and is_global_mutable(target.value.id)
                    ):
                        yield (
                            node.lineno, node.col_offset,
                            f"writes into mutable module global "
                            f"'{target.value.id}'",
                        )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and is_global_mutable(target.value.id)
                    ):
                        yield (
                            node.lineno, node.col_offset,
                            f"deletes from mutable module global "
                            f"'{target.value.id}'",
                        )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATOR_METHODS
                and isinstance(node.func.value, ast.Name)
                and is_global_mutable(node.func.value.id)
            ):
                yield (
                    node.lineno, node.col_offset,
                    f"mutates module global '{node.func.value.id}' via "
                    f".{node.func.attr}()",
                )


# -- W503: order-sensitive float accumulation ------------------------------


@register_rule
class FloatAccumulationRule:
    """W503: float accumulators grown in loops by fan-out-reachable code."""

    rule_id = "W503"
    name = "shard-float-accumulation"
    description = (
        "functions reachable from a shard worker must not grow float "
        "accumulators in loops: float addition is non-associative, so "
        "any order dependence on shard boundaries breaks bit-identity; "
        "accumulate integers, or sum in the parent in a fixed order"
    )
    scope = "project"
    kinds = (LIBRARY,)
    wants_context = True
    version = 4

    def check(self, files, context=None) -> Iterable[Violation]:
        context = _context_for(files, context)
        index = context.index
        graph = context.graph
        roots = context.pool_roots
        if not roots:
            return []
        library_paths = {source.path for source in files}
        reach = graph.reachable(roots, include_references=True)
        findings: List[Violation] = []
        for qualname in sorted(reach):
            info = index.function_at(qualname)
            if info is None or info.path not in library_paths:
                continue
            chain = format_chain(graph.chain(reach, qualname))
            for line, col, target in self._float_loops(info):
                findings.append(
                    _violation_at(
                        self, info.path, line, col,
                        f"float accumulation into '{target}' inside a loop; "
                        f"'{info.display}' is reachable from a pool fan-out "
                        f"({chain}), where accumulation order can depend on "
                        "sharding",
                    )
                )
        return findings

    def _float_loops(self, info: FunctionInfo):
        float_names = self._float_named(info)
        for loop in ast.walk(info.node):
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
    def _float_named(info: FunctionInfo) -> Set[str]:
        """Names float-typed by annotation or float-like assignment."""
        names: Set[str] = set()
        arguments = info.node.args
        for arg in list(arguments.args) + list(arguments.kwonlyargs):
            if (
                arg.annotation is not None
                and isinstance(arg.annotation, ast.Name)
                and arg.annotation.id == "float"
            ):
                names.add(arg.arg)
        for node in ast.walk(info.node):
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
