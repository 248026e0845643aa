"""Static call graph over a :class:`~repro.lint.index.ProjectIndex`.

Edges come in two strengths:

* **call** edges — an ``ast.Call`` whose callee resolves to an indexed
  function (including ``self.method`` and ``module.func`` forms);
* **reference** edges — an indexed function passed *as an argument*
  (``pool.map(worker, ...)``, ``sorted(rows, key=rank)``), the
  standard approximation for first-order higher-order flow.

Calls inside nested ``def``s and lambdas are attributed to the
enclosing top-level function or method: a nested worker executes on its
parent's behalf, and that is exactly the resolution the pool-escape and
float-accumulation rules need.  Module-level statements are attributed
to a pseudo-caller named after the module itself.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.index import FunctionInfo, ModuleInfo, ProjectIndex


@dataclass(frozen=True)
class CallSite:
    """One resolved reference from ``caller`` to ``callee``."""

    caller: str  # qualname (or module pseudo-caller)
    callee: str  # qualname of an indexed function
    path: str
    line: int
    col: int
    is_reference: bool  # passed as an argument rather than called


class CallGraph:
    """Caller -> callee edges plus reachability over them."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self.edges: Dict[str, List[CallSite]] = {}
        self.callers: Dict[str, List[CallSite]] = {}
        for module in index.modules.values():
            self._scan_module(module)

    # -- construction -----------------------------------------------------

    def _scan_module(self, module: ModuleInfo) -> None:
        # Module-level code (outside any def/class) as a pseudo-caller.
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            self._scan_body(module, node, caller=module.name, class_name=None)
        for info in module.functions.values():
            self._scan_body(
                module, info.node, caller=info.qualname, class_name=info.class_name
            )

    def _scan_body(
        self,
        module: ModuleInfo,
        root: ast.AST,
        caller: str,
        class_name: Optional[str],
    ) -> None:
        for node in ast.walk(root):
            if node is root:
                continue
            if not isinstance(node, ast.Call):
                continue
            callee = self.index.resolve(module, node.func, class_name)
            if callee is not None and callee in self.index.functions:
                self._add(
                    CallSite(
                        caller=caller,
                        callee=callee,
                        path=module.path,
                        line=node.lineno,
                        col=node.col_offset,
                        is_reference=False,
                    )
                )
            for argument in list(node.args) + [kw.value for kw in node.keywords]:
                if not isinstance(argument, (ast.Name, ast.Attribute)):
                    continue
                target = self.index.resolve(module, argument, class_name)
                if target is not None and target in self.index.functions:
                    self._add(
                        CallSite(
                            caller=caller,
                            callee=target,
                            path=module.path,
                            line=argument.lineno,
                            col=argument.col_offset,
                            is_reference=True,
                        )
                    )

    def _add(self, site: CallSite) -> None:
        self.edges.setdefault(site.caller, []).append(site)
        self.callers.setdefault(site.callee, []).append(site)

    # -- queries ----------------------------------------------------------

    def callees_of(self, caller: str) -> List[CallSite]:
        """Outgoing edges of one function, in source order."""
        return sorted(
            self.edges.get(caller, []), key=lambda site: (site.line, site.col)
        )

    def reachable(
        self,
        roots: Iterable[str],
        include_references: bool = True,
    ) -> Dict[str, Optional[CallSite]]:
        """Every function reachable from ``roots``, with its discovery edge.

        Returns ``{qualname: site-or-None}`` where ``None`` marks a
        root.  BFS in sorted order so the discovery tree (and therefore
        every reported chain) is deterministic.
        """
        reach: Dict[str, Optional[CallSite]] = {}
        queue: deque = deque()
        for root in sorted(set(roots)):
            reach[root] = None
            queue.append(root)
        while queue:
            current = queue.popleft()
            for site in self.callees_of(current):
                if site.is_reference and not include_references:
                    continue
                if site.callee in reach:
                    continue
                reach[site.callee] = site
                queue.append(site.callee)
        return reach

    def chain(
        self, reach: Dict[str, Optional[CallSite]], target: str
    ) -> List[str]:
        """Root-to-target qualname chain through the discovery tree."""
        names: List[str] = [target]
        seen: Set[str] = {target}
        site = reach.get(target)
        while site is not None:
            if site.caller in seen:
                break
            names.append(site.caller)
            seen.add(site.caller)
            site = reach.get(site.caller)
        names.reverse()
        return names


def format_chain(chain: Sequence[str]) -> str:
    """Human-readable ``a -> b -> c`` chain with short names."""
    return " -> ".join(_short(name) for name in chain)


def _short(qualname: str) -> str:
    parts = qualname.split(".")
    if len(parts) <= 2:
        return qualname
    return ".".join(parts[-2:])
