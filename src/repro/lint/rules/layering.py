"""Import-layering rules (family ``L4xx``).

Enforces the layer DAG declared in :mod:`repro.lint.layers`: a package
may import from its own layer or below, never above.  Keeping ``core``
above the measurement/analysis packages (and ``cli`` above everything)
is what lets the lower layers be reused and tested in isolation.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Tuple

from repro.lint.layers import LAYERS, layer_of
from repro.lint.violations import LIBRARY, Violation, register_rule


def _import_targets(node: ast.stmt) -> List[Tuple[str, ast.stmt]]:
    """Top-level ``repro`` subpackages referenced by one import node."""
    targets: List[Tuple[str, ast.stmt]] = []
    if isinstance(node, ast.Import):
        for alias in node.names:
            parts = alias.name.split(".")
            if parts[0] != "repro":
                continue
            targets.append((parts[1] if len(parts) > 1 else "__init__", node))
    elif isinstance(node, ast.ImportFrom):
        if node.level:
            # Relative import: level 1 with a module stays inside the
            # current package; anything deeper resolves to a top-level
            # sibling named by the first module component (or by the
            # alias itself for ``from .. import x``).
            if node.level == 1 and node.module:
                return targets
            if node.module:
                targets.append((node.module.split(".")[0], node))
            else:
                for alias in node.names:
                    targets.append((alias.name, node))
            return targets
        if not node.module:
            return targets
        parts = node.module.split(".")
        if parts[0] != "repro":
            return targets
        if len(parts) > 1:
            targets.append((parts[1], node))
        else:
            # ``from repro import x`` — x is a subpackage if declared,
            # otherwise a symbol re-exported by repro/__init__.
            for alias in node.names:
                if layer_of(alias.name) is not None:
                    targets.append((alias.name, node))
                else:
                    targets.append(("__init__", node))
    return targets


@register_rule
class LayerViolationRule:
    """L401: import from a higher layer than the importing package."""

    rule_id = "L401"
    name = "layer-violation"
    description = (
        "a package imported from a higher layer of the declared DAG "
        "(see repro.lint.layers); move the shared type down or invert "
        "the dependency"
    )
    kinds = (LIBRARY,)

    def check(self, source) -> Iterable[Violation]:
        package = source.package
        if package is None:
            return
        source_layer = layer_of(package)
        if source_layer is None:
            return
        for node in source.nodes:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for target, at in _import_targets(node):
                if target == package:
                    continue
                target_layer = layer_of(target)
                if target_layer is None:
                    continue  # L402's business
                if target_layer > source_layer:
                    yield Violation(
                        rule=self.rule_id,
                        name=self.name,
                        path=source.path,
                        line=at.lineno,
                        col=at.col_offset,
                        message=(
                            f"package '{package}' (layer {source_layer}) "
                            f"imports 'repro.{target}' (layer "
                            f"{target_layer}); imports must point down "
                            "the layer DAG"
                        ),
                    )


@register_rule
class UndeclaredPackageRule:
    """L402: a repro subpackage missing from the layer declaration."""

    rule_id = "L402"
    name = "undeclared-package"
    description = (
        "a repro.* package is absent from repro.lint.layers.LAYERS; new "
        "packages must declare their layer so L401 can see them"
    )
    kinds = (LIBRARY,)

    def check(self, source) -> Iterable[Violation]:
        package = source.package
        if package is not None and layer_of(package) is None:
            yield Violation(
                rule=self.rule_id,
                name=self.name,
                path=source.path,
                line=1,
                col=0,
                message=(
                    f"package '{package}' is not declared in "
                    "repro.lint.layers.LAYERS; add it to its layer"
                ),
            )
            return
        if package is None:
            return
        source_layer = layer_of(package)
        for node in source.nodes:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for target, at in _import_targets(node):
                if target != package and layer_of(target) is None:
                    yield Violation(
                        rule=self.rule_id,
                        name=self.name,
                        path=source.path,
                        line=at.lineno,
                        col=at.col_offset,
                        message=(
                            f"imports 'repro.{target}', which is not "
                            "declared in repro.lint.layers.LAYERS"
                        ),
                    )
