"""Process-pool hygiene (``D112``): one home for pool machinery.

Process-level fan-out lives in one sanctioned home,
:mod:`repro.core.pool` (the sharded paths all route through its
``ShardPool``), because every pool carries the same correctness
obligation: results must merge bit-identically to the single-process
path.  D112 keeps pool machinery there: importing ``multiprocessing``,
``ProcessPoolExecutor`` or ``ThreadPoolExecutor`` anywhere else in
library code is a finding (``ShardPool`` is the library's one fan-out
mechanism, so thread pools count too).

What a pool runs is checked by running it.  The pooled tier-1 tests
(``tests/test_pool.py``, ``tests/test_sharding.py``,
``tests/test_lattice.py``) start real worker processes, and
``ShardPool`` pickles every target on every start method, so a lambda or
nested-def target fails them; they also hold every pooled result
bit-identical to the in-process one, so a per-shard float sum fails
them too.  ``tools/determinism.py`` compares every pooled CLI form's
bytes with its in-process form's.
"""

from __future__ import annotations

import ast
import os
from typing import Iterable, List

from repro.lint.rules.determinism import _violation
from repro.lint.violations import LIBRARY, Violation, register_rule

#: The one module allowed to import pool machinery, as a path suffix
#: matched against the reported file path with separators normalised.
_POOL_HOME_SUFFIX = "repro/core/pool.py"

_OUTSIDE_HOME = (
    "outside a sanctioned pool home; route process fan-out through repro.core.pool"
)


def _is_pool_home(path: str) -> bool:
    return path.replace(os.sep, "/").endswith(_POOL_HOME_SUFFIX)


@register_rule
class ProcessPoolHygieneRule:
    """D112: pool machinery imported outside repro.core.pool."""

    rule_id = "D112"
    name = "process-pool-hygiene"
    description = (
        "process-level fan-out belongs in repro.core.pool; importing "
        "multiprocessing, ProcessPoolExecutor or ThreadPoolExecutor "
        "elsewhere in the library is flagged"
    )
    kinds = (LIBRARY,)

    def check(self, source) -> Iterable[Violation]:
        if _is_pool_home(source.path):
            return
        for node, message in _import_findings(source.nodes):
            yield _violation(self, source, node, message)


def _import_findings(nodes: List[ast.AST]):
    """Every pool-machinery import: ``(node, message)``."""
    for node in nodes:
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
