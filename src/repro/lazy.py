"""Lazy package re-exports (PEP 562).

A package ``__init__`` names the home module of each name it re-exports
in one table and serves it through a module ``__getattr__``::

    _EXPORTS = {
        "Hitlist": "repro.probing.hitlist",
        "Prober": "repro.probing.prober",
    }
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

The home module is imported on the first access of one of its names,
so importing one submodule does not import every sibling the package
advertises.  A name outside the table raises :class:`AttributeError`,
which ``hasattr`` and ``from package import submodule`` rely on.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Tuple

from repro.errors import ExportError


def lazy_exports(
    package: str, exports: Dict[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` serving ``exports`` for ``package``."""
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        if name not in exports:
            raise ExportError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(exports[name]), name)
        namespace[name] = value  # later reads skip this hook
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
