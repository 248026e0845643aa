"""Lazy package re-exports (:mod:`repro.lazy`): one table per package.

Each table may point only at its own package's modules (``repro`` itself,
which re-exports from the subpackages, is the one exception): L401 reads
import statements, not the module names in a table, so a table that
reached into another package could hide a layer violation.
"""

from __future__ import annotations

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: Packages that keep eager imports: ``obs`` defines ``Observer`` itself,
#: and ``lint.rules`` imports its rule modules to register them.
EAGER = {"repro.obs", "repro.lint.rules"}

PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC).parts)
    for path in (SRC / "repro").rglob("__init__.py")
)
LAZY = [name for name in PACKAGES if name not in EAGER]


def test_every_other_package_is_lazy():
    assert set(PACKAGES) - set(LAZY) == EAGER
    for name in LAZY:
        assert isinstance(importlib.import_module(name)._EXPORTS, dict), name


@pytest.mark.parametrize("name", LAZY)
def test_table_points_into_its_own_package(name):
    for export, home in importlib.import_module(name)._EXPORTS.items():
        if name == "repro":
            assert home.startswith("repro."), export
        else:
            assert home.rpartition(".")[0] == name, (export, home)


@pytest.mark.parametrize("name", LAZY)
def test_table_is_the_public_surface(name):
    package = importlib.import_module(name)
    assert set(package._EXPORTS) == set(package.__all__) - {"__version__"}
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("name", LAZY)
def test_unknown_name_is_an_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError):
        package.no_such_export
    assert not hasattr(package, "no_such_export")


def test_from_package_import_submodule_in_a_fresh_interpreter():
    """``from pkg import submodule`` falls back to importing the submodule
    only when the package's ``__getattr__`` raises ``AttributeError``."""
    program = (
        "import sys; from repro.bgp import ribdump; from repro import core; "
        "print(ribdump.__name__, core.__name__, 'repro.core.playbook' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", program],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.split() == ["repro.bgp.ribdump", "repro.core", "False"]
