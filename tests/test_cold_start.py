"""Cold start: an operator path imports only the modules it runs.

Each form runs in a fresh interpreter.  This file is its own child
program: ``PYTHONPATH=src python tests/test_cold_start.py <repro argv>``
runs ``repro.cli.main`` on the argv (stdout discarded) and prints every
module left in ``sys.modules``, one a line (``make coldstart`` and CI
count the ``repro`` lines).  The oracle and ledger modules are the ones
``tools/reach.py`` declares, so that list is kept in one place.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.util
import io
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FORMS = {
    "help": ["--help"],
    "stability": ["stability", "--scale", "tiny", "--rounds", "2"],
    "scan": ["scan", "--scale", "tiny"],
    "playbook": ["playbook", "--scenario", "tangled", "--scale", "tiny"],
}

#: Modules of other subcommands, which ``stability`` must not import.
NOT_STABILITY = (
    "repro.core.playbook", "repro.core.planning", "repro.core.pool",
    "repro.core.sharding", "repro.core.tables", "repro.service",
    "repro.load.weighting", "repro.traffic.attack", "repro.dns", "repro.atlas",
)


def _not_operator() -> dict:
    spec = importlib.util.spec_from_file_location(
        "reach_tool", os.path.join(REPO_ROOT, "tools", "reach.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.NOT_OPERATOR


@functools.lru_cache(maxsize=None)
def loaded(form: str) -> frozenset:
    """Every module a fresh interpreter holds after ``repro <FORMS[form]>``."""
    paths = [os.path.join(REPO_ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), *FORMS[form]],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths))),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return frozenset(done.stdout.split())


def test_help_loads_no_numpy():
    assert "numpy" not in loaded("help")


@pytest.mark.parametrize("form", ["stability", "scan", "playbook"])
def test_operator_path_loads_no_oracle_or_ledger_module(form):
    declared = {
        f"repro.{key}"
        for key, reason in _not_operator().items()
        if reason.startswith(("oracle: ", "ledger: "))
    }
    assert declared, "tools/reach.py declares no oracle module"
    assert sorted(declared & loaded(form)) == []


def test_stability_loads_no_other_subcommand_module():
    stray = [
        module for module in loaded("stability")
        if any(module == name or module.startswith(name + ".") for name in NOT_STABILITY)
    ]
    assert stray == []


def test_stability_module_budget():
    """95 ``repro`` modules when every package re-exported eagerly."""
    ours = [m for m in loaded("stability") if m == "repro" or m.startswith("repro.")]
    assert len(ours) <= 60, sorted(ours)


if __name__ == "__main__":
    from repro.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        try:
            status = main(sys.argv[1:])
        except SystemExit as done:  # --help exits through argparse
            status = done.code
    print(*sorted(sys.modules), sep="\n")
    sys.exit(status)
