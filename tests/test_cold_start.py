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
import tempfile

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FORMS = {
    "help": ["--help"],
    "stability": ["stability", "--scale", "tiny", "--rounds", "2"],
    "scan": ["scan", "--scale", "tiny"],
    "playbook": ["playbook", "--scenario", "tangled", "--scale", "tiny"],
    "sweep": ["sweep", "--scale", "tiny"],
    "failure": ["failure", "--scale", "tiny"],
    "coverage": ["coverage", "--scale", "tiny"],
    "report": ["report", "--scale", "tiny"],
}

#: Modules of other subcommands, which ``stability`` must not import.
NOT_STABILITY = (
    "repro.core.playbook", "repro.core.planning", "repro.core.pool",
    "repro.core.sharding", "repro.core.tables", "repro.service",
    "repro.load.weighting", "repro.traffic.attack", "repro.atlas",
)

#: What only a cold scenario build runs: a warm table store attaches the
#: Internet instead.
GENERATOR = ("repro.topology.generator", "repro.topology.allocator")

#: The object views' modules, which an attach (reading columns only) never loads.
VIEWS = ("repro.topology.relationships", "repro.topology.prefixes")


def _not_operator() -> dict:
    spec = importlib.util.spec_from_file_location(
        "reach_tool", os.path.join(REPO_ROOT, "tools", "reach.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.NOT_OPERATOR


def _run(argv, **env) -> frozenset:
    paths = [os.path.join(REPO_ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), *argv],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)), **env),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return frozenset(done.stdout.split())


@functools.lru_cache(maxsize=None)
def loaded(form: str) -> frozenset:
    """Every module a fresh interpreter holds after ``repro <FORMS[form]>``, on
    an empty table store (its scenario snapshot is written after the listing)."""
    with tempfile.TemporaryDirectory() as store:
        return _run(FORMS[form], REPRO_TABLE_CACHE=store)


def test_help_loads_no_numpy():
    assert "numpy" not in loaded("help")


@pytest.mark.parametrize(
    "form", ["stability", "scan", "playbook", "sweep", "failure", "coverage", "report"]
)
def test_operator_path_loads_no_oracle_or_ledger_module(form):
    declared = {
        f"repro.{key}"
        for key, reason in _not_operator().items()
        if reason.startswith(("oracle: ", "ledger: "))
    }
    assert declared, "tools/reach.py declares no oracle module"
    assert sorted(declared & loaded(form)) == []


@pytest.mark.parametrize("form", ["stability", "scan", "playbook"])
def test_operator_path_builds_no_trie(form):
    """Prefix lookups are a ``searchsorted`` over the block columns."""
    assert "repro.netaddr.trie" not in loaded(form)


def test_playbook_loads_no_numpy_ma():
    """The attack's draws and merges are sorts, not ``np.unique``/``np.union1d``,
    whose first call imports ``numpy.ma`` (12-17 ms)."""
    assert "numpy.ma" not in loaded("playbook")


def test_stability_loads_no_other_subcommand_module():
    stray = [
        module for module in loaded("stability")
        if any(module == name or module.startswith(name + ".") for name in NOT_STABILITY)
    ]
    assert stray == []


def test_a_warm_table_store_loads_no_generator(tmp_path):
    """The second run of a scenario attaches its Internet from the store the
    first filled at its exit: ``core.tables`` then, but no module of the pool,
    and none that builds the object views."""
    cold, warm = (_run(FORMS["stability"], REPRO_TABLE_CACHE=str(tmp_path)) for _ in range(2))
    assert set(GENERATOR) <= cold and "repro.core.tables" not in cold
    assert sorted(set(GENERATOR + VIEWS) & warm) == []
    assert sorted(set(NOT_STABILITY) & warm) == ["repro.core.tables"]


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
