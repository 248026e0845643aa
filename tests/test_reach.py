"""The reach audit's declarations (``tools/reach.py``) match the tree."""

from __future__ import annotations

import importlib
import importlib.util
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(REPO_ROOT, "tools", "reach.py")


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reach_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_declared_module_imports(reach):
    for key in reach.NOT_OPERATOR:
        importlib.import_module(f"repro.{key}")


def test_every_reason_names_its_stratum(reach):
    for key, reason in reach.NOT_OPERATOR.items():
        assert reason.startswith(("oracle: ", "library: ", "types: ")), key


def test_the_linter_is_not_declared(reach):
    assert not [key for key in reach.NOT_OPERATOR if key.split(".")[0] == "lint"]


def test_matrix_covers_every_subcommand():
    """A subcommand added to the parser must be added to the audit too."""
    listed = subprocess.run(
        [sys.executable, TOOL, "--matrix"],
        check=True, capture_output=True, text=True,
    ).stdout.splitlines()
    assert all(line.startswith("repro ") for line in listed)
    subparsers = next(
        action for action in build_parser()._actions if action.choices
    )
    assert {line.split()[1] for line in listed} == set(subparsers.choices)


@pytest.mark.reach
def test_operator_run_enters_no_oracle_module(reach, capsys):
    """Own hook, not the tool's: an independent reading of "did not run"."""
    oracle = {
        str(reach.SRC.joinpath(*key.split(".")).with_suffix(".py"))
        for key, reason in reach.NOT_OPERATOR.items()
        if reason.startswith("oracle: ")
    }
    assert oracle
    entered = set()

    def hook(frame, event, arg):
        entered.add(frame.f_code.co_filename)

    sys.setprofile(hook)
    try:
        for argv in (["scan", "--rtt"], ["stability", "--rounds", "2"], ["failure"]):
            assert main([*argv, "--scenario", "tangled", "--scale", "tiny"]) == 0
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert any(path.startswith(str(reach.SRC)) for path in entered)
    assert not entered & oracle
