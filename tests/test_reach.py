"""The reach audit's declarations (``tools/reach.py``) match the tree."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
import threading

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
    prefixes = tuple(f"{stratum}: " for stratum in reach.STRATA)
    for key, reason in {**reach.NOT_OPERATOR, **reach.NOT_OPERATOR_FN}.items():
        assert reason.startswith(prefixes), key


def test_every_declared_function_is_a_def_of_its_module(reach):
    """Each ``module:Qual.name`` key names a def the AST of that module holds."""
    for key in reach.NOT_OPERATOR_FN:
        module, name = key.split(":")
        path = reach.SRC.joinpath(*module.split(".")).with_suffix(".py")
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert name in dict(reach.functions(tree)), key


def test_ledger_reasons_name_the_benchmark_line(reach):
    for key, reason in reach.NOT_OPERATOR_FN.items():
        if reason.startswith("ledger: "):
            path, line = reason.split()[1].split(":")
            assert path.startswith("benchmarks/e2e/"), key
            called = key.split(".")[-1].split(":")[-1]
            source = (reach.ROOT / path).read_text(encoding="utf-8").splitlines()
            assert called in source[int(line) - 1], key


def test_qualified_names_follow_classes_and_enclosing_defs(reach):
    tree = ast.parse(
        "def f():\n    def inner():\n        pass\n"
        "class C:\n    def m(self):\n        pass\n    class D:\n        def n(self):\n"
        "            pass\n"
    )
    assert [name for name, _ in reach.functions(tree)] == ["f", "f.inner", "C.m", "C.D.n"]


def test_the_function_gate_both_ways(reach):
    """An un-run function needs an entry, and an entry needs an un-run function."""
    ran = {"m:idle_declared": False, "m:idle_undeclared": False, "m:ran": True,
           "m:ran_declared": True}
    declared = {"m:idle_declared": "test: x", "m:ran_declared": "test: x", "m:gone": "test: x"}
    assert reach.function_problems(ran, declared) == [
        "undeclared: repro.m:idle_undeclared ran on no operator path",
        "stale: repro.m:ran_declared ran",
        "stale: repro.m:gone is gone",
    ]
    assert reach.function_problems({"m:idle_declared": False}, {"m:idle_declared": "test: x"}) == []


def test_the_linter_is_not_declared(reach):
    assert not [key for key in reach.NOT_OPERATOR if key.split(".")[0] == "lint"]


def test_a_module_without_functions_counts_as_declared(reach):
    """A ``types:`` module stays declared when its last function goes."""
    declared = next(key for key, why in reach.NOT_OPERATOR.items() if why.startswith("types: "))
    function = object()  # kind_of reads only whether the lists are empty
    assert reach.kind_of(declared, [function], []) == 3
    assert reach.kind_of(declared, [], []) == 3
    assert reach.kind_of("made.up", [], []) == 3
    assert reach.kind_of("made.up", [function], []) == 4
    assert reach.kind_of(declared, [function], [function]) == 2


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


@pytest.mark.reach
def test_the_audit_leaves_the_process_as_it_found_it(reach, monkeypatch):
    """A fresh table store of its own, then the environment, argv and both
    profile hooks restored."""
    monkeypatch.setenv("REPRO_TABLE_CACHE", "/nonexistent/warm-store")
    environ, argv = dict(os.environ), list(sys.argv)
    ran = reach.operator_reach()
    assert dict(os.environ) == environ and sys.argv == argv
    assert sys.getprofile() is None and threading.getprofile() is None
    tables = reach.SRC / "core" / "tables.py"
    defs = dict(reach.functions(ast.parse(tables.read_text(encoding="utf-8"))))
    for writer in ("TableStore.write_array", "TableStore.write_manifest"):
        assert (str(tables), defs[writer].lineno) in ran, writer
