"""Reach audit: which of ``src/repro`` does an operator path actually run?

Runs ``MATRIX`` (each CLI subcommand, each option family that selects another code
path) and every ``examples/`` script in-process at ``tiny`` under ``sys.setprofile``
+ ``threading.setprofile``; prints per package: lines, function-body lines, those
of functions that ran / of declared / of orphan modules.  ``--check`` exits 1 on an
orphan (a module outside ``lint/`` that ran nothing and is not in ``NOT_OPERATOR``)
and on a declared module that ran or is gone; ``--matrix`` lists the runs.
"""

import ast
import contextlib
import io
import pathlib
import runpy
import sys
import tempfile
import threading

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: Each module no operator path runs, and why it is kept (``make reach`` gates on it).
NOT_OPERATOR = {
    "icmp.network": "oracle: the per-packet dataplane run_scan(wire_level=True) walks",
    "icmp.packets": "oracle: ICMP echo encode/decode of the wire-level scan",
    "icmp.responder": "oracle: per-host reply behaviour the engine's columns replay",
    "collector.aggregate": "oracle: the wire-level scan's central collector",
    "collector.capture": "oracle: the paper's three per-site capture styles (§3.1)",
    "bgp.updates": "oracle: message-level BGP convergence that pins compute_routes",
    "topology.validate": "oracle: structural checks tests and benchmarks/e2e run on an Internet",
    "bgp.ribdump": "library: the §4 Route Views stage (ROADMAP items 3 and 9 consume it)",
    "errors": "types: the ReproError hierarchy",
    "bgp.route": "types: the Route value type",
    "topology.prefixes": "types: the AnnouncedPrefix value type",
}

#: Run as ``repro <line> --scale tiny``, ``TMP`` replaced by a scratch directory.
MATRIX = [
    "scan --rtt --map --output TMP/s.tsv", "scan --shards 2 --workers 0", "scan --workers 1",
    "sweep", "sweep --scenario nl", "coverage", "loadmap --scenario nl", "failure", "suggest",
    "stability --rounds 4 --metrics-out TMP/m.json --trace-out TMP/t.json --profile", "report",
    "stability --rounds 3 --shards 2 --workers 0", "stability --rounds 3 --workers 1",
    "playbook --scenario tangled --out TMP/p.json", "playbook --scenario cdn --workers 0",
    "serve --rounds 2", "serve --rounds 2 --workers 0", "paper --rounds 4 --outdir TMP/paper",
]


def operator_reach() -> set:
    """``(file, co_firstlineno)`` of each function the matrix and the examples run."""
    from repro.cli import main as repro
    ran = set()

    def hook(frame, event, arg):
        if event == "call":
            ran.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    threading.setprofile(hook)  # the daemon's ingest and HTTP threads
    sys.setprofile(hook)
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        for line in MATRIX:
            if repro([*line.replace("TMP", tmp).split(), "--scale", "tiny"]) != 0:
                sys.exit(f"reach: repro {line} failed")
        for script in sorted(ROOT.glob("examples/*.py")):
            sys.argv = [str(script)]  # the examples read their own argv, not this tool's
            runpy.run_path(str(script), run_name="__main__")
    sys.setprofile(None)
    return ran


def main(argv: list) -> int:
    """Print the reach table; with ``--check``, gate on ``NOT_OPERATOR``."""
    if "--matrix" in argv:
        print(*(f"repro {line}" for line in MATRIX), sep="\n")
        return 0
    ran, table, idle, kinds = operator_reach(), {}, [], {}
    for path in sorted(path for path in SRC.rglob("*.py") if "lint" not in path.parts):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        text = path.read_text(encoding="utf-8")
        defs = [n for n in ast.walk(ast.parse(text)) if "FunctionDef" in type(n).__name__]
        entered = [n for n in defs if (str(path), (n.decorator_list + [n])[0].lineno) in ran]
        body, hit = (sum(n.end_lineno - n.lineno + 1 for n in nodes) for nodes in (defs, entered))
        # The table column a module's functions count in: 2 operator, 3 declared, 4 orphan.
        kinds[module] = kind = 2 if entered or not defs else 3 if module in NOT_OPERATOR else 4
        idle += [f"{module}:{n.name}" for n in defs if kind == 2 and n not in entered]
        row = [text.count("\n"), body, hit, body * (kind == 3), body * (kind == 4)]
        for package in (module.split(".")[0], "TOTAL"):
            table[package] = [a + b for a, b in zip(table.get(package, [0] * 5), row)]
    problems = [f"orphan: repro.{m} ran nothing" for m, kind in kinds.items() if kind == 4]
    problems += [f"stale: repro.{m} ran or is gone" for m in NOT_OPERATOR if kinds.get(m) != 3]
    print(("%-10s" + "%10s" * 5) % ("package", "lines", "fn-body", "ran", "declared", "orphan"))
    print(*(("%-10s" + "%10s" * 5) % (p, *row) for p, row in sorted(table.items())), sep="\n")
    print(*(f"declared  repro.{module}: {why}" for module, why in NOT_OPERATOR.items()), sep="\n")
    print(f"{len(idle)} functions of operator modules ran on no operator path:", *idle)
    print(f"{sum(kind > 2 for kind in kinds.values())} modules ran nothing", *problems, sep="\n")
    return 1 if problems and "--check" in argv else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
