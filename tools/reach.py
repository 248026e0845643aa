"""Reach audit: which of ``src/repro`` does an operator path actually run?

Runs ``MATRIX`` (each CLI subcommand, each option family that selects another code
path), every ``examples/`` script and ``tools/serve_smoke.py`` (the daemon's HTTP
handlers) in-process at ``tiny`` under ``sys.setprofile`` + ``threading.setprofile``,
with a fresh table store; prints per package: lines, function-body lines, those of
functions that ran / of declared / of orphan modules, then every declaration and every
function of an operator module that ran on no path.  ``--check`` exits 1 on an orphan
(a module outside ``lint/`` that ran nothing and is not in ``NOT_OPERATOR``), on an
un-run function of an operator module that is not in ``NOT_OPERATOR_FN``, and on a
declared module or function that ran or is gone; ``--matrix`` lists the runs.
"""

import ast
import contextlib
import io
import os
import pathlib
import runpy
import sys
import tempfile
import threading

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: Each module no operator path runs, and why it is kept (``make reach`` gates on it).
NOT_OPERATOR = {
    "oracle.scan": "oracle: the paper's Figure 1 walk, packet by packet (wire_scan, wire_round)",
    "oracle.schedule": "oracle: the Feistel probe order and round schedule the engine replays",
    "oracle.packets": "oracle: ICMP echo encode/decode of the wire-level scan",
    "oracle.responder": "oracle: per-host reply draws the engine's columns replay",
    "oracle.network": "oracle: the per-packet dataplane wire_scan walks",
    "oracle.capture": "oracle: the paper's three per-site capture styles (§3.1)",
    "oracle.aggregate": "oracle: the wire-level scan's central collector",
    "oracle.cleaning": "oracle: the §4 cleaning rules over reply objects, and the column "
                       "conversions",
    "oracle.dns": "oracle: the DNS wire codec Atlas's CHAOS queries and answers travel in",
    "oracle.chaos": "oracle: Atlas's hostname.bind measurement, one DNS message per VP "
                    "(wire_measure), and each site's identity nameserver",
    "bgp.updates": "oracle: message-level BGP convergence that pins compute_routes",
    "bgp.reference": "oracle: the scalar Gao-Rexford propagator every bgp.sweep column "
                     "is held to",
    "topology.validate": "oracle: structural checks tests and benchmarks/e2e run on an Internet",
    "bgp.delta": "ledger: single-policy delta misses, kept only for the benchmarks/e2e "
                 "traced probe until routing has one implementation",
    "bgp.ribdump": "library: the §4 Route Views stage (RIB and AS-path dumps)",
    "netaddr.trie": "library: the longest-prefix-match trie bgp.ribdump's lookups walk",
    "topology.prefixes": "types: the AnnouncedPrefix value type",
    "topology.relationships": "oracle: the neighbour lists of the Internet.graph view that "
                              "bgp.reference, bgp.updates and topology.validate walk",
}

#: The reasons' prefixes: why a declared module or function runs on no operator path.
STRATA = ("oracle", "test", "types", "library", "ledger")

#: Each function of an operator module that no operator path runs, and why it is kept:
#: ``oracle:`` an oracle or equivalence reference calls it, ``test:`` tests hold the
#: engine to it, ``types:`` a value type's protocol, ``library:`` public API a paper
#: figure or study script calls, ``ledger:`` ``benchmarks/e2e`` calls it (at the line
#: named), until the ledger runs the CLI.  ``make reach`` gates on it both ways.
NOT_OPERATOR_FN = {
    "anycast.catchment:CatchmentMap.from_mapping":
        "oracle: the dict-to-columns map oracle.scan and bgp.reference build (and read_scan)",
    "collector.results:BlockValueMap.from_mapping":
        "oracle: the dict-to-columns RTT map oracle.scan builds (and read_scan)",
    "service.state:batch_replay":
        "oracle: the round-by-round merge tests/test_service.py holds the accumulator to",
    "topology.internet:Internet.ases":
        "oracle: object view of the AS table (bgp.reference, bgp.updates, topology.validate)",
    "topology.internet:Internet.pops": "oracle: object view of the PoP table (bgp.reference)",
    "topology.internet:Internet.announced":
        "oracle: object view of the prefix table (topology.validate, bgp.ribdump)",
    "topology.internet:Internet.graph":
        "oracle: object view of the edge table (bgp.reference, bgp.updates, topology.validate)",
    "topology.internet:_rows": "oracle: the row reader of the ases and pops views",
    "topology.asys:AutonomousSystem.is_multi_pop": "oracle: bgp.reference's hot-potato test",
    "core.sharding:assert_buffers_equal": "test: the bit-for-bit column check of the two below",
    "core.sharding:assert_scan_results_identical":
        "test: sharded vs in-process scan equality (tests, benchmarks/e2e/layers.py:546)",
    "core.sharding:assert_site_loads_identical": "test: sharded vs in-process load equality",
    "collector.stream:StreamingCleaner.feed":
        "test: stage + commit in one call, the batch form the cleaner tests drive",
    "anycast.catchment:CatchmentMap.__contains__": "types: block membership of the map",
    "bgp.cache:RoutingCache.__len__": "types: entry count, the LRU bound the cache tests read",
    "geo.grid:GeoGrid.__len__": "types: populated cells (benchmarks/bench_figure2_broot_maps.py)",
    "lazy:lazy_exports.__dir__": "types: dir() of a lazy package lists its exports",
    "netaddr.prefix:Prefix.__str__": "types: CIDR text (ribdump, validation and error messages)",
    "netaddr.prefix:Prefix.__repr__": "types: the Prefix value type",
    "netaddr.prefix:Prefix.__eq__": "types: the Prefix value type",
    "netaddr.prefix:Prefix.__lt__": "types: prefix order (ribdump and validation sort by it)",
    "netaddr.prefix:Prefix.__hash__": "types: the Prefix value type",
    "netaddr.prefix:Prefix.broadcast": "types: the Prefix value type (validation's overlap test)",
    "topology.asys:AutonomousSystem.__post_init__": "types: the AS view type's tier check",
    "obs.metrics:MetricsRegistry.__len__": "types: metric count",
    "analysis.maps:server_load_grid":
        "library: Figure 4b's per-server load grid (benchmarks/bench_figure4_load_maps.py)",
    "analysis.prepend:format_hourly_load_table":
        "library: Figure 6's table (benchmarks/bench_figure6_hourly_load.py)",
    "anycast.catchment:_recode":
        "library: CatchmentMap.diff across two site vocabularies, which no subcommand diffs",
    "bgp.policy:AnnouncementPolicy.with_prepend":
        "library: one-site prepend (benchmarks/bench_extension_communities.py)",
    "bgp.policy:AnnouncementPolicy.with_no_export":
        "library: NO_EXPORT communities (benchmarks/bench_extension_communities.py)",
    "datasets:read_scan": "library: reads back what `repro scan --output` writes",
    "datasets:_parse_kv": "library: read_scan's header parser",
    "datasets:_convert": "library: read_scan's field parser",
    "netaddr.blocks:parse_block": "library: read_scan's /24 parser",
    "traffic.logs:DayLoad.mean_qps": "library: Table 2's mean rate (benchmarks/bench_table2_load.py)",
    "core.fastscan:FastScanEngine.run_series": "ledger: benchmarks/e2e/layers.py:289",
    "obs.metrics:MetricsRegistry.value_of": "ledger: benchmarks/e2e/layers.py:417",
    "obs.trace:Span.duration": "ledger: benchmarks/e2e/layers.py:75",
    "service.daemon:MappingService.app": "ledger: benchmarks/e2e/layers.py:467",
    "topology.internet:Internet.blocks":
        "ledger: benchmarks/e2e/layers.py:429 (bgp.reference walks it too)",
}

#: Run as ``repro <line> --scale tiny``, ``TMP`` replaced by a scratch directory; the one
#: list of subcommand forms, which ``tools/determinism.py`` also runs at ``small``.
MATRIX = [
    "scan --rtt --map --output TMP/s.tsv", "sweep", "sweep --scenario nl", "coverage",
    "loadmap --scenario nl", "failure", "suggest",
    "stability --rounds 4 --metrics-out TMP/m.json --trace-out TMP/t.json --profile", "report",
    "stability --rounds 3 --shards 2 --workers 0", "stability --rounds 3 --workers 1",
    "stability --rounds 3 --shards 2",
    "playbook --scenario tangled --out TMP/p.json",
    "playbook --scenario tangled --start-hour 5 --out TMP/p2.json",
    "playbook --scenario cdn --workers 0",
    "playbook --scenario tangled --workers 2 --out TMP/p.json",
    "serve --rounds 2", "paper --rounds 4 --outdir TMP/paper",
]


def operator_reach() -> set:
    """``(file, co_firstlineno)`` of each function the matrix, the examples and the
    serve smoke run, against an empty table store of their own (a warm store skips
    its writers); the environment, ``sys.argv`` and both profile hooks are restored."""
    from repro.cli import main as repro
    ran = set()

    def hook(frame, event, arg):
        if event == "call":
            ran.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    saved_env, saved_argv = dict(os.environ), list(sys.argv)
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        os.environ["REPRO_TABLE_CACHE"] = os.path.join(tmp, "tables")
        threading.setprofile(hook)  # the daemon's ingest and HTTP threads
        sys.setprofile(hook)
        try:
            for line in MATRIX:
                if repro([*line.replace("TMP", tmp).split(), "--scale", "tiny"]) != 0:
                    sys.exit(f"reach: repro {line} failed")
            for script in sorted(ROOT.glob("examples/*.py")):
                sys.argv = [str(script)]  # the examples read their own argv, not this tool's
                runpy.run_path(str(script), run_name="__main__")
            try:
                runpy.run_path(str(ROOT / "tools" / "serve_smoke.py"), run_name="__main__")
            except SystemExit as done:  # the smoke's own exit status
                if done.code != 0:
                    sys.exit("reach: tools/serve_smoke.py failed")
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            sys.argv = saved_argv
            os.environ.clear()
            os.environ.update(saved_env)
    return ran


def functions(tree: ast.Module) -> list:
    """``(qualified name, node)`` of every def in ``tree``: ``Class.method``, and a
    nested def under its enclosing def (``outer.inner``)."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    found.append((name, child))
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def kind_of(module: str, defs: list, entered: list) -> int:
    """The table column a module's functions count in: 2 operator (one of them ran),
    3 declared (in ``NOT_OPERATOR``, or a module with no functions at all, which is a
    ``types:`` module by construction), 4 orphan."""
    return 2 if entered else 3 if module in NOT_OPERATOR or not defs else 4


def function_problems(ran: dict, declared: dict) -> list:
    """The function gate. ``ran`` maps each function of an operator module
    (``module:Qual.name``) to whether it ran; ``declared`` is ``NOT_OPERATOR_FN``.
    One line per un-run function it lacks and per entry that ran or is gone."""
    problems = [f"undeclared: repro.{name} ran on no operator path"
                for name, entered in ran.items() if not entered and name not in declared]
    problems += [f"stale: repro.{name} {'ran' if ran.get(name) else 'is gone'}"
                 for name in declared if ran.get(name) is not False]
    return problems


def main(argv: list) -> int:
    """Print the reach table; with ``--check``, gate on ``NOT_OPERATOR`` and
    ``NOT_OPERATOR_FN``."""
    if "--matrix" in argv:
        print(*(f"repro {line}" for line in MATRIX), sep="\n")
        return 0
    ran, table, operator_fns, kinds = operator_reach(), {}, {}, {}
    for path in sorted(path for path in SRC.rglob("*.py") if "lint" not in path.parts):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        text = path.read_text(encoding="utf-8")
        defs = functions(ast.parse(text))
        entered = [n for _, n in defs if (str(path), (n.decorator_list + [n])[0].lineno) in ran]
        body, hit = (sum(n.end_lineno - n.lineno + 1 for n in nodes)
                     for nodes in ([n for _, n in defs], entered))
        kinds[module] = kind = kind_of(module, defs, entered)
        if kind == 2:
            operator_fns.update((f"{module}:{name}", n in entered) for name, n in defs)
        row = [text.count("\n"), body, hit, body * (kind == 3), body * (kind == 4)]
        for package in (module.split(".")[0], "TOTAL"):
            table[package] = [a + b for a, b in zip(table.get(package, [0] * 5), row)]
    problems = [f"orphan: repro.{m} ran nothing" for m, kind in kinds.items() if kind == 4]
    problems += [f"stale: repro.{m} ran or is gone" for m in NOT_OPERATOR if kinds.get(m) != 3]
    problems += function_problems(operator_fns, NOT_OPERATOR_FN)
    idle = [name for name, entered in operator_fns.items() if not entered]
    strata = [why.split(":")[0] for why in NOT_OPERATOR_FN.values()]
    print(("%-10s" + "%10s" * 5) % ("package", "lines", "fn-body", "ran", "declared", "orphan"))
    print(*(("%-10s" + "%10s" * 5) % (p, *row) for p, row in sorted(table.items())), sep="\n")
    print(*(f"declared  repro.{module}: {why}" for module, why in NOT_OPERATOR.items()), sep="\n")
    print(*(f"declared  repro.{name}: {why}" for name, why in NOT_OPERATOR_FN.items()), sep="\n")
    print(f"{len(idle)} functions of operator modules ran on no operator path:", *idle)
    print(f"{len(NOT_OPERATOR_FN)} declared functions:",
          ", ".join(f"{stratum} {strata.count(stratum)}" for stratum in STRATA))
    print(f"{sum(kind > 2 for kind in kinds.values())} modules ran nothing", *problems, sep="\n")
    return 1 if problems and "--check" in argv else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
