"""The scenario Internet as a table-store snapshot.

``snapshot_internet`` builds and persists on a miss and attaches on a
hit.  An attached Internet must equal a built one field for field, so
every pin and every artifact is the same bytes on a cold and a warm
store; a damaged entry raises ``DatasetError`` and is rebuilt.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from fnmatch import fnmatch

import numpy as np
import pytest

from repro.bgp import sweep
from repro.bgp.propagation import RoutingConfig
from repro.core import scenarios
from repro.core.scenarios import broot_like, cdn_like, nl_like, snapshot_internet, tangled_like
from repro.core.tables import (
    _INTERNET_COLUMNS,
    TableStore,
    attach_internet,
    content_fingerprint,
    ensure_array,
    persist_internet,
)
from repro.errors import DatasetError
from repro.topology import generator
from repro.topology.asys import AutonomousSystem, PoP
from repro.topology.generator import TopologyConfig, build_internet
from repro.topology.prefixes import AnnouncedPrefix
from repro.topology.relationships import RelationshipGraph
from tests import test_synthesis_columns as synthesis

PACKAGE = os.path.dirname(os.path.dirname(os.path.abspath(scenarios.__file__)))
SRC = os.path.dirname(PACKAGE)
BUILDERS = {"tangled": tangled_like, "broot": broot_like, "nl": nl_like, "cdn": cdn_like}


@pytest.fixture
def store(tmp_path, monkeypatch):
    """An empty table store of the test's own."""
    monkeypatch.setenv("REPRO_TABLE_CACHE", str(tmp_path))
    return TableStore()


def _attached(internet) -> bool:
    return isinstance(internet.block_table()[0].base, np.memmap)


def _routing_rows(internet) -> dict:
    """Routing's AS columns and CSR rows, each held equal to what the object
    views give: the per-AS fields, and a walk of each AS's neighbour lists in
    order (the scalar candidate order ``_first_min`` breaks ties by)."""
    columns, tables = sweep.as_columns(internet), sweep.edge_tables(internet, RoutingConfig())
    systems = [internet.ases[asn] for asn in columns.asns.tolist()]
    assert columns.asns.tolist() == sorted(internet.ases)
    assert columns.multi_pop.tolist() == [asys.is_multi_pop for asys in systems]
    assert columns.flipper.tolist() == [asys.flipper for asys in systems]
    assert columns.pop_as.tolist() == [columns.index[pop.asn] for pop in internet.pops]
    graph, rows = internet.graph, {}
    for name, walk in (("up", graph.customers_of), ("peer", graph.peers_of),
                       ("down", graph.providers_of)):
        table = getattr(tables, name)
        rows[name] = [table.exporter[low:high].tolist()
                      for low, high in zip(table.offsets[:-1], table.offsets[1:])]
        assert rows[name] == [[columns.index[n] for n in walk(asn)] for asn in sorted(internet.ases)]
        assert table.importer.tolist() == np.repeat(np.arange(len(systems)),
                                                    np.diff(table.offsets)).tolist()
    return rows


def _fields(internet) -> dict:
    """Everything an Internet holds, its object views and routing's rows
    included, as plain comparable values."""
    geo = internet.geodb.columnar()
    graph = internet.graph
    ases, pops = internet.as_table, internet.pop_table
    arrays = (*internet.block_table(), geo.blocks, geo.latitudes, geo.longitudes,
              geo.country_index, internet.prefixes, internet.edges, ases.asn, ases.flipper,
              pops.asn, pops.latitude, pops.longitude)
    return {
        "seed": internet.seed,
        "arrays": [(a.dtype.str, a.shape, a.tobytes()) for a in arrays],
        "text": (ases.tier, ases.name, ases.country_code, pops.country_code),
        "countries": geo.countries,
        "pops": internet.pops,
        "ases": list(internet.ases.items()),
        "prefixes": [
            (str(e.prefix), e.origin_asn, e.populated.dtype.str, e.populated.tolist())
            for e in internet.announced
        ],
        "neighbours": [
            (asn, graph.providers_of(asn), graph.customers_of(asn), graph.peers_of(asn))
            for asn in internet.ases
        ],
        "routing": _routing_rows(internet),
        "host_config": internet.host_model.config,
    }


def _config_inputs(config: TopologyConfig) -> dict:
    return {field.name: getattr(config, field.name) for field in fields(config)}


def _attach_of(config: TopologyConfig):
    """``config``'s Internet, persisted by a first lookup and attached by a second."""
    snapshot_internet(**_config_inputs(config))
    internet = snapshot_internet(**_config_inputs(config))
    assert _attached(internet)
    return internet


@pytest.mark.parametrize("seed", [3, 7, 11])
@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_cold_equals_warm_field_for_field(store, builder, seed):
    cold = BUILDERS[builder](scale="tiny", seed=seed)
    warm = BUILDERS[builder](scale="tiny", seed=seed)
    assert not _attached(cold.internet) and _attached(warm.internet)
    assert _fields(warm.internet) == _fields(cold.internet)
    assert warm.service.site_codes == cold.service.site_codes
    assert [site.upstream_asn for site in warm.service.sites] == [
        site.upstream_asn for site in cold.service.sites
    ]


def test_every_synthesis_pin_holds_on_an_attached_internet(store, monkeypatch):
    tangled, broot = (_attached_scenario(BUILDERS[name], seed) for name, seed in
                      (("tangled", 11), ("broot", 7)))
    for builder in (tangled_like, broot_like):  # the small universes attach too
        builder(scale="small")
    monkeypatch.setattr(synthesis, "build_internet", _attach_of)
    observed = synthesis._observed(_attach_of(synthesis.COLUMNS_CONFIG), tangled, broot)
    assert observed == synthesis.PINNED
    assert synthesis._observed_universes(tangled, broot) == synthesis.UNIVERSE_PINNED


def _attached_scenario(builder, seed):
    builder(scale="tiny", seed=seed)
    scenario = builder(scale="tiny", seed=seed)
    assert _attached(scenario.internet)
    return scenario


def _entry(store) -> str:
    scenarios.save_snapshot()
    (entry,) = [name for name in os.listdir(store.root) if name.startswith("internet-")]
    return entry


def _truncate(path):
    with open(path, "r+b") as handle:
        handle.truncate(os.path.getsize(path) // 2)


def _flip_last_byte(path):
    with open(path, "r+b") as handle:
        handle.seek(-1, os.SEEK_END)
        byte = handle.read(1)
        handle.seek(-1, os.SEEK_END)
        handle.write(bytes([byte[0] ^ 0x01]))


def _wrong_kind(path):
    with open(path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({**manifest, "kind": "array"}, handle)


@pytest.mark.parametrize("damage, filename", [
    (_truncate, "geo.latitudes.npy"),
    (_wrong_kind, "manifest.json"),
    (_flip_last_byte, "blocks.npy"),
    (_flip_last_byte, "manifest.json"),
])
def test_a_damaged_snapshot_raises_and_is_rebuilt(store, damage, filename):
    built = tangled_like(scale="tiny", seed=3).internet
    entry = _entry(store)
    damage(os.path.join(store.dir_of(entry), filename))
    with pytest.raises(DatasetError):
        attach_internet(store, entry)
    rebuilt = tangled_like(scale="tiny", seed=3).internet
    assert not _attached(rebuilt) and _fields(rebuilt) == _fields(built)
    scenarios.save_snapshot()
    assert _fields(attach_internet(store, entry)) == _fields(built)  # overwritten


def test_misaligned_columns_raise(store):
    internet = tangled_like(scale="tiny", seed=3).internet
    entry = _entry(store)
    store.write_array(entry, "asns", internet.block_table()[1][:-1])
    manifest = store.read_manifest(entry)
    scalars = {name: value for name, value in manifest.items() if name != "content_fingerprint"}
    arrays = {name: np.asarray(store.read_array(entry, name)) for name in _INTERNET_COLUMNS}
    store.write_manifest(entry, {**scalars,
                                 "content_fingerprint": content_fingerprint(arrays, scalars)})
    with pytest.raises(DatasetError, match="misaligned"):
        attach_internet(store, entry)


def test_another_generator_source_misses(store, monkeypatch):
    tangled_like(scale="tiny", seed=3)
    monkeypatch.setattr(scenarios, "_sources_digest", lambda: "edited")
    assert not _attached(tangled_like(scale="tiny", seed=3).internet)
    scenarios.save_snapshot()
    assert len([name for name in os.listdir(store.root) if name.startswith("internet-")]) == 2


def test_a_miss_is_persisted_after_the_build(store):
    """A miss writes nothing while the run goes on; the next lookup (or the
    end of the process) persists it, and a store removed meanwhile stays gone."""
    tangled_like(scale="tiny", seed=3)
    assert os.listdir(store.root) == []
    assert _attached(tangled_like(scale="tiny", seed=3).internet)
    broot_like(scale="tiny", seed=3)
    shutil.rmtree(store.root)
    scenarios.save_snapshot()
    assert not os.path.exists(store.root)


def test_a_store_that_cannot_be_written_changes_no_output(tmp_path, monkeypatch, capsys):
    """The snapshot is a cache: a run whose store cannot be made still exits 0
    with the stdout of a run on a working store."""
    from repro.cli import main

    argv = ["stability", "--scale", "tiny", "--rounds", "2"]
    outputs = []
    (tmp_path / "file").write_text("")
    for root in (tmp_path / "store", tmp_path / "file" / "store"):
        monkeypatch.setenv("REPRO_TABLE_CACHE", str(root))
        assert main(argv) == 0
        scenarios.save_snapshot()
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and outputs[0]
    assert [name.startswith("internet-") for name in os.listdir(tmp_path / "store")] == [True]


_GUARD = """
import json, sys
from repro.core.tables import TableStore, attach_internet, persist_internet
from repro.topology.asys import SeededAS
from repro.topology.generator import TopologyConfig, build_internet
seeded = (
    SeededAS("FLIPPER", "transit", "CN", ("CN", "CN"), ((16, 2), (18, 1)), flipper=True,
             block_density=0.35),
    SeededAS("UPSTREAM", "transit", "US", ("US", "BR"), ((19, 1),),
             provider_names=("TIER1-2",), peer_regions=("SA",)),
)
internet = build_internet(TopologyConfig(seed=3, tier1_count=4, transit_count=16,
                                         stub_count=80, seeded_ases=seeded))
persist_internet(TableStore(sys.argv[1]), "guard", internet, "guard")
attach_internet(TableStore(sys.argv[1]), "guard")
print(json.dumps({name: module.__file__ for name, module in sys.modules.items()
                  if name.split(".")[0] == "repro"}))
"""


def test_the_build_imports_only_digested_sources(tmp_path):
    """From a bare interpreter, a build, its persist and its attach load only
    digested sources: a module outside the key could change the Internet
    without a miss, and a module ``core.scenarios`` loads first for the
    builders would hide from a check that starts after it."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", _GUARD, str(tmp_path)], env=env,
                          capture_output=True, text=True, check=True)
    loaded = json.loads(done.stdout)
    assert "repro.topology.generator" in loaded
    for name, path in loaded.items():
        relative = os.path.relpath(path, PACKAGE).replace(os.sep, "/")
        assert any(fnmatch(relative, source) for source in scenarios._BUILD_SOURCES), name


_LOOKUP = """
import sys
from repro.core import scenarios
scenarios._build_internet("tiny", 3, scenarios._GIANTS)
print(*sys.modules)
"""


def test_a_process_leaves_its_miss_for_the_next_one(tmp_path):
    """The miss is persisted at exit, so the next process attaches it and
    imports no generator."""
    env = dict(os.environ, REPRO_TABLE_CACHE=str(tmp_path), PYTHONPATH=SRC)
    cold, warm = (set(subprocess.run([sys.executable, "-c", _LOOKUP], env=env, check=True,
                                     capture_output=True, text=True).stdout.split())
                  for _ in range(2))
    assert "repro.topology.generator" in cold
    assert not {"repro.topology.generator", "repro.topology.allocator"} & warm


_RACE = """
from repro.core.scenarios import tangled_like
from repro.core.tables import TableStore, persist_internet
internet = tangled_like(scale="tiny", seed=3).internet
for _ in range(40):
    persist_internet(TableStore(), "race", internet, "race")
"""


def test_two_writers_of_one_entry_both_succeed(tmp_path, monkeypatch):
    env = dict(os.environ, REPRO_TABLE_CACHE=str(tmp_path / "shared"), PYTHONPATH=SRC)
    writers = [subprocess.Popen([sys.executable, "-c", _RACE], env=env,
                                stderr=subprocess.PIPE, text=True) for _ in range(2)]
    for writer in writers:
        _, err = writer.communicate(timeout=120)
        assert writer.returncode == 0, err
    monkeypatch.setenv("REPRO_TABLE_CACHE", str(tmp_path / "fresh"))
    fresh = tangled_like(scale="tiny", seed=3).internet
    assert not _attached(fresh)
    shared = TableStore(str(tmp_path / "shared"))
    assert _fields(attach_internet(shared, "race")) == _fields(fresh)
    assert not [name for name in os.listdir(shared.dir_of("race")) if name.endswith(".tmp")]


def _builder_of(config: TopologyConfig):
    """The generator's own rows for ``config``, before they become columns."""
    builder = generator._Builder(config)
    for step in (builder.build_tier1, builder.build_transit, builder.build_stubs,
                 builder.build_seeded, builder.build_prefixes):
        step()
    return builder


@pytest.mark.parametrize("name", [*sorted(BUILDERS), "columns"])
def test_the_views_of_an_attach_are_the_generator_rows(store, monkeypatch, name):
    """At ``tiny`` and for the synthesis pins' config, an attached Internet equals
    a built one field for field; its ``ases``, ``pops`` and neighbour lists (in
    order) are the generator's rows, and each prefix's run the blocks inside it."""
    config = synthesis.COLUMNS_CONFIG
    if name != "columns":
        inputs, lookup = [], scenarios.snapshot_internet
        monkeypatch.setattr(scenarios, "snapshot_internet",
                            lambda **given: inputs.append(given) or lookup(**given))
        BUILDERS[name](scale="tiny")
        config = TopologyConfig(**inputs[0])
    attached, builder = _attach_of(config), _builder_of(config)
    assert _fields(attached) == _fields(build_internet(config))
    systems = attached.ases.values()
    assert [(a.asn, a.tier, a.name, a.country_code, a.flipper) for a in systems] == builder.as_rows
    assert [a.pop_ids for a in systems] == builder.pops_of
    assert [(p.pop_id, p.asn, p.country_code, p.latitude, p.longitude) for p in attached.pops] == [
        (pop_id, *row) for pop_id, row in enumerate(builder.pop_rows)]
    lists = {asn: ([], [], []) for asn in attached.ases}  # providers, customers, peers
    for (a, b), peering in builder.edges.items():
        lists[a][2 if peering else 0].append(b)
        lists[b][2 if peering else 1].append(a)
    graph = attached.graph
    assert lists == {asn: (graph.providers_of(asn), graph.customers_of(asn), graph.peers_of(asn))
                     for asn in attached.ases}
    blocks = attached.block_table()[0]
    for entry in attached.announced:
        first = entry.prefix.network >> 8
        inside = blocks[(blocks >= first) & (blocks < first + entry.prefix.block_count)]
        assert entry.populated.tolist() == inside.tolist()


def test_a_save_evicts_other_sources_while_their_attach_reads_on(store, monkeypatch):
    """A save over the byte bound removes the other ``internet-*`` entries (an
    attach of one keeps reading its memmaps) and leaves entries it cannot read,
    and entries of other kinds, alone."""
    built = tangled_like(scale="tiny", seed=3).internet
    old = _entry(store)
    open_attach = attach_internet(store, old)
    persist_internet(store, "internet-older", built, "older sources")
    os.makedirs(store.dir_of("internet-unreadable"))  # no manifest: being written, say
    array = ensure_array(store, np.arange(3))
    monkeypatch.setattr(scenarios, "_SNAPSHOT_BYTES", 1)  # room for the new entry only
    monkeypatch.setattr(scenarios, "_sources_digest", lambda: "edited")
    assert not _attached(tangled_like(scale="tiny", seed=3).internet)
    (_, new, _), = scenarios._unsaved
    scenarios.save_snapshot()
    assert sorted(os.listdir(store.root)) == sorted([array, "internet-unreadable", new])
    assert _fields(open_attach) == _fields(built)


def _snapshots(store) -> list:
    return sorted(name for name in os.listdir(store.root) if name.startswith("internet-"))


def test_two_source_trees_share_one_store_and_the_bound_drops_the_oldest(store, monkeypatch):
    """Two source digests alternating on one store each hit after their first
    miss; a save that takes the store over its byte bound evicts the least
    recently attached entry, not the other tree's live one."""
    def lookup(digest: str) -> bool:
        monkeypatch.setattr(scenarios, "_sources_digest", lambda: digest)
        attached = _attached(tangled_like(scale="tiny", seed=3).internet)
        scenarios.save_snapshot()
        return attached

    assert [lookup(digest) for digest in ("a", "b")] == [False, False]
    assert [lookup(digest) for digest in ("a", "b", "a", "b")] == [True] * 4
    first, _ = _snapshots(store)
    size = sum(item.stat().st_size for item in os.scandir(store.dir_of(first)))
    monkeypatch.setattr(scenarios, "_SNAPSHOT_BYTES", 3 * size - 1)
    assert not lookup("c")  # three entries of one size: one over the bound
    assert lookup("b") and not lookup("a")  # "a" was attached longest ago
    assert len(_snapshots(store)) == 2


def _reach_tool():
    path = os.path.join(os.path.dirname(SRC), "tools", "reach.py")
    spec = importlib.util.spec_from_file_location("reach_tool", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory) -> str:
    """A table store holding each scenario's ``tiny`` Internet at its default seed,
    and the catchments of the ``tangled`` playbook's lattice."""
    from repro.cli import main

    root = str(tmp_path_factory.mktemp("warm"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_TABLE_CACHE", root)
        for builder in BUILDERS.values():
            builder(scale="tiny")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["playbook", "--scenario", "tangled", "--scale", "tiny"]) == 0
        scenarios.save_snapshot()
    return root


def _refuse(*args, **kwargs):
    raise AssertionError("an operator path built the Internet's object graph")


@pytest.mark.parametrize("form", _reach_tool().MATRIX)
def test_no_warm_operator_path_builds_the_object_graph(warm_store, tmp_path, monkeypatch, form):
    """Every reach-matrix form at ``tiny`` on a warm store reads the Internet's
    columns only: no AS, PoP, prefix or relationship object is made."""
    from repro.cli import main

    monkeypatch.setenv("REPRO_TABLE_CACHE", warm_store)
    for kind in (AutonomousSystem, PoP, AnnouncedPrefix):
        monkeypatch.setattr(kind, "__init__", _refuse)
    for method in ("add_customer_provider", "add_peering"):
        monkeypatch.setattr(RelationshipGraph, method, _refuse)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*form.replace("TMP", str(tmp_path)).split(), "--scale", "tiny"]) == 0
    assert scenarios._unsaved == []  # attached, not built
