"""The playbook's measured catchments as a table-store entry.

An in-process ``repro playbook`` persists what its planner measured beside
the scenario snapshot: one ``catchments-*`` entry per deployment, keyed on
the snapshot, the service, the routing config, round 0 and the sources that
route and scan.  A later run (a replan under another attack, say) attaches it
and routes and scans nothing; its artifact is the same bytes.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
from fnmatch import fnmatch

import numpy as np
import pytest

from repro.bgp.cache import RoutingCache
from repro.cli import main
from repro.core import scenarios
from repro.core.playbook import PlaybookPlanner, enumerate_lattice
from repro.core.tables import TableStore, attach_catchments, persist_catchments
from repro.core.verfploeter import Verfploeter
from repro.obs import Observer

PACKAGE = os.path.dirname(os.path.dirname(os.path.abspath(scenarios.__file__)))

#: What a measured catchment records and an attached one does not.
MEASURE_SPANS = ("bgp.propagate.lattice", "fastscan.invariant", "fastscan.precompute",
                 "fastscan.lattice")
MEASURE_COUNTERS = ("routing.cache.full_computes", "probe.rounds_scheduled",
                    "fastscan.invariant.builds")


@pytest.fixture
def store(tmp_path, monkeypatch) -> str:
    """An empty table store of the test's own; its root."""
    root = str(tmp_path / "tables")
    monkeypatch.setenv("REPRO_TABLE_CACHE", root)
    return root


def _playbook(tmp_path, *argv, scenario="tangled"):
    """``(artifact bytes, observer)`` of one in-process ``repro playbook``
    at ``tiny``, with its pending store saves written after it."""
    out, observer = tmp_path / "playbook.json", Observer.collecting()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["playbook", "--scenario", scenario, "--scale", "tiny", *argv,
                     "--out", str(out)], observer=observer) == 0
    scenarios.save_snapshot()
    return out.read_bytes(), observer


def _store_counts(observer) -> tuple:
    metrics = observer.metrics
    return tuple(metrics.value_of(f"playbook.catchment_store.{name}")
                 for name in ("hit", "miss", "damaged"))


def _entries(root: str, kind: str) -> list:
    return sorted(name for name in os.listdir(root) if name.startswith(kind))


@pytest.mark.parametrize("scenario", ["broot", "tangled", "nl", "cdn"])
def test_a_warm_run_attaches_every_catchment_and_measures_none(store, tmp_path, scenario):
    cold, measured = _playbook(tmp_path, "--depth", "2", scenario=scenario)
    warm, attached = _playbook(tmp_path, "--depth", "2", scenario=scenario)
    assert warm == cold
    hits, misses, damaged = _store_counts(measured)
    assert (hits, damaged) == (0, 0) and misses > 1
    assert _store_counts(attached) == (misses, 0, 0)
    names = [span.name for span in attached.tracer.walk()]
    assert not set(MEASURE_SPANS) & set(names)
    assert [attached.metrics.value_of(name) for name in MEASURE_COUNTERS] == [0, 0, 0]
    assert [span.attributes for span in attached.tracer.walk()
            if span.name == "playbook.catchments.attach"] == [
        {"hit": 1, "miss": 0}, {"hit": misses - 1, "miss": 0}]
    assert len(_entries(store, "catchments-")) == 1


def test_a_replan_under_another_attack_attaches_and_equals_a_cold_run(store, tmp_path,
                                                                        monkeypatch):
    _playbook(tmp_path, "--start-hour", "3", "--intensity", "2.5")
    replan, observer = _playbook(tmp_path, "--start-hour", "9")
    assert _store_counts(observer)[1:] == (0, 0)
    monkeypatch.setenv("REPRO_TABLE_CACHE", str(tmp_path / "fresh"))
    cold, measured = _playbook(tmp_path, "--start-hour", "9")
    assert _store_counts(measured)[0] == 0
    assert replan == cold


def test_a_deeper_search_measures_only_what_the_entry_lacks(store, tmp_path):
    """Depth 1's configs are depth 2's first ones: a depth-2 run after a
    depth-1 run measures the rest, and the entry then holds all of them."""
    _, shallow = _playbook(tmp_path, "--depth", "1")
    _, deep = _playbook(tmp_path, "--depth", "2")
    _, again = _playbook(tmp_path, "--depth", "2")
    configs = _store_counts(shallow)[1]
    assert _store_counts(deep)[:2] == (configs, 101 - configs)
    assert _store_counts(again) == (101, 0, 0)


def _truncate(path):
    with open(path, "r+b") as stream:
        stream.truncate(os.path.getsize(path) // 2)


def _flip_last_byte(path):
    with open(path, "r+b") as stream:
        stream.seek(-1, os.SEEK_END)
        last = stream.read(1)
        stream.seek(-1, os.SEEK_END)
        stream.write(bytes([last[0] ^ 1]))


@pytest.mark.parametrize("damage,name", [
    (_truncate, "sites.npy"), (_flip_last_byte, "sites.npy"),
    (_flip_last_byte, "universe.npy"), (_truncate, "manifest.json"),
])
def test_a_damaged_entry_is_measured_again_and_overwritten(store, tmp_path, damage, name):
    cold, _ = _playbook(tmp_path)
    entry, = _entries(store, "catchments-")
    damage(os.path.join(store, entry, name))
    again, observer = _playbook(tmp_path)
    hits, misses, damaged = _store_counts(observer)
    assert (hits, damaged) == (0, 1) and misses > 1
    assert again == cold
    assert len(attach_catchments(TableStore(store), entry)) == misses
    assert _store_counts(_playbook(tmp_path)[1]) == (misses, 0, 0)


def test_a_pooled_run_neither_reads_nor_fills_the_store(store, tmp_path):
    _, observer = _playbook(tmp_path, "--workers", "0")
    assert _entries(store, "catchments-") == [] and _store_counts(observer) == (0, 0, 0)
    _playbook(tmp_path)
    _, observer = _playbook(tmp_path, "--workers", "0")
    assert _store_counts(observer) == (0, 0, 0)


def _scan_sources_match(relative: str) -> bool:
    return any(fnmatch(relative, pattern)
               for pattern in scenarios._BUILD_SOURCES + scenarios._SCAN_SOURCES)


def test_the_key_digests_every_source_a_cold_lattice_runs(store):
    """Every ``repro`` file a cold measurement runs, from the deployment to
    the lattice's catchments, is digested into the entry's key: an edit to
    one that the key did not see would attach stale catchments."""
    scenario = scenarios.tangled_like(scale="tiny", seed=5)
    ran = set()

    def hook(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code.co_filename)

    sys.setprofile(hook)
    try:
        planner = PlaybookPlanner(Verfploeter(scenario.internet, scenario.service),
                                  cache=RoutingCache())
        entries = enumerate_lattice(scenario.service, "CDG", depth=2)
        planner.catchment_for(scenario.service.default_policy())
        planner._measure_lattice([entry.policy_for(scenario.service) for entry in entries],
                                 [entry.config_id for entry in entries], None)
    finally:
        sys.setprofile(None)
    files = sorted(os.path.relpath(path, PACKAGE).replace(os.sep, "/") for path in ran
                   if os.path.abspath(path).startswith(PACKAGE + os.sep))
    assert "bgp/sweep.py" in files and "core/fastscan.py" in files
    assert [name for name in files if not _scan_sources_match(name)] == []


@pytest.mark.parametrize("edited", ["bgp/sweep.py", "core/fastscan.py"])
def test_an_edit_to_a_routing_or_scan_source_misses(tmp_path, edited):
    """The key's source digest reads the bytes: a planted edit changes it."""
    copy = tmp_path / "repro"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    assert scenarios._digest(scenarios._SCAN_SOURCES, copy) == scenarios._digest(
        scenarios._SCAN_SOURCES)
    with open(copy / edited, "a", encoding="utf-8") as stream:
        stream.write("# planted\n")
    scenarios._digest.cache_clear()
    assert scenarios._digest(scenarios._SCAN_SOURCES, copy) != scenarios._digest(
        scenarios._SCAN_SOURCES)


def _size(root: str, entry: str) -> int:
    return sum(item.stat().st_size for item in os.scandir(os.path.join(root, entry)))


def test_a_save_over_the_bound_evicts_both_kinds_least_recent_first(store, tmp_path,
                                                                     monkeypatch):
    """Snapshots and catchments share one byte bound and one use order: a save
    beyond it evicts the least recently used entries, of either kind, and
    never the one it saves."""
    _playbook(tmp_path)  # the Internet, then the catchments, are saved
    measured, = _entries(store, "catchments-")
    attached = attach_catchments(TableStore(store), measured)
    for key in ("catchments-a", "catchments-b"):
        scenarios.save_catchments(store, key, attached)
        scenarios.save_snapshot()
    scenarios.stored_catchments(store, "catchments-a")  # used after "b"
    size = _size(store, measured)
    assert [_size(store, key) for key in ("catchments-a", "catchments-b")] == [size, size]
    monkeypatch.setattr(scenarios, "_SNAPSHOT_BYTES", 2 * size)
    scenarios.save_catchments(store, "catchments-c", attached)
    scenarios.save_snapshot()
    assert sorted(os.listdir(store)) == ["catchments-a", "catchments-c"]
    monkeypatch.setattr(scenarios, "_SNAPSHOT_BYTES", 1)
    scenarios.save_catchments(store, "catchments-d", attached)
    scenarios.save_snapshot()
    assert os.listdir(store) == ["catchments-d"]


def test_an_entry_round_trips_its_columns(tmp_path):
    scenario = scenarios.tangled_like(scale="tiny", seed=5)
    planner = PlaybookPlanner(Verfploeter(scenario.internet, scenario.service),
                              cache=RoutingCache())
    entries = enumerate_lattice(scenario.service, "CDG", depth=1)
    catchments = planner._measure_lattice(
        [entry.policy_for(scenario.service) for entry in entries],
        [entry.config_id for entry in entries], None)
    store = TableStore(str(tmp_path))
    persist_catchments(store, "catchments-x", dict(zip(
        (entry.config_id for entry in entries), catchments)))
    attached = attach_catchments(store, "catchments-x")
    assert list(attached) == [entry.config_id for entry in entries]
    for catchment, again in zip(catchments, attached.values()):
        assert again.site_codes == catchment.site_codes
        assert again.site_index_array.tobytes() == catchment.site_index_array.tobytes()
        assert np.array_equal(again.universe, catchment.universe)
