"""Shared fixtures: tiny scenarios, reused across the suite.

Session-scoped because topology generation and routing are pure
functions of their seeds — tests never mutate them.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
from contextlib import contextmanager

import pytest

from repro import rng
from repro.bgp.propagation import compute_routes
from repro.core.scenarios import broot_like, cdn_like, nl_like, tangled_like
from repro.core.verfploeter import Verfploeter
from repro.topology.generator import SeededAS, TopologyConfig, build_internet


#: The session's own table store, empty at the start: a store shared across
#: sessions would attach scenario Internets this session never builds, so
#: the suite would not be hermetic and :class:`SeedLabelRecorder` would never
#: see the generator's ``derive_seed`` sites.  Set before any test runs, so
#: the CLI children the suite starts inherit it.
TABLE_STORE = tempfile.mkdtemp(prefix="repro-tables-")
os.environ["REPRO_TABLE_CACHE"] = TABLE_STORE


def pytest_unconfigure(config):
    shutil.rmtree(TABLE_STORE, ignore_errors=True)


class SeedLabelRecorder:
    """``derive_seed`` failing when two ``src/repro/`` call sites derive one
    ``(parent_seed, label)``; a site is the nearest frame outside ``repro/rng.py``."""

    def __init__(self, derive):
        self.derive = derive
        self.sites = {}

    def __call__(self, parent_seed, label):
        frame = sys._getframe(1)
        while frame.f_code.co_filename.replace("\\", "/").endswith("repro/rng.py"):
            frame = frame.f_back
        path = frame.f_code.co_filename.replace("\\", "/")
        if "/src/repro/" in path:
            site = (path, frame.f_lineno)
            first = self.sites.setdefault((parent_seed, label), site)
            if first != site:
                raise AssertionError(
                    f"seed label {label!r} under seed {parent_seed} is derived at "
                    f"{first[0]}:{first[1]} and {path}:{site[1]}; the streams are identical"
                )
        return self.derive(parent_seed, label)


#: The most seconds one test's call phase may take in tier-1.
CALL_SECONDS_BOUND = 10.0

#: Tests allowed over :data:`CALL_SECONDS_BOUND`: node id -> the ROADMAP item
#: that brings it back under, and why it is slow until then.
SLOW_TESTS = {
    "tests/test_service.py::TestEdgeCases::test_concurrent_queries_match_quiesced_states": (
        "item 18: concurrent readers starve the daemon's ingest thread (~15 s)"
    ),
}

_session = None
_slow_calls = {}


def pytest_sessionstart(session):
    global _session
    _session = session


def pytest_runtest_logreport(report):
    if report.when == "call" and report.duration > CALL_SECONDS_BOUND:
        _slow_calls[report.nodeid] = report.duration


def pytest_terminal_summary(terminalreporter):
    """Fail the run when an unlisted test's call phase exceeds the bound."""
    over = {node: took for node, took in _slow_calls.items() if node not in SLOW_TESTS}
    if not over:
        return
    terminalreporter.section("call phase over CALL_SECONDS_BOUND", red=True)
    for node, took in sorted(over.items()):
        terminalreporter.line(
            f"{took:.1f} s > {CALL_SECONDS_BOUND:.0f} s: {node} "
            "(make it faster, or list it in SLOW_TESTS with an item number and a reason)"
        )
    _session.exitstatus = pytest.ExitCode.TESTS_FAILED


@pytest.fixture(scope="session", autouse=True)
def seed_label_recorder():
    """Route every ``derive_seed`` (and so ``derive_rng``) through one recorder."""
    recorder = SeedLabelRecorder(rng.derive_seed)
    with pytest.MonkeyPatch.context() as patch:
        for name, module in sorted(sys.modules.items()):
            bound = getattr(module, "derive_seed", None)
            if name.split(".")[0] == "repro" and bound is recorder.derive:
                patch.setattr(module, "derive_seed", recorder)
        yield recorder


@pytest.fixture(scope="session")
def tiny_internet():
    """A small standalone topology with two seeded upstreams."""
    return build_internet(
        TopologyConfig(
            seed=99,
            tier1_count=4,
            transit_count=12,
            stub_count=60,
            max_blocks_per_prefix=8,
            seeded_ases=(
                SeededAS("UP-A", "transit", "US", ("US",), ((20, 1),)),
                SeededAS("UP-B", "transit", "DE", ("DE",), ((20, 1),)),
            ),
        )
    )


@pytest.fixture(scope="session")
def broot_tiny():
    """The B-Root scenario at test scale."""
    return broot_like(scale="tiny", seed=7)


@pytest.fixture(scope="session")
def tangled_tiny():
    """The Tangled scenario at test scale."""
    return tangled_like(scale="tiny", seed=11)


@pytest.fixture(scope="session")
def broot_verfploeter(broot_tiny):
    """A Verfploeter deployment on the tiny B-Root scenario."""
    return Verfploeter(broot_tiny.internet, broot_tiny.service)


@pytest.fixture(scope="session")
def broot_routing(broot_verfploeter):
    """Default-policy routing for the tiny B-Root scenario."""
    return broot_verfploeter.routing_for()


@pytest.fixture(scope="session")
def broot_scan(broot_verfploeter, broot_routing):
    """One completed scan of the tiny B-Root scenario."""
    return broot_verfploeter.run_scan(routing=broot_routing, dataset_id="SBV-test")


#: Every canonical scenario at both test scales: the grid the column reads
#: are held to their scalar oracles on (``canonical_routing``).
CANONICAL_GRID = [
    (builder, scale)
    for builder in ("broot", "tangled", "nl", "cdn")
    for scale in ("tiny", "small")
]


@pytest.fixture(scope="session")
def canonical_routing():
    """``get(builder, scale)`` -> (scenario, default routing) of one
    :data:`CANONICAL_GRID` point, built once per session."""
    builders = {"broot": broot_like, "tangled": tangled_like, "nl": nl_like, "cdn": cdn_like}
    built = {}

    def get(builder, scale):
        if (builder, scale) not in built:
            scenario = builders[builder](scale=scale)
            routing = Verfploeter(scenario.internet, scenario.service).routing_for()
            built[builder, scale] = (scenario, routing)
        return built[builder, scale]

    return get


def scan_each(verfploeter, routings, round_ids=None):
    """``scan_lattice``'s per-config twin: one ``run_scan`` per routing
    state at its round id (default 0), catchments in input order."""
    round_ids = [0] * len(routings) if round_ids is None else round_ids
    return [
        verfploeter.run_scan(routing=routing, round_id=round_id).catchment
        for routing, round_id in zip(routings, round_ids)
    ]


@pytest.fixture
def per_config_scans():
    """:func:`scan_each`, the oracle a lattice scan is held to."""
    return scan_each


@pytest.fixture
def fresh_store(tmp_path, monkeypatch):
    """An empty table store of the test's own, for a test that counts routing
    or scan work: the session's store may hold a playbook's catchments."""
    monkeypatch.setenv("REPRO_TABLE_CACHE", str(tmp_path / "tables"))


@pytest.fixture
def wire_oracle():
    """``with wire_oracle():`` forces every scan through the wire path.

    ``Verfploeter.run_scan`` always runs the columnar engine, and the
    drivers above it offer no switch — so the equivalence suites patch
    the dispatch itself to :func:`repro.oracle.scan.wire_scan` to
    compare a whole driver against its wire-level twin.  Lattice
    drivers (sweep, failure study, planner) scan config by config
    through that patched dispatch instead of :func:`scan_lattice`.
    """
    from repro.core import experiments, playbook
    from repro.oracle import scan as oracle

    def wire_scan(
        self, routing=None, policy=None, round_id=0, start_time=0.0, dataset_id=None
    ):
        if routing is None:
            routing = self.routing_for(policy)
        return oracle.wire_scan(self, routing, round_id, start_time, dataset_id)

    @contextmanager
    def forced():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Verfploeter, "run_scan", wire_scan)
            for module in (experiments, playbook):
                patch.setattr(module, "scan_lattice", scan_each)
            yield

    return forced


@pytest.fixture(scope="session")
def two_site_routing(tiny_internet):
    """Routing over the standalone topology with two sites A and B."""
    from repro.bgp.policy import AnnouncementPolicy

    policy = AnnouncementPolicy.uniform(
        {
            "A": tiny_internet.find_asn_by_name("UP-A"),
            "B": tiny_internet.find_asn_by_name("UP-B"),
        }
    )
    return compute_routes(tiny_internet, policy)
