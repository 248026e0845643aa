"""The scan state's two halves: one routing-invariant ``RoundState`` per
deployment, per-PoP ``RouteColumns`` per routing, one draw per round id.

Everything the split hoists is a pure function of ``(seed, salt,
block[, round])``, so a deployment that has scanned any sequence of
``(routing, round)`` pairs must keep answering exactly as a fresh
deployment with a fresh engine would.
"""

from __future__ import annotations

import json
import math
import sys
import threading
from contextlib import contextmanager
from functools import partial

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    rule,
    run_state_machine_as_test,
)

from repro.bgp.cache import RoutingCache
from repro.cli import main
from repro.core.fastscan import FastScanEngine, round_draws
from repro.core.playbook import PlaybookPlanner, enumerate_lattice
from repro.core.pool import ShardPool
from repro.core.sharding import assert_scan_results_identical, run_sharded_scan
from repro.core.tables import TableStore
from repro.core.verfploeter import Verfploeter
from repro.obs import Observer


@pytest.fixture(scope="module")
def lattice(tangled_tiny):
    """The 101 depth-2 lattice entries with their routing states."""
    service = tangled_tiny.service
    cache = RoutingCache(maxsize=256)
    cache.get_or_compute(tangled_tiny.internet, service.default_policy())
    entries = enumerate_lattice(service, service.site_codes[0], depth=2)
    assert len(entries) == 101
    return [
        (
            entry,
            cache.get_or_compute(tangled_tiny.internet, entry.policy_for(service)),
        )
        for entry in entries
    ]


@pytest.fixture(scope="module")
def hitlist(tangled_tiny):
    return Verfploeter(tangled_tiny.internet, tangled_tiny.service).hitlist


def _deployment(scenario, hitlist, observer=None) -> Verfploeter:
    return Verfploeter(
        scenario.internet, scenario.service, hitlist=hitlist, observer=observer
    )


@contextmanager
def _switch_interval(seconds: float):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(seconds)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def _on_threads(calls):
    """Run each call on its own thread, all released at once under a
    10 µs switch interval; results in call order."""
    results = [None] * len(calls)
    errors = []
    barrier = threading.Barrier(len(calls))

    def run(index):
        try:
            barrier.wait(timeout=30)
            results[index] = calls[index]()
        except Exception as error:  # re-raised on the test's own thread
            errors.append(error)

    threads = [
        threading.Thread(target=run, args=(index,)) for index in range(len(calls))
    ]
    with _switch_interval(1e-5):
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]
    return results


class TestSharedStateEqualsFresh:
    def test_every_lattice_policy(self, tangled_tiny, hitlist, lattice):
        shared = _deployment(tangled_tiny, hitlist)
        withdrawals = 0
        for entry, routing in lattice:
            withdrawals += bool(entry.withdrawn)
            fresh = FastScanEngine(_deployment(tangled_tiny, hitlist), routing)
            assert fresh.state is not shared.round_state()
            assert_scan_results_identical(
                shared.run_scan(
                    routing=routing, dataset_id=entry.config_id, wire_level=False
                ),
                fresh.run_scan(dataset_id=entry.config_id),
            )
        assert withdrawals > 20

    def test_five_policies_equal_the_wire_oracle(
        self, tangled_tiny, hitlist, lattice, wire_oracle
    ):
        shared = _deployment(tangled_tiny, hitlist)
        for _, routing in lattice:  # leave the memos as a full sweep does
            shared.run_scan(routing=routing, wire_level=False)
        withdrawn_only = next(
            pair for pair in lattice if pair[0].withdrawn and not pair[0].prepends
        )
        picks = [lattice[0], lattice[2], withdrawn_only, lattice[50], lattice[-1]]
        assert lattice[-1][0].withdrawn and lattice[-1][0].prepends
        for entry, routing in picks:
            fast = shared.run_scan(routing=routing, wire_level=False)
            with wire_oracle():
                wire = shared.run_scan(routing=routing)
            assert dict(fast.catchment.items()) == dict(wire.catchment.items())
            assert fast.stats == wire.stats
            assert set(fast.rtts) == set(wire.rtts)
            for block, rtt in wire.rtts.items():
                assert math.isclose(fast.rtts[block], rtt, rel_tol=1e-9)
            withdrawn = set(entry.withdrawn)
            assert not withdrawn & set(fast.catchment.fractions())


class TestInterleavedScans:
    def test_any_interleaving_equals_recompute(
        self, tangled_tiny, hitlist, lattice, tmp_path_factory
    ):
        """The memo property: whatever ``(routing, round)`` sequence a
        deployment has served — through ``run_scan``, a directly built
        engine, or the sharded path — the next answer equals a fresh
        deployment's."""
        routings = [lattice[i][1] for i in (0, 3, 4, 40, 100)]
        recomputed = {}

        def recompute(which: int, round_id: int):
            key = (which, round_id)
            if key not in recomputed:
                fresh = _deployment(tangled_tiny, hitlist)
                recomputed[key] = FastScanEngine(fresh, routings[which]).run_scan(
                    round_id, dataset_id="memo"
                )
            return recomputed[key]

        store = TableStore(root=str(tmp_path_factory.mktemp("memo-store")))

        class Machine(RuleBasedStateMachine):
            def __init__(self):
                super().__init__()
                self.shared = _deployment(tangled_tiny, hitlist)
                self.pool = ShardPool(workers=0, store=store)

            def teardown(self):
                self.pool.shutdown()

            @rule(
                which=st.integers(0, len(routings) - 1),
                round_id=st.integers(0, 3),
                path=st.sampled_from(["run_scan", "engine", "sharded"]),
            )
            def scan(self, which, round_id, path):
                routing = routings[which]
                if path == "run_scan":
                    actual = self.shared.run_scan(
                        routing=routing, round_id=round_id, dataset_id="memo",
                        wire_level=False,
                    )
                elif path == "engine":
                    actual = FastScanEngine(self.shared, routing).run_scan(
                        round_id, dataset_id="memo"
                    )
                else:
                    actual = run_sharded_scan(
                        self.shared, routing, "memo", self.pool,
                        round_id=round_id, shards=2,
                    )
                assert_scan_results_identical(actual, recompute(which, round_id))

        run_state_machine_as_test(
            Machine,
            settings=settings(
                max_examples=25, stateful_step_count=15, deadline=None
            ),
        )


class TestCounters:
    def test_one_build_and_one_draw_per_run_of_round_ids(
        self, tangled_tiny, hitlist, lattice
    ):
        observer = Observer.collecting()
        shared = _deployment(tangled_tiny, hitlist, observer=observer)
        round_ids = [0, 0, 0, 1, 1, 0, 2]  # four runs of equal ids
        for index, round_id in enumerate(round_ids):
            shared.run_scan(
                routing=lattice[index][1], round_id=round_id, wire_level=False
            )
        FastScanEngine(shared, lattice[9][1]).run_scan(round_id=2)
        metrics = observer.metrics
        names = observer.tracer.span_names()
        assert metrics.value_of("fastscan.invariant.builds") == 1
        assert names.count("fastscan.invariant") == 1
        assert names.count("fastscan.precompute") == len(round_ids) + 1
        assert metrics.value_of("fastscan.round_draws.miss") == 4
        assert metrics.value_of("fastscan.round_draws.hit") == 4

    def test_a_shard_draws_apart_from_its_parent(self, tangled_tiny, hitlist):
        state = _deployment(tangled_tiny, hitlist).round_state()
        shard = state.shard(3, 40)
        full, hit = round_draws(state, 5)
        assert not hit
        part, hit = round_draws(shard, 5)
        assert not hit and round_draws(state, 5)[1] and round_draws(shard, 5)[1]
        for whole, piece in zip(full[1:], part[1:]):
            assert np.array_equal(whole[3:40], piece)


class TestConcurrentCallers:
    """The library offers no thread fan-out, but its users (and the
    daemon) call from their own threads: racing callers share the state
    lock, the engine slot, the draw slot and the planner's memo.  A fresh
    deployment per test makes them race the invariant build too."""

    def test_four_threads_scanning_four_routings_equal_serial(
        self, tangled_tiny, hitlist, lattice
    ):
        jobs = [  # two rounds share a draw, two evict it
            (lattice[index][1], round_id)
            for index, round_id in ((0, 0), (3, 0), (40, 1), (100, 1))
        ]

        def calls(deployment):
            return [
                partial(
                    deployment.run_scan,
                    routing=routing, round_id=round_id, dataset_id="race",
                )
                for routing, round_id in jobs
            ]

        serial = [call() for call in calls(_deployment(tangled_tiny, hitlist))]
        observer = Observer.collecting()
        threaded = _on_threads(
            calls(_deployment(tangled_tiny, hitlist, observer=observer))
        )
        for one, other in zip(serial, threaded):
            assert_scan_results_identical(other, one)
        assert observer.metrics.value_of("fastscan.invariant.builds") == 1

    def test_four_threads_missing_one_policy_share_one_catchment(
        self, tangled_tiny, hitlist
    ):
        service = tangled_tiny.service
        policy = service.policy(prepends={service.site_codes[0]: 2})
        observer = Observer.collecting()
        planner = PlaybookPlanner(
            _deployment(tangled_tiny, hitlist, observer=observer),
            cache=RoutingCache(maxsize=16),
        )
        catchments = _on_threads([lambda: planner.catchment_for(policy)] * 4)
        assert all(catchment is catchments[0] for catchment in catchments)
        assert planner.catchment_for(policy) is catchments[0]
        expected = PlaybookPlanner(
            _deployment(tangled_tiny, hitlist), cache=RoutingCache(maxsize=16)
        ).catchment_for(policy)
        assert dict(catchments[0].items()) == dict(expected.items())
        metrics = observer.metrics
        assert metrics.value_of("fastscan.invariant.builds") == 1
        assert (
            metrics.value_of("playbook.catchment_memo.hits")
            + metrics.value_of("playbook.catchment_memo.misses")
        ) == 5


class TestPooledStore:
    def test_playbook_leaves_one_round_state(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_TABLE_CACHE", str(tmp_path))
        argv = ["playbook", "--scenario", "tangled", "--scale", "tiny",
                "--depth", "2", "--workers", "0"]
        assert main(argv) == 0
        kinds = [
            json.loads(manifest.read_text())["kind"]
            for manifest in tmp_path.glob("*/manifest.json")
        ]
        assert kinds.count("round_state") == 1
        assert set(kinds) == {"round_state", "array"}
        # One sites column per distinct catchment plus a handful of
        # shared columns — not seventeen files per config.
        assert len(list(tmp_path.glob("*/*"))) < 2 * 101 + 40


class TestReadOnly:
    def test_writing_to_shared_state_raises(self, tangled_tiny, hitlist, lattice):
        shared = _deployment(tangled_tiny, hitlist)
        shared.run_scan(routing=lattice[0][1], wire_level=False)
        state = shared.round_state()
        arrays = [
            value for value in vars(state).values() if isinstance(value, np.ndarray)
        ]
        arrays += list(state.prefixes.values())
        arrays += list(round_draws(state, 0)[0][1:])
        assert len(arrays) == 9 + 6 + 7
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = array
