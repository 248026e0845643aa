"""Tests for the vectorised scan engine: bit-exact equivalence."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.collector.results import BlockValueMap
from repro.core.experiments import run_stability_series
from repro.core.fastscan import FastScanEngine, _VectorPermutation
from repro.core.scenarios import broot_like, tangled_like
from repro.core.sharding import assert_scan_results_identical, run_sharded_series
from repro.core.verfploeter import Verfploeter
from repro.errors import ConfigurationError, MeasurementError
from repro.oracle.chaos import wire_measure
from repro.oracle.scan import wire_scan
from repro.oracle.schedule import PseudorandomOrder


@pytest.fixture(scope="module")
def engine(broot_verfploeter, broot_routing):
    return FastScanEngine(broot_verfploeter, broot_routing)


class TestVectorPermutation:
    @pytest.mark.parametrize("n,seed", [(1, 5), (7, 1), (100, 42), (4096, 9)])
    def test_matches_scalar_order(self, n, seed):
        scalar = list(PseudorandomOrder(n, seed))
        vector = _VectorPermutation(n, seed).permutation().tolist()
        assert vector == scalar

    def test_is_permutation(self):
        values = _VectorPermutation(1000, 3).permutation()
        assert sorted(values.tolist()) == list(range(1000))


class TestEquivalence:
    @pytest.mark.parametrize("round_id", [0, 1, 7])
    def test_catchment_stats_rtts_identical(
        self, broot_verfploeter, broot_routing, engine, round_id
    ):
        wire = wire_scan(broot_verfploeter, broot_routing, round_id=round_id)
        fast = engine.run_scan(round_id=round_id)
        assert dict(fast.catchment.items()) == dict(wire.catchment.items())
        assert fast.stats == wire.stats
        assert set(fast.rtts) == set(wire.rtts)
        for block, rtt in wire.rtts.items():
            assert math.isclose(fast.rtts[block], rtt, rel_tol=1e-9)

    def test_series_metadata(self, engine):
        scans = engine.run_series(rounds=3, interval_seconds=100.0)
        assert [scan.round_id for scan in scans] == [0, 1, 2]
        assert [scan.start_time for scan in scans] == [0.0, 100.0, 200.0]

    @pytest.mark.parametrize(
        "entry_point,error",
        [
            (lambda vp, engine: vp.run_series(rounds=0), MeasurementError),
            (lambda vp, engine: engine.run_series(rounds=0), MeasurementError),
            (
                lambda vp, engine: run_sharded_series(
                    engine, rounds=0, shards=2, workers=0
                ),
                ConfigurationError,
            ),
        ],
        ids=["deployment", "engine", "sharded"],
    )
    def test_every_series_entry_point_rejects_zero_rounds(
        self, broot_verfploeter, engine, entry_point, error
    ):
        """A typed error from all three, never a silent empty series."""
        with pytest.raises(error, match="rounds must be >= 1"):
            entry_point(broot_verfploeter, engine)

    def test_stability_series_fast_equals_slow(
        self, broot_verfploeter, wire_oracle
    ):
        with wire_oracle():
            slow = run_stability_series(broot_verfploeter, rounds=4)
        fast = run_stability_series(broot_verfploeter, rounds=4)
        assert len(slow.rounds) == len(fast.rounds)
        for a, b in zip(slow.rounds, fast.rounds):
            assert (a.stable, a.flipped, a.to_nr, a.from_nr) == (
                b.stable, b.flipped, b.to_nr, b.from_nr
            )
        assert slow.flip_counts == fast.flip_counts

    def test_wire_level_also_agrees(self, broot_verfploeter, broot_routing, engine):
        """The default dispatch lands on the same engine round."""
        wire = wire_scan(broot_verfploeter, broot_routing, round_id=2)
        fast = engine.run_scan(round_id=2)
        assert dict(wire.catchment.items()) == dict(fast.catchment.items())
        assert wire.stats == fast.stats
        default = broot_verfploeter.run_scan(
            routing=broot_routing, round_id=2, dataset_id=fast.dataset_id,
        )
        assert_scan_results_identical(default, fast)


class TestColumnarResults:
    def test_series_shares_one_universe(self, engine):
        scans = engine.run_series(rounds=3)
        universes = [scan.catchment.universe for scan in scans]
        assert all(universe is universes[0] for universe in universes)

    def test_median_rtt_fast_path_agrees(self, broot_verfploeter, engine):
        fast = engine.run_scan(round_id=1)
        assert isinstance(fast.rtts, BlockValueMap)
        reference_rtts = dict(fast.rtts.items())
        reference_catchment = dict(fast.catchment.items())
        for code in broot_verfploeter.service.site_codes:
            expected_values = sorted(
                rtt
                for block, rtt in reference_rtts.items()
                if reference_catchment.get(block) == code
            )
            expected = (
                expected_values[len(expected_values) // 2]
                if expected_values
                else None
            )
            assert fast.median_rtt_of_site(code) == expected
        assert fast.median_rtt_of_site("NOPE") is None

    def test_fast_engine_convenience(self, broot_verfploeter, broot_routing):
        engine = broot_verfploeter.engine_for(broot_routing)
        assert isinstance(engine, FastScanEngine)
        assert engine.routing is broot_routing
        assert broot_verfploeter.engine_for(broot_routing) is engine


_BUILDERS = {"tangled": tangled_like, "broot": broot_like}
_ENGINES: dict = {}


def _engine(builder, seed):
    """A tiny scenario and the engine of its default routing, built once
    per (builder, Internet seed)."""
    if (builder, seed) not in _ENGINES:
        scenario = _BUILDERS[builder](scale="tiny", seed=seed)
        verfploeter = Verfploeter(scenario.internet, scenario.service)
        _ENGINES[builder, seed] = (scenario, FastScanEngine(verfploeter))
    return _ENGINES[builder, seed]


@settings(max_examples=200, deadline=None)
@given(
    builder=st.sampled_from(sorted(_BUILDERS)),
    seed=st.sampled_from([7, 11, 12]),
    round_id=st.integers(min_value=0, max_value=1 << 16),
    wire=st.just(False),
)
@example(builder="tangled", seed=11, round_id=3, wire=True)
@example(builder="tangled", seed=12, round_id=96, wire=True)
@example(builder="broot", seed=7, round_id=1, wire=True)
def test_engine_sites_of_and_oracles_agree_at_any_seed(builder, seed, round_id, wire):
    """Flip, host and Atlas draws all key on the Internet's seed, so every
    block the engine keeps sits at the site ``sites_of`` gives it that
    round; on the named examples the wire oracles agree as well."""
    scenario, engine = _engine(builder, seed)
    routing = engine.routing
    fast = engine.run_scan(round_id=round_id)
    sites = fast.catchment.site_index_array
    kept = sites >= 0
    assert kept.any()
    np.testing.assert_array_equal(
        sites[kept], routing.sites_of(fast.catchment.universe[kept], round_id)
    )
    if wire:
        oracle = wire_scan(engine.verfploeter, routing, round_id=round_id)
        assert dict(fast.catchment.items()) == dict(oracle.catchment.items())
        assert fast.stats == oracle.stats
        platform, service = scenario.atlas, scenario.service
        assert (
            platform.measure(routing, service, round_id).results
            == wire_measure(platform, routing, service, round_id).results
        )
