"""Sharded scan / weighting: merge equivalence, pickling, memmap tables."""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.core.fastscan import FastScanEngine, _VectorPermutation
from repro.core.scenarios import tangled_like
from repro.core.sharding import (
    ShardPlan,
    _join_shard_worker,
    assert_buffers_equal,
    assert_scan_results_identical,
    assert_site_loads_identical,
    run_sharded_series,
    scan_payloads,
)
from repro.core.tables import TableStore, ensure_array
from repro.core.verfploeter import Verfploeter
from repro.errors import ConfigurationError, DatasetError, EquivalenceError
from repro.load.estimator import LoadEstimate
from repro.load.weighting import accumulate_site_load, weight_catchment
from repro.probing.hitlist import Hitlist


def _engine_for(seed: int) -> FastScanEngine:
    scenario = tangled_like(scale="tiny", seed=seed)
    verfploeter = Verfploeter(scenario.internet, scenario.service)
    return FastScanEngine(verfploeter)


class TestShardPlan:
    def test_split_tiles_universe(self):
        plan = ShardPlan.split(10, 3)
        assert plan.bounds == ((0, 4), (4, 7), (7, 10))
        assert plan.sizes() == [4, 3, 3]
        assert plan.shard_count == 3

    def test_split_clamps_to_universe(self):
        plan = ShardPlan.split(2, 7)
        assert plan.shard_count == 2
        assert plan.sizes() == [1, 1]

    def test_split_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            ShardPlan.split(0, 1)
        with pytest.raises(ConfigurationError):
            ShardPlan.split(10, 0)

    def test_bounds_must_tile(self):
        with pytest.raises(ConfigurationError):
            ShardPlan(universe_size=10, bounds=((0, 4), (5, 10)))
        with pytest.raises(ConfigurationError):
            ShardPlan(universe_size=10, bounds=((0, 4), (4, 9)))

    def test_imbalance(self):
        assert ShardPlan.split(12, 4).imbalance() == 1.0
        assert ShardPlan.split(10, 3).imbalance() == pytest.approx(1.2)


class TestAssertHelpers:
    def test_buffers_equal_passes_and_fails(self):
        a = np.arange(5, dtype=np.int64)
        assert_buffers_equal(a, a.copy())
        with pytest.raises(EquivalenceError, match="dtype"):
            assert_buffers_equal(a, a.astype(np.int32))
        with pytest.raises(EquivalenceError, match="shape"):
            assert_buffers_equal(a, a[:3])
        b = a.copy()
        b[2] = 99
        with pytest.raises(EquivalenceError, match="element index 2"):
            assert_buffers_equal(a, b)

    def test_nan_payloads_compare_bitwise(self):
        # allclose-style comparison would treat NaN != NaN; byte
        # comparison treats identical NaNs as equal, which is the
        # bit-identity contract.
        a = np.array([1.0, np.nan])
        assert_buffers_equal(a, a.copy())


class TestShardedSeriesEquivalence:
    @pytest.mark.parametrize("seed", [3, 17, 123])
    @pytest.mark.parametrize("shards", [1, 2, 7])
    def test_bit_identical_to_single_process(self, seed, shards):
        engine = _engine_for(seed)
        baseline = engine.run_series(rounds=3, interval_seconds=900.0)
        sharded = run_sharded_series(
            engine, rounds=3, shards=shards, workers=0
        )
        assert len(sharded) == len(baseline)
        for merged, expected in zip(sharded, baseline):
            assert_scan_results_identical(merged, expected)

    def test_boundary_splits_a_site_catchment(self, tmp_path):
        # The interesting shard boundary is one that cuts through a
        # site's catchment: blocks of the same site land in different
        # shards and must reassemble exactly.
        engine = _engine_for(3)
        baseline = engine.run_series(rounds=1, interval_seconds=900.0)[0]
        sites = baseline.catchment.site_index_array
        boundary = None
        for cut in range(1, sites.size):
            if sites[cut - 1] == sites[cut]:
                boundary = cut
                break
        assert boundary is not None, "no site spans any candidate boundary"
        plan = ShardPlan(
            universe_size=sites.size,
            bounds=((0, boundary), (boundary, sites.size)),
        )
        from repro.core.sharding import _merge_round, _scan_shard_worker

        payloads = scan_payloads(
            engine, TableStore(root=str(tmp_path)), plan.bounds, 1
        )
        shard_rounds = [_scan_shard_worker(payload)[0] for payload in payloads]
        merged = _merge_round(
            engine, shard_rounds, plan.bounds, 0, 900.0, "fast-series"
        )
        assert_scan_results_identical(merged, baseline)

    def test_process_pool_matches_inline(self):
        engine = _engine_for(17)
        inline = run_sharded_series(engine, rounds=2, shards=2, workers=0)
        pooled = run_sharded_series(engine, rounds=2, shards=2, workers=2)
        for a, b in zip(pooled, inline):
            assert_scan_results_identical(a, b)

    def test_rejects_bad_rounds(self):
        engine = _engine_for(3)
        with pytest.raises(ConfigurationError):
            run_sharded_series(engine, rounds=0, shards=2, workers=0)


class TestShardedWeighting:
    @pytest.mark.parametrize("shards", [1, 2, 7])
    def test_bit_identical_to_weight_catchment(self, shards, tmp_path):
        scenario = tangled_like(scale="tiny", seed=3)
        verfploeter = Verfploeter(scenario.internet, scenario.service)
        catchment = FastScanEngine(verfploeter).run_scan(round_id=0).catchment
        estimate = LoadEstimate(scenario.day_load("shard-day"))
        store = TableStore(root=str(tmp_path))
        fingerprints = [
            ensure_array(store, column)
            for column in (catchment.universe, catchment.site_index_array, estimate.blocks)
        ]
        parts = [
            _join_shard_worker((store.root, catchment.site_codes, *fingerprints, start, stop))
            for start, stop in ShardPlan.split(len(estimate), shards).bounds
        ]
        actual = accumulate_site_load(
            catchment.site_codes, np.concatenate(parts), estimate
        )
        assert_site_loads_identical(actual, weight_catchment(catchment, estimate))


class TestPickling:
    def test_catchment_drops_lazy_caches(self):
        engine = _engine_for(3)
        scan = engine.run_scan(round_id=0)
        catchment = scan.catchment
        catchment.counts()
        clone = pickle.loads(pickle.dumps(catchment))
        # A map is its three columns: nothing derived is cached or pickled.
        assert sorted(vars(clone)) == ["_site_codes", "_sites", "_universe"]
        assert_buffers_equal(clone.universe, catchment.universe)
        assert_buffers_equal(clone.site_index_array, catchment.site_index_array)
        assert clone.counts() == catchment.counts()

    def test_worker_payload_is_tiny(self, tmp_path):
        # The zero-copy contract, on the payloads run_sharded_series
        # really submits: block-sized state travels as a fingerprint and
        # routing as per-PoP columns, so the pickled bytes do not change
        # when the same PoPs carry twice the blocks.
        scenario = tangled_like(scale="tiny", seed=3)
        full = Verfploeter(scenario.internet, scenario.service)
        rows = full.hitlist
        half = Verfploeter(
            scenario.internet, scenario.service,
            hitlist=Hitlist(rows.blocks[::2], rows.addresses[::2], rows.scores[::2]),
        )
        routing = full.routing_for()
        # One shard each, and both universes inside pickle's two-byte
        # integer range, so the bounds encode at one width.
        assert 256 <= len(half.hitlist) < len(full.hitlist) < 65536
        assert len(full.hitlist) >= 2 * len(half.hitlist) - 1
        pickled = []
        for verfploeter in (half, full):
            engine = FastScanEngine(verfploeter, routing)
            (payload,) = scan_payloads(
                engine, TableStore(root=str(tmp_path)),
                [(0, engine.state.rows)], 96,
            )
            pickled.append((pickle.dumps(payload), pickle.dumps(engine.routes)))
        (half_payload, half_routes), (full_payload, full_routes) = pickled
        assert half_routes == full_routes
        assert len(half_payload) == len(full_payload)
        assert len(full_payload) < 16 * len(scenario.internet.pops)

    def test_worker_never_receives_a_universe_array(self, tmp_path):
        # Regression for the pre-pool protocol, which shipped the full
        # RoundState (block/site/geo columns) to every worker: no leaf of
        # a payload may be as long as the block universe — arrays stop
        # at one entry per PoP (plus the sentinel) or per site.
        engine = _engine_for(3)
        plan = ShardPlan.split(engine.state.rows, 3)
        payloads = scan_payloads(
            engine, TableStore(root=str(tmp_path)), plan.bounds, 4
        )
        pops = len(engine.verfploeter.internet.pops)
        assert pops + 1 < engine.state.rows

        def flatten(value):
            if dataclasses.is_dataclass(value):
                value = dataclasses.astuple(value)
            if isinstance(value, (tuple, list)):
                for item in value:
                    yield from flatten(item)
            else:
                yield value

        for payload in payloads:
            leaves = list(flatten(pickle.loads(pickle.dumps(payload))))
            assert any(isinstance(leaf, np.ndarray) for leaf in leaves)
            for leaf in leaves:
                if isinstance(leaf, np.ndarray):
                    assert leaf.ndim == 1 and leaf.size <= pops + 1
                else:
                    assert isinstance(leaf, (str, int, float))

    def test_scan_result_roundtrips_bitwise(self):
        engine = _engine_for(3)
        scan = engine.run_scan(round_id=1)
        clone = pickle.loads(pickle.dumps(scan))
        assert_scan_results_identical(clone, scan)


class TestVectorPermutationInverse:
    @pytest.mark.parametrize("n,seed", [(5, 1), (16, 9), (1000, 42), (12345, 7)])
    def test_positions_of_inverts_permutation(self, n, seed):
        perm = _VectorPermutation(n, seed)
        forward = perm.permutation()
        positions = perm.positions_of(np.arange(n, dtype=np.int64))
        # forward[i] is the block probed at slot i, so the position of
        # block b is the slot where forward == b.
        expected = np.empty(n, dtype=np.int64)
        expected[forward] = np.arange(n, dtype=np.int64)
        assert_buffers_equal(positions, expected)

    def test_positions_of_rejects_out_of_range(self):
        perm = _VectorPermutation(10, 1)
        with pytest.raises(ConfigurationError):
            perm.positions_of(np.array([10]))


class TestAttachValidation:
    def test_geo_columns_shape_checked(self):
        from repro.geo.geodb import GeoColumns, GeoDatabase

        bad = GeoColumns(
            blocks=np.zeros(1, dtype=np.int64),
            latitudes=np.zeros(2),
            longitudes=np.zeros(1),
            country_index=np.zeros(1, dtype=np.int64),
            countries=("US",),
        )
        with pytest.raises(DatasetError):
            GeoDatabase(bad)
