"""ShardPool: reuse bit-identity, attach caching, clean shutdown errors."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core import pool as pool_module
from repro.core.fastscan import FastScanEngine
from repro.core.pool import ShardPool, attached_array, run_attached
from repro.core.scenarios import tangled_like
from repro.core.sharding import (
    assert_buffers_equal,
    assert_scan_results_identical,
    assert_site_loads_identical,
    run_sharded_series,
    sharded_weight_catchment,
)
from repro.core.tables import TableStore, ensure_array
from repro.core.verfploeter import Verfploeter
from repro.errors import ConfigurationError, PoolError
from repro.load.estimator import LoadEstimate
from repro.load.weighting import weight_catchment
from repro.obs import Observer


def _engine_for(seed: int) -> FastScanEngine:
    scenario = tangled_like(scale="tiny", seed=seed)
    return FastScanEngine(Verfploeter(scenario.internet, scenario.service))


def _attached_copy(payload):
    return np.array(attached_array(*payload))


def _slow_echo(payload):
    time.sleep(0.2)
    return payload


def _touch_then_sleep(payload):
    path, duration = payload
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("running")
    time.sleep(duration)
    return path


class TestPoolReuse:
    @pytest.mark.parametrize("seed", [3, 17, 123])
    @pytest.mark.parametrize("shards", [1, 2, 7])
    def test_consecutive_series_bit_identical(self, tmp_path, seed, shards):
        engine = _engine_for(seed)
        baseline = engine.run_series(rounds=2, interval_seconds=900.0)
        store = TableStore(root=str(tmp_path))
        with ShardPool(workers=0, store=store) as pool:
            first = run_sharded_series(engine, rounds=2, shards=shards, pool=pool)
            second = run_sharded_series(engine, rounds=2, shards=shards, pool=pool)
        fresh = run_sharded_series(
            engine, rounds=2, shards=shards, workers=0, store=store
        )
        for series in (first, second, fresh):
            for merged, expected in zip(series, baseline):
                assert_scan_results_identical(merged, expected)

    def test_series_then_load_join_on_one_pool(self, tmp_path):
        scenario = tangled_like(scale="tiny", seed=3)
        engine = FastScanEngine(Verfploeter(scenario.internet, scenario.service))
        estimate = LoadEstimate(scenario.day_load("pool-day"))
        baseline = engine.run_series(rounds=2, interval_seconds=900.0)
        expected_load = weight_catchment(baseline[-1].catchment, estimate)
        store = TableStore(root=str(tmp_path))
        with ShardPool(workers=0, store=store) as pool:
            series = run_sharded_series(engine, rounds=2, shards=3, pool=pool)
            load = sharded_weight_catchment(
                series[-1].catchment, estimate, shards=2, pool=pool
            )
        for merged, expected in zip(series, baseline):
            assert_scan_results_identical(merged, expected)
        assert_site_loads_identical(load, expected_load)

    def test_process_pool_reuse_bit_identical(self, tmp_path):
        engine = _engine_for(17)
        baseline = engine.run_series(rounds=2, interval_seconds=900.0)
        store = TableStore(root=str(tmp_path))
        with ShardPool(workers=2, store=store) as pool:
            first = run_sharded_series(engine, rounds=2, shards=2, pool=pool)
            second = run_sharded_series(engine, rounds=2, shards=2, pool=pool)
        for series in (first, second):
            for merged, expected in zip(series, baseline):
                assert_scan_results_identical(merged, expected)

    def test_attach_cache_hits_on_reuse(self, tmp_path):
        engine = _engine_for(3)
        store = TableStore(root=str(tmp_path))
        observer = Observer.collecting()
        with ShardPool(workers=0, store=store, observer=observer) as pool:
            run_sharded_series(
                engine, rounds=1, shards=2, pool=pool, observer=observer
            )
            run_sharded_series(
                engine, rounds=1, shards=2, pool=pool, observer=observer
            )
        metrics = observer.metrics
        # First series: one miss per distinct fingerprint in this
        # process; second series: pure hits.
        assert metrics.value_of("pool.attach.miss") >= 1
        assert metrics.value_of("pool.attach.hit") >= 2
        assert metrics.value_of("pool.tasks") == 4
        assert metrics.value_of("scan.shard.payload_bytes") > 0


class TestAttachCacheBound:
    """A worker keeps at most ``_ATTACH_CACHE_LIMIT`` attachments of each
    kind; evicted ones re-attach from the store with the same bytes."""

    def test_arrays_beyond_the_limit_are_evicted(self, tmp_path):
        limit = pool_module._ATTACH_CACHE_LIMIT
        store = TableStore(root=str(tmp_path))
        arrays = [np.arange(i, i + 8, dtype=np.int64) for i in range(limit + 1)]
        payloads = [(store.root, ensure_array(store, array)) for array in arrays]
        observer = Observer.collecting()
        with ShardPool(workers=0, store=store, observer=observer) as pool:
            first = pool.map(_attached_copy, payloads)
            again = pool.map(_attached_copy, payloads)
        assert len(pool_module._CACHE.attached) <= limit
        assert observer.metrics.value_of("pool.attach.evicted") >= 1
        assert observer.metrics.value_of("pool.attach.miss") > len(payloads)
        for copies in (first, again):
            for copy, array in zip(copies, arrays):
                assert_buffers_equal(copy, array)

    def test_an_evicted_round_state_reattaches_identically(self, tmp_path):
        limit = pool_module._ATTACH_CACHE_LIMIT
        engine = _engine_for(3)
        baseline = engine.run_series(rounds=1)[0]
        store = TableStore(root=str(tmp_path))
        arrays = [np.arange(i, i + 4, dtype=np.int64) for i in range(limit)]
        payloads = [(store.root, ensure_array(store, array)) for array in arrays]
        observer = Observer.collecting()
        with ShardPool(workers=0, store=store, observer=observer) as pool:
            for misses in (1, 2):  # attached, pushed out by the arrays, re-attached
                merged = run_sharded_series(
                    engine, rounds=1, shards=2, pool=pool, observer=observer
                )[0]
                assert_scan_results_identical(merged, baseline)
                state_key = (store.root, engine.externalize(store))
                assert state_key in pool_module._CACHE.attached
                pool.map(_attached_copy, payloads)
                assert state_key not in pool_module._CACHE.attached
                assert (
                    observer.metrics.value_of("pool.attach.miss")
                    == misses * (1 + limit)
                )
        assert len(pool_module._CACHE.attached) <= limit


class TestPoolLifecycle:
    def test_map_after_shutdown_raises(self, tmp_path):
        pool = ShardPool(workers=0, store=TableStore(root=str(tmp_path)))
        pool.shutdown()
        assert pool.closed
        with pytest.raises(PoolError):
            pool.map(_slow_echo, [1])

    def test_shutdown_mid_use_raises_clean_error(self, tmp_path):
        pool = ShardPool(workers=1, store=TableStore(root=str(tmp_path)))
        # Warm the executor so shutdown has live workers to cancel.
        assert pool.map(_slow_echo, ["warm"]) == ["warm"]
        signal = tmp_path / "first-task-running"
        payloads = [(str(signal), 0.5)] + [
            (str(tmp_path / f"task-{i}"), 0.5) for i in range(5)
        ]
        outcome = {}

        def fan_out():
            try:
                pool.map(_touch_then_sleep, payloads)
                outcome["error"] = None
            except Exception as error:  # noqa: BLE001 - recorded for the main thread's assert
                outcome["error"] = error

        thread = threading.Thread(target=fan_out)
        thread.start()
        try:
            # Shut down only once the first task is provably mid-flight,
            # so later tasks are still pending and must be cancelled.
            deadline = time.monotonic() + 10.0
            while not signal.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert signal.exists(), "first pool task never started"
            pool.shutdown()
            thread.join(timeout=30.0)
            assert not thread.is_alive(), "pool.map hung after shutdown"
            assert isinstance(outcome["error"], PoolError)
        finally:
            pool.shutdown()

    def test_rejects_negative_workers(self):
        with pytest.raises(ConfigurationError):
            ShardPool(workers=-1)

    def test_context_manager_shuts_down(self, tmp_path):
        with ShardPool(workers=0, store=TableStore(root=str(tmp_path))) as pool:
            assert not pool.closed
        assert pool.closed

    def test_run_attached_reports_reuse_and_rss(self):
        result, stats = run_attached(len, [1, 2, 3])
        assert result == 3
        assert stats.max_rss_kb > 0
        # This process has run tasks before (inline pools share the
        # parent cache), so reuse is already true on repeat calls.
        _, again = run_attached(len, [])
        assert again.reused
