"""Extension: sharded multiprocess scan at the million-block scale.

The paper's catchment maps cover the whole responsive IPv4 Internet —
millions of /24s — which wants more than one core.  This bench runs
the 24-hour stability series (96 rounds) over the ``xlarge``
``tangled_like`` topology (~1.47M populated blocks), comparing the
vectorised single-process engine against
:func:`repro.core.sharding.run_sharded_series` under the zero-copy
protocol: one persistent :class:`repro.core.pool.ShardPool` is shared
across a cold series, a warm reuse series, and the sharded load
weighting, and every path must be **bit-identical** to the unsharded
engine (the helpers raise ``EquivalenceError`` on the first differing
byte).  Worker payloads are ``(store root, fingerprint, bounds,
rounds)`` tuples, so the JSON also records total payload bytes,
attach-cache hits/misses, warm-worker reuse, and parent/worker peak
RSS.

Timings land in ``BENCH_sharded_scan.json`` at the repo root.  The
full run is slow (the topology alone takes ~2 minutes to build), so it
hides behind ``REPRO_SHARDED_BENCH=full`` (``make bench-sharded``);
the default smoke mode runs the identical checks at the ``small``
scale — including two series on one real process pool — and writes no
JSON, keeping ``make bench`` and CI honest without the wait.  Full
mode self-checks that the warm 1-worker series stays within 10% of
the inline (workers=0) run and the warm sharded weight join (the
steady state a reused pool gives the planner and daemon) within 1.5x
of the single-process join; the >=3x multi-worker speedup floor applies
only when the machine actually has >=4 cores (recorded in the JSON
either way).
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import tempfile
import time

from repro.core.fastscan import FastScanEngine
from repro.core.pool import ShardPool
from repro.core.scenarios import tangled_like
from repro.core.sharding import (
    ShardPlan,
    assert_scan_results_identical,
    assert_site_loads_identical,
    run_sharded_series,
    sharded_weight_catchment,
)
from repro.core.tables import TableStore
from repro.core.verfploeter import Verfploeter
from repro.load.estimator import LoadEstimate
from repro.load.weighting import weight_catchment
from repro.obs import Observer, run_metadata

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_PATH = os.path.join(REPO_ROOT, "BENCH_sharded_scan.json")

FULL = os.environ.get("REPRO_SHARDED_BENCH", "").lower() == "full"
BENCH_SCALE = "xlarge" if FULL else "small"
ROUNDS = 96 if FULL else 6
SHARDS = 4 if FULL else 3
DAY_LABEL = "2017-04-12"
#: Skips the per-block Atlas VP-count pass; the platform is unused here.
VP_COUNT = 9000

#: Acceptance floors (full mode).
MIN_BLOCKS = 1_000_000
MIN_SPEEDUP_AT_4_CORES = 3.0
#: Warm 1-worker series must stay within 10% of the inline run: the
#: zero-copy payloads leave only result shipping as per-process cost.
MAX_ONE_WORKER_OVERHEAD = 1.10
#: Warm (pool-reused) sharded weight join vs the single-process join.
MAX_WEIGHT_OVERHEAD = 1.5


def _timed(runner):
    """(wall-clock seconds, result) of one call."""
    start = time.perf_counter()
    result = runner()
    return time.perf_counter() - start, result


def test_extension_sharded_scan(benchmark):
    cores = len(os.sched_getaffinity(0))
    pool_workers = min(4, cores) if FULL else 2

    build_seconds, scenario = _timed(
        lambda: tangled_like(scale=BENCH_SCALE, vp_count=VP_COUNT)
    )
    day_seconds, day = _timed(lambda: scenario.day_load(DAY_LABEL))
    estimate = LoadEstimate(day)

    table_root = tempfile.mkdtemp(prefix="repro-sharded-bench-")
    try:
        store = TableStore(root=table_root)
        verfploeter = Verfploeter(scenario.internet, scenario.service)
        precompute_seconds, engine = _timed(lambda: FastScanEngine(verfploeter))
        blocks = engine.state.rows
        if FULL:
            assert blocks >= MIN_BLOCKS, (
                f"xlarge universe shrank to {blocks} blocks"
            )

        observer = Observer.collecting()

        # -- the series: single-process, then inline (absorbs the one-time
        # round-state externalisation into the store) --------------------------
        single_seconds, baseline = _timed(
            lambda: engine.run_series(rounds=ROUNDS, interval_seconds=900.0)
        )
        inline_seconds, sharded_inline = _timed(
            lambda: run_sharded_series(
                engine, rounds=ROUNDS, shards=SHARDS, workers=0, store=store
            )
        )

        # -- one persistent pool: cold series, warm reuse series, weighting --
        with ShardPool(
            workers=pool_workers, store=store, observer=observer
        ) as pool:
            cold_seconds, sharded_cold = _timed(
                lambda: run_sharded_series(
                    engine,
                    rounds=ROUNDS,
                    shards=SHARDS,
                    pool=pool,
                    observer=observer,
                )
            )
            warm_seconds, sharded_warm = _timed(
                lambda: run_sharded_series(
                    engine,
                    rounds=ROUNDS,
                    shards=SHARDS,
                    pool=pool,
                    observer=observer,
                )
            )
            weight_seconds, expected_load = _timed(
                lambda: weight_catchment(baseline[0].catchment, estimate)
            )
            # The first join pays the one-time universe/site-column
            # persist and worker attach; the steady state (what the
            # planner's lattice search and the serve daemon's per-round
            # joins hit) is the warm join on the same pool.
            weight_cold_seconds, actual_load = _timed(
                lambda: sharded_weight_catchment(
                    baseline[0].catchment,
                    estimate,
                    shards=SHARDS,
                    pool=pool,
                    observer=observer,
                )
            )
            sharded_weight_seconds, warm_load = _timed(
                lambda: sharded_weight_catchment(
                    baseline[0].catchment,
                    estimate,
                    shards=SHARDS,
                    pool=pool,
                    observer=observer,
                )
            )
            assert_site_loads_identical(warm_load, actual_load)
            worker_rss_kb = pool.max_worker_rss_kb

        # A warm 1-worker series for the overhead floor.  When the
        # persistent pool already ran 1-wide, its warm pass *is* that
        # number; otherwise spin a dedicated pool and discard its cold
        # pass.
        if pool_workers == 1:
            one_seconds, sharded_one = warm_seconds, sharded_warm
        else:
            with ShardPool(
                workers=1, store=store, observer=observer
            ) as pool_one:
                run_sharded_series(
                    engine,
                    rounds=ROUNDS,
                    shards=SHARDS,
                    pool=pool_one,
                    observer=observer,
                )
                one_seconds, sharded_one = _timed(
                    lambda: run_sharded_series(
                        engine,
                        rounds=ROUNDS,
                        shards=SHARDS,
                        pool=pool_one,
                        observer=observer,
                    )
                )
                worker_rss_kb = max(worker_rss_kb, pool_one.max_worker_rss_kb)

        # Bit-identity, every round, every path back to the unsharded engine.
        for merged in (sharded_inline, sharded_cold, sharded_warm, sharded_one):
            assert len(merged) == ROUNDS
            for got, expected in zip(merged, baseline):
                assert_scan_results_identical(got, expected)
        assert_site_loads_identical(actual_load, expected_load)
    finally:
        shutil.rmtree(table_root, ignore_errors=True)

    speedup = one_seconds / warm_seconds if warm_seconds else float("inf")
    if FULL:
        assert one_seconds <= MAX_ONE_WORKER_OVERHEAD * inline_seconds, (
            f"warm 1-worker series {one_seconds:.2f}s exceeds "
            f"{MAX_ONE_WORKER_OVERHEAD:.0%} of inline {inline_seconds:.2f}s"
        )
        assert sharded_weight_seconds <= MAX_WEIGHT_OVERHEAD * weight_seconds, (
            f"warm sharded weight join {sharded_weight_seconds:.3f}s exceeds "
            f"{MAX_WEIGHT_OVERHEAD}x single-process {weight_seconds:.3f}s"
        )
        if cores >= 4:
            assert speedup >= MIN_SPEEDUP_AT_4_CORES, (
                f"{pool_workers}-worker series only {speedup:.2f}x over 1 worker"
            )
    metrics = observer.metrics
    parent_rss_kb = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    payload = {
        "meta": run_metadata(
            scenario=scenario.name,
            scale=scenario.scale,
            seed=scenario.internet.seed,
        ),
        "scale": BENCH_SCALE,
        "rounds": ROUNDS,
        "shards": SHARDS,
        "workers": pool_workers,
        "cores": cores,
        "blocks": blocks,
        "build_seconds": round(build_seconds, 3),
        "day_load_seconds": round(day_seconds, 3),
        "precompute_seconds": round(precompute_seconds, 3),
        "series_single_process_seconds": round(single_seconds, 3),
        "series_sharded_inline_seconds": round(inline_seconds, 3),
        "series_sharded_cold_pool_seconds": round(cold_seconds, 3),
        "series_sharded_warm_pool_seconds": round(warm_seconds, 3),
        "series_sharded_1_worker_seconds": round(one_seconds, 3),
        "series_sharded_n_worker_seconds": round(warm_seconds, 3),
        "series_speedup_vs_1_worker": round(speedup, 2),
        "weight_single_seconds": round(weight_seconds, 4),
        "weight_sharded_cold_seconds": round(weight_cold_seconds, 4),
        "weight_sharded_seconds": round(sharded_weight_seconds, 4),
        "payload_bytes": int(metrics.value_of("scan.shard.payload_bytes")),
        "pool_attach_hits": int(metrics.value_of("pool.attach.hit")),
        "pool_attach_misses": int(metrics.value_of("pool.attach.miss")),
        "pool_worker_reuse": int(metrics.value_of("pool.worker.reuse")),
        "pool_tasks": int(metrics.value_of("pool.tasks")),
        "parent_max_rss_kb": parent_rss_kb,
        "worker_max_rss_kb": int(worker_rss_kb),
        "bit_identical": True,
    }
    if FULL:
        with open(RESULT_PATH, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")

    print()
    mode = "full" if FULL else "smoke"
    print(
        f"sharded scan ({mode}), scale={BENCH_SCALE}, {blocks} blocks, "
        f"{ROUNDS} rounds, {SHARDS} shards, {cores} cores:"
    )
    print(f"  single process   {single_seconds:8.3f} s")
    print(f"  sharded inline   {inline_seconds:8.3f} s")
    print(f"  pool cold        {cold_seconds:8.3f} s   (@{pool_workers} workers)")
    print(
        f"  pool warm        {warm_seconds:8.3f} s   "
        f"({speedup:.2f}x vs warm 1 worker)"
    )
    print(
        f"  weights: single {weight_seconds:.4f} s, sharded cold "
        f"{weight_cold_seconds:.4f} s / warm {sharded_weight_seconds:.4f} s; "
        f"payloads "
        f"{payload['payload_bytes']} B, attach "
        f"{payload['pool_attach_hits']} hits / "
        f"{payload['pool_attach_misses']} misses"
    )
    if FULL:
        print(f"  (recorded in {os.path.basename(RESULT_PATH)})")

    benchmark.pedantic(
        lambda: ShardPlan.split(blocks, SHARDS), rounds=1, iterations=1
    )
