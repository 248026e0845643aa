"""Sharded multiprocess scanning and load weighting, zero-copy edition.

The paper maps catchments for the whole responsive IPv4 Internet —
millions of /24 blocks — which wants more than one core.  This module
partitions the shared uint64 block universe into contiguous ranges
(:class:`ShardPlan`) and fans :func:`repro.core.fastscan.evaluate_round`
— or, for a playbook lattice, :func:`repro.core.fastscan.evaluate_lattice`
in one task per shard — and the load-weighting join across a persistent
:class:`repro.core.pool.ShardPool`.  The parent keeps only the
fan-out: per-shard columns go back through the single-process code —
:func:`repro.core.fastscan.materialise_columnar` builds each round,
:func:`repro.load.weighting.accumulate_site_load` sums each join.

Workers are zero-copy: the parent externalises the deployment's
routing-invariant columns once through
:class:`repro.core.tables.TableStore` (:meth:`FastScanEngine.externalize`,
:func:`ensure_array`), and a scan payload (:func:`scan_payloads`) is
``(store root, fingerprint, per-PoP route columns, shard bounds, round
params)`` — its size never depends on the block count.  Each worker
process attaches the fingerprinted arrays as read-only memmaps through
a per-process cache (`core.pool`), once per shard however many routing
states are scanned.  Results come back compact too: kept-only
site/delay columns plus a packed keep mask; the parent rebuilds full
columns against its own copy of the universe.

The merged output is **bit-identical** to the single-process path, by
construction rather than by luck:

* every stochastic draw in the engine depends only on
  ``(seed, salt, block, round)`` via ``hash_prefix_np``, so a shard's
  rows evaluate to exactly the values the full pass would produce;
* probe send offsets — the one cross-block coupling, needed only for
  rows whose replies can straddle the cut-off — are recovered per shard
  from the *global* Feistel permutation (:func:`send_offsets`),
  multiplying the identical integer position by the identical float
  interval;
* float accumulations are never merged as per-shard partial sums
  (float addition is not associative).  Workers return exact integers
  (int16 site indices, packed bool masks, per-row float64 delays that
  are copied, never summed); the parent owns **all** float
  accumulation, handing the joined indices to the very
  ``accumulate_site_load`` the single-process join runs — the
  identical sequence of additions.

Process-pool construction lives in `repro.core.pool` (reprolint rule
D112); every pool target here is a module-level function resolving
fingerprints through that module's per-process attach cache.  A target
that does not pickle fails the real-worker tests
(``tests/test_pool.py``, ``tests/test_sharding.py``,
``tests/test_lattice.py``): ``ShardPool`` pickles it on every start
method.
"""

from __future__ import annotations

import pickle
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.anycast.catchment import CatchmentMap
from repro.bgp.propagation import RoutingOutcome
from repro.collector.results import ScanResult, ScanStats
from repro.core.fastscan import (
    FastScanEngine,
    evaluate_lattice,
    evaluate_round,
    externalize,
    materialise_columnar,
    round_draws,
    route_columns,
)
from repro.core.pool import (
    ShardPool,
    attached_array,
    attached_round_state,
    available_cpus,
)
from repro.core.tables import ensure_array
from repro.core.verfploeter import Verfploeter
from repro.errors import ConfigurationError, DatasetError, EquivalenceError
from repro.load.estimator import LoadEstimate
from repro.load.weighting import UNKNOWN, SiteLoad, accumulate_site_load
from repro.obs import NULL_OBSERVER, Observer


@dataclass(frozen=True)
class ShardPlan:
    """A partition of ``[0, universe_size)`` into contiguous ranges."""

    universe_size: int
    bounds: Tuple[Tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.universe_size <= 0:
            raise ConfigurationError("shard plan needs a non-empty universe")
        if not self.bounds:
            raise ConfigurationError("shard plan needs at least one shard")
        cursor = 0
        for start, stop in self.bounds:
            if start != cursor or stop <= start:
                raise ConfigurationError(
                    f"shard bounds must tile the universe; got {self.bounds}"
                )
            cursor = stop
        if cursor != self.universe_size:
            raise ConfigurationError(
                f"shard bounds cover [0, {cursor}), universe is "
                f"[0, {self.universe_size})"
            )

    @classmethod
    def split(cls, universe_size: int, shards: int) -> "ShardPlan":
        """Near-equal contiguous split (first remainder shards get +1).

        ``shards`` is clamped to ``universe_size`` so no shard is
        empty; the split depends only on the two integers, never on
        worker count or timing.
        """
        if universe_size <= 0:
            raise ConfigurationError("shard plan needs a non-empty universe")
        if shards < 1:
            raise ConfigurationError("shards must be >= 1")
        shards = min(shards, universe_size)
        base, remainder = divmod(universe_size, shards)
        bounds: List[Tuple[int, int]] = []
        cursor = 0
        for index in range(shards):
            size = base + (1 if index < remainder else 0)
            bounds.append((cursor, cursor + size))
            cursor += size
        return cls(universe_size=universe_size, bounds=tuple(bounds))

    @property
    def shard_count(self) -> int:
        """Number of shards in the plan."""
        return len(self.bounds)

    def sizes(self) -> List[int]:
        """Rows per shard."""
        return [stop - start for start, stop in self.bounds]

    def imbalance(self) -> float:
        """Largest shard over mean shard size (1.0 = perfectly even)."""
        sizes = self.sizes()
        return max(sizes) * len(sizes) / self.universe_size


def assert_buffers_equal(actual, expected, label: str = "array") -> None:
    """Assert two arrays are bit-identical (dtype, shape, and bytes).

    Bitwise, not ``allclose``: the sharded paths promise exact
    reproduction of the single-process results, so the comparison is on
    raw buffers.  Used by the equivalence tests and the benchmark.
    """
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    if actual.dtype != expected.dtype:
        raise EquivalenceError(
            f"{label}: dtype {actual.dtype} != {expected.dtype}"
        )
    if actual.shape != expected.shape:
        raise EquivalenceError(
            f"{label}: shape {actual.shape} != {expected.shape}"
        )
    actual_bytes = np.frombuffer(actual.tobytes(), dtype=np.uint8)
    expected_bytes = np.frombuffer(expected.tobytes(), dtype=np.uint8)
    if not np.array_equal(actual_bytes, expected_bytes):
        first_byte = int(np.nonzero(actual_bytes != expected_bytes)[0][0])
        element = first_byte // max(actual.itemsize, 1)
        raise EquivalenceError(
            f"{label}: buffers differ (first differing element index "
            f"{element} of {actual.size})"
        )


def assert_scan_results_identical(actual: ScanResult, expected: ScanResult) -> None:
    """Assert two columnar scan results match bit for bit."""
    if actual.dataset_id != expected.dataset_id:
        raise EquivalenceError(
            f"dataset_id {actual.dataset_id!r} != {expected.dataset_id!r}"
        )
    if actual.round_id != expected.round_id:
        raise EquivalenceError(f"round_id {actual.round_id} != {expected.round_id}")
    if (actual.start_time, actual.duration_seconds) != (
        expected.start_time,
        expected.duration_seconds,
    ):
        raise EquivalenceError("start_time/duration differ")
    if actual.stats != expected.stats:
        raise EquivalenceError(f"stats {actual.stats} != {expected.stats}")
    assert_buffers_equal(
        actual.catchment.universe, expected.catchment.universe, "catchment.universe"
    )
    assert_buffers_equal(
        actual.catchment.site_index_array,
        expected.catchment.site_index_array,
        "catchment.sites",
    )
    assert_buffers_equal(
        actual.rtts.block_array(), expected.rtts.block_array(), "rtts.blocks"
    )
    assert_buffers_equal(
        actual.rtts.value_array(), expected.rtts.value_array(), "rtts.values"
    )


def assert_site_loads_identical(actual: SiteLoad, expected: SiteLoad) -> None:
    """Assert two site loads match bit for bit (daily and hourly)."""
    if actual.site_codes != expected.site_codes:
        raise EquivalenceError("site_codes differ")
    for code in (*expected.site_codes, UNKNOWN):
        if actual.daily_of(code) != expected.daily_of(code):
            raise EquivalenceError(
                f"daily[{code}]: {actual.daily_of(code)!r} != "
                f"{expected.daily_of(code)!r}"
            )
        assert_buffers_equal(
            actual.hourly_of(code), expected.hourly_of(code), f"hourly[{code}]"
        )


def merge_stats(parts: Sequence[ScanStats]) -> ScanStats:
    """Sum per-shard scan statistics (all fields are exact integers)."""
    return ScanStats(
        probes_sent=sum(part.probes_sent for part in parts),
        replies_received=sum(part.replies_received for part in parts),
        wrong_round=sum(part.wrong_round for part in parts),
        unsolicited=sum(part.unsolicited for part in parts),
        late=sum(part.late for part in parts),
        duplicates=sum(part.duplicates for part in parts),
        kept=sum(part.kept for part in parts),
    )


def resolve_fanout(shards: Optional[int], workers: Optional[int]) -> Tuple[int, int]:
    """Fill in the shard/worker defaults (workers=0 means run inline)."""
    if workers is not None and workers < 0:
        raise ConfigurationError("workers must be >= 0")
    if shards is None:
        shards = workers if workers else 1
    if shards < 1:
        raise ConfigurationError("shards must be >= 1")
    if workers is None:
        workers = min(shards, available_cpus())
    return shards, workers


@contextmanager
def _fanout(
    pool: Optional[ShardPool],
    shards: Optional[int],
    workers: Optional[int],
    store,
    observer: Observer,
) -> Iterator[Tuple[ShardPool, int]]:
    """``(pool, shards)`` for one fan-out: the caller's open pool, or a
    temporary one (closed on exit) sized by :func:`resolve_fanout`."""
    if pool is not None:
        yield pool, resolve_fanout(shards, pool.workers)[0]
        return
    shards, workers = resolve_fanout(shards, workers)
    with ShardPool(workers=workers, store=store, observer=observer) as pool:
        yield pool, shards


def _payload_bytes(payloads: Sequence[object]) -> int:
    """Total pickled size of a fan-out's payloads (instrumentation)."""
    return sum(len(pickle.dumps(payload)) for payload in payloads)


# -- pool workers (top-level so they pickle; fingerprints in, columns out) --


def scan_payloads(
    engine: FastScanEngine, store, bounds, rounds: int
) -> List[tuple]:
    """One :func:`_scan_shard_worker` payload per ``(start, stop)`` in
    ``bounds``: block-sized state travels as a fingerprint into ``store``,
    routing as the engine's per-PoP columns — never O(blocks)."""
    fingerprint = engine.externalize(store)
    return [
        (store.root, fingerprint, engine.routes, start, stop, rounds)
        for start, stop in bounds
    ]


def _scan_shard_worker(payload) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray, ScanStats]]:
    """Evaluate every round of one shard; returns compact round columns.

    The payload (:func:`scan_payloads`) carries no block-sized array;
    the shard's state is attached (or found warm) in this process's cache.
    Each round comes back as ``(kept site indices, packed keep mask,
    kept delays, stats)``: the parent rebuilds full-universe columns
    from its own copy, so result pickling scales with *kept* rows only.
    """
    store_root, fingerprint, routes, start, stop, rounds = payload
    state = attached_round_state(store_root, fingerprint).shard(start, stop)
    results = []
    for round_id in range(rounds):
        arrays = evaluate_round(state, routes, round_draws(state, round_id)[0])
        results.append(
            (
                arrays.site[arrays.kept_mask],
                np.packbits(arrays.kept_mask),
                arrays.delay[arrays.kept_mask],
                arrays.stats,
            )
        )
    return results


def _lattice_shard_worker(payload) -> List[Tuple[np.ndarray, np.ndarray, ScanStats]]:
    """Evaluate one shard's rows under every routing state of a lattice.

    The payload (:func:`sharded_lattice`) is the round state's
    fingerprint, every config's per-PoP route columns, the shard bounds
    and the round id.  Each config comes back as ``(kept site indices,
    packed keep mask, stats)``, the compact encoding of
    :func:`_scan_shard_worker` without delays.
    """
    store_root, fingerprint, routes_seq, start, stop, round_id = payload
    state = attached_round_state(store_root, fingerprint).shard(start, stop)
    draws = round_draws(state, round_id)[0]
    results = []
    for sites, stats in evaluate_lattice(state, routes_seq, draws):
        kept = sites >= 0
        results.append((sites[kept], np.packbits(kept), stats))
    return results


def _join_shard_worker(payload) -> np.ndarray:
    """Resolve one slice of traffic blocks to site indices (int16).

    All three columns — catchment universe, site indices, and traffic
    blocks — arrive as fingerprints and are read from this process's
    attached memmaps; only the int16 result slice is shipped back.
    """
    store_root, site_codes, universe_fp, sites_fp, blocks_fp, start, stop = payload
    catchment = CatchmentMap(
        site_codes,
        attached_array(store_root, universe_fp),
        attached_array(store_root, sites_fp),
        validate=False,
    )
    traffic_blocks = attached_array(store_root, blocks_fp)
    return catchment.site_indices_of(traffic_blocks[start:stop])


# -- sharded scan series ---------------------------------------------------


def _merge_sites(rows: int, bounds: Sequence[Tuple[int, int]], shard_parts) -> np.ndarray:
    """One full-universe int16 site column (``-1`` where not kept) from
    each shard's kept site indices and packed keep mask, the first two
    fields of every part in ``shard_parts``."""
    sites = np.full(rows, -1, dtype=np.int16)
    for (start, stop), (kept_sites, packed_mask, *_) in zip(bounds, shard_parts):
        mask = np.unpackbits(packed_mask, count=stop - start).view(np.bool_)
        sites[start:stop][mask] = kept_sites
    return sites


def _merge_round(
    engine: FastScanEngine,
    shard_rounds: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray, ScanStats]],
    bounds: Sequence[Tuple[int, int]],
    round_id: int,
    interval_seconds: float,
    dataset_prefix: str,
) -> ScanResult:
    """Rebuild one round's full-universe result from compact shard columns.

    Each shard's kept site indices scatter into one full-universe site
    column (``-1`` where its keep mask is clear) and its kept delays
    follow in shard order; the engine's own builder,
    :func:`repro.core.fastscan.materialise_columnar`, makes the result,
    so it is bit-identical to evaluating the full universe in one pass.
    """
    return materialise_columnar(
        engine.state,
        engine.routes.site_codes,
        _merge_sites(engine.state.rows, bounds, shard_rounds),
        np.concatenate([part[2] for part in shard_rounds]),
        merge_stats([part[3] for part in shard_rounds]),
        round_id,
        round_id * interval_seconds,
        f"{dataset_prefix}-r{round_id:03d}",
    )


def run_sharded_series(
    engine: FastScanEngine,
    rounds: int,
    shards: Optional[int] = None,
    workers: Optional[int] = None,
    interval_seconds: float = 900.0,
    dataset_prefix: str = "fast-series",
    observer: Optional[Observer] = None,
    pool: Optional[ShardPool] = None,
    store=None,
) -> List[ScanResult]:
    """A stability series fanned across block shards and worker processes.

    Equivalent to ``engine.run_series(rounds, ...)`` — same dataset
    ids, same start times, bit-identical catchments, RTTs, and stats —
    but each shard of the block universe is evaluated independently.
    Pass an open :class:`~repro.core.pool.ShardPool` to reuse warm
    workers (and their attach caches) across calls; otherwise a
    temporary pool is created for this series (``workers >= 1`` in
    processes; ``workers == 0`` inline through the same fingerprint
    protocol, for tests and platforms without fork).  Merged results
    share the engine's universe array, so consecutive-round diffs stay
    pure array compares.
    """
    if rounds < 1:
        raise ConfigurationError("rounds must be >= 1")
    if observer is None:
        observer = engine.observer
    state = engine.state
    with _fanout(pool, shards, workers, store, observer) as (pool, shards):
        plan = ShardPlan.split(state.rows, shards)
        with observer.tracer.span(
            "scan.sharded_series",
            rounds=rounds,
            shards=plan.shard_count,
            workers=pool.workers,
        ) as span:
            payloads = scan_payloads(engine, pool.store, plan.bounds, rounds)
            payload_bytes = _payload_bytes(payloads)
            per_shard = pool.map(_scan_shard_worker, payloads, observer=observer)
            merged = [
                _merge_round(
                    engine,
                    [shard_rounds[round_id] for shard_rounds in per_shard],
                    plan.bounds,
                    round_id,
                    interval_seconds,
                    dataset_prefix,
                )
                for round_id in range(rounds)
            ]
            span.set(blocks=state.rows, payload_bytes=payload_bytes)
    metrics = observer.metrics
    metrics.counter("scan.shard.payload_bytes").inc(payload_bytes)
    metrics.gauge("scan.shards").set(plan.shard_count)
    metrics.gauge("scan.shard_imbalance").set(plan.imbalance())
    return merged


def sharded_lattice(
    verfploeter: Verfploeter,
    routings: Sequence[RoutingOutcome],
    pool: ShardPool,
) -> List[CatchmentMap]:
    """The catchment of every routing state at round 0, as one
    ``pool.map`` with one task per shard (one shard per worker).

    Bit-identical to :func:`repro.core.fastscan.scan_lattice`: every
    shard runs :func:`~repro.core.fastscan.evaluate_lattice` over its
    rows and the parent scatters each config's kept sites back into a
    full-universe column.  Like the sharded series it counts no engine
    rounds: the draws and cleaning happen in the workers.
    """
    observer = verfploeter.observer
    state = verfploeter.round_state()
    with observer.tracer.span("fastscan.precompute", configs=len(routings)):
        routes_seq = route_columns(verfploeter, routings)
    plan = ShardPlan.split(state.rows, resolve_fanout(None, pool.workers)[0])
    with observer.tracer.span(
        "fastscan.lattice",
        configs=len(routes_seq),
        blocks=state.rows,
        shards=plan.shard_count,
        workers=pool.workers,
    ) as span:
        fingerprint = externalize(state, pool.store, observer)
        payloads = [
            (pool.store.root, fingerprint, routes_seq, start, stop, 0)
            for start, stop in plan.bounds
        ]
        payload_bytes = _payload_bytes(payloads)
        per_shard = pool.map(_lattice_shard_worker, payloads, observer=observer)
        span.set(payload_bytes=payload_bytes)
    metrics = observer.metrics
    metrics.counter("scan.shard.payload_bytes").inc(payload_bytes)
    metrics.gauge("scan.shards").set(plan.shard_count)
    metrics.gauge("scan.shard_imbalance").set(plan.imbalance())
    return [
        CatchmentMap(
            routes.site_codes,
            state.blocks,
            _merge_sites(state.rows, plan.bounds, [shard[index] for shard in per_shard]),
            validate=False,
        )
        for index, routes in enumerate(routes_seq)
    ]


# -- sharded load weighting ------------------------------------------------


def sharded_weight_catchment(
    catchment: CatchmentMap,
    estimate: LoadEstimate,
    pool: ShardPool,
    observer: Optional[Observer] = None,
) -> SiteLoad:
    """Load weighting with the exact-int join fanned over ``pool``'s
    workers, one shard per worker.

    Bit-identical to :func:`repro.load.weighting.weight_catchment` on
    the same catchment: workers resolve slices of the
    traffic-row join to exact int16 site indices over memmapped
    columns (nothing but fingerprints and bounds is shipped out, int16
    slices shipped back), while the parent owns every float
    accumulation — the daily ``bincount`` and each hour column run as
    full single passes in fixed order, exactly as the single-process
    join performs them.
    """
    if observer is None:
        observer = NULL_OBSERVER
    if len(estimate) == 0:
        raise DatasetError("load estimate is empty")
    traffic_blocks = estimate.blocks
    plan = ShardPlan.split(traffic_blocks.size, resolve_fanout(None, pool.workers)[0])
    with observer.tracer.span(
        "load.weight.sharded", shards=plan.shard_count, workers=pool.workers
    ) as span:
        universe_fp = ensure_array(pool.store, catchment.universe)
        sites_fp = ensure_array(pool.store, catchment.site_index_array)
        blocks_fp = ensure_array(pool.store, traffic_blocks)
        join_payloads = [
            (
                pool.store.root,
                catchment.site_codes,
                universe_fp,
                sites_fp,
                blocks_fp,
                start,
                stop,
            )
            for start, stop in plan.bounds
        ]
        payload_bytes = _payload_bytes(join_payloads)
        index_parts = pool.map(_join_shard_worker, join_payloads, observer=observer)
        load = accumulate_site_load(
            catchment.site_codes, np.concatenate(index_parts), estimate
        )
        span.set(join_rows=len(estimate), payload_bytes=payload_bytes)
    metrics = observer.metrics
    metrics.counter("scan.shard.payload_bytes").inc(payload_bytes)
    metrics.gauge("load.join_rows").set(len(estimate))
    return load
