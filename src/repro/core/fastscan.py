"""Vectorised scan engine — what every default scan runs on.

Replays the wire-level :meth:`Verfploeter.run_scan` loop with numpy
over all blocks at once — bit-exact (same hash draws, same cleaning
rules, same RTTs), asserted by the equivalence tests — at ~100x the
speed.  ``Verfploeter.run_scan`` dispatches here for every call that
is not the wire-level oracle (one engine memoised per routing state,
:meth:`Verfploeter.engine_for`): the paper's 96-round day over millions
of blocks is a pure Python non-starter, but perfectly tractable
vectorised.

The engine precomputes everything round-invariant (permutation domain,
stable responders, base catchment sites, geography) once per routing
state into a :class:`RoundState` — a plain, picklable bundle of numpy
columns.  Precomputation itself is columnar: blocks join against the
internet's block table and the geo database's columnar snapshot with
``searchsorted``, and per-PoP routing facts are computed once per PoP
and broadcast, so no per-block Python loop runs at any point.

Round evaluation is a module-level pure function over a
:class:`RoundState` (:func:`evaluate_round`), so the same code path
serves both the in-process engine and the multiprocess shard workers
in :mod:`repro.core.sharding` — bit-identity between the two is by
construction, not by parallel maintenance of two implementations.
Every stochastic draw depends only on ``(seed, salt, block, round)``,
and probe send offsets are recovered per shard through the inverse of
the global Feistel permutation, so a :meth:`RoundState.shard` slice
evaluates to exactly the rows the full state would.

Results are columnar end-to-end by default: each round returns an
:class:`~repro.anycast.catchment.ArrayCatchmentMap` over the engine's
shared block universe plus a :class:`BlockValueMap` of RTTs, so
consumers (diffs, load weighting, stability series) stay in numpy.
``columnar=False`` selects the dict-backed reference materialisation
the equivalence suite compares against.
"""
# reprolint: hot-path

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

from repro.anycast.catchment import ArrayCatchmentMap, CatchmentMap
from repro.bgp import instability as _instability
from repro.bgp.instability import FlipModelConfig
from repro.bgp.propagation import RoutingOutcome
from repro.collector.results import BlockValueMap
from repro.core.verfploeter import ScanResult, ScanStats, Verfploeter
from repro.errors import ConfigurationError
from repro.geo.distance import EARTH_RADIUS_KM
from repro.icmp import latency as _latency
from repro.obs import Observer
from repro.probing.order import round_order_seed
from repro.rng import hash_prefix_np, uniform_from_prefix_np, uniform_unit_np
from repro.topology import hosts as _hosts
from repro.topology.hosts import HostModelConfig

_ROUNDS = 4  # Feistel rounds; must match probing.order


class _VectorPermutation:
    """Vectorised twin of :class:`repro.probing.order.PseudorandomOrder`."""

    def __init__(self, n: int, seed: int) -> None:
        self._n = n
        self._seed = seed
        bits = max(2, (n - 1).bit_length())
        if bits % 2:
            bits += 1
        self._half_bits = bits // 2
        self._half_mask = (1 << self._half_bits) - 1

    def _round_function(self, values: np.ndarray, round_index: int) -> np.ndarray:
        from repro.rng import mix64_np

        with np.errstate(over="ignore"):
            mixed = (
                np.uint64(self._seed)
                ^ (values * np.uint64(0x9E3779B1))
                ^ np.uint64(round_index << 48)
            )
        return mix64_np(mixed) & np.uint64(self._half_mask)

    def _feistel(self, values: np.ndarray) -> np.ndarray:
        left = values >> np.uint64(self._half_bits)
        right = values & np.uint64(self._half_mask)
        for round_index in range(_ROUNDS):
            left, right = right, left ^ self._round_function(right, round_index)
        return (left << np.uint64(self._half_bits)) | right

    def _feistel_inverse(self, values: np.ndarray) -> np.ndarray:
        left = values >> np.uint64(self._half_bits)
        right = values & np.uint64(self._half_mask)
        for round_index in reversed(range(_ROUNDS)):
            left, right = right ^ self._round_function(left, round_index), left
        return (left << np.uint64(self._half_bits)) | right

    def permutation(self) -> np.ndarray:
        """``perm[p]`` = hitlist index probed at position ``p``."""
        values = self._feistel(np.arange(self._n, dtype=np.uint64))
        out_of_range = values >= self._n
        while out_of_range.any():
            values[out_of_range] = self._feistel(values[out_of_range])
            out_of_range = values >= self._n
        return values.astype(np.int64)

    def positions_of(self, indices: np.ndarray) -> np.ndarray:
        """Schedule positions of the given hitlist ``indices``.

        The inverse of :meth:`permutation` without materialising the
        whole domain: decrypt, cycle-walking backwards while the value
        lands outside ``[0, n)``.  Because the forward walk only ever
        passes *through* out-of-range values, walking back stops at
        exactly the position the forward permutation started from.
        Shard workers use this to recover their rows' send offsets.
        """
        values = indices.astype(np.uint64)
        if (values >= self._n).any():
            raise ConfigurationError("permutation input outside [0, n)")
        values = self._feistel_inverse(values)
        out_of_range = values >= self._n
        while out_of_range.any():
            values[out_of_range] = self._feistel_inverse(values[out_of_range])
            out_of_range = values >= self._n
        return values.astype(np.int64)


@dataclass
class RoundState:
    """Everything round-invariant about a scan, as picklable columns.

    One row per hitlist block.  A state is either the full universe
    (``row_start == 0``, ``rows == n_total``) or a contiguous shard of
    it produced by :meth:`shard`; every per-row value in a shard is a
    slice of the full state's value, never recomputed, so shard
    evaluation is bit-identical to evaluating the same rows in-process.
    """

    site_codes: List[str]
    blocks: np.ndarray  # uint64, strictly ascending
    base: np.ndarray  # int16 site index, -1 = unrouted
    alternate: np.ndarray  # int16 site index, -1 = none
    flipper: np.ndarray  # bool
    participates: np.ndarray  # bool
    stable: np.ndarray  # bool
    off_address: np.ndarray  # bool
    duplicator: np.ndarray  # bool
    prefixes: Dict[int, np.ndarray]  # salt -> uint64 per-block hash prefix
    site_rtt: np.ndarray  # (sites, rows) float64 milliseconds
    access: np.ndarray  # float64 milliseconds
    lat_ok: np.ndarray  # bool
    jitter_scale: float
    host_config: HostModelConfig
    flip_config: FlipModelConfig
    late_cutoff: float  # seconds
    interval: float  # seconds between probes
    order_parent_seed: int
    n_total: int  # permutation domain (full universe size)
    row_start: int = 0  # first hitlist index covered by this state

    @property
    def rows(self) -> int:
        """Number of blocks this state covers."""
        return int(self.blocks.size)

    def shard(self, start: int, stop: int) -> "RoundState":
        """The contiguous sub-state covering hitlist rows [start, stop)."""
        if not 0 <= start < stop <= self.rows:
            raise ConfigurationError(
                f"shard [{start}, {stop}) outside [0, {self.rows})"
            )
        return replace(
            self,
            blocks=self.blocks[start:stop],
            base=self.base[start:stop],
            alternate=self.alternate[start:stop],
            flipper=self.flipper[start:stop],
            participates=self.participates[start:stop],
            stable=self.stable[start:stop],
            off_address=self.off_address[start:stop],
            duplicator=self.duplicator[start:stop],
            prefixes={salt: arr[start:stop] for salt, arr in self.prefixes.items()},
            site_rtt=self.site_rtt[:, start:stop],
            access=self.access[start:stop],
            lat_ok=self.lat_ok[start:stop],
            row_start=self.row_start + start,
        )


@dataclass
class RoundArrays:
    """One evaluated round, before materialisation into a ScanResult."""

    site: np.ndarray  # int16 replying site per row (meaningful where kept)
    delay: np.ndarray  # float64 first-reply delay (ms) per row
    kept_mask: np.ndarray  # bool: row survives cleaning
    stats: ScanStats


def _round_draw(state: RoundState, salt: int, round_id: int) -> np.ndarray:
    """One per-block uniform draw for this round (prefix finished)."""
    return uniform_from_prefix_np(state.prefixes[salt], round_id)


def send_offsets(state: RoundState, round_id: int) -> np.ndarray:
    """Seconds after round start each of this state's probes is sent.

    The permutation always spans the *full* ``n_total`` domain — shard
    boundaries must not change anyone's schedule position.  The full
    state scatters the forward permutation (one pass); a shard decrypts
    just its own rows through the inverse Feistel.  Both paths multiply
    the identical integer position by the identical float interval, so
    the offsets are bit-equal.
    """
    seed = round_order_seed(state.order_parent_seed, round_id)
    perm = _VectorPermutation(state.n_total, seed)
    if state.row_start == 0 and state.rows == state.n_total:
        offsets = np.empty(state.n_total, dtype=np.float64)
        offsets[perm.permutation()] = (
            np.arange(state.n_total, dtype=np.float64) * state.interval
        )
        return offsets
    rows = np.arange(
        state.row_start, state.row_start + state.rows, dtype=np.uint64
    )
    return perm.positions_of(rows).astype(np.float64) * state.interval


def evaluate_round(state: RoundState, round_id: int) -> RoundArrays:
    """One measurement round over ``state`` (pure array passes).

    Module-level so process-pool workers can evaluate pickled shard
    states with the very code the in-process engine runs.
    """
    cfg = state.host_config
    n = state.rows
    responds = state.stable & (
        _round_draw(state, _hosts._CHURN_SALT, round_id) >= cfg.churn_probability
    )

    # Site selection with per-round flips.
    flip_draw = _round_draw(state, _instability._FLIP_SALT, round_id)
    has_alternate = state.alternate >= 0
    flips = has_alternate & (
        (state.participates & (flip_draw < state.flip_config.flipper_flip_probability))
        | (~state.flipper & (flip_draw < state.flip_config.background_flip_probability))
    )
    site = np.where(flips, state.alternate, state.base)
    delivered = responds & (site >= 0)

    # Reply counts (duplicates).
    tail = _round_draw(state, _hosts._DUPN_SALT, round_id)
    heavy = tail < cfg.heavy_duplicate_fraction
    counts = np.ones(n, dtype=np.int64)
    counts[state.duplicator & ~heavy] = 2
    heaviness = tail / cfg.heavy_duplicate_fraction
    heavy_counts = 3 + ((cfg.max_duplicates - 3) * heaviness).astype(np.int64)
    counts = np.where(state.duplicator & heavy, heavy_counts, counts)
    counts = np.where(delivered, counts, 0)

    # First-reply delay (milliseconds), mirroring the dataplane.
    latency_draw = _round_draw(state, _hosts._LATENCY_SALT, round_id)
    late_replier = (
        _round_draw(state, _hosts._LATE_SALT, round_id) < cfg.late_fraction
    )
    host_delay = np.where(
        late_replier,
        cfg.late_threshold_ms * (1.0 + 4.0 * latency_draw),
        10.0 + 390.0 * latency_draw,
    )
    jitter = state.jitter_scale * _round_draw(state, _latency._JITTER_SALT, round_id)
    site_clamped = np.clip(site, 0, len(state.site_codes) - 1)
    path_delay = (
        state.site_rtt[site_clamped, np.arange(n)] + state.access + jitter
    )
    use_path = state.lat_ok & ~late_replier & (site >= 0)
    delay = np.where(use_path, path_delay, host_delay)

    # Cleaning: how many of each block's replies beat the cut-off?
    offsets = send_offsets(state, round_id)
    first_rel = offsets + delay / 1000.0
    dup_gap = 0.1 / 1000.0  # duplicates trail by 0.1 ms
    within = np.floor((state.late_cutoff - first_rel) / dup_gap) + 1
    within = np.clip(within, 0, counts).astype(np.int64)
    within = np.where(first_rel <= state.late_cutoff, within, 0)
    within = np.where(delivered, within, 0)

    received = int(counts.sum())
    unsolicited_mask = delivered & state.off_address
    unsolicited = int(counts[unsolicited_mask].sum())
    countable = delivered & ~state.off_address
    late = int((counts[countable] - within[countable]).sum())
    kept_mask = countable & (within >= 1)
    duplicates = int((within[kept_mask] - 1).sum())
    kept = int(kept_mask.sum())

    stats = ScanStats(
        probes_sent=n,
        replies_received=received,
        wrong_round=0,
        unsolicited=unsolicited,
        late=late,
        duplicates=duplicates,
        kept=kept,
    )
    return RoundArrays(site=site, delay=delay, kept_mask=kept_mask, stats=stats)


def materialise_columnar(
    state: RoundState,
    arrays: RoundArrays,
    round_id: int,
    start_time: float,
    dataset_id: str,
) -> ScanResult:
    """Columnar ScanResult over ``state``'s block universe.

    ``state.blocks`` becomes the shared universe array of every round
    materialised from the same state, so same-universe diffs stay pure
    array compares and pickling a list of rounds serialises the
    universe once (pickle memoises the shared ndarray).
    """
    catchment = ArrayCatchmentMap(
        state.site_codes,
        state.blocks,
        np.where(arrays.kept_mask, arrays.site, np.int16(-1)).astype(np.int16),
        validate=False,
    )
    rtts = BlockValueMap(
        state.blocks[arrays.kept_mask].astype(np.int64),
        arrays.delay[arrays.kept_mask],
    )
    return ScanResult(
        dataset_id=dataset_id,
        round_id=round_id,
        start_time=start_time,
        duration_seconds=state.rows * state.interval,
        catchment=catchment,
        stats=arrays.stats,
        rtts=rtts,
    )


class FastScanEngine:
    """Vectorised equivalent of repeated wire-level ``run_scan`` calls."""

    def __init__(
        self,
        verfploeter: Verfploeter,
        routing: Optional[RoutingOutcome] = None,
        columnar: bool = True,
        observer: Optional[Observer] = None,
    ) -> None:
        self.verfploeter = verfploeter
        self.observer = (
            observer if observer is not None else verfploeter.observer
        )
        self.routing = routing if routing is not None else verfploeter.routing_for()
        self.columnar = columnar
        self._prober = verfploeter._prober
        with self.observer.tracer.span(
            "fastscan.precompute", columnar=columnar
        ) as span:
            with self.observer.profile("fastscan.precompute"):
                self.state = self._precompute(verfploeter)
            span.set(blocks=self.state.rows, sites=len(self.state.site_codes))
        self._external: Dict[str, str] = {}

    def externalize(self, store) -> str:
        """Persist this engine's round state through ``store``; returns
        the content fingerprint workers attach by.

        Cached per store root, so a pool running several series over one
        engine fingerprints and persists at most once.
        """
        from repro.core.tables import persist_round_state

        cached = self._external.get(store.root)
        if cached is not None:
            return cached
        with self.observer.tracer.span("fastscan.externalize") as span:
            fingerprint = persist_round_state(store, self.state)
            span.set(fingerprint=fingerprint, blocks=self.state.rows)
        self._external[store.root] = fingerprint
        return fingerprint

    def _precompute(self, verfploeter: Verfploeter) -> RoundState:
        """Build every round-invariant array (one pass per routing state)."""
        internet = verfploeter.internet
        seed = internet.seed
        host_config = internet.host_model.config
        flip_config = self.routing.flip_model.config

        hitlist = verfploeter.hitlist
        n = len(hitlist)
        blocks = np.array(hitlist.blocks, dtype=np.uint64)
        site_codes = list(self.routing.policy.site_codes)
        site_index = {code: i for i, code in enumerate(site_codes)}

        # --- per-block round-invariant state (bulk joins, no block loop) --
        # Routing facts vary per PoP, not per block: compute site / alternate /
        # flipper once per PoP (and per AS behind it), then broadcast over the
        # hitlist through the internet's columnar block table.
        pop_count = len(internet.pops)
        pop_base = np.full(pop_count, -1, dtype=np.int16)
        pop_alternate = np.full(pop_count, -1, dtype=np.int16)
        pop_flipper = np.zeros(pop_count, dtype=bool)
        for pop in internet.pops:
            site = self.routing.site_of_pop(pop)
            if site is None:
                continue
            pop_base[pop.pop_id] = site_index[site]
            pop_flipper[pop.pop_id] = internet.ases[pop.asn].flipper
            alternate = self.routing.selections[pop.asn].alternate_site
            if alternate is not None and alternate != site and alternate in site_index:
                pop_alternate[pop.pop_id] = site_index[alternate]

        table_blocks, _, table_pops = internet.block_table()
        signed_blocks = blocks.astype(np.int64)
        rows = np.searchsorted(table_blocks, signed_blocks)
        rows = np.minimum(rows, max(table_blocks.size - 1, 0))
        populated = (table_blocks.size > 0) & (table_blocks[rows] == signed_blocks)
        block_pops = np.where(populated, table_pops[rows], 0)
        base = np.where(populated, pop_base[block_pops], np.int16(-1)).astype(np.int16)
        has_site = base >= 0
        alternate = np.where(
            has_site, pop_alternate[block_pops], np.int16(-1)
        ).astype(np.int16)
        flipper = has_site & pop_flipper[block_pops]

        # Geography joins against the geo database's columnar snapshot;
        # responsiveness thresholds are per country, broadcast to blocks.
        model = internet.host_model
        columns = internet.geodb.columnar()
        geo_rows, located = internet.geodb.join(signed_blocks)
        lat = np.where(located, columns.latitudes[geo_rows], np.nan)
        lon = np.where(located, columns.longitudes[geo_rows], np.nan)
        country_thresholds = np.array(
            [model.responsiveness_for(code) for code in columns.countries],
            dtype=np.float64,
        )
        base_threshold = model.responsiveness_for(None)
        if columns.countries:
            threshold = np.where(
                located,
                country_thresholds[columns.country_index[geo_rows]],
                base_threshold,
            )
        else:
            threshold = np.full(n, base_threshold, dtype=np.float64)

        # --- round-invariant stochastic masks ----------------------------
        cfg = host_config
        stable = uniform_unit_np(seed, _hosts._STABLE_SALT, blocks) < threshold
        off_address = (
            uniform_unit_np(seed, _hosts._OFFADDR_SALT, blocks)
            < cfg.off_address_fraction
        )
        duplicator = (
            uniform_unit_np(seed, _hosts._DUP_SALT, blocks)
            < cfg.duplicate_fraction
        )
        participates = flipper & (
            uniform_unit_np(seed, _instability._PARTICIPATE_SALT, blocks)
            < flip_config.flipper_block_fraction
        )

        # Per-round draws share a round-invariant hash prefix over
        # (seed, salt, blocks); each round then needs only one array
        # mix pass to absorb the round id.
        prefixes = {
            salt: hash_prefix_np(seed, salt, blocks)
            for salt in (
                _hosts._CHURN_SALT,
                _hosts._DUPN_SALT,
                _hosts._LATENCY_SALT,
                _hosts._LATE_SALT,
                _instability._FLIP_SALT,
                _latency._JITTER_SALT,
            )
        }

        # --- latency precomputation ---------------------------------------
        lm = verfploeter.latency_model
        lat_ok = ~np.isnan(lat)
        site_rtt = np.full((len(site_codes), n), np.nan)
        lat_rad = np.radians(lat)
        lon_rad = np.radians(lon)
        for index, code in enumerate(site_codes):
            site = verfploeter.service.site(code)
            site_lat = np.radians(site.latitude)
            site_lon = np.radians(site.longitude)
            half_dlat = (site_lat - lat_rad) / 2.0
            half_dlon = (site_lon - lon_rad) / 2.0
            a = (
                np.sin(half_dlat) ** 2
                + np.cos(lat_rad) * np.cos(site_lat) * np.sin(half_dlon) ** 2
            )
            distance = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0, 1)))
            site_rtt[index] = 2.0 * lm._stretch * distance / _latency.KM_PER_MS
        access_draw = uniform_unit_np(seed, _latency._ACCESS_SALT, blocks)
        low, high = lm._access_range
        access = low + (high - low) * access_draw * access_draw

        return RoundState(
            site_codes=site_codes,
            blocks=blocks,
            base=base,
            alternate=alternate,
            flipper=flipper,
            participates=participates,
            stable=stable,
            off_address=off_address,
            duplicator=duplicator,
            prefixes=prefixes,
            site_rtt=site_rtt,
            access=access,
            lat_ok=lat_ok,
            jitter_scale=lm._jitter,
            host_config=host_config,
            flip_config=flip_config,
            late_cutoff=verfploeter.cleaning.late_cutoff_seconds,
            interval=1.0 / verfploeter.prober_config.rate_pps,
            order_parent_seed=verfploeter._prober._seed,
            n_total=n,
        )

    # -- per-round evaluation ---------------------------------------------

    def _send_offsets(self, round_id: int) -> np.ndarray:
        """Per-block send offsets of one round (the prober's schedule)."""
        return send_offsets(self.state, round_id)

    def run_scan(
        self,
        round_id: int = 0,
        start_time: float = 0.0,
        dataset_id: Optional[str] = None,
    ) -> ScanResult:
        """One vectorised measurement round (equals the wire-level scan)."""
        with self.observer.tracer.span(
            "fastscan.round", round_id=round_id
        ) as span:
            with self.observer.profile("fastscan.round"):
                result = self._evaluate_round(round_id, start_time, dataset_id)
            span.set(
                probes_sent=result.stats.probes_sent,
                replies_received=result.stats.replies_received,
                kept=result.stats.kept,
            )
        metrics = self.observer.metrics
        metrics.counter("probe.rounds_scheduled").inc()
        metrics.counter("probe.probes_sent").inc(result.stats.probes_sent)
        metrics.counter("collector.replies_received").inc(
            result.stats.replies_received
        )
        metrics.counter("cleaning.kept").inc(result.stats.kept)
        metrics.counter("cleaning.dropped", rule="wrong_round").inc(
            result.stats.wrong_round
        )
        metrics.counter("cleaning.dropped", rule="unsolicited").inc(
            result.stats.unsolicited
        )
        metrics.counter("cleaning.dropped", rule="late").inc(result.stats.late)
        metrics.counter("cleaning.dropped", rule="duplicate").inc(
            result.stats.duplicates
        )
        if self.observer.enabled:
            for code, fraction in sorted(result.catchment.fractions().items()):
                metrics.gauge("catchment.fraction", site=code).set(fraction)
        return result

    def _evaluate_round(
        self,
        round_id: int,
        start_time: float,
        dataset_id: Optional[str],
    ) -> ScanResult:
        """Evaluate one round and materialise it (columnar or reference)."""
        state = self.state
        arrays = evaluate_round(state, round_id)
        label = dataset_id or f"fast-r{round_id}"
        if self.columnar:
            return materialise_columnar(state, arrays, round_id, start_time, label)

        # Dict-backed reference materialisation (equivalence baseline).
        mapping: Dict[int, str] = {}
        rtt_dict: Dict[int, float] = {}
        kept_blocks = state.blocks[arrays.kept_mask].astype(np.int64)
        kept_sites = arrays.site[arrays.kept_mask]
        kept_delays = arrays.delay[arrays.kept_mask]
        for block, site_idx, block_delay in zip(kept_blocks, kept_sites, kept_delays):
            mapping[int(block)] = state.site_codes[site_idx]  # reprolint: disable=D110 — reference path
            rtt_dict[int(block)] = float(block_delay)  # reprolint: disable=D110 — reference path
        catchment: CatchmentMap = CatchmentMap(state.site_codes, mapping)
        return ScanResult(
            dataset_id=label,
            round_id=round_id,
            start_time=start_time,
            duration_seconds=state.rows * state.interval,
            catchment=catchment,
            stats=arrays.stats,
            rtts=rtt_dict,
        )

    def run_series(
        self,
        rounds: int,
        interval_seconds: float = 900.0,
        dataset_prefix: str = "fast-series",
        parallel: int = 1,
    ) -> List[ScanResult]:
        """A stability series, vectorised round by round.

        ``parallel`` > 1 fans the rounds out over a thread pool
        (mirroring the experiment drivers' opt-in fan-out): each round
        reads only the engine's immutable precomputed arrays, so the
        fan-out changes wall-clock time, never results.  Results keep
        round order either way.  For process-level fan-out sharded over
        the block universe, see :func:`repro.core.sharding.run_sharded_series`.
        """

        def one_round(round_id: int) -> ScanResult:
            return self.run_scan(
                round_id=round_id,
                start_time=round_id * interval_seconds,
                dataset_id=f"{dataset_prefix}-r{round_id:03d}",
            )

        with self.observer.tracer.span(
            "fastscan.series", rounds=rounds, parallel=parallel
        ):
            if parallel > 1 and rounds > 1:
                with ThreadPoolExecutor(max_workers=min(parallel, rounds)) as pool:
                    return list(pool.map(one_round, range(rounds)))
            return [one_round(round_id) for round_id in range(rounds)]
