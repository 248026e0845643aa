"""Vectorised scan engine — what every default scan runs on.

Replays the wire-level oracle :func:`repro.oracle.scan.wire_scan` with
numpy over all blocks at once — bit-exact (same hash draws, same
cleaning rules, same RTTs), asserted by the equivalence tests — at ~100x
the speed.  ``Verfploeter.run_scan`` dispatches here for every call
(one engine memoised per routing state,
:meth:`Verfploeter.engine_for`): the paper's 96-round day over millions
of blocks is a pure Python non-starter, but perfectly tractable
vectorised.

Precomputed state comes in two halves.  What routing cannot change —
permutation domain, block -> PoP join, stable responders, geography,
RTTs to every service site — is a :class:`RoundState`, built columnar
(``searchsorted`` joins, no per-block Python loop) once per deployment
and shared read-only by every engine on it; it memoises the
routing-independent draws of its last round (:func:`round_draws`).  A
routing state adds a :class:`RouteColumns`: routing facts vary per PoP,
so they are computed once per PoP and broadcast at evaluation time.

Round evaluation is module-level pure functions over the two halves, so
the same code path serves both the in-process engine and the
multiprocess shard workers in :mod:`repro.core.sharding` — bit-identity
between the two is by construction, not by parallel maintenance of two
implementations.  A round is site selection (:func:`_route_sites`:
each row's base site, or its alternate where it flips) followed by the
§4 cleaning arithmetic (:func:`_clean`), which takes site rows of any
leading shape.  Two evaluators call it, chosen by what the caller holds:

* :func:`evaluate_round` cleans one routing state's own (n,) column.
  A stability series draws a new round per call, so this is its path.
* :func:`evaluate_lattice` serves many routing states at one round id
  (each round-id group of :func:`scan_lattice`: a playbook lattice, a
  prepend sweep, a site-failure study).  Within a round a row's cleaned
  outcome depends only on (row, site), so it cleans once on the
  *outcome grid* — every row at every service site plus "unrouted",
  (sites + 1, n) — and each config then costs its site selection and
  three gathers (kept, late, duplicates) from the grid.  A series gains
  nothing from the grid: it would clean (sites + 1)x the rows per round.
  Nor does a lattice of at most sites + 1 configs (a playbook's
  baseline, a depth-1 search, a sweep's one config per round id):
  those clean each config's own column.

Every stochastic draw depends only on ``(seed, salt, block, round)``,
and probe send offsets are recovered per shard through the inverse of
the global Feistel permutation, so a :meth:`RoundState.shard` slice
evaluates to exactly the rows the full state would.

Results are columnar end-to-end: each round returns an
:class:`~repro.anycast.catchment.CatchmentMap` over the engine's
shared block universe plus a :class:`BlockValueMap` of RTTs, so
consumers (diffs, load weighting, stability series) stay in numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.anycast.catchment import CatchmentMap
from repro.bgp import instability as _instability
from repro.bgp.propagation import RoutingOutcome, pop_routes_of
from repro.collector.results import BlockValueMap
from repro.core.verfploeter import ScanResult, ScanStats, Verfploeter
from repro.errors import ConfigurationError, MeasurementError
from repro.geo.distance import EARTH_RADIUS_KM
from repro.icmp import latency as _latency
from repro.obs import Observer
from repro.probing.prober import round_order_seed
from repro.rng import hash_prefix_np, uniform_from_prefix_np, uniform_unit_np
from repro.topology import hosts as _hosts
from repro.topology.hosts import HostModelConfig

_ROUNDS = 4  # Feistel rounds; must match oracle.schedule


class _VectorPermutation:
    """Vectorised twin of :class:`repro.oracle.schedule.PseudorandomOrder`."""

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


class RoundDraws(NamedTuple):
    """The routing-independent part of one evaluated round: pure functions
    of ``(seed, salt, block, round)``, shared by every routing state
    scanned at that round id.  Immutable, its arrays read-only."""

    round_id: int
    responds: np.ndarray  # bool: stable and not churned out this round
    flip_draw: np.ndarray  # float64 uniform deciding per-round flips
    counts: np.ndarray  # int64 replies a delivered probe would draw
    late_replier: np.ndarray  # bool
    host_delay: np.ndarray  # float64 ms, delay when no path delay applies
    jitter: np.ndarray  # float64 ms
    offsets: np.ndarray  # float64 seconds after round start of each probe


@dataclass
class RoundState:
    """The routing-invariant half of a scan, as picklable columns.

    One row per hitlist block.  One instance serves every routing state
    a deployment scans (:meth:`Verfploeter.round_state`), so its arrays
    are read-only.  A state is either the full universe
    (``row_start == 0``, ``rows == n_total``) or a contiguous shard of
    it produced by :meth:`shard`; every per-row value in a shard is a
    slice of the full state's value, never recomputed, so shard
    evaluation is bit-identical to evaluating the same rows in-process.
    """

    blocks: np.ndarray  # uint64, strictly ascending
    block_pops: np.ndarray  # int64 PoP id; len(pops) = block outside the topology
    stable: np.ndarray  # bool
    off_address: np.ndarray  # bool
    duplicator: np.ndarray  # bool
    participate_draw: np.ndarray  # float64 uniform, thresholded per flip config
    prefixes: Dict[int, np.ndarray]  # salt -> uint64 per-block hash prefix
    site_rtt: np.ndarray  # (every service site, rows) float64 milliseconds
    access: np.ndarray  # float64 milliseconds
    lat_ok: np.ndarray  # bool
    jitter_scale: float
    host_config: HostModelConfig
    late_cutoff: float  # seconds
    interval: float  # seconds between probes
    order_parent_seed: int
    n_total: int  # permutation domain (full universe size)
    row_start: int = 0  # first hitlist index covered by this state
    #: store root -> fingerprint this state is persisted under there.
    external: Dict[str, str] = field(default_factory=dict, init=False, compare=False)
    #: One-slot memo of the last round drawn (see :func:`round_draws`).
    _draws: Optional[RoundDraws] = field(default=None, init=False, compare=False)
    #: (start, stop) -> the shard handed out for those rows.
    _shards: Dict[tuple, "RoundState"] = field(default_factory=dict, init=False, compare=False)

    @property
    def rows(self) -> int:
        """Number of blocks this state covers."""
        return int(self.blocks.size)

    def shard(self, start: int, stop: int) -> "RoundState":
        """The contiguous sub-state covering hitlist rows [start, stop).

        One object per bounds, so a shard's own draw slot outlives the
        task that asked for it (a worker's next routing state at the
        same round id draws nothing).
        """
        if not 0 <= start < stop <= self.rows:
            raise ConfigurationError(
                f"shard [{start}, {stop}) outside [0, {self.rows})"
            )
        shard = self._shards.get((start, stop))
        if shard is None:
            columns = {
                name: value[..., start:stop]
                for name, value in vars(self).items()
                if isinstance(value, np.ndarray)
            }
            shard = self._shards[(start, stop)] = replace(
                self,
                **columns,
                prefixes={s: arr[start:stop] for s, arr in self.prefixes.items()},
                row_start=self.row_start + start,
            )
        return shard


@dataclass(frozen=True)
class RouteColumns:
    """The per-routing half of a scan: O(PoPs), never O(blocks).

    Three per-PoP columns — each with a trailing sentinel entry for
    blocks outside the topology — broadcast over the rows through
    ``block_pops``, and the policy's sites as rows of the all-sites RTT
    matrix: a withdrawn site shrinks the index space, never the matrix.
    """

    site_codes: Tuple[str, ...]  # the policy's announcing sites
    site_rows: np.ndarray  # intp row of RoundState.site_rtt per site index
    pop_base: np.ndarray  # int16 site index per PoP, -1 = unrouted
    pop_alternate: np.ndarray  # int16 site index per PoP, -1 = none
    pop_flipper: np.ndarray  # bool


@dataclass
class RoundArrays:
    """One evaluated round, before materialisation into a ScanResult."""

    site: np.ndarray  # int16 replying site per row (meaningful where kept)
    delay: np.ndarray  # float64 first-reply delay (ms) per row
    kept_mask: np.ndarray  # bool: row survives cleaning
    counts: np.ndarray  # int64 replies delivered per row, before cleaning
    stats: ScanStats


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


def round_draws(state: RoundState, round_id: int) -> Tuple[RoundDraws, bool]:
    """``state``'s draws for ``round_id`` and whether the slot held them.

    One slot: a sweep over routing states at one round id draws once, a
    series over round ids holds one round at a time (the stale one is
    released before the next is built).  Read once and assigned once, so
    concurrent callers at worst draw a round each — never see half of
    one.
    """
    draws = state._draws
    if draws is not None and draws.round_id == round_id:
        return draws, True
    state._draws = draws = None
    cfg = state.host_config

    def draw(salt: int) -> np.ndarray:
        """One per-block uniform draw for this round (prefix finished)."""
        return uniform_from_prefix_np(state.prefixes[salt], round_id)

    responds = state.stable & (draw(_hosts._CHURN_SALT) >= cfg.churn_probability)
    flip_draw = draw(_instability._FLIP_SALT)

    # Reply counts (duplicates).
    tail = draw(_hosts._DUPN_SALT)
    heavy = tail < cfg.heavy_duplicate_fraction
    counts = np.ones(state.rows, dtype=np.int64)
    counts[state.duplicator & ~heavy] = 2
    heaviness = tail / cfg.heavy_duplicate_fraction
    heavy_counts = 3 + ((cfg.max_duplicates - 3) * heaviness).astype(np.int64)
    counts = np.where(state.duplicator & heavy, heavy_counts, counts)

    # Host-side delay (milliseconds), mirroring the dataplane.
    latency_draw = draw(_hosts._LATENCY_SALT)
    late_replier = draw(_hosts._LATE_SALT) < cfg.late_fraction
    host_delay = np.where(
        late_replier,
        cfg.late_threshold_ms * (1.0 + 4.0 * latency_draw),
        10.0 + 390.0 * latency_draw,
    )
    jitter = state.jitter_scale * draw(_latency._JITTER_SALT)
    draws = RoundDraws(
        round_id, responds, flip_draw, counts, late_replier, host_delay,
        jitter, send_offsets(state, round_id),
    )
    for array in draws[1:]:
        array.setflags(write=False)
    state._draws = draws
    return draws, False


class ConfigRound(NamedTuple):
    """One routing state's round in a lattice: what its catchment needs."""

    sites: np.ndarray  # int16 kept site per row, -1 where not kept
    stats: ScanStats


class Cleaned(NamedTuple):
    """Per-row §4 cleaning outcome; every array has the input's shape."""

    delay: np.ndarray  # float64 first-reply delay (ms)
    counts: np.ndarray  # int64 replies delivered, before cleaning
    kept: np.ndarray  # bool: the row survives cleaning
    late: np.ndarray  # int64 countable replies past the cut-off
    duplicates: np.ndarray  # int64 in-time replies after a kept row's first


def _route_sites(state: RoundState, routes: RouteColumns, draws: RoundDraws) -> np.ndarray:
    """Site index per row this round: the PoP's base site, or its
    alternate where the block flips (-1 = unrouted)."""
    pops = state.block_pops
    return _instability.flip_sites(
        routes.pop_base[pops], routes.pop_alternate[pops], routes.pop_flipper[pops],
        state.participate_draw, draws.flip_draw, _instability.FLIP_RATES,
    )


def _clean(
    state: RoundState, draws: RoundDraws, path_rtt: np.ndarray, routed: np.ndarray
) -> Cleaned:
    """Clean each row's replies given the site they reached.

    ``path_rtt`` is the RTT (ms) to that site and ``routed`` whether
    there is one; any leading shape broadcasts over the rows — a round's
    own (n,) column or a lattice's (sites + 1, n) outcome grid.
    """
    delivered = draws.responds & routed
    counts = np.where(delivered, draws.counts, 0)

    # First-reply delay (milliseconds), mirroring the dataplane.
    use_path = state.lat_ok & ~draws.late_replier & routed
    delay = np.where(
        use_path, path_rtt + state.access + draws.jitter, draws.host_delay
    )

    # How many of each block's replies beat the cut-off?
    first_rel = draws.offsets + delay / 1000.0
    dup_gap = 0.1 / 1000.0  # duplicates trail by 0.1 ms
    within = np.floor((state.late_cutoff - first_rel) / dup_gap) + 1
    within = np.clip(within, 0, counts).astype(np.int64)
    within = np.where(first_rel <= state.late_cutoff, within, 0)
    within = np.where(delivered, within, 0)

    countable = delivered & ~state.off_address
    kept = countable & (within >= 1)
    return Cleaned(
        delay=delay,
        counts=counts,
        kept=kept,
        late=np.where(countable, counts - within, 0),
        duplicates=np.where(kept, within - 1, 0),
    )


def evaluate_round(
    state: RoundState, routes: RouteColumns, draws: RoundDraws
) -> RoundArrays:
    """One measurement round of ``routes`` over ``state`` (pure array passes).

    Module-level so process-pool workers evaluate attached shard states
    with the very code the in-process engine runs.
    """
    n = state.rows
    site = _route_sites(state, routes, draws)
    site_clamped = np.clip(site, 0, len(routes.site_codes) - 1)
    path_rtt = state.site_rtt[routes.site_rows[site_clamped], np.arange(n)]
    cleaned = _clean(state, draws, path_rtt, site >= 0)
    counts = cleaned.counts
    stats = ScanStats(
        probes_sent=n,
        replies_received=int(counts.sum()),
        wrong_round=0,
        unsolicited=int(counts[state.off_address].sum()),
        late=int(cleaned.late.sum()),
        duplicates=int(cleaned.duplicates.sum()),
        kept=int(cleaned.kept.sum()),
    )
    return RoundArrays(
        site=site, delay=cleaned.delay, kept_mask=cleaned.kept, counts=counts,
        stats=stats,
    )


def outcome_grid(state: RoundState, draws: RoundDraws) -> Cleaned:
    """Every row's cleaned outcome at every service site (grid row =
    ``RoundState.site_rtt`` row) and, in the last grid row, unrouted."""
    sites = state.site_rtt.shape[0]
    path_rtt = np.concatenate([state.site_rtt, np.zeros((1, state.rows))])
    routed = (np.arange(sites + 1) < sites)[:, None]
    return _clean(state, draws, path_rtt, routed)


def evaluate_lattice(
    state: RoundState, routes_seq: Sequence[RouteColumns], draws: RoundDraws
) -> List[ConfigRound]:
    """One round of every routing state in ``routes_seq`` over ``state``.

    Equals :func:`evaluate_round` per config (kept sites and stats) but
    cleans once, on :func:`outcome_grid`; each config gathers from it
    one at a time, so nothing of shape (configs x rows) is ever built.
    A lattice no larger than the grid's sites + 1 rows is cheaper to
    clean config by config, so it is.
    """
    unrouted = state.site_rtt.shape[0]  # the grid's last row
    if len(routes_seq) <= unrouted + 1:
        rounds = []
        for routes in routes_seq:
            arrays = evaluate_round(state, routes, draws)
            rounds.append(ConfigRound((arrays.site + 1) * arrays.kept_mask - 1, arrays.stats))
        return rounds
    n = state.rows
    grid = outcome_grid(state, draws)
    kept_grid = grid.kept.ravel()
    late_grid = grid.late.ravel()
    duplicates_grid = grid.duplicates.ravel()
    received = np.where(draws.responds, draws.counts, 0)
    unsolicited = np.where(state.off_address, received, 0)
    columns = np.arange(n)
    rounds = []
    for routes in routes_seq:
        site = _route_sites(state, routes, draws)
        routed = site >= 0
        # Site index -> first grid cell of its row; index -1 lands on
        # the trailing "unrouted" row.
        row_starts = np.append(routes.site_rows, unrouted) * n
        flat = row_starts[site.astype(np.intp)] + columns
        kept = kept_grid[flat]
        stats = ScanStats(
            probes_sent=n,
            replies_received=int(received[routed].sum()),
            wrong_round=0,
            unsolicited=int(unsolicited[routed].sum()),
            late=int(late_grid[flat].sum()),
            duplicates=int(duplicates_grid[flat].sum()),
            kept=int(np.count_nonzero(kept)),
        )
        # The site where kept, else -1: arithmetic, as a where on a mask
        # this irregular mispredicts its way to 10x slower.
        rounds.append(ConfigRound((site + 1) * kept - 1, stats))
    return rounds


def materialise_columnar(
    state: RoundState,
    site_codes: Tuple[str, ...],
    sites: np.ndarray,
    kept_delays: np.ndarray,
    stats: ScanStats,
    round_id: int,
    start_time: float,
    dataset_id: str,
) -> ScanResult:
    """Columnar ScanResult over ``state``'s block universe.

    ``sites`` is the full-universe int16 site column, ``-1`` wherever a
    row was not kept, and ``kept_delays`` the kept rows' first-reply
    delays in row order.  The engine and the sharded merge
    (:mod:`repro.core.sharding`) both build their results here.
    ``state.blocks`` becomes the shared universe array of every round
    materialised from the same state, so same-universe diffs stay pure
    array compares and pickling a list of rounds serialises the
    universe once (pickle memoises the shared ndarray).
    """
    return ScanResult(
        dataset_id=dataset_id,
        round_id=round_id,
        start_time=start_time,
        duration_seconds=state.rows * state.interval,
        catchment=CatchmentMap(site_codes, state.blocks, sites, validate=False),
        stats=stats,
        rtts=BlockValueMap(state.blocks[sites >= 0].astype(np.int64), kept_delays),
    )


def build_round_state(verfploeter: Verfploeter) -> RoundState:
    """Build every routing-invariant column (one pass per deployment;
    callers want the memoised :meth:`Verfploeter.round_state`)."""
    internet = verfploeter.internet
    seed = internet.seed
    cfg = internet.host_model.config

    blocks = verfploeter.hitlist.blocks.astype(np.uint64)
    n = blocks.size

    # --- bulk joins, no block loop -------------------------------------
    # Block -> PoP through the internet's columnar block table; blocks
    # outside the topology point at the route columns' sentinel entry
    # (unrouted, so their responder draw is never read).
    signed_blocks = verfploeter.hitlist.blocks
    rows, populated = internet.join(signed_blocks)
    block_pops = np.where(populated, internet.block_table()[2][rows], len(internet.pops))
    stable = populated & internet.stable_mask()[rows]

    # Geography joins against the geo database's columnar snapshot.
    columns = internet.geodb.columnar()
    geo_rows, located = internet.geodb.join(signed_blocks)
    lat = np.where(located, columns.latitudes[geo_rows], np.nan)
    lon = np.where(located, columns.longitudes[geo_rows], np.nan)

    # --- latency precomputation: every service site, announcing or not --
    lm = verfploeter.latency_model
    sites = verfploeter.service.sites
    site_rtt = np.full((len(sites), n), np.nan)
    lat_rad = np.radians(lat)
    lon_rad = np.radians(lon)
    for index, site in enumerate(sites):
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
    low, high = lm._access_range

    def unit(salt: int) -> np.ndarray:
        """One round-invariant uniform draw per block."""
        return uniform_unit_np(seed, salt, blocks)

    access_draw = unit(_latency._ACCESS_SALT)
    state = RoundState(
        blocks=blocks,
        block_pops=block_pops,
        stable=stable,
        off_address=unit(_hosts._OFFADDR_SALT) < cfg.off_address_fraction,
        duplicator=unit(_hosts._DUP_SALT) < cfg.duplicate_fraction,
        participate_draw=unit(_instability._PARTICIPATE_SALT),
        # Per-round draws share a round-invariant hash prefix over (seed,
        # salt, blocks); a round then absorbs its id in one array mix pass.
        prefixes={
            salt: hash_prefix_np(seed, salt, blocks)
            for salt in (
                _hosts._CHURN_SALT,
                _hosts._DUPN_SALT,
                _hosts._LATENCY_SALT,
                _hosts._LATE_SALT,
                _instability._FLIP_SALT,
                _latency._JITTER_SALT,
            )
        },
        site_rtt=site_rtt,
        access=low + (high - low) * access_draw * access_draw,
        lat_ok=~np.isnan(lat),
        jitter_scale=lm._jitter,
        host_config=cfg,
        late_cutoff=verfploeter.cleaning.late_cutoff_seconds,
        interval=1.0 / verfploeter.prober_config.rate_pps,
        order_parent_seed=seed,
        n_total=n,
    )
    for value in (*vars(state).values(), *state.prefixes.values()):
        if isinstance(value, np.ndarray):
            value.setflags(write=False)  # every engine of the deployment shares them
    return state


def route_columns(
    verfploeter: Verfploeter, routings: Sequence[RoutingOutcome]
) -> List[RouteColumns]:
    """The per-PoP route columns of each routing state (one stacked
    weighted pick for every state whose PoP routes are not gathered yet)."""
    service_rows = {code: row for row, code in enumerate(verfploeter.service.site_codes)}
    pop_routes_of(routings)
    columns = []
    for routing in routings:
        site_codes = tuple(routing.policy.site_codes)
        pop_base, pop_alternate, pop_flipper = routing.site_columns()
        columns.append(
            RouteColumns(
                site_codes=site_codes,
                site_rows=np.array([service_rows[code] for code in site_codes], dtype=np.intp),
                pop_base=pop_base,
                pop_alternate=pop_alternate,
                pop_flipper=pop_flipper,
            )
        )
    return columns


def externalize(state: RoundState, store, observer: Observer) -> str:
    """Persist ``state`` through ``store``; returns the content
    fingerprint workers attach by.

    Memoised per store root on the state, so everything scanning one
    deployment fingerprints and persists it at most once between them.
    """
    from repro.core.tables import persist_round_state

    cached = state.external.get(store.root)
    if cached is not None:
        return cached
    with observer.tracer.span("fastscan.externalize") as span:
        fingerprint = persist_round_state(store, state)
        span.set(fingerprint=fingerprint, blocks=state.rows)
    state.external[store.root] = fingerprint
    return fingerprint


def count_draws(observer: Observer, hit: bool, rounds: int = 1) -> None:
    """Count ``rounds`` evaluations served by one :func:`round_draws`
    lookup: the first hits or misses the slot, the rest find it full."""
    metrics = observer.metrics
    hits = rounds if hit else rounds - 1
    if not hit:
        metrics.counter("fastscan.round_draws.miss").inc()
    if hits:
        metrics.counter("fastscan.round_draws.hit").inc(hits)


def record_round(observer: Observer, stats: ScanStats, catchment: CatchmentMap) -> None:
    """Count one evaluated in-process round: probes, replies, cleaning
    drops and (when collecting) each site's catchment fraction."""
    metrics = observer.metrics
    metrics.counter("probe.rounds_scheduled").inc()
    metrics.counter("probe.probes_sent").inc(stats.probes_sent)
    metrics.counter("collector.replies_received").inc(stats.replies_received)
    metrics.counter("cleaning.kept").inc(stats.kept)
    metrics.counter("cleaning.dropped", rule="wrong_round").inc(stats.wrong_round)
    metrics.counter("cleaning.dropped", rule="unsolicited").inc(stats.unsolicited)
    metrics.counter("cleaning.dropped", rule="late").inc(stats.late)
    metrics.counter("cleaning.dropped", rule="duplicate").inc(stats.duplicates)
    if observer.enabled:
        for code, fraction in sorted(catchment.fractions().items()):
            metrics.gauge("catchment.fraction", site=code).set(fraction)


def scan_lattice(
    verfploeter: Verfploeter,
    routings: Sequence[RoutingOutcome],
    round_ids: Optional[Sequence[int]] = None,
) -> List[CatchmentMap]:
    """The catchment of every routing state, each at its round id
    (default 0), evaluated in-process as one lattice.

    Configs sharing a round id form one :func:`evaluate_lattice` group,
    in order of first appearance.  Each catchment equals
    ``verfploeter.run_scan(routing=..., round_id=...).catchment``, and
    every routing state is counted as that scan would count it.
    """
    observer = verfploeter.observer
    state = verfploeter.round_state()
    if round_ids is None:
        round_ids = [0] * len(routings)
    with observer.tracer.span("fastscan.precompute", configs=len(routings)):
        routes_seq = route_columns(verfploeter, routings)
    groups: Dict[int, List[int]] = {}
    for index, round_id in enumerate(round_ids):
        groups.setdefault(round_id, []).append(index)
    rounds: Dict[int, ConfigRound] = {}
    with observer.tracer.span(
        "fastscan.lattice", configs=len(routes_seq), blocks=state.rows
    ):
        for round_id, members in groups.items():
            draws, hit = round_draws(state, round_id)
            group = [routes_seq[index] for index in members]
            rounds.update(zip(members, evaluate_lattice(state, group, draws)))
            count_draws(observer, hit, len(members))
    catchments = []
    for index, routes in enumerate(routes_seq):
        sites, stats = rounds[index]
        catchment = CatchmentMap(routes.site_codes, state.blocks, sites, validate=False)
        record_round(observer, stats, catchment)
        catchments.append(catchment)
    return catchments


class FastScanEngine:
    """Vectorised equivalent of repeated :func:`~repro.oracle.scan.wire_scan` calls."""

    def __init__(
        self,
        verfploeter: Verfploeter,
        routing: Optional[RoutingOutcome] = None,
        observer: Optional[Observer] = None,
    ) -> None:
        self.verfploeter = verfploeter
        self.observer = (
            observer if observer is not None else verfploeter.observer
        )
        self.routing = routing if routing is not None else verfploeter.routing_for()
        self.state = verfploeter.round_state()
        with self.observer.tracer.span("fastscan.precompute") as span:
            self.routes = route_columns(verfploeter, [self.routing])[0]
            span.set(blocks=self.state.rows, sites=len(self.routes.site_codes))

    def externalize(self, store) -> str:
        """Persist the deployment's round state through ``store`` (see
        :func:`externalize`); returns the fingerprint workers attach by."""
        return externalize(self.state, store, self.observer)

    # -- per-round evaluation ---------------------------------------------

    def run_scan(
        self,
        round_id: int = 0,
        start_time: float = 0.0,
        dataset_id: Optional[str] = None,
    ) -> ScanResult:
        """One vectorised measurement round (equals :func:`~repro.oracle.scan.wire_scan`)."""
        with self.observer.tracer.span(
            "fastscan.round", round_id=round_id
        ) as span:
            result = self._evaluate_round(round_id, start_time, dataset_id)
            span.set(
                probes_sent=result.stats.probes_sent,
                replies_received=result.stats.replies_received,
                kept=result.stats.kept,
            )
        record_round(self.observer, result.stats, result.catchment)
        return result

    def _evaluate_round(
        self,
        round_id: int,
        start_time: float,
        dataset_id: Optional[str],
    ) -> ScanResult:
        """Evaluate one round and materialise it."""
        state = self.state
        draws, hit = round_draws(state, round_id)
        count_draws(self.observer, hit)
        arrays = evaluate_round(state, self.routes, draws)
        kept = arrays.kept_mask
        return materialise_columnar(
            state,
            self.routes.site_codes,
            np.where(kept, arrays.site, np.int16(-1)),
            arrays.delay[kept],
            arrays.stats,
            round_id,
            start_time,
            dataset_id or f"fast-r{round_id}",
        )

    def run_series(
        self,
        rounds: int,
        interval_seconds: float = 900.0,
        dataset_prefix: str = "fast-series",
    ) -> List[ScanResult]:
        """A stability series, vectorised round by round.

        For fan-out over worker processes, sharded over the block
        universe, see :func:`repro.core.sharding.run_sharded_series`.
        """
        if rounds < 1:
            raise MeasurementError("rounds must be >= 1")
        with self.observer.tracer.span("fastscan.series", rounds=rounds):
            return [
                self.run_scan(
                    round_id=round_id,
                    start_time=round_id * interval_seconds,
                    dataset_id=f"{dataset_prefix}-r{round_id:03d}",
                )
                for round_id in range(rounds)
            ]
