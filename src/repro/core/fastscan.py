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
§4 cleaning arithmetic (:func:`_clean`) over the delivered cells, each
a row at the site it reached.  Two evaluators call it, chosen by what
the caller holds:

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

A round does only the work that can change its result: each draw is
made for the rows that read it, site pick and cleaning run over the
responding and delivered rows, and a probe's send offset is computed
only when its replies can straddle the late cut-off
(:attr:`RoundState.in_time_bound`) — at the paper's rate and cut-off,
for no row of a typical round.

Every stochastic draw depends only on ``(seed, salt, block, round)``,
and probe send offsets come from the global Feistel permutation
(:func:`send_offsets`), so a :meth:`RoundState.shard` slice evaluates
to exactly the rows the full state would.

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
from repro.obs import NULL_OBSERVER, Observer, Tracer
from repro.probing.prober import round_order_seed
from repro.rng import hash_prefix_np, mix64_inplace_np, mix64_np, uniform_from_prefix_np
from repro.topology import hosts as _hosts
from repro.topology.hosts import HostModelConfig

_ROUNDS = 4  # Feistel rounds; must match oracle.schedule
_DUP_GAP = 0.1 / 1000.0  # seconds a duplicate trails the reply before it


class _VectorPermutation:
    """Vectorised twin of :class:`repro.oracle.schedule.PseudorandomOrder`."""

    def __init__(self, n: int, seed: int) -> None:
        self._n = n
        self._seed = seed
        bits = max(2, (n - 1).bit_length())
        if bits % 2:
            bits += 1
        self._half_bits = bits // 2
        self._round_values: Optional[np.ndarray] = None

    def _rounds(self) -> np.ndarray:
        """``(rounds, 2 ** half_bits)`` int64: each round's function at
        every half value, ``mix64(seed ^ (half * 0x9E3779B1) ^ (round <<
        48))`` masked to a half.

        A half takes only ``2 ** half_bits`` values, so the cipher's
        every splitmix64 evaluation happens here, once per (round, half)
        and in place; a Feistel round over any number of values is then
        one gather and one XOR.
        """
        if self._round_values is None:
            halves = np.arange(1 << self._half_bits, dtype=np.uint64)
            values = np.empty((_ROUNDS, halves.size), dtype=np.uint64)
            for round_index, row in enumerate(values):
                np.multiply(halves, np.uint64(0x9E3779B1), out=row)
                row ^= np.uint64(self._seed ^ (round_index << 48))
                mix64_inplace_np(row)
            values &= np.uint64((1 << self._half_bits) - 1)
            self._round_values = values.view(np.int64)
        return self._round_values

    def _feistel(self, values: np.ndarray) -> np.ndarray:
        """The four-round Feistel network over int64 ``values``, which it
        consumes: the halves rotate through ``values`` and two more
        buffers, so a pass allocates twice."""
        rounds = self._rounds()
        left = values >> self._half_bits
        right = np.bitwise_and(values, (1 << self._half_bits) - 1, out=values)
        spare = np.empty_like(left)
        for round_index in range(_ROUNDS):
            # (left, right) <- (right, left ^ F(right))
            np.take(rounds[round_index], right, out=spare, mode="clip")
            spare ^= left
            left, right, spare = right, spare, left
        left <<= self._half_bits
        left |= right
        return left

    def permutation(self) -> np.ndarray:
        """``perm[p]`` = hitlist index probed at position ``p``.

        One Feistel pass over the whole ``4 ** half_bits`` domain gives
        the cipher as a table; cycle-walking a position that lands
        outside ``[0, n)`` applies the same bijection again, which is a
        gather through that table.
        """
        n = self._n
        table = self._feistel(np.arange(1 << (2 * self._half_bits), dtype=np.int64))
        values = table[:n].copy()
        walking = np.flatnonzero(values >= n)
        while walking.size:
            stepped = table[values[walking]]
            values[walking] = stepped
            walking = walking[stepped >= n]
        return values

    def positions_of(self, indices: np.ndarray) -> np.ndarray:
        """Schedule positions of the given hitlist ``indices``: the
        inverse of :meth:`permutation`, read from the whole permutation
        inverted at once."""
        n = self._n
        indices = np.asarray(indices, dtype=np.int64)
        if ((indices < 0) | (indices >= n)).any():
            raise ConfigurationError("permutation input outside [0, n)")
        positions = np.empty(n, dtype=np.int64)
        positions[self.permutation()] = np.arange(n)
        return positions[indices]


class RoundDraws(NamedTuple):
    """The routing-independent part of one evaluated round: pure functions
    of ``(seed, salt, block, round)``, shared by every routing state
    scanned at that round id.  Immutable, its arrays read-only.

    A draw is made only for the rows that read it: churn for stable rows,
    the duplicate tail for responding duplicators, everything else for
    the responding rows, which are the only rows the columns below hold
    (one entry per ``responders`` row, in row order).  Send offsets are
    not drawn here: :func:`_straddling` asks for those of the few rows
    whose replies can straddle the cut-off.
    """

    round_id: int
    responders: np.ndarray  # intp rows that are stable and not churned out
    flip_draw: np.ndarray  # float64 uniform deciding per-round flips
    counts: np.ndarray  # int64 replies the probe draws (one or more)
    late_replier: np.ndarray  # bool
    host_delay: np.ndarray  # float64 ms, delay when no path delay applies
    jitter: np.ndarray  # float64 ms


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

    @property
    def in_time_bound(self) -> float:
        """Largest first-reply delay (seconds after the send) whose every
        reply beats the cut-off, wherever in the round the probe is sent.

        The last probe leaves ``(n_total - 1) * interval`` after round
        start and a burst's last duplicate trails its first reply by
        under ``max_duplicates * 0.1`` ms; one more gap, plus a few ulps
        of the sum, absorbs the float rounding of the cleaning
        arithmetic.  A delay above ``late_cutoff`` is late from any
        offset, so only a row whose delay falls between the two needs
        its send offset.
        """
        last_send = (self.n_total - 1) * self.interval
        slack = (self.host_config.max_duplicates + 1) * _DUP_GAP
        return (
            self.late_cutoff - last_send - slack
            - 8 * float(np.spacing(self.late_cutoff + last_send))
        )

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


def send_offsets(
    state: RoundState, round_id: int, rows: Optional[np.ndarray] = None
) -> np.ndarray:
    """Seconds after round start each probe of ``rows`` (indexes into
    this state; default every row) is sent.

    The permutation always spans the *full* ``n_total`` domain — shard
    boundaries must not change anyone's schedule position.  No rows cost
    nothing; any number inverts the whole permutation once.
    """
    if rows is None:
        rows = np.arange(state.rows)
    if not rows.size:
        return np.zeros(0)
    perm = _VectorPermutation(
        state.n_total, round_order_seed(state.order_parent_seed, round_id)
    )
    return perm.positions_of(state.row_start + rows).astype(np.float64) * state.interval


def round_draws(state: RoundState, round_id: int) -> Tuple[RoundDraws, bool]:
    """``state``'s draws for ``round_id`` and whether the slot held them.

    One slot: a sweep over routing states at one round id draws once, a
    series over round ids holds one round at a time (the stale one is
    released before the next is built).  Read once and assigned once, so
    concurrent callers at worst draw a round each — never see half of
    one.  Each draw depends only on its own row, so drawing a subset is
    bit-equal to drawing every row and keeping that subset.
    """
    draws = state._draws
    if draws is not None and draws.round_id == round_id:
        return draws, True
    state._draws = draws = None
    cfg = state.host_config

    def draw(salt: int, rows: np.ndarray) -> np.ndarray:
        """This round's uniform draw for ``rows`` (their prefixes finished)."""
        return uniform_from_prefix_np(state.prefixes[salt][rows], round_id)

    stable = np.flatnonzero(state.stable)
    responders = stable[draw(_hosts._CHURN_SALT, stable) >= cfg.churn_probability]

    # Reply counts: one, or a duplicator's two or heavy tail.
    counts = np.ones(responders.size, dtype=np.int64)
    duplicators = np.flatnonzero(state.duplicator[responders])
    tail = draw(_hosts._DUPN_SALT, responders[duplicators])
    heaviness = tail / cfg.heavy_duplicate_fraction
    counts[duplicators] = np.where(
        tail < cfg.heavy_duplicate_fraction,
        3 + ((cfg.max_duplicates - 3) * heaviness).astype(np.int64),
        2,
    )

    # Host-side delay (milliseconds), mirroring the dataplane.
    latency_draw = draw(_hosts._LATENCY_SALT, responders)
    late_replier = draw(_hosts._LATE_SALT, responders) < cfg.late_fraction
    host_delay = np.where(
        late_replier,
        cfg.late_threshold_ms * (1.0 + 4.0 * latency_draw),
        10.0 + 390.0 * latency_draw,
    )
    jitter = state.jitter_scale * draw(_latency._JITTER_SALT, responders)
    draws = RoundDraws(
        round_id, responders, draw(_instability._FLIP_SALT, responders), counts,
        late_replier, host_delay, jitter,
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
    """§4 cleaning outcome per cell: a delivered row at the site it
    reached (:func:`_clean`), or every cell of :func:`outcome_grid`."""

    delay: np.ndarray  # float64 first-reply delay (ms)
    counts: np.ndarray  # int64 replies delivered, before cleaning
    kept: np.ndarray  # bool: the row survives cleaning
    late: np.ndarray  # int64 countable replies past the cut-off
    duplicates: np.ndarray  # int64 in-time replies after a kept row's first


class _Delivered(NamedTuple):
    """The delivered cells of a round: each a row at the site it reached."""

    responders: np.ndarray  # intp index of each cell's row in the draws' columns
    rows: np.ndarray  # intp row of each cell
    delay: np.ndarray  # float64 first-reply delay (ms)
    first: np.ndarray  # float64 the same, in seconds (as the cut-off compares it)


def _route_sites(state: RoundState, routes: RouteColumns, draws: RoundDraws) -> np.ndarray:
    """Site index of each responding row (a silent row reaches no site)
    this round: its PoP's base site, or its alternate where the block
    flips; -1 where unrouted."""
    rows = draws.responders
    pops = state.block_pops[rows]
    return _instability.flip_sites(
        routes.pop_base[pops], routes.pop_alternate[pops], routes.pop_flipper[pops],
        state.participate_draw[rows], draws.flip_draw, _instability.FLIP_RATES,
    )


def _deliver(
    state: RoundState,
    draws: RoundDraws,
    responders: np.ndarray,
    rows: np.ndarray,
    path_rtt: np.ndarray,
) -> _Delivered:
    """First-reply delays of the delivered cells — ``responders`` indexing
    the draws' columns, ``rows`` the state's — given the RTT (ms) to the
    site each reached, mirroring the dataplane."""
    use_path = state.lat_ok[rows] & ~draws.late_replier[responders]
    path_rtt += state.access[rows]
    path_rtt += draws.jitter[responders]
    delay = np.where(use_path, path_rtt, draws.host_delay[responders])
    return _Delivered(responders, rows, delay, delay / 1000.0)


def _straddling(
    state: RoundState, round_id: int, delivered: _Delivered
) -> Tuple[np.ndarray, np.ndarray]:
    """The delivered cells whose replies can straddle the cut-off (their
    first-reply delay above :attr:`RoundState.in_time_bound`, not above
    ``late_cutoff``), and their first replies' arrival after round start
    (seconds): the only cells whose send offset can change the outcome."""
    first = delivered.first
    window = np.flatnonzero((first > state.in_time_bound) & (first <= state.late_cutoff))
    offsets = send_offsets(state, round_id, delivered.rows[window])
    return window, offsets + first[window]


def _clean(
    state: RoundState,
    draws: RoundDraws,
    delivered: _Delivered,
    window: np.ndarray,
    first_rel: np.ndarray,
) -> Cleaned:
    """§4 cleaning of the delivered cells, one entry per cell.

    Every reply of a cell at or below :attr:`RoundState.in_time_bound`
    beats the cut-off and none of one above ``late_cutoff`` does,
    whatever its offset; only the ``window`` cells of
    :func:`_straddling`, first replies ``first_rel`` seconds after round
    start, count their in-time replies one by one.
    """
    rows = delivered.rows
    counts = draws.counts[delivered.responders]
    within = np.where(delivered.first <= state.in_time_bound, counts, 0)
    straddling = np.floor((state.late_cutoff - first_rel) / _DUP_GAP) + 1
    straddling = np.clip(straddling, 0, counts[window]).astype(np.int64)
    within[window] = np.where(first_rel <= state.late_cutoff, straddling, 0)

    countable = ~state.off_address[rows]
    kept = countable & (within >= 1)
    return Cleaned(
        delay=delivered.delay,
        counts=counts,
        kept=kept,
        late=np.where(countable, counts - within, 0),
        duplicates=np.where(kept, within - 1, 0),
    )


def evaluate_round(
    state: RoundState,
    routes: RouteColumns,
    draws: RoundDraws,
    tracer: Tracer = NULL_OBSERVER.tracer,
) -> RoundArrays:
    """One measurement round of ``routes`` over ``state`` (pure array passes).

    Module-level so process-pool workers evaluate attached shard states
    with the very code the in-process engine runs.  Only delivered rows
    are cleaned; every other row reads no replies, not kept.  ``tracer``
    gets the ``fastscan.evaluate``, ``fastscan.offsets`` and
    ``fastscan.clean`` spans.
    """
    n = state.rows
    with tracer.span("fastscan.evaluate"):
        reached = _route_sites(state, routes, draws)
        routed = np.flatnonzero(reached >= 0)
        reached = reached[routed]
        rows = draws.responders[routed]
        path_rtt = state.site_rtt[routes.site_rows[reached], rows]
        delivered = _deliver(state, draws, routed, rows, path_rtt)
        site = np.full(n, -1, dtype=np.int16)
        site[rows] = reached
    with tracer.span("fastscan.offsets") as span:
        window, first_rel = _straddling(state, draws.round_id, delivered)
        span.set(rows=int(window.size))
    with tracer.span("fastscan.clean"):
        cleaned = _clean(state, draws, delivered, window, first_rel)
        counts = np.zeros(n, dtype=np.int64)
        counts[rows] = cleaned.counts
        delay = np.zeros(n)
        delay[rows] = cleaned.delay
        kept = np.zeros(n, dtype=bool)
        kept[rows] = cleaned.kept
        stats = ScanStats(
            probes_sent=n,
            replies_received=int(cleaned.counts.sum()),
            wrong_round=0,
            unsolicited=int(cleaned.counts[state.off_address[rows]].sum()),
            late=int(cleaned.late.sum()),
            duplicates=int(cleaned.duplicates.sum()),
            kept=int(np.count_nonzero(cleaned.kept)),
        )
    return RoundArrays(site=site, delay=delay, kept_mask=kept, counts=counts, stats=stats)


def outcome_grid(state: RoundState, draws: RoundDraws) -> Cleaned:
    """Every row's cleaned outcome at every service site (grid row =
    ``RoundState.site_rtt`` row) and, in the last grid row, unrouted:
    only the responding rows at a site are cleaned, every other cell
    reads no replies, not kept."""
    sites, n = state.site_rtt.shape
    responders = draws.responders.size
    cells = (np.repeat(np.arange(sites), responders), np.tile(draws.responders, sites))
    delivered = _deliver(
        state, draws, np.tile(np.arange(responders), sites), cells[1], state.site_rtt[cells]
    )
    window, first_rel = _straddling(state, draws.round_id, delivered)
    cleaned = _clean(state, draws, delivered, window, first_rel)
    grid = []
    for values in cleaned:
        full = np.zeros((sites + 1, n), dtype=values.dtype)
        full[cells] = values
        grid.append(full)
    return Cleaned(*grid)


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
    received_grid = grid.counts.ravel()
    unsolicited_grid = np.where(state.off_address, grid.counts, 0).ravel()
    # A silent row's cells are all zeros: only the responding rows gather.
    responders = draws.responders
    rounds = []
    for routes in routes_seq:
        site = _route_sites(state, routes, draws)
        # Site index -> first grid cell of its row; index -1 lands on
        # the trailing "unrouted" row, all zeros.
        row_starts = np.append(routes.site_rows, unrouted) * n
        flat = row_starts[site.astype(np.intp)] + responders
        kept = kept_grid[flat]
        stats = ScanStats(
            probes_sent=n,
            replies_received=int(received_grid[flat].sum()),
            wrong_round=0,
            unsolicited=int(unsolicited_grid[flat].sum()),
            late=int(late_grid[flat].sum()),
            duplicates=int(duplicates_grid[flat].sum()),
            kept=int(np.count_nonzero(kept)),
        )
        # The site where kept, else -1: arithmetic, as a where on a mask
        # this irregular mispredicts its way to 10x slower.
        sites = np.full(n, -1, dtype=np.int16)
        sites[responders] = (site + 1) * kept - 1
        rounds.append(ConfigRound(sites, stats))
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
    cos_lat = np.cos(lat_rad)
    for index, site in enumerate(sites):
        site_lat = np.radians(site.latitude)
        site_lon = np.radians(site.longitude)
        half_dlat = (site_lat - lat_rad) / 2.0
        half_dlon = (site_lon - lon_rad) / 2.0
        a = (
            np.sin(half_dlat) ** 2
            + cos_lat * np.cos(site_lat) * np.sin(half_dlon) ** 2
        )
        distance = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0, 1)))
        site_rtt[index] = 2.0 * lm._stretch * distance / _latency.KM_PER_MS
    low, high = lm._access_range

    # Every per-block draw absorbs the block's mix; it is mixed once.
    block_mix = mix64_np(blocks)

    def prefix(salt: int) -> np.ndarray:
        """``hash_prefix_np(seed, salt, blocks)``, over the shared block mix."""
        return mix64_inplace_np(hash_prefix_np(seed, salt) ^ block_mix)

    def unit(salt: int) -> np.ndarray:
        """One round-invariant uniform draw per block (``uniform_unit_np``)."""
        return uniform_from_prefix_np(prefix(salt))

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
            salt: prefix(salt)
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
        state, tracer = self.state, self.observer.tracer
        with tracer.span("fastscan.draws"):
            draws, hit = round_draws(state, round_id)
        count_draws(self.observer, hit)
        arrays = evaluate_round(state, self.routes, draws, tracer)
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
