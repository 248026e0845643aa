"""Tests for the vectorised scan engine: bit-exact equivalence."""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bgp.instability import FLIP_RATES, flip_sites
from repro.collector.cleaning import CleaningConfig
from repro.collector.results import BlockValueMap
from repro.core.experiments import run_stability_series
from repro.core.fastscan import (
    FastScanEngine,
    _VectorPermutation,
    evaluate_round,
    round_draws,
    send_offsets,
)
from repro.core.scenarios import broot_like, tangled_like
from repro.core.sharding import assert_scan_results_identical, run_sharded_series
from repro.core.verfploeter import Verfploeter
from repro.errors import ConfigurationError, MeasurementError
from repro.oracle.chaos import wire_measure
from repro.oracle.scan import wire_scan
from repro.oracle.schedule import PseudorandomOrder
from repro.probing.prober import ProberConfig, round_order_seed


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


#: Sizes just above and at a power of four: one past it makes the Feistel
#: domain four times the range, the longest cycle walks there are.
_WALK_WORST = sorted({4**k + extra for k in range(1, 9) for extra in (0, 1)})


@settings(max_examples=40, deadline=None)
@given(
    n=st.one_of(st.integers(min_value=1, max_value=5000), st.sampled_from(_WALK_WORST)),
    seed=st.integers(min_value=0, max_value=(1 << 64) - 1),
)
@example(n=_WALK_WORST[-1], seed=0)
@example(n=_WALK_WORST[-2], seed=(1 << 64) - 1)
def test_vector_permutation_is_the_scalar_order(n, seed):
    """The table-walked permutation is the scalar cycle-walking Feistel,
    index for index, and ``positions_of`` inverts it."""
    perm = _VectorPermutation(n, seed)
    forward = perm.permutation()
    order = PseudorandomOrder(n, seed)
    assert forward.tolist() == [order.index(i) for i in range(n)]
    positions = perm.positions_of(np.arange(n))
    np.testing.assert_array_equal(forward[positions], np.arange(n))


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


def _full_offset_round(state, routes, draws):
    """Kept mask, kept sites, kept delays and stats of one round cleaned
    the long way: every row picked, every row's send offset, every row
    through the §4 cut-off arithmetic."""
    n = state.rows

    def column(values):
        """The responders' draws spread over every row, zero elsewhere."""
        full = np.zeros(n, dtype=values.dtype)
        full[draws.responders] = values
        return full

    pops = state.block_pops
    site = flip_sites(
        routes.pop_base[pops], routes.pop_alternate[pops], routes.pop_flipper[pops],
        state.participate_draw, column(draws.flip_draw), FLIP_RATES,
    )
    routed = site >= 0
    counts = np.where(routed, column(draws.counts), 0)
    delivered = counts > 0
    path_rtt = state.site_rtt[routes.site_rows[np.clip(site, 0, None)], np.arange(n)]
    delay = np.where(
        state.lat_ok & ~column(draws.late_replier) & routed,
        path_rtt + state.access + column(draws.jitter),
        column(draws.host_delay),
    )
    first_rel = send_offsets(state, draws.round_id) + delay / 1000.0
    within = np.floor((state.late_cutoff - first_rel) / (0.1 / 1000.0)) + 1
    within = np.clip(within, 0, counts).astype(np.int64)
    within = np.where(delivered & (first_rel <= state.late_cutoff), within, 0)
    countable = delivered & ~state.off_address
    kept = countable & (within >= 1)
    stats = (
        int(counts.sum()), int(counts[state.off_address].sum()),
        int(np.where(countable, counts - within, 0).sum()),
        int(np.where(kept, within - 1, 0).sum()), int(kept.sum()),
    )
    return kept, site[kept], delay[kept], stats


def assert_round_equals_full_offsets(state, routes, round_id):
    """:func:`evaluate_round` equals :func:`_full_offset_round`."""
    draws, _ = round_draws(state, round_id)
    cells = evaluate_round(state, routes, draws)
    kept, sites, delays, stats = _full_offset_round(state, routes, draws)
    np.testing.assert_array_equal(cells.rows[cells.kept], np.flatnonzero(kept))
    np.testing.assert_array_equal(cells.site[cells.kept], sites)
    assert cells.delay[cells.kept].tobytes() == delays.tobytes()
    got = cells.stats
    assert (got.replies_received, got.unsolicited, got.late, got.duplicates, got.kept) == stats
    return cells


@settings(max_examples=12, deadline=None)
@given(
    rate_pps=st.floats(min_value=0.5, max_value=20_000.0),
    late_cutoff=st.floats(min_value=0.01, max_value=5_000.0),
    round_id=st.integers(min_value=0, max_value=1 << 16),
)
@example(rate_pps=1.0, late_cutoff=300.0, round_id=3)  # the round outlasts the cut-off
@example(rate_pps=10_000.0, late_cutoff=0.2, round_id=1)  # cut-off inside the RTTs
@example(rate_pps=2.0, late_cutoff=1_000.0, round_id=5)  # late repliers straddle it
@example(rate_pps=10_000.0, late_cutoff=900.0, round_id=0)  # the paper's setting
def test_offsets_only_where_they_matter(rate_pps, late_cutoff, round_id):
    """Whatever the rate, cut-off and round, the engine — offsets only for
    the rows whose replies can straddle the cut-off — equals the
    full-offset computation and the wire oracle."""
    scenario, default = _engine("broot", 7)
    verfploeter = Verfploeter(
        scenario.internet, scenario.service, hitlist=default.verfploeter.hitlist
    )
    verfploeter.cleaning = CleaningConfig(late_cutoff_seconds=late_cutoff)
    verfploeter.prober_config = ProberConfig(
        source_address=scenario.service.measurement_address, rate_pps=rate_pps
    )
    engine = FastScanEngine(verfploeter, default.routing)
    assert_round_equals_full_offsets(engine.state, engine.routes, round_id)
    fast = engine.run_scan(round_id=round_id)
    wire = wire_scan(verfploeter, default.routing, round_id=round_id)
    assert dict(fast.catchment.items()) == dict(wire.catchment.items())
    assert fast.stats == wire.stats
    assert set(fast.rtts) == set(wire.rtts)
    for block, rtt in wire.rtts.items():
        assert math.isclose(fast.rtts[block], rtt, rel_tol=1e-9)


@settings(max_examples=15, deadline=None)
@given(
    data=st.data(),
    rate_pps=st.floats(min_value=0.5, max_value=1.0),
    round_id=st.integers(min_value=0, max_value=1 << 16),
)
def test_a_shard_evaluates_to_the_full_rounds_cells(data, rate_pps, round_id):
    """:func:`evaluate_round` on ``state.shard(a, b)`` returns exactly the
    full round's cells with rows in [a, b), shifted by ``a``, field by
    field — at a rate so low that delivered rows straddle the cut-off, so
    their send offsets (from the global permutation) decide them."""
    scenario, default = _engine("broot", 7)
    verfploeter = Verfploeter(
        scenario.internet, scenario.service, hitlist=default.verfploeter.hitlist
    )
    verfploeter.prober_config = ProberConfig(
        source_address=scenario.service.measurement_address, rate_pps=rate_pps
    )
    engine = FastScanEngine(verfploeter, default.routing)
    state, routes = engine.state, engine.routes
    full = evaluate_round(state, routes, round_draws(state, round_id)[0])
    first = full.delay / 1000.0
    assert ((first > state.in_time_bound) & (first <= state.late_cutoff)).any()
    start = data.draw(st.integers(min_value=0, max_value=state.rows - 1), label="start")
    stop = data.draw(st.integers(min_value=start + 1, max_value=state.rows), label="stop")
    shard = state.shard(start, stop)
    cells = evaluate_round(shard, routes, round_draws(shard, round_id)[0])
    inside = (full.rows >= start) & (full.rows < stop)
    np.testing.assert_array_equal(cells.rows, full.rows[inside] - start)
    for name in ("site", "delay", "counts", "kept"):
        got, want = getattr(cells, name), getattr(full, name)[inside]
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


def test_late_replier_on_the_cutoff_at_offset_zero_is_kept():
    """The bound's exact edge: a late replier whose first reply lands on
    the cut-off itself, probed first in its round, is kept."""
    _, engine = _engine("broot", 7)
    state, round_id = engine.state, 2
    draws, _ = round_draws(state, round_id)
    cells = evaluate_round(state, engine.routes, draws)
    candidates = np.zeros(state.rows, dtype=bool)
    candidates[draws.responders[draws.late_replier]] = True
    delivered = np.zeros(state.rows, dtype=bool)
    delivered[cells.rows[cells.counts > 0]] = True
    candidates &= delivered & ~state.off_address
    # An order seed that probes such a row first, and that row's delay as
    # the cut-off.
    parent, row = next(
        (seed, first) for seed in itertools.count()
        for first in [int(
            _VectorPermutation(state.n_total, round_order_seed(seed, round_id)).permutation()[0]
        )]
        if candidates[first]
    )
    delay = draws.host_delay[np.searchsorted(draws.responders, row)]
    edge = dataclasses.replace(state, late_cutoff=delay / 1000.0, order_parent_seed=parent)
    assert send_offsets(edge, round_id, np.array([row]))[0] == 0.0
    cells = assert_round_equals_full_offsets(edge, engine.routes, round_id)
    assert row in cells.rows[cells.kept]
