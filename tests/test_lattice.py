"""The playbook lattice as one array program, against its per-config twin.

``evaluate_lattice`` cleans each round once on the outcome grid and
gathers every config from it (or, for lattices no larger than the grid,
cleans each config's own column); ``evaluate_round`` cleans one
config's own column.  The stacked ``pop_routes`` picks every table's
PoP sites in one weighted pick; ``weight_catchments`` joins the traffic once and
sums each hour in one ``bincount`` pass.  Each is held bit-equal to the
per-config path it replaces, and the planner's pooled lattice to its
in-process one.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anycast.catchment import ArrayCatchmentMap, CatchmentMap
from repro.bgp.cache import RoutingCache
from repro.bgp.propagation import RoutingConfig, compute_lattice, compute_routes
from repro.bgp.sweep import as_columns, pop_routes
from repro.core.fastscan import (
    evaluate_lattice,
    evaluate_round,
    externalize,
    outcome_grid,
    round_draws,
    route_columns,
    scan_lattice,
)
from repro.core.playbook import PlaybookPlanner, derive_capacities, enumerate_lattice
from repro.core.pool import ShardPool
from repro.core.scenarios import tangled_like
from repro.core.sharding import (
    ShardPlan,
    _lattice_shard_worker,
    _merge_sites,
    assert_site_loads_identical,
    sharded_lattice,
)
from repro.core.tables import TableStore
from repro.core.verfploeter import Verfploeter
from repro.load.estimator import LoadEstimate
from repro.load.weighting import UNKNOWN, SiteLoad, weight_catchments
from repro.traffic.attack import AttackProfile, compose_attack
from repro.traffic.logs import HOURS

_SCENARIOS: dict = {}


def _tangled(seed: int):
    """One tiny tangled scenario and deployment per seed."""
    if seed not in _SCENARIOS:
        scenario = tangled_like(scale="tiny", seed=seed)
        _SCENARIOS[seed] = (scenario, Verfploeter(scenario.internet, scenario.service))
    return _SCENARIOS[seed]


@pytest.fixture(scope="module", params=[3, 17, 123])
def lattice(request):
    """The whole depth-2 lattice of one seed, routed in one call."""
    scenario, verfploeter = _tangled(request.param)
    entries = enumerate_lattice(scenario.service, scenario.service.site_codes[0], depth=2)
    policies = [entry.policy_for(scenario.service) for entry in entries]
    routings, _ = compute_lattice(scenario.internet, policies)
    return verfploeter, routings


def assert_lattice_equals_rounds(verfploeter, routings, round_id):
    """Kept sites, stats and kept-row delays of every config equal
    :func:`evaluate_round` on that config alone."""
    state = verfploeter.round_state()
    routes_seq = route_columns(verfploeter, routings)
    draws, _ = round_draws(state, round_id)
    grid = outcome_grid(state, draws)
    rounds = evaluate_lattice(state, routes_seq, draws)
    assert len(rounds) == len(routes_seq)
    for routes, (sites, stats) in zip(routes_seq, rounds):
        arrays = evaluate_round(state, routes, draws)
        kept = arrays.kept_mask
        expected = np.where(kept, arrays.site, np.int16(-1))
        assert sites.dtype == expected.dtype
        np.testing.assert_array_equal(sites, expected)
        assert stats == arrays.stats
        rows = np.flatnonzero(kept)
        delays = grid.delay[routes.site_rows[arrays.site[rows]], rows]
        assert delays.tobytes() == arrays.delay[kept].tobytes()


class TestEvaluateLattice:
    @pytest.mark.parametrize("round_id", [0, 5])
    def test_depth_two_lattice_equals_each_round(self, lattice, round_id):
        verfploeter, routings = lattice
        assert_lattice_equals_rounds(verfploeter, routings, round_id)

    @pytest.mark.parametrize("configs", [1, 10, 11])
    def test_either_side_of_the_grid_size(self, lattice, configs):
        """Up to sites + 1 (10) configs clean one by one, past it on the grid."""
        verfploeter, routings = lattice
        assert verfploeter.round_state().site_rtt.shape[0] + 1 == 10
        assert_lattice_equals_rounds(verfploeter, routings[:configs], 3)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.sampled_from([3, 17, 123]),
        policies=st.lists(
            st.tuples(
                st.lists(st.integers(min_value=0, max_value=3), min_size=9, max_size=9),
                st.sets(st.integers(min_value=0, max_value=8), max_size=7),
            ),
            min_size=1,
            max_size=14,
        ),
        round_id=st.integers(min_value=0, max_value=20),
    )
    def test_generated_policy_sets(self, seed, policies, round_id):
        """Withdrawals routed on their own carry narrower near columns,
        so the stacked pick pads them."""
        scenario, verfploeter = _tangled(seed)
        codes = scenario.service.site_codes
        routings = [
            compute_routes(
                scenario.internet,
                scenario.service.policy(
                    prepends={code: count for code, count in zip(codes, prepends) if count},
                    withdrawn=[codes[i] for i in sorted(withdrawn)],
                ),
            )
            for prepends, withdrawn in policies
        ]
        assert_lattice_equals_rounds(verfploeter, routings, round_id)


class TestStackedPopRoutes:
    def test_stacked_equals_one_table_at_a_time(self, lattice):
        verfploeter, routings = lattice
        internet = verfploeter.internet
        service = verfploeter.service
        alone = [
            compute_routes(internet, service.policy(withdrawn=[code])).table
            for code in service.site_codes[:3]
        ]
        # A wide slack widens the near dtype: the stack promotes it.
        wide = compute_routes(
            internet, service.default_policy(), config=RoutingConfig(pop_slack=200)
        ).table
        assert wide.near.dtype != routings[0].table.near.dtype
        tables = [routing.table for routing in routings[:10]] + alone + [wide]
        columns = as_columns(internet)
        stacked = pop_routes(columns, tables)
        for table, pops in zip(tables, stacked):
            (single,) = pop_routes(columns, [table])
            for actual, expected in zip(pops, single):
                assert actual.dtype == expected.dtype
                np.testing.assert_array_equal(actual, expected)


def _reference_load(catchment: ArrayCatchmentMap, estimate: LoadEstimate) -> SiteLoad:
    """One ``bincount`` per hour column, as the join summed before."""
    codes = catchment.site_codes
    unknown = len(codes)
    indices = catchment.site_indices_of(estimate.blocks).astype(np.int64)
    buckets = np.where(indices >= 0, indices, unknown)
    daily = np.bincount(
        buckets, weights=estimate.source.daily_of_kind(estimate.kind), minlength=unknown + 1
    )
    matrix = estimate.hourly_matrix()
    hourly = np.zeros((unknown + 1, HOURS))
    for hour in range(HOURS):
        hourly[:, hour] = np.bincount(buckets, weights=matrix[:, hour], minlength=unknown + 1)
    return SiteLoad(
        codes,
        {**{code: float(daily[i]) for i, code in enumerate(codes)}, UNKNOWN: float(daily[unknown])},
        {**{code: hourly[i] for i, code in enumerate(codes)}, UNKNOWN: hourly[unknown]},
    )


class TestWeightCatchments:
    def test_equals_per_catchment_hourly_passes(self, lattice):
        verfploeter, routings = lattice
        catchments = scan_lattice(verfploeter, routings)
        # A second universe (one scan's mapped blocks only) joins apart.
        other = catchments[0]
        catchments.append(
            ArrayCatchmentMap(
                other.site_codes,
                other.universe[other.site_index_array >= 0],
                other.site_index_array[other.site_index_array >= 0],
            )
        )
        estimate = LoadEstimate(
            tangled_like(scale="tiny", seed=3).day_load("lattice-weight-day")
        )
        loads = weight_catchments(catchments, estimate)
        assert len(loads) == len(catchments)
        for catchment, load in zip(catchments, loads):
            assert_site_loads_identical(load, _reference_load(catchment, estimate))

    def test_dict_catchment_takes_the_reference_path(self, lattice):
        verfploeter, routings = lattice
        columnar = scan_lattice(verfploeter, routings[:2])
        as_dict = CatchmentMap(columnar[1].site_codes, dict(columnar[1].items()))
        estimate = LoadEstimate(
            tangled_like(scale="tiny", seed=3).day_load("lattice-weight-day")
        )
        mixed = weight_catchments([columnar[0], as_dict], estimate)
        for actual, expected in zip(mixed, weight_catchments(columnar, estimate)):
            assert_site_loads_identical(actual, expected)


class TestPooledLattice:
    @pytest.mark.parametrize("shards", [1, 2, 7])
    def test_shards_merge_to_in_process(self, lattice, shards, tmp_path):
        """Each shard's worker output, merged, is the in-process column."""
        verfploeter, routings = lattice
        expected = scan_lattice(verfploeter, routings)
        state = verfploeter.round_state()
        store = TableStore(root=str(tmp_path))
        fingerprint = externalize(state, store, verfploeter.observer)
        routes_seq = route_columns(verfploeter, routings)
        bounds = ShardPlan.split(state.rows, shards).bounds
        per_shard = [
            _lattice_shard_worker((store.root, fingerprint, routes_seq, start, stop, 0))
            for start, stop in bounds
        ]
        for index, want in enumerate(expected):
            parts = [shard[index] for shard in per_shard]
            merged = _merge_sites(state.rows, bounds, parts)
            np.testing.assert_array_equal(merged, want.site_index_array)

    def test_sharded_lattice_equals_in_process(self, lattice, tmp_path):
        verfploeter, routings = lattice
        expected = scan_lattice(verfploeter, routings)
        with ShardPool(workers=0, store=TableStore(root=str(tmp_path))) as pool:
            actual = sharded_lattice(verfploeter, routings, pool)
        for got, want in zip(actual, expected):
            assert got.site_codes == want.site_codes
            assert got.universe is want.universe
            np.testing.assert_array_equal(got.site_index_array, want.site_index_array)

    @pytest.mark.parametrize("workers", [0, 1])
    def test_plan_artifact_equals_in_process(self, workers, tmp_path):
        def artifact(pool) -> str:
            scenario = tangled_like(scale="tiny", seed=17)
            verfploeter = Verfploeter(scenario.internet, scenario.service)
            planner = PlaybookPlanner(verfploeter, cache=RoutingCache(maxsize=256))
            baseline = planner.catchment_for(scenario.service.default_policy())
            day = scenario.day_load("lattice-plan-day")
            load = weight_catchments([baseline], LoadEstimate(day))[0]
            attacked = max(sorted(load.peaks()), key=load.daily_of)
            profile = AttackProfile(target_site=attacked)
            attack_day, attackers = compose_attack(
                day, baseline, profile, scenario.internet.seed
            )
            return planner.plan(
                LoadEstimate(attack_day),
                attacked,
                derive_capacities(load, scenario.service.site_codes),
                depth=2,
                pool=pool,
                attack=profile,
                attacker_count=len(attackers),
            ).to_json()

        in_process = artifact(None)
        with ShardPool(workers=workers, store=TableStore(root=str(tmp_path))) as pool:
            assert artifact(pool) == in_process
