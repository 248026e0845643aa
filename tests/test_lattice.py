"""The playbook lattice as one array program, against its per-config twin.

``evaluate_lattice`` cleans each round once on the outcome grid and
gathers every config from it (or, for lattices no larger than the grid,
cleans each config's own cells); ``evaluate_round`` cleans one
config's delivered cells.  The stacked ``pop_routes`` picks every table's
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

from repro.anycast.catchment import CatchmentMap
from repro.bgp.cache import RoutingCache
from repro.bgp.propagation import RoutingConfig, compute_lattice, compute_routes
from repro.bgp.sweep import as_columns, pop_routes
from repro.core.experiments import BROOT_PREPEND_CONFIGS, prepend_sweep, site_failure_study
from repro.core.fastscan import (
    evaluate_lattice,
    evaluate_round,
    externalize,
    outcome_grid,
    round_draws,
    route_columns,
    scan_lattice,
    site_column,
)
from repro.core.playbook import PlaybookPlanner, derive_capacities, enumerate_lattice
from repro.core.pool import ShardPool
from repro.core.scenarios import broot_like, cdn_like, nl_like, tangled_like
from repro.core.sharding import (
    ShardPlan,
    _lattice_shard_worker,
    _merge_kept,
    assert_site_loads_identical,
    sharded_lattice,
)
from repro.core.tables import TableStore
from repro.core.verfploeter import Verfploeter
from repro.load.estimator import LoadEstimate
from repro.load.weighting import UNKNOWN, SiteLoad, weight_catchment, weight_catchments
from repro.obs import Observer
from repro.traffic.attack import AttackProfile, compose_attack
from repro.traffic.logs import HOURS
from tests import catchment_model as model

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
    """Kept rows, their sites, stats and kept-row delays of every config
    equal :func:`evaluate_round` on that config alone."""
    state = verfploeter.round_state()
    routes_seq = route_columns(verfploeter, routings)
    draws, _ = round_draws(state, round_id)
    grid = outcome_grid(state, draws)
    rounds = evaluate_lattice(state, routes_seq, draws)
    assert len(rounds) == len(routes_seq)
    for routes, (rows, sites, stats) in zip(routes_seq, rounds):
        cells = evaluate_round(state, routes, draws)
        kept = cells.kept
        expected = cells.site[kept]
        assert sites.dtype == expected.dtype
        np.testing.assert_array_equal(rows, cells.rows[kept])
        np.testing.assert_array_equal(sites, expected)
        assert stats == cells.stats
        columns = np.searchsorted(draws.responders, rows)
        delays = grid.delay[routes.site_rows[sites], columns]
        assert delays.tobytes() == cells.delay[kept].tobytes()


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


def assert_catchments_identical(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.site_codes == want.site_codes
        assert got.universe.tobytes() == want.universe.tobytes()
        assert got.site_index_array.tobytes() == want.site_index_array.tobytes()


class TestScanLatticeRoundIds:
    def test_mixed_round_ids_equal_per_config_scans(self, lattice, per_config_scans):
        """Round 0 holds 13 configs (past sites + 1: the outcome grid),
        round 5 two and round 7 one (each config's own column); catchments
        and every scan counter equal one ``run_scan`` per config."""
        deployed, routings = lattice
        round_ids = [0, 5, 0, 0, 7, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0]
        routings = routings[: len(round_ids)]

        def run(scan):
            observer = Observer.collecting()
            verfploeter = Verfploeter(deployed.internet, deployed.service, observer=observer)
            catchments = scan(verfploeter, routings, round_ids)
            # Draw reuse differs by design: the lattice draws once per round id.
            document = observer.metrics.to_dict()
            counters = {
                name: value for name, value in document["counters"].items()
                if not name.startswith("fastscan.round_draws")
            }
            return catchments, document["gauges"], counters

        catchments, gauges, counters = run(scan_lattice)
        expected, expected_gauges, expected_counters = run(per_config_scans)
        assert_catchments_identical(catchments, expected)
        assert counters == expected_counters
        assert gauges == expected_gauges

    def test_one_draw_per_round_id(self, lattice):
        deployed, routings = lattice
        observer = Observer.collecting()
        verfploeter = Verfploeter(deployed.internet, deployed.service, observer=observer)
        scan_lattice(verfploeter, routings[:6], [4, 9, 4, 4, 9, 2])
        metrics = observer.metrics
        assert metrics.value_of("fastscan.round_draws.miss") == 3
        assert metrics.value_of("fastscan.round_draws.hit") == 3
        assert [span.name for span in observer.tracer.walk()].count("fastscan.lattice") == 1


@pytest.fixture(
    scope="module",
    params=[(name, seed) for name in ("broot", "tangled") for seed in (3, 17, 123)],
    ids=lambda param: f"{param[0]}-{param[1]}",
)
def deployment(request):
    name, seed = request.param
    scenario = {"broot": broot_like, "tangled": tangled_like}[name](scale="tiny", seed=seed)
    return scenario, Verfploeter(scenario.internet, scenario.service)


class TestLatticeDrivers:
    """The sweep and the failure study against one ``run_scan`` per config
    at the round ids they have always used."""

    def test_prepend_sweep_equals_per_config_scans(self, deployment, per_config_scans):
        scenario, verfploeter = deployment
        site = scenario.service.site_codes[0]
        configs = BROOT_PREPEND_CONFIGS if "LAX" in scenario.service.site_codes else [
            ("equal", {}), *((f"+{n} {site}", {site: n}) for n in range(1, 4))
        ]
        sweep = prepend_sweep(verfploeter, scenario.atlas, configs, cache=RoutingCache())
        assert [entry.label for entry in sweep] == [label for label, _ in configs]
        routings = [compute_routes(scenario.internet, entry.policy) for entry in sweep]
        expected = per_config_scans(verfploeter, routings, range(len(configs)))
        assert_catchments_identical([entry.catchment for entry in sweep], expected)
        for entry, catchment in zip(sweep, expected):
            assert entry.verfploeter_fractions == catchment.fractions()

    def test_site_failure_study_equals_per_config_scans(self, deployment, per_config_scans):
        scenario, verfploeter = deployment
        service = scenario.service
        estimate = LoadEstimate(scenario.day_load("lattice-failure-day"))
        results = site_failure_study(verfploeter, estimate, cache=RoutingCache())
        assert [result.withdrawn_site for result in results] == service.site_codes
        policies = [service.default_policy()] + [
            service.policy(withdrawn=[code]) for code in service.site_codes
        ]
        routings = [compute_routes(scenario.internet, policy) for policy in policies]
        baseline, *after = per_config_scans(
            verfploeter, routings, [0, *range(100, 100 + len(results))]
        )
        assert_catchments_identical([result.catchment for result in results], after)
        daily, peaks = weight_catchment(baseline, estimate).tables(service.site_codes)
        for result, catchment in zip(results, after):
            assert (result.baseline, result.peak_baseline) == (daily, peaks)
            assert (result.after, result.peak_after) == weight_catchment(
                catchment, estimate
            ).tables(service.site_codes)


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


def _reference_load(catchment: CatchmentMap, estimate: LoadEstimate) -> SiteLoad:
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
            CatchmentMap(
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

    @pytest.mark.parametrize("builder", [broot_like, tangled_like, nl_like, cdn_like],
                             ids=lambda builder: builder.__name__)
    def test_each_distinct_column_is_weighed_once(self, builder):
        """Configs with equal traffic-site columns share one load, and every
        config's load is the one it weighs to on its own, bit for bit."""
        scenario = builder(scale="tiny")
        verfploeter = Verfploeter(scenario.internet, scenario.service)
        entries = enumerate_lattice(scenario.service, scenario.service.site_codes[0],
                                    max_prepend=2, depth=2)
        routings, _ = compute_lattice(
            scenario.internet, [entry.policy_for(scenario.service) for entry in entries])
        catchments = scan_lattice(verfploeter, routings)
        estimate = LoadEstimate(scenario.day_load("lattice-weight-day"))
        loads = weight_catchments(catchments, estimate)
        for catchment, load in zip(catchments, loads):
            assert_site_loads_identical(load, weight_catchment(catchment, estimate))
            assert_site_loads_identical(load, _reference_load(catchment, estimate))
        columns = {(tuple(catchment.site_codes), catchment.site_indices_of(estimate.blocks).tobytes())
                   for catchment in catchments}
        assert len({id(load) for load in loads}) == len(columns)

    def test_dict_catchment_takes_the_reference_path(self, lattice):
        """A map rebuilt from a plain dict (its own universe) weighs in
        one call with a lattice map, and both equal the per-block loop."""
        verfploeter, routings = lattice
        columnar = scan_lattice(verfploeter, routings[:2])
        site_codes = columnar[1].site_codes
        as_dict = dict(columnar[1].items())
        estimate = LoadEstimate(
            tangled_like(scale="tiny", seed=3).day_load("lattice-weight-day")
        )
        mixed = weight_catchments(
            [columnar[0], CatchmentMap.from_mapping(site_codes, as_dict)], estimate
        )
        assert_site_loads_identical(
            mixed[0], weight_catchments(columnar, estimate)[0]
        )
        assert_site_loads_identical(
            mixed[1], model.site_load(site_codes, as_dict, estimate)
        )


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
            merged = site_column(state.rows, *_merge_kept(bounds, parts))
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
            attacked = max(sorted(load.site_codes), key=load.daily_of)
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
