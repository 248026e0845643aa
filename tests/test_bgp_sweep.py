"""Array propagation (``bgp.sweep``) against the scalar reference.

The lattice engine's contract is *column identity*: every route
column of a ``compute_lattice`` outcome — route class, path length,
primary site, pin, alternate and per-site near deltas — equals the
column ``table_from_selections`` derives from what
``_Propagator(...).run()`` builds for the same policy, however many
policies share the one propagation.  The engine's per-PoP gather is held
to the per-PoP loop it replaced, which is kept here as the reference.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.cache import RoutingCache
from repro.bgp.delta import delta_routes
from repro.bgp.propagation import (
    RoutingConfig,
    _Propagator,
    compute_lattice,
    compute_routes,
)
from repro.bgp.sweep import as_columns, table_from_selections
from repro.core.experiments import BROOT_PREPEND_CONFIGS
from repro.core.fastscan import FastScanEngine
from repro.core.playbook import enumerate_lattice
from repro.core.scenarios import broot_like, cdn_like, nl_like, tangled_like
from repro.core.verfploeter import Verfploeter
from repro.obs import Observer
from repro.topology.validate import validate_rib


def table_identity(table):
    """Every column of a route table, site indexes decoded to codes (a
    lattice indexes the sites of all its policies, one policy its own)."""
    codes = table.site_codes
    absent = np.iinfo(table.near.dtype).max

    def sites(column):
        return [None if index < 0 else codes[index] for index in column.tolist()]

    return {
        "route_class": table.route_class.tolist(),
        "path_length": table.path_length.tolist(),
        "primary": sites(table.primary),
        "pinned": table.pinned.tolist(),
        "alternate": sites(table.alternate),
        "near": [
            {codes[site]: delta for site, delta in enumerate(row) if delta != absent}
            for row in table.near.tolist()
        ],
    }


def assert_matches_reference(outcome, config=None):
    reference = _Propagator(
        outcome.internet, outcome.policy, config or RoutingConfig()
    ).run()
    expected = table_identity(
        table_from_selections(
            as_columns(outcome.internet), outcome.policy.site_codes, reference
        )
    )
    actual = table_identity(outcome.table)
    for column, values in expected.items():
        assert actual[column] == values, (
            f"{column} diverged under {outcome.policy.describe()}"
        )


def reference_pop_columns(verfploeter, routing):
    """The per-PoP loop ``FastScanEngine._precompute`` ran before the gather."""
    internet = verfploeter.internet
    site_index = {code: i for i, code in enumerate(routing.policy.site_codes)}
    size = len(internet.pops) + 1
    pop_base = np.full(size, -1, dtype=np.int16)
    pop_alternate = np.full(size, -1, dtype=np.int16)
    pop_flipper = np.zeros(size, dtype=bool)
    for pop in internet.pops:
        selection = routing.selections.get(pop.asn)
        if selection is None:
            continue
        site = selection.site_for_pop(pop.pop_id)
        pop_base[pop.pop_id] = site_index[site]
        pop_flipper[pop.pop_id] = internet.ases[pop.asn].flipper
        alternate = selection.alternate_site
        if alternate is not None and alternate != site and alternate in site_index:
            pop_alternate[pop.pop_id] = site_index[alternate]
    return pop_base, pop_alternate, pop_flipper


def assert_gather_matches_loop(verfploeter, routing):
    columns = FastScanEngine(verfploeter, routing).routes
    base, alternate, flipper = reference_pop_columns(verfploeter, routing)
    np.testing.assert_array_equal(columns.pop_base, base)
    np.testing.assert_array_equal(columns.pop_alternate, alternate)
    np.testing.assert_array_equal(columns.pop_flipper, flipper)


_SCENARIOS: dict = {}


def _tangled(seed):
    """One tiny tangled scenario per seed, built once for the hypothesis case."""
    if seed not in _SCENARIOS:
        _SCENARIOS[seed] = tangled_like(scale="tiny", seed=seed)
    return _SCENARIOS[seed]


@pytest.fixture(scope="module")
def broot():
    return broot_like(scale="tiny", seed=7)


@pytest.fixture(scope="module")
def broot_policies(broot):
    service = broot.service
    ladder = [service.policy(prepends=prepends) for _, prepends in BROOT_PREPEND_CONFIGS]
    return ladder + [service.policy(withdrawn=[site]) for site in ("LAX", "MIA")]


@pytest.fixture(scope="module")
def broot_lattice(broot, broot_policies):
    outcomes, _ = compute_lattice(broot.internet, broot_policies)
    return outcomes


@pytest.fixture(scope="module", params=[3, 17, 123])
def tangled_lattice(request):
    scenario = tangled_like(scale="tiny", seed=request.param)
    entries = enumerate_lattice(
        scenario.service, scenario.service.site_codes[0], depth=2
    )
    policies = [entry.policy_for(scenario.service) for entry in entries]
    outcomes, levels = compute_lattice(scenario.internet, policies)
    return scenario, outcomes, levels


class TestFieldIdentity:
    @pytest.mark.parametrize(
        "index",
        range(len(BROOT_PREPEND_CONFIGS) + 2),
        ids=[label for label, _ in BROOT_PREPEND_CONFIGS] + ["-LAX", "-MIA"],
    )
    def test_broot_ladder_and_withdrawals(self, broot_lattice, index):
        assert_matches_reference(broot_lattice[index])

    def test_depth_two_lattice_in_one_call(self, tangled_lattice):
        _, outcomes, levels = tangled_lattice
        assert len(outcomes) == 101
        assert levels > 0
        for outcome in outcomes:
            assert_matches_reference(outcome)

    @pytest.mark.parametrize(
        "config",
        [
            RoutingConfig(era=2),
            RoutingConfig(pop_slack=0),
            RoutingConfig(pin_probability=0.5, jitter_weights=(0.5, 0.5)),
        ],
        ids=["era", "no-slack", "pins"],
    )
    def test_routing_configs(self, broot, broot_policies, config):
        outcomes, _ = compute_lattice(broot.internet, broot_policies, config=config)
        for outcome in outcomes:
            assert_matches_reference(outcome, config)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.sampled_from([3, 17, 123, 2024]),
        prepends=st.lists(st.integers(min_value=0, max_value=3), min_size=9, max_size=9),
        withdrawn=st.sets(st.integers(min_value=0, max_value=8), max_size=7),
    )
    def test_generated_policies(self, seed, prepends, withdrawn):
        scenario = _tangled(seed)
        codes = scenario.service.site_codes
        policy = scenario.service.policy(
            prepends={code: count for code, count in zip(codes, prepends) if count},
            withdrawn=[codes[i] for i in sorted(withdrawn)],
        )
        assert_matches_reference(compute_routes(scenario.internet, policy))


class TestColumns:
    def test_every_lattice_outcome_validates(self, tangled_lattice):
        scenario, outcomes, _ = tangled_lattice
        for outcome in outcomes:
            assert validate_rib(scenario.internet, outcome).ok

    def test_gather_equals_the_per_pop_loop(self, tangled_lattice):
        scenario, outcomes, _ = tangled_lattice
        verfploeter = Verfploeter(scenario.internet, scenario.service)
        for outcome in outcomes:
            assert_gather_matches_loop(verfploeter, outcome)

    def test_delta_columns_equal_the_array(self, broot, broot_policies, broot_lattice):
        baseline = compute_routes(broot.internet, broot_policies[1])
        for policy, array in zip(broot_policies, broot_lattice):
            delta = delta_routes(baseline, policy)
            assert table_identity(delta.table) == table_identity(array.table)

    def test_gather_from_selections_equals_the_loop(self, broot, broot_policies):
        verfploeter = Verfploeter(broot.internet, broot.service)
        baseline = compute_routes(broot.internet, broot_policies[1])
        for policy in broot_policies:
            assert_gather_matches_loop(verfploeter, delta_routes(baseline, policy))


@pytest.mark.parametrize("scale", ["tiny", "small"])
@pytest.mark.parametrize("make", [broot_like, tangled_like, nl_like, cdn_like])
def test_exact_candidates_are_near(make, scale):
    """Every exact candidate has delta 0, within slack: the alternate
    pool (and its array twin) need only the near sites."""
    scenario = make(scale=scale)
    routing = compute_routes(scenario.internet, scenario.service.default_policy())
    for selection in routing.selections.values():
        assert set(selection.candidate_sites) <= set(selection.pop_sites)


class TestCacheBatch:
    def test_order_duplicates_and_accounting(self, broot, broot_policies):
        cache = RoutingCache(maxsize=16)
        first, second, third = broot_policies[:3]
        warm = cache.get_or_compute(broot.internet, first)
        batch = [second, first, second, third, third]
        outcomes = cache.get_or_compute_many(broot.internet, batch)
        assert [outcome.policy for outcome in outcomes] == batch
        assert outcomes[1] is warm
        assert outcomes[0] is outcomes[2] and outcomes[3] is outcomes[4]
        stats = cache.stats
        # first: a prior full compute, then a hit; second and third
        # propagate once each (one lattice); their repeats are hits.
        assert (stats.full_computes, stats.delta_computes, stats.hits) == (3, 0, 3)
        assert stats.lookups == 1 + len(batch)
        again = cache.get_or_compute_many(broot.internet, batch)
        assert all(a is b for a, b in zip(again, outcomes))
        assert (stats.full_computes, stats.hits) == (3, 3 + len(batch))

    def test_batch_larger_than_the_cache(self, broot, broot_policies):
        cache = RoutingCache(maxsize=2)
        outcomes = cache.get_or_compute_many(broot.internet, broot_policies)
        assert len(outcomes) == len(broot_policies)
        assert len(cache) == 2
        assert cache.stats.evictions == len(broot_policies) - 2
        for outcome, policy in zip(outcomes, broot_policies):
            assert outcome.policy is policy
            assert_matches_reference(outcome)

    def test_lattice_span_and_counter(self, broot, broot_policies):
        observer = Observer.collecting()
        cache = RoutingCache(observer=observer)
        cache.get_or_compute_many(broot.internet, broot_policies)
        span = observer.tracer.find("bgp.propagate.lattice")
        assert span.attributes["configs"] == len(broot_policies)
        assert span.attributes["levels"] > 0
        metrics = observer.metrics
        assert metrics.value_of("routing.lattice_configs") == len(broot_policies)
        assert metrics.value_of("routing.cache.full_computes") == len(broot_policies)
        cache.get_or_compute_many(broot.internet, broot_policies)
        assert metrics.value_of("routing.lattice_configs") == len(broot_policies)
        assert metrics.value_of("routing.cache.hits") == len(broot_policies)
