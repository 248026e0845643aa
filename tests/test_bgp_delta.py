"""Equivalence and cache tests for incremental (delta) propagation.

The delta engine's contract is *bit-equality*: for any policy, the
outcome produced against a baseline must be field-identical to a
scratch ``compute_routes`` run — including tie-hash picks, pins,
near-route maps and alternate sites.  These tests enforce that across
the paper's prepend ladder, site withdrawals, and several independently
seeded topologies.
"""

from __future__ import annotations

import pytest

from repro.bgp.cache import (
    RoutingCache,
    default_routing_cache,
    internet_fingerprint,
    policy_fingerprint,
)
from repro.bgp.delta import DeltaPropagator, delta_routes
from repro.bgp.instability import FlipModel
from repro.bgp.propagation import RoutingConfig, RoutingOutcome, compute_routes
from repro.core.experiments import BROOT_PREPEND_CONFIGS, prepend_sweep
from repro.core.scenarios import broot_like, tangled_like
from repro.core.verfploeter import Verfploeter
from repro.errors import ConfigurationError


def selection_identity(selection):
    """Every externally observable field of one route selection."""
    return (
        selection.asn,
        selection.route_class,
        selection.path_length,
        selection.primary_site,
        selection.alternate_site,
        selection.candidates,
        selection.near_routes,
        selection.pinned,
        selection.as_path,
    )


def assert_bit_identical(delta_outcome, scratch_outcome):
    assert set(delta_outcome.selections) == set(scratch_outcome.selections)
    for asn, scratch in scratch_outcome.selections.items():
        assert selection_identity(delta_outcome.selections[asn]) == (
            selection_identity(scratch)
        ), f"AS{asn} diverged"
    assert dict(delta_outcome.catchment_map().items()) == dict(
        scratch_outcome.catchment_map().items()
    )


@pytest.fixture(scope="module")
def broot():
    return broot_like(scale="tiny", seed=7)


@pytest.fixture(scope="module")
def broot_baseline(broot):
    return compute_routes(broot.internet, broot.service.default_policy())


class TestEquivalence:
    @pytest.mark.parametrize(
        "label,prepends",
        BROOT_PREPEND_CONFIGS,
        ids=[label for label, _ in BROOT_PREPEND_CONFIGS],
    )
    def test_prepend_configs_bit_identical(
        self, broot, broot_baseline, label, prepends
    ):
        policy = broot.service.policy(prepends=prepends)
        delta = delta_routes(broot_baseline, policy)
        scratch = compute_routes(broot.internet, policy)
        assert_bit_identical(delta, scratch)

    @pytest.mark.parametrize("site", ["LAX", "MIA"])
    def test_site_withdraw_bit_identical(self, broot, broot_baseline, site):
        policy = broot.service.policy(withdrawn=[site])
        delta = delta_routes(broot_baseline, policy)
        scratch = compute_routes(broot.internet, policy)
        assert_bit_identical(delta, scratch)

    @pytest.mark.parametrize("seed", [3, 17, 123])
    def test_random_topologies_bit_identical(self, seed):
        scenario = tangled_like(scale="tiny", seed=seed)
        baseline = compute_routes(
            scenario.internet, scenario.service.default_policy()
        )
        for site in scenario.service.site_codes:
            policy = scenario.service.policy(prepends={site: 2})
            delta = delta_routes(baseline, policy)
            scratch = compute_routes(scenario.internet, policy)
            assert_bit_identical(delta, scratch)

    def test_identical_policy_splices_everything(self, broot, broot_baseline):
        propagator = DeltaPropagator(broot_baseline)
        outcome = propagator.propagate(broot.service.default_policy())
        assert propagator.stats.rebuilt == 0
        assert propagator.stats.spliced == propagator.stats.total
        assert propagator.stats.reuse_fraction == 1.0
        assert_bit_identical(outcome, broot_baseline)

    def test_localized_change_reuses_baseline_objects(
        self, broot, broot_baseline
    ):
        propagator = DeltaPropagator(broot_baseline)
        outcome = propagator.propagate(broot.service.policy(prepends={"MIA": 1}))
        stats = propagator.stats
        assert stats.spliced > 0 and stats.rebuilt > 0
        assert 0.0 < stats.reuse_fraction < 1.0
        shared = sum(
            1
            for asn, selection in outcome.selections.items()
            if selection is broot_baseline.selections.get(asn)
        )
        # Spliced selections (and rebuilt-but-equal ones) are the very
        # same objects as the baseline's — structural sharing, not copies.
        assert shared >= stats.spliced

    def test_baseline_never_mutated(self, broot, broot_baseline):
        before = {
            asn: selection_identity(selection)
            for asn, selection in broot_baseline.selections.items()
        }
        delta_routes(broot_baseline, broot.service.policy(withdrawn=["LAX"]))
        after = {
            asn: selection_identity(selection)
            for asn, selection in broot_baseline.selections.items()
        }
        assert before == after

    def test_requires_propagation_state(self, broot, broot_baseline):
        bare = RoutingOutcome(
            broot.internet,
            broot_baseline.policy,
            dict(broot_baseline.selections),
            broot_baseline.flip_model,
        )
        with pytest.raises(ConfigurationError):
            DeltaPropagator(bare)


class TestRoutingCache:
    def test_hit_delta_full_accounting(self, broot):
        cache = RoutingCache(maxsize=8)
        service = broot.service
        internet = broot.internet
        base = cache.get_or_compute(internet, service.default_policy())
        assert cache.stats.full_computes == 1
        again = cache.get_or_compute(internet, service.default_policy())
        assert again is base
        assert cache.stats.hits == 1
        variant_policy = service.policy(prepends={"MIA": 2})
        variant = cache.get_or_compute(internet, variant_policy)
        assert cache.stats.delta_computes == 1
        assert cache.stats.lookups == 3
        assert_bit_identical(variant, compute_routes(internet, variant_policy))

    def test_lru_eviction(self, broot):
        cache = RoutingCache(maxsize=2)
        service = broot.service
        internet = broot.internet
        policies = [
            service.default_policy(),
            service.policy(prepends={"MIA": 1}),
            service.policy(prepends={"MIA": 2}),
        ]
        for policy in policies:
            cache.get_or_compute(internet, policy)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # The evicted (oldest) entry is recomputed — as a delta against
        # a surviving entry, not a full propagation.
        cache.get_or_compute(internet, policies[0])
        assert cache.stats.hits == 0
        assert cache.stats.full_computes == 1
        assert cache.stats.delta_computes == 3

    def test_config_and_flip_model_partition_the_key(self, broot):
        cache = RoutingCache()
        policy = broot.service.default_policy()
        plain = cache.get_or_compute(broot.internet, policy)
        era1 = cache.get_or_compute(
            broot.internet, policy, config=RoutingConfig(era=1)
        )
        assert era1 is not plain
        other_flips = cache.get_or_compute(
            broot.internet, policy, flip_model=FlipModel(broot.internet.seed + 1)
        )
        assert other_flips is not plain
        # Neither variant may delta off the plain baseline: a different
        # config or flip model invalidates every cached selection.
        assert cache.stats.full_computes == 3
        assert cache.stats.delta_computes == 0

    def test_delta_requires_internet_object_identity(self):
        first = broot_like(scale="tiny", seed=7)
        second = broot_like(scale="tiny", seed=7)
        assert internet_fingerprint(first.internet) == internet_fingerprint(
            second.internet
        )
        cache = RoutingCache()
        cache.get_or_compute(first.internet, first.service.default_policy())
        cache.get_or_compute(
            second.internet, second.service.policy(prepends={"MIA": 1})
        )
        # Equal fingerprints but distinct objects: splicing selections
        # across topologies would be unsound, so this is a full compute.
        assert cache.stats.full_computes == 2
        assert cache.stats.delta_computes == 0

    def test_fingerprints(self, broot):
        service = broot.service
        assert policy_fingerprint(service.default_policy()) == (
            policy_fingerprint(service.default_policy())
        )
        assert policy_fingerprint(service.default_policy()) != (
            policy_fingerprint(service.policy(prepends={"MIA": 1}))
        )
        other = tangled_like(scale="tiny", seed=11)
        assert internet_fingerprint(broot.internet) != (
            internet_fingerprint(other.internet)
        )

    def test_rejects_bad_maxsize(self):
        with pytest.raises(ConfigurationError):
            RoutingCache(maxsize=0)

    def test_default_cache_is_a_singleton(self):
        assert default_routing_cache() is default_routing_cache()


class TestSweepIntegration:
    def test_prepend_sweep_cache_accounting(self, broot):
        cache = RoutingCache()
        verfploeter = Verfploeter(broot.internet, broot.service)
        prepend_sweep(verfploeter, broot.atlas, cache=cache)
        # One full propagation (the seeded baseline), one hit (the
        # "equal" configuration is that baseline), deltas for the rest.
        assert cache.stats.full_computes == 1
        assert cache.stats.hits == 1
        assert cache.stats.delta_computes == len(BROOT_PREPEND_CONFIGS) - 1
