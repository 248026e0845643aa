"""Ablation: multi-PoP ASes vs single-PoP ASes.

DESIGN.md decision #1: intra-AS catchment splits (paper §6.2) come from
multi-PoP ASes doing hot-potato egress.  Rebuilding the same topology
with every AS forced to a single PoP should erase nearly all splits.
"""

from __future__ import annotations

from repro.analysis.divisions import multi_site_fraction
from repro.bgp.propagation import compute_routes
from repro.bgp.reference import catchment_map
from repro.core.scenarios import tangled_like


def _split_fraction(scenario):
    routing = compute_routes(scenario.internet, scenario.service.default_policy())
    return multi_site_fraction(catchment_map(routing), scenario.internet)


def test_ablation_pop_model(benchmark):
    multi = tangled_like(scale="small")
    split_multi = benchmark.pedantic(
        lambda: _split_fraction(multi), rounds=1, iterations=1
    )

    # Same scenario, but no AS gets more than one PoP.
    from repro.core import scenarios as scenario_module
    from repro.topology.generator import TopologyConfig, build_internet

    tier1, transit, stub, blocks_cap, density = scenario_module.SCALES["small"]
    single_internet = build_internet(
        TopologyConfig(
            seed=1337,
            tier1_count=tier1,
            transit_count=transit,
            stub_count=stub,
            max_blocks_per_prefix=blocks_cap,
            transit_multi_pop_fraction=0.0,
            stub_multi_pop_fraction=0.0,
            seeded_ases=_single_pop_seeds(),
        )
    )
    # Reuse the same upstream names for a comparable service.
    service = multi.service
    from repro.anycast.service import AnycastService
    from repro.anycast.site import AnycastSite

    sites = [
        AnycastSite(
            site.code, site.name, site.country_code, site.latitude,
            site.longitude, single_internet.find_asn_by_name(
                multi.internet.ases[site.upstream_asn].name
            ),
        )
        for site in service.sites
    ]
    single_service = AnycastService(service.name, service.prefix, sites)
    routing = compute_routes(single_internet, single_service.default_policy())
    split_single = multi_site_fraction(catchment_map(routing), single_internet)

    print()
    print("Ablation: intra-AS catchment splits")
    print(f"  multi-PoP topology (default): {split_multi:.3f} of ASes split")
    print(f"  single-PoP topology (ablated): {split_single:.3f} of ASes split")
    print("  (paper finds 12.7% of ASes split; splits require multi-PoP ASes)")
    assert split_single < split_multi
    # Tier-1s excepted (they keep one PoP here too), splits collapse.
    assert split_single < 0.02


def _single_pop_seeds():
    """The tangled seeded ASes, all reduced to their first PoP."""
    from repro.core.scenarios import _GIANTS
    from repro.topology.generator import SeededAS

    extras = (
        SeededAS("VULTR", "transit", "US", ("AU",), ((19, 1),),
                 provider_names=("TIER1-0", "TIER1-1")),
        SeededAS("WIDE", "transit", "JP", ("JP",), ((19, 1),),
                 provider_names=("TRANSIT-0",)),
        SeededAS("UT-NET", "transit", "NL", ("NL",), ((19, 1),),
                 provider_names=("TIER1-3",)),
        SeededAS("FIU", "transit", "US", ("US",), ((19, 1),),
                 provider_names=("TIER1-2",)),
        SeededAS("USC-NET", "transit", "US", ("US",), ((19, 1),),
                 provider_names=("TIER1-0",)),
        SeededAS("DKHOST", "transit", "DK", ("DK",), ((19, 1),),
                 provider_names=("TIER1-3",)),
    )
    singled_giants = tuple(
        SeededAS(
            spec.name, spec.tier, spec.country_code, (spec.pop_countries[0],),
            spec.prefix_plan, spec.flipper, spec.block_density,
            spec.provider_names,
        )
        for spec in _GIANTS
    )
    return singled_giants + extras
