#!/usr/bin/env python3
"""Capacity and expansion planning for a CDN-scale anycast (paper §7).

Uses the two planning tools this library adds on top of the paper's
pipeline: site-failure what-ifs (where does a withdrawn site's load
land, and does any survivor overload?) and RTT-driven expansion
suggestions (the paper's future-work idea of using Verfploeter RTTs to
pick new site locations).

Run:  python examples/site_planning.py
"""

from __future__ import annotations

from repro import Verfploeter
from repro.analysis.placement import rtt_summary_by_site, suggest_sites
from repro.analysis.report import render_table
from repro.core.experiments import site_failure_study
from repro.core.planning import evaluate_site_addition
from repro.core.scenarios import cdn_like
from repro.load.estimator import LoadEstimate


def main() -> None:
    scenario = cdn_like(scale="small")
    verfploeter = Verfploeter(scenario.internet, scenario.service)
    print(f"{scenario.service.name}: {len(scenario.service.sites)} sites, "
          f"{scenario.internet.summary()['blocks']} /24s in topology")

    # One scan gives both the catchments and per-block RTTs.
    scan = verfploeter.run_scan(dataset_id="cdn-planning")
    summary = rtt_summary_by_site(scan)
    print(render_table(
        ["site", "/24s", "median RTT (ms)"],
        [(site, blocks, f"{median:.0f}")
         for site, (blocks, median) in sorted(summary.items())],
        title="\nper-site catchment size and latency",
    ))

    # Failure what-ifs for the three biggest sites.
    estimate = LoadEstimate(scenario.day_load("cdn-day"))
    fractions = scan.catchment.fractions()
    biggest = sorted(fractions, key=lambda s: -fractions[s])[:3]
    results = site_failure_study(verfploeter, estimate, sites=biggest)
    rows = []
    for result in results:
        worst, factor = result.worst_overload()
        rows.append((result.withdrawn_site, worst,
                     f"{factor:.2f}x" if factor != float("inf") else "new"))
    print(render_table(
        ["withdrawn", "worst-hit survivor", "load multiple"],
        rows,
        title="\nfailure what-ifs for the three largest sites",
    ))

    # Where should the next sites go?  High-RTT, high-load regions.
    suggestions = suggest_sites(
        scan, scenario.internet.geodb, count=3, estimate=estimate
    )
    print("\nexpansion suggestions (load-weighted underserved regions):")
    for suggestion in suggestions:
        print(f"  {suggestion}")

    # Close the loop: deploy the top suggestion on a test prefix (paper
    # §3.1) and measure what it would actually capture and save.
    if suggestions:
        top = suggestions[0]
        result = evaluate_site_addition(
            scenario, "NEW", top.latitude, top.longitude
        )
        print(f"\ntrial deployment at ({top.latitude:+.0f}, "
              f"{top.longitude:+.0f}) via AS{result.site.upstream_asn} "
              f"({result.site.country_code}):")
        print(f"  captures {result.captured_blocks} /24s "
              f"({result.capture_fraction:.1%} of the catchment)")
        print(f"  mean RTT {result.mean_rtt_before_ms:.0f} -> "
              f"{result.mean_rtt_after_ms:.0f} ms "
              f"(saves {result.mean_rtt_saving_ms:.0f} ms)")
        if result.median_rtt_of_new_site_ms is not None:
            print(f"  median RTT inside the new catchment: "
                  f"{result.median_rtt_of_new_site_ms:.0f} ms")


if __name__ == "__main__":
    main()
