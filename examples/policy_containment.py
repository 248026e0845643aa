#!/usr/bin/env python3
"""Do catchments respect borders?  (paper §1's opening motivation)

The paper opens with two incidents: the Beijing I-Root site whose
catchment expanded outside China (exporting national DNS policy), and a
Tehran K-Root site seen serving networks outside Iran.  This example
runs the containment analysis on the Tangled testbed: for each site
hosted in a policy-sensitive location, how much of its catchment lies
outside the host country (leakage), and how much of the host country
escapes to foreign sites?

Run:  python examples/policy_containment.py
"""

from __future__ import annotations

from repro import Verfploeter, tangled_like
from repro.analysis.containment import (
    containment_report,
    country_site_matrix,
    format_containment_table,
)


def main() -> None:
    scenario = tangled_like(scale="small")
    verfploeter = Verfploeter(scenario.internet, scenario.service)
    scan = verfploeter.run_scan(dataset_id="containment")
    print(f"mapped {scan.mapped_blocks} /24s across "
          f"{len(scenario.service.sites)} sites\n")

    # Sites with a meaningful host-country policy question.
    pairings = [("HND", "JP"), ("ENS", "NL"), ("CPH", "DK"), ("SAO", "BR")]
    reports = [
        containment_report(scan.catchment, scenario.internet.geodb, site, country)
        for site, country in pairings
    ]
    print(format_containment_table(reports))

    # The worst leaker, spelled out the way the paper describes the
    # I-Root incident.
    worst = max(reports, key=lambda report: report.leakage_fraction)
    print(f"\nworst leakage: {worst.site_code} serves "
          f"{worst.outside_at_site} /24s outside {worst.country_code} "
          f"({worst.leakage_fraction:.0%} of its catchment) — any "
          f"{worst.country_code}-specific policy applied at that site "
          "would reach foreign networks, the paper's I-Root-Beijing "
          "failure mode.")

    # And the flip side: who actually serves each sensitive country?
    print("\nwho serves each country (blocks per site):")
    for _, country in pairings:
        matrix = country_site_matrix(
            scan.catchment, scenario.internet.geodb, country
        )
        ranked = sorted(matrix.items(), key=lambda item: -item[1])
        summary = ", ".join(f"{site}:{count}" for site, count in ranked[:4])
        print(f"  {country}: {summary}")


if __name__ == "__main__":
    main()
