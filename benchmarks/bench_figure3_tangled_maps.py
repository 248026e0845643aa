"""Figure 3: catchments of the nine-site Tangled testbed.

With more sites the density advantage matters more: only Verfploeter
shows which site serves China, and the mix outside Europe differs
qualitatively between the two systems.
"""

from __future__ import annotations

from repro.analysis.maps import atlas_grid, catchment_grid, render_ascii_map


def test_figure3_tangled_maps(benchmark, tangled, tangled_vp):
    routing = tangled_vp.routing_for()
    scan = benchmark.pedantic(
        lambda: tangled_vp.run_scan(
            routing=routing, dataset_id="STV-2-01"
        ),
        rounds=1,
        iterations=1,
    )
    measurement = tangled.atlas.measure(routing, tangled.service)
    verf_grid = catchment_grid(scan.catchment, tangled.internet.geodb, 4.0)
    atlas = atlas_grid(measurement, 4.0)
    print()
    print("Figure 3a: RIPE Atlas coverage of Tangled")
    print(render_ascii_map(atlas))
    print()
    print("Figure 3b: Verfploeter coverage of Tangled")
    print(render_ascii_map(verf_grid))
    print("site shares (Verfploeter /24s):",
          {k: round(v, 3) for k, v in sorted(scan.catchment.fractions().items())})

    # Shape: several sites active; Verfploeter sees more sites than Atlas.
    verf_sites = {site for site, total in verf_grid.site_totals().items() if total}
    atlas_sites = {site for site, total in atlas.site_totals().items() if total}
    assert len(verf_sites) >= len(atlas_sites)
    assert len(verf_sites) >= 5
