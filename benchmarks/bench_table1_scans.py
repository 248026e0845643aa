"""Table 1: catchment scan datasets.

Regenerates the paper's scan inventory — B-Root and Tangled measured
with both Atlas and Verfploeter — and benchmarks one Verfploeter round.
"""

from __future__ import annotations

from repro.analysis.report import render_table


def test_table1_scan_datasets(
    benchmark,
    broot,
    tangled,
    broot_vp,
    tangled_vp,
    broot_routing_may,
    broot_atlas_may,
):
    scan = benchmark.pedantic(
        lambda: broot_vp.run_scan(
            routing=broot_routing_may, dataset_id="SBV-5-15"
        ),
        rounds=1,
        iterations=1,
    )
    tangled_scan = tangled_vp.run_scan(dataset_id="STV-2-01")
    tangled_atlas = tangled.atlas.measure(
        tangled_vp.routing_for(), tangled.service
    )
    rows = [
        ("SBA-5-15", "B-Root", "Atlas",
         f"{broot_atlas_may.responding_vps} VPs", "~minutes"),
        (scan.dataset_id, "B-Root", "Verfploeter",
         f"{scan.mapped_blocks} /24s", f"{scan.duration_seconds:.0f} s"),
        ("STA-2-01", "Tangled", "Atlas",
         f"{tangled_atlas.responding_vps} VPs", "~minutes"),
        (tangled_scan.dataset_id, "Tangled", "Verfploeter",
         f"{tangled_scan.mapped_blocks} /24s",
         f"{tangled_scan.duration_seconds:.0f} s"),
    ]
    print()
    print(render_table(
        ["Id", "Service", "Method", "Measurement", "Duration"],
        rows,
        title="Table 1: scans of anycast catchments (scaled ~1000x down)",
    ))
    print(f"probe traffic per round: {scan.stats.traffic_megabytes:.2f} MB "
          "(paper: ~128 MB at full scale)")
    assert scan.mapped_blocks > 0
    assert tangled_scan.mapped_blocks > 0
