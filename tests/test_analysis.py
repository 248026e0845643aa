"""Tests for the analysis modules (tables and figure data)."""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.catchment_fractions import MethodRow, format_method_table
from repro.analysis.coverage import coverage_rows, format_coverage_table
from repro.analysis.divisions import (
    format_as_division_table,
    format_prefix_division_table,
    multi_site_fraction,
    prefix_site_distribution,
    prefixes_by_sites_seen,
    sites_seen_per_as,
)
from repro.analysis.flips import flip_table, format_flip_table, format_stability_table
from repro.analysis.prepend import (
    format_hourly_load_table,
    format_prepend_table,
    hourly_load_by_config,
    prepend_rows,
)
from repro.analysis.report import render_table
from repro.analysis.traffic_coverage import (
    TrafficCoverage,
    format_traffic_coverage,
    traffic_coverage,
)
from repro.anycast.catchment import CatchmentMap
from repro.core.comparison import compare_coverage
from repro.core.experiments import prepend_sweep, run_stability_series
from repro.load.estimator import LoadEstimate


@pytest.fixture(scope="module")
def estimate(broot_tiny):
    return LoadEstimate(broot_tiny.day_load("2017-05-15"))


@pytest.fixture(scope="module")
def atlas_measurement(broot_tiny, broot_routing):
    return broot_tiny.atlas.measure(broot_routing, broot_tiny.service)


class TestRenderTable:
    def test_alignment_and_content(self):
        text = render_table(["name", "count"], [("alpha", 10), ("b", 2000)], "T")
        assert "T" in text
        assert "alpha" in text
        assert "2,000" in text

    def test_float_formatting(self):
        text = render_table(["x"], [(0.1234567,), (1234.5,)])
        assert "0.1235" in text
        assert "1,234" in text


class TestCoverageTable:
    def test_rows_shape(self, broot_tiny, broot_scan, atlas_measurement):
        comparison = compare_coverage(atlas_measurement, broot_scan, broot_tiny.internet)
        rows = coverage_rows(comparison)
        assert [row[0] for row in rows] == [
            "considered", "non-responding", "responding",
            "no location", "geolocatable", "unique",
        ]
        text = format_coverage_table(comparison)
        assert "coverage ratio" in text

    def test_geolocatable_matches_block_loop(self, broot_tiny, broot_scan, atlas_measurement):
        internet = broot_tiny.internet
        # Mapped blocks the geolocation database does not know.
        unlocated = list(
            itertools.islice((b for b in range(1 << 24) if internet.geodb.locate(b) is None), 5)
        )
        mapping = dict(broot_scan.catchment.items())
        mapping.update((block, "LAX") for block in unlocated)
        scan = replace(
            broot_scan,
            catchment=CatchmentMap.from_mapping(broot_scan.catchment.site_codes, mapping),
        )
        comparison = compare_coverage(atlas_measurement, scan, internet)
        located = sum(
            1 for block in set(scan.catchment.blocks())
            if internet.geodb.locate(block) is not None
        )
        assert comparison.verf_geolocatable_blocks == located
        assert comparison.verf_no_location_blocks == len(mapping) - located >= 5


def traffic_coverage_model(catchment, estimate):
    """Table 5 as a per-row loop: running totals in traffic-row order."""
    blocks_seen = blocks_mapped = 0
    queries_seen = queries_mapped = 0.0
    for block, volume in zip(estimate.blocks.tolist(), estimate.daily.tolist()):
        if volume <= 0:
            continue
        blocks_seen += 1
        queries_seen += volume
        if catchment.site_of(block) is not None:
            blocks_mapped += 1
            queries_mapped += volume
    return TrafficCoverage(blocks_seen, blocks_mapped, queries_seen, queries_mapped)


class TestTrafficCoverage:
    def test_matches_row_loop(self, broot_scan, estimate):
        catchment = broot_scan.catchment
        partial = catchment.restrict(list(catchment.blocks())[::3])
        for mapped in (catchment, partial):
            assert traffic_coverage(mapped, estimate) == traffic_coverage_model(
                mapped, estimate
            )

    def test_fractions(self, broot_scan, estimate):
        coverage = traffic_coverage(broot_scan.catchment, estimate)
        assert coverage.blocks_seen == coverage.blocks_mapped + coverage.blocks_unmapped
        assert 0.5 < coverage.block_coverage <= 1.0
        assert 0.0 < coverage.query_coverage <= 1.0
        assert "Table 5" in format_traffic_coverage(coverage)

    def test_empty_catchment(self, estimate):
        empty = CatchmentMap.from_mapping(["LAX"], {})
        coverage = traffic_coverage(empty, estimate)
        assert coverage.blocks_mapped == 0
        assert coverage.query_coverage == 0.0


class TestMethodTable:
    def test_format(self):
        rows = [
            MethodRow("2017-05-15", "Atlas", "24 VPs", 0.824),
            MethodRow("2017-05-15", "Verfploeter", "4,321 /24s", 0.878),
        ]
        text = format_method_table(rows, "LAX")
        assert "82.4%" in text
        assert "Verfploeter" in text


class TestFlipTable:
    @pytest.fixture(scope="class")
    def series(self, broot_verfploeter):
        return run_stability_series(broot_verfploeter, rounds=6)

    def test_rows(self, series, broot_tiny):
        rows = flip_table(series, broot_tiny.internet, top=3)
        assert rows[-1].name == "Total"
        assert rows[-2].name == "Other"
        total = rows[-1]
        assert total.flips == series.total_flips()
        ranked = rows[:-2]
        assert all(
            ranked[i].flips >= ranked[i + 1].flips for i in range(len(ranked) - 1)
        )
        if total.flips:
            assert sum(row.fraction for row in rows[:-1]) == pytest.approx(1.0)

    def test_formatting(self, series, broot_tiny):
        text = format_flip_table(flip_table(series, broot_tiny.internet))
        assert "Table 7" in text
        stability_text = format_stability_table(series)
        assert "Figure 9" in stability_text
        assert "medians" in stability_text


class TestDivisions:
    def test_sites_seen_per_as(self, broot_scan, broot_tiny):
        counts = sites_seen_per_as(broot_scan.catchment, broot_tiny.internet)
        assert counts
        assert all(1 <= count <= 2 for count in counts.values())

    def test_multi_site_fraction_range(self, broot_scan, broot_tiny):
        fraction = multi_site_fraction(broot_scan.catchment, broot_tiny.internet)
        assert 0.0 <= fraction <= 1.0

    def test_prefixes_by_sites_seen(self, broot_scan, broot_tiny):
        data = prefixes_by_sites_seen(broot_scan.catchment, broot_tiny.internet)
        assert set(data) <= {1, 2}
        assert all(all(v >= 1 for v in values) for values in data.values())

    def test_prefix_site_distribution(self, broot_scan, broot_tiny):
        distribution = prefix_site_distribution(broot_scan.catchment, broot_tiny.internet)
        for length, bucket in distribution.items():
            assert 8 <= length <= 24
            assert all(sites >= 1 for sites in bucket)

    def test_formatting(self, broot_scan, broot_tiny):
        assert "Figure 7" in format_as_division_table(
            broot_scan.catchment, broot_tiny.internet
        )
        assert "Figure 8" in format_prefix_division_table(
            broot_scan.catchment, broot_tiny.internet
        )


class TestPrepend:
    @pytest.fixture(scope="class")
    def sweep(self, broot_tiny, broot_verfploeter):
        return prepend_sweep(broot_verfploeter, broot_tiny.atlas)

    def test_rows(self, sweep):
        rows = prepend_rows(sweep, "LAX")
        assert len(rows) == 5
        assert all(0.0 <= atlas <= 1.0 and 0.0 <= verf <= 1.0
                   for _, atlas, verf in rows)

    def test_hourly_series(self, sweep, estimate):
        hourly = hourly_load_by_config(sweep, estimate)
        assert set(hourly) == {entry.label for entry in sweep}
        for series in hourly.values():
            total = sum(float(np.sum(values)) for values in series.values())
            assert total == pytest.approx(estimate.total() / 3600.0, rel=1e-6)

    def test_formatting(self, sweep, estimate):
        assert "Figure 5" in format_prepend_table(sweep, "LAX")
        hourly = hourly_load_by_config(sweep, estimate)
        assert "Figure 6" in format_hourly_load_table(hourly, ["LAX", "MIA"])
