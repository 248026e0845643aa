"""Tests for the Verfploeter orchestrator."""

from __future__ import annotations

import math

import pytest

from repro.core.fastscan import FastScanEngine
from repro.core.sharding import assert_scan_results_identical
from repro.core.verfploeter import Verfploeter
from repro.errors import ConfigurationError, MeasurementError
from repro.obs import Observer
from repro.probing.prober import ProberConfig


class TestScan:
    def test_scan_maps_responding_blocks(self, broot_tiny, broot_scan):
        assert broot_scan.mapped_blocks > 0.4 * len(broot_tiny.internet)
        assert broot_scan.stats.kept == broot_scan.mapped_blocks

    def test_scan_matches_ground_truth(self, broot_tiny, broot_routing, broot_scan):
        for block, site in broot_scan.catchment.items():
            assert site == broot_routing.site_of_block(block, broot_scan.round_id)

    def test_cleaning_stats_consistent(self, broot_scan):
        stats = broot_scan.stats
        assert stats.replies_received == (
            stats.kept + stats.duplicates + stats.unsolicited
            + stats.late + stats.wrong_round
        )

    def test_duplicate_rate_near_two_percent(self, broot_scan):
        rate = broot_scan.stats.duplicates / broot_scan.stats.replies_received
        assert 0.002 < rate < 0.08

    def test_response_rate_near_55_percent(self, broot_scan):
        assert 0.40 < broot_scan.stats.response_rate < 0.70

    def test_traffic_volume_estimate(self, broot_scan):
        assert broot_scan.stats.traffic_megabytes == pytest.approx(
            broot_scan.stats.probes_sent * 39 / 1e6
        )

    def test_wire_level_equals_fast_path(self, broot_verfploeter, broot_routing):
        wire = broot_verfploeter.run_scan(
            routing=broot_routing, round_id=3, wire_level=True
        )
        fast = broot_verfploeter.run_scan(
            routing=broot_routing, round_id=3, wire_level=False
        )
        assert dict(wire.catchment.items()) == dict(fast.catchment.items())
        assert wire.stats == fast.stats
        assert set(wire.rtts) == set(fast.rtts)
        for block, rtt in wire.rtts.items():
            assert math.isclose(fast.rtts[block], rtt, rel_tol=1e-9)

    def test_rejects_routing_and_policy(self, broot_verfploeter, broot_routing):
        with pytest.raises(MeasurementError):
            broot_verfploeter.run_scan(
                routing=broot_routing,
                policy=broot_verfploeter.service.default_policy(),
            )

    def test_scan_is_deterministic(self, broot_verfploeter, broot_routing):
        first = broot_verfploeter.run_scan(routing=broot_routing, round_id=9)
        second = broot_verfploeter.run_scan(routing=broot_routing, round_id=9)
        assert dict(first.catchment.items()) == dict(second.catchment.items())

    def test_rounds_differ_by_churn(self, broot_verfploeter, broot_routing):
        first = broot_verfploeter.run_scan(routing=broot_routing, round_id=1)
        second = broot_verfploeter.run_scan(routing=broot_routing, round_id=2)
        diff = first.catchment.diff(second.catchment)
        assert diff.appeared > 0
        assert diff.disappeared > 0
        assert diff.stable > 0.9 * len(first.catchment)


class TestEngineMemo:
    """``run_scan`` keeps one engine per deployment, keyed by routing identity."""

    def test_one_precompute_per_routing(self, broot_tiny, broot_routing):
        observer = Observer.collecting()
        verfploeter = Verfploeter(
            broot_tiny.internet, broot_tiny.service, observer=observer
        )
        for round_id in range(5):
            verfploeter.run_scan(
                routing=broot_routing, round_id=round_id, wire_level=False
            )
        names = observer.tracer.span_names()
        assert names.count("fastscan.precompute") == 1
        assert names.count("fastscan.round") == 5

    def test_alternating_routings_never_cross(self, broot_tiny, broot_routing):
        observer = Observer.collecting()
        verfploeter = Verfploeter(
            broot_tiny.internet, broot_tiny.service, observer=observer
        )
        withdrawn = verfploeter.routing_for(
            broot_tiny.service.policy(withdrawn=["MIA"])
        )
        routings = [broot_routing, withdrawn]
        references = [
            FastScanEngine(verfploeter, routing, observer=Observer.null())
            for routing in routings
        ]
        for round_id in range(6):
            which = round_id % 2
            scan = verfploeter.run_scan(
                routing=routings[which], round_id=round_id,
                dataset_id="alternating", wire_level=False,
            )
            assert_scan_results_identical(
                scan,
                references[which].run_scan(round_id, dataset_id="alternating"),
            )
        assert set(scan.catchment.fractions()) == {"LAX"}
        # A single slot: every switch of routing state rebuilds.
        assert observer.tracer.span_names().count("fastscan.precompute") == 6


class TestCaptureStyles:
    @pytest.mark.parametrize("style", ["streaming", "lander", "pcap"])
    def test_styles_agree(self, broot_tiny, broot_routing, style):
        verfploeter = Verfploeter(
            broot_tiny.internet, broot_tiny.service, capture_style=style
        )
        scan = verfploeter.run_scan(routing=broot_routing, wire_level=True)
        assert scan.mapped_blocks > 0
        reference = Verfploeter(broot_tiny.internet, broot_tiny.service).run_scan(
            routing=broot_routing, wire_level=True
        )
        assert dict(scan.catchment.items()) == dict(reference.catchment.items())

    @pytest.mark.parametrize("style", ["streaming", "lander", "pcap"])
    def test_style_is_oracle_only(self, broot_tiny, broot_routing, broot_scan, style):
        """``capture_style`` shapes the packet-level oracle's captures and
        nothing else: the default scan never touches a capture and is the
        same scan under all four styles."""
        observer = Observer.collecting()
        verfploeter = Verfploeter(
            broot_tiny.internet, broot_tiny.service, capture_style=style,
            observer=observer,
        )
        default = verfploeter.run_scan(
            routing=broot_routing, dataset_id=broot_scan.dataset_id
        )
        assert_scan_results_identical(default, broot_scan)
        sites = broot_tiny.service.site_codes

        def captured():
            return sum(
                observer.metrics.value_of("collector.site_replies", site=code) or 0
                for code in sites
            )

        assert captured() == 0
        wire = verfploeter.run_scan(routing=broot_routing, wire_level=True)
        assert captured() == wire.stats.replies_received > 0
        assert wire.stats == default.stats
        assert dict(wire.catchment.items()) == dict(default.catchment.items())
        assert set(wire.rtts) == set(default.rtts)
        # pcap files keep microsecond timestamps; the other captures are exact.
        tolerance = 1e-3 if style.startswith("pcap") else 1e-9
        for block, rtt in wire.rtts.items():
            assert math.isclose(default.rtts[block], rtt, abs_tol=tolerance)

    def test_unknown_style_rejected(self, broot_tiny):
        with pytest.raises(ConfigurationError):
            Verfploeter(broot_tiny.internet, broot_tiny.service, capture_style="nfs")


class TestSeries:
    def test_series_round_ids_and_times(self, broot_verfploeter):
        scans = broot_verfploeter.run_series(rounds=3, interval_seconds=900.0)
        assert [scan.round_id for scan in scans] == [0, 1, 2]
        assert [scan.start_time for scan in scans] == [0.0, 900.0, 1800.0]

    def test_series_rejects_zero_rounds(self, broot_verfploeter):
        with pytest.raises(MeasurementError):
            broot_verfploeter.run_series(rounds=0)


class TestConfigValidation:
    def test_source_outside_prefix_rejected(self, broot_tiny):
        with pytest.raises(ConfigurationError):
            Verfploeter(
                broot_tiny.internet,
                broot_tiny.service,
                prober_config=ProberConfig(source_address=0x01020304),
            )
