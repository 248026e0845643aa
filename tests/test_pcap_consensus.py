"""Tests for binary pcap capture and multi-scan consensus."""

from __future__ import annotations

import io
import struct

import pytest

from repro.analysis.consensus import agreement_scores, coverage_gain, merge_scans
from repro.collector.pcap import PcapCapture, PcapReader, PcapWriter
from repro.errors import DatasetError, MeasurementError
from repro.icmp.network import DeliveredReply
from repro.icmp.packets import build_probe


class TestPcapFormat:
    def test_roundtrip(self):
        stream = io.BytesIO()
        writer = PcapWriter(stream)
        packet = build_probe(0x0A000001, 0xC0000201, 7, 9)
        writer.write_packet(packet, 1234.567891)
        stream.seek(0)
        records = list(PcapReader(stream))
        assert len(records) == 1
        timestamp, restored = records[0]
        assert restored == packet
        assert timestamp == pytest.approx(1234.567891, abs=1e-6)

    def test_global_header_fields(self):
        stream = io.BytesIO()
        PcapWriter(stream)
        header = stream.getvalue()
        magic, major, minor, _, _, snaplen, network = struct.unpack(
            "<IHHiIII", header
        )
        assert magic == 0xA1B2C3D4
        assert (major, minor) == (2, 4)
        assert snaplen == 65_535
        assert network == 101  # LINKTYPE_RAW

    def test_rejects_bad_magic(self):
        with pytest.raises(DatasetError):
            PcapReader(io.BytesIO(b"\x00" * 24))

    def test_rejects_truncated_header(self):
        with pytest.raises(DatasetError):
            PcapReader(io.BytesIO(b"\x00" * 5))

    def test_rejects_truncated_record(self):
        stream = io.BytesIO()
        writer = PcapWriter(stream)
        writer.write_packet(b"\x45" + b"\x00" * 30, 1.0)
        data = stream.getvalue()[:-4]  # chop the packet tail
        reader = PcapReader(io.BytesIO(data))
        with pytest.raises(DatasetError):
            list(reader)

    def test_microsecond_carry(self):
        stream = io.BytesIO()
        writer = PcapWriter(stream)
        writer.write_packet(b"xx", 1.9999999)  # rounds to 2.000000
        stream.seek(0)
        (timestamp, _), = list(PcapReader(stream))
        assert timestamp == pytest.approx(2.0, abs=1e-6)


class TestPcapCapture:
    def test_reply_roundtrip(self):
        capture = PcapCapture("LAX", io.BytesIO(), measurement_address=0xC7090E01)
        original = DeliveredReply("LAX", 0x0A000001, 5, 42, 12.25)
        capture.record(original)
        (restored,) = capture.drain()
        assert restored.source_address == original.source_address
        assert restored.identifier == original.identifier
        assert restored.sequence == original.sequence
        assert restored.timestamp == pytest.approx(original.timestamp, abs=1e-6)
        assert restored.site_code == "LAX"

    def test_wrong_site_rejected(self):
        capture = PcapCapture("LAX", io.BytesIO(), measurement_address=1)
        with pytest.raises(MeasurementError):
            capture.record(DeliveredReply("MIA", 1, 1, 1, 1.0))

    def test_drain_resets(self):
        capture = PcapCapture("LAX", io.BytesIO(), measurement_address=1)
        capture.record(DeliveredReply("LAX", 2, 1, 1, 1.0))
        assert len(capture.drain()) == 1
        assert capture.drain() == []
        capture.record(DeliveredReply("LAX", 3, 1, 1, 2.0))
        assert len(capture.drain()) == 1

    def test_full_scan_through_pcap(self, broot_tiny, broot_routing):
        """A scan whose every reply crossed the binary pcap format."""
        from repro.collector.aggregate import CentralCollector
        from repro.icmp.network import SimulatedDataplane
        from repro.icmp.packets import build_probe

        dataplane = SimulatedDataplane(broot_routing)
        address = broot_tiny.service.measurement_address
        collector = CentralCollector([
            PcapCapture(site.code, io.BytesIO(), address)
            for site in broot_tiny.service.sites
        ])
        delivered_count = 0
        for block in list(broot_tiny.internet.blocks)[:300]:
            probe = build_probe(address, (block << 8) | 1, 1, 0)
            for reply in dataplane.send_probe_packet(probe, 0.0, 0):
                collector.ingest(reply)
                delivered_count += 1
        collected = collector.collect()
        assert len(collected) == delivered_count


def _scan_like(round_id, mapping):
    from repro.anycast.catchment import CatchmentMap
    from repro.core.verfploeter import ScanResult, ScanStats

    return ScanResult(
        dataset_id=f"s{round_id}",
        round_id=round_id,
        start_time=0.0,
        duration_seconds=1.0,
        catchment=CatchmentMap(["A", "B"], mapping),
        stats=ScanStats(0, 0, 0, 0, 0, 0, len(mapping)),
        rtts={},
    )


class TestConsensus:
    def test_merge_majority(self):
        scans = [
            _scan_like(0, {1: "A", 2: "A"}),
            _scan_like(1, {1: "A", 2: "B"}),
            _scan_like(2, {1: "B", 2: "B"}),
        ]
        merged = merge_scans(scans)
        assert merged.site_of(1) == "A"  # 2 votes A vs 1 B
        assert merged.site_of(2) == "B"

    def test_merge_tie_prefers_latest(self):
        scans = [_scan_like(0, {1: "A"}), _scan_like(1, {1: "B"})]
        assert merge_scans(scans).site_of(1) == "B"

    def test_merge_raises_on_empty(self):
        with pytest.raises(DatasetError):
            merge_scans([])

    def test_merge_covers_union(self, broot_verfploeter, broot_routing):
        first = broot_verfploeter.run_scan(
            routing=broot_routing, round_id=20, wire_level=False
        )
        second = broot_verfploeter.run_scan(
            routing=broot_routing, round_id=21, wire_level=False
        )
        merged = merge_scans([first, second])
        union = set(first.catchment.blocks()) | set(second.catchment.blocks())
        assert set(merged.blocks()) == union
        assert len(merged) >= max(len(first.catchment), len(second.catchment))

    def test_agreement_scores(self):
        scans = [
            _scan_like(0, {1: "A", 2: "A"}),
            _scan_like(1, {1: "A", 2: "B"}),
        ]
        scores = agreement_scores(scans)
        assert scores[1] == 1.0
        assert scores[2] == 0.5

    def test_coverage_gain_monotone(self, broot_verfploeter, broot_routing):
        scans = [
            broot_verfploeter.run_scan(
                routing=broot_routing, round_id=30 + i, wire_level=False
            )
            for i in range(3)
        ]
        series = coverage_gain(scans)
        counts = [count for _, count in series]
        assert counts == sorted(counts)
        # Marginal gain shrinks: the second round adds less than the
        # first round found.
        assert counts[1] - counts[0] < counts[0]
