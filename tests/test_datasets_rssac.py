"""Tests for scan serialisation and RSSAC reports."""

from __future__ import annotations

import io

import pytest

from repro.datasets import read_scan, write_scan
from repro.errors import DatasetError
from repro.load.rssac import build_rssac_report


class TestScanSerialisation:
    def test_roundtrip(self, broot_scan):
        buffer = io.StringIO()
        write_scan(broot_scan, buffer)
        buffer.seek(0)
        restored = read_scan(buffer)
        assert restored.dataset_id == broot_scan.dataset_id
        assert restored.round_id == broot_scan.round_id
        assert restored.stats == broot_scan.stats
        assert dict(restored.catchment.items()) == dict(broot_scan.catchment.items())
        assert restored.catchment.site_codes == broot_scan.catchment.site_codes
        for block, rtt in broot_scan.rtts.items():
            assert restored.rtts[block] == pytest.approx(rtt, abs=1e-3)

    def test_rejects_garbage(self):
        with pytest.raises(DatasetError):
            read_scan(io.StringIO("not a dataset\n"))

    def test_rejects_truncated_row(self, broot_scan):
        buffer = io.StringIO()
        write_scan(broot_scan, buffer)
        text = buffer.getvalue().splitlines()
        text.append("192.0.2.0/24\tLAX")  # missing RTT column
        with pytest.raises(DatasetError):
            read_scan(io.StringIO("\n".join(text)))

    @staticmethod
    def _dataset(round_text="1", kept="kept=1 ", rtt="12.5", site="A", more=""):
        return io.StringIO(
            "# verfploeter-scan v1\n"
            f"# dataset=d round={round_text} start=0.0 duration=1.0\n"
            "# sites=A\n"
            "# stats sent=1 received=1 wrong_round=0 unsolicited=0 late=0 "
            f"duplicates=0 {kept}\n"
            f"192.0.2.0/24\t{site}\t{rtt}\n"
            f"{more}"
        )

    def test_stats_without_kept_names_the_field(self):
        with pytest.raises(DatasetError, match="kept="):
            read_scan(self._dataset(kept=""))

    def test_bad_round_names_the_field(self):
        with pytest.raises(DatasetError, match="round="):
            read_scan(self._dataset(round_text="zero"))

    def test_bad_rtt_names_the_line(self):
        with pytest.raises(DatasetError, match="line 5"):
            read_scan(self._dataset(rtt="fast"))

    def test_block_listed_twice_names_the_line(self):
        with pytest.raises(DatasetError, match="line 6: block 192.0.2.0/24 listed twice"):
            read_scan(self._dataset(more="192.0.2.0/24\tA\t13.0\n"))

    def test_site_outside_the_sites_header_names_the_line(self):
        with pytest.raises(DatasetError, match="line 5: site 'B' not in the sites header"):
            read_scan(self._dataset(site="B"))

    @pytest.mark.parametrize("rtt", ["nan", "inf", "-inf"])
    def test_non_finite_rtt_names_the_line(self, rtt):
        with pytest.raises(DatasetError, match="line 5 RTT"):
            read_scan(self._dataset(rtt=rtt))

    def test_human_readable(self, broot_scan):
        buffer = io.StringIO()
        write_scan(broot_scan, buffer)
        text = buffer.getvalue()
        assert text.startswith("# verfploeter-scan v1")
        assert "/24\t" in text


class TestRssacReport:
    @pytest.fixture(scope="class")
    def report(self, broot_tiny, broot_routing):
        load = broot_tiny.day_load("2017-05-15", target_total_queries=1e6)
        return build_rssac_report("b.root-servers.net", load, broot_routing)

    def test_totals(self, report):
        assert report.total_queries == pytest.approx(1e6)
        assert 0 < report.total_responses <= report.total_queries

    def test_sites_partition_traffic(self, report):
        assert sum(site.queries for site in report.sites) == pytest.approx(
            report.total_queries, rel=1e-6
        )
        assert sum(site.unique_sources for site in report.sites) == (
            report.unique_sources
        )

    def test_responses_below_queries_per_site(self, report):
        for site in report.sites:
            assert site.responses <= site.queries

    def test_rendering(self, report):
        buffer = io.StringIO()
        report.write(buffer)
        text = buffer.getvalue()
        assert text.startswith("---\n")
        assert "dns-udp-queries-received" in text
        assert "  - site: LAX" in text

