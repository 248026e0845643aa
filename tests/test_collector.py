"""Tests for capture, aggregation, and cleaning."""

from __future__ import annotations

import io

import pytest

from repro.collector.aggregate import CentralCollector
from repro.collector.capture import LanderCapture, PcapLikeCapture, StreamingCapture
from repro.collector.cleaning import CleaningConfig, clean_replies
from repro.collector.stream import ReplyColumns
from repro.errors import ConfigurationError, MeasurementError
from repro.icmp.network import DeliveredReply


def reply(site="LAX", address=0x0A000001, identifier=1, sequence=0, timestamp=1.0):
    return DeliveredReply(site, address, identifier, sequence, timestamp)


class TestCaptures:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: StreamingCapture("LAX"),
            lambda: LanderCapture("LAX"),
            lambda: PcapLikeCapture("LAX", io.StringIO()),
        ],
        ids=["streaming", "lander", "pcap"],
    )
    def test_record_and_drain(self, make):
        capture = make()
        records = [reply(timestamp=2.0), reply(address=0x0A000002, timestamp=1.0)]
        for record in records:
            capture.record(record)
        drained = capture.drain()
        assert len(drained) == 2
        assert {r.source_address for r in drained} == {0x0A000001, 0x0A000002}

    @pytest.mark.parametrize(
        "make",
        [
            lambda: StreamingCapture("LAX"),
            lambda: LanderCapture("LAX"),
            lambda: PcapLikeCapture("LAX", io.StringIO()),
        ],
        ids=["streaming", "lander", "pcap"],
    )
    def test_wrong_site_rejected(self, make):
        capture = make()
        with pytest.raises(MeasurementError):
            capture.record(reply(site="MIA"))

    def test_streaming_forwards_to_sink(self):
        received = []
        capture = StreamingCapture("LAX", sink=received.append)
        capture.record(reply())
        assert len(received) == 1
        assert capture.drain() == []  # already forwarded

    def test_lander_orders_by_bin(self):
        capture = LanderCapture("LAX", bin_seconds=10.0)
        capture.record(reply(timestamp=25.0))
        capture.record(reply(address=0x0A000002, timestamp=5.0))
        drained = capture.drain()
        assert drained[0].timestamp == 5.0

    def test_lander_rejects_bad_bin(self):
        with pytest.raises(MeasurementError):
            LanderCapture("LAX", bin_seconds=0)

    def test_pcap_roundtrips_exact_values(self):
        capture = PcapLikeCapture("LAX", io.StringIO())
        original = reply(address=0xC0A80101, identifier=77, sequence=12,
                         timestamp=123.456789)
        capture.record(original)
        restored = capture.drain()[0]
        assert restored.source_address == original.source_address
        assert restored.identifier == original.identifier
        assert restored.sequence == original.sequence
        assert restored.timestamp == pytest.approx(original.timestamp, abs=1e-6)

    def test_drain_clears(self):
        capture = StreamingCapture("LAX")
        capture.record(reply())
        capture.drain()
        assert capture.drain() == []


class TestCentralCollector:
    def test_merges_sites_in_time_order(self):
        collector = CentralCollector([StreamingCapture("LAX"), StreamingCapture("MIA")])
        collector.ingest(reply(site="MIA", timestamp=2.0))
        collector.ingest(reply(site="LAX", timestamp=1.0))
        merged = collector.collect()
        assert [r.site_code for r in merged] == ["LAX", "MIA"]

    def test_missing_site_capture_raises(self):
        collector = CentralCollector([StreamingCapture("LAX")])
        with pytest.raises(MeasurementError):
            collector.ingest(reply(site="MIA"))

    def test_duplicate_captures_rejected(self):
        with pytest.raises(MeasurementError):
            CentralCollector([StreamingCapture("LAX"), StreamingCapture("LAX")])

    def test_needs_captures(self):
        with pytest.raises(MeasurementError):
            CentralCollector([])

    def test_site_codes(self):
        collector = CentralCollector([StreamingCapture("MIA"), StreamingCapture("LAX")])
        assert collector.site_codes == ["LAX", "MIA"]


class TestCleaning:
    PROBED = {0x0A000001, 0x0A000002, 0x0A000003}

    def test_keeps_good_replies(self):
        replies = [reply(), reply(address=0x0A000002)]
        result = clean_replies(replies, self.PROBED, 1, 0.0)
        assert len(result.kept) == 2
        assert result.removed == 0

    def test_removes_wrong_round(self):
        result = clean_replies([reply(identifier=2)], self.PROBED, 1, 0.0)
        assert result.wrong_round == 1
        assert not result.kept

    def test_removes_unsolicited(self):
        result = clean_replies([reply(address=0x0B000001)], self.PROBED, 1, 0.0)
        assert result.unsolicited == 1

    def test_removes_late(self):
        late = reply(timestamp=1000.0)
        result = clean_replies(
            [late], self.PROBED, 1, 0.0, CleaningConfig(late_cutoff_seconds=900.0)
        )
        assert result.late == 1

    def test_reply_exactly_at_cutoff_is_kept(self):
        # The late rule is a strict ">": a reply landing exactly at
        # round_start + late_cutoff_seconds is still on time.
        config = CleaningConfig(late_cutoff_seconds=900.0)
        on_time = reply(timestamp=900.0)
        just_late = reply(address=0x0A000002, timestamp=900.0 + 1e-6)
        result = clean_replies([on_time, just_late], self.PROBED, 1, 0.0, config)
        assert len(result.kept) == 1
        assert result.kept[0].source_address == 0x0A000001
        assert result.late == 1

    def test_config_built_per_call_not_at_import(self):
        # A CleaningConfig() default in the signature would be frozen
        # at module import; the signature must default to None and
        # build the config inside the call (same for the observer).
        assert all(value is None for value in clean_replies.__defaults__)
        result = clean_replies([reply(timestamp=899.0)], self.PROBED, 1, 0.0)
        assert len(result.kept) == 1

    def test_removes_duplicates_keeps_first(self):
        replies = [reply(timestamp=2.0, sequence=9), reply(timestamp=1.0, sequence=5)]
        result = clean_replies(replies, self.PROBED, 1, 0.0)
        assert result.duplicates == 1
        assert result.kept[0].sequence == 5  # earliest wins

    def test_counts_are_consistent(self):
        replies = [
            reply(),                        # kept
            reply(),                        # duplicate
            reply(identifier=9),            # wrong round
            reply(address=0x0B000001),      # unsolicited
            reply(address=0x0A000002, timestamp=5000.0),  # late
        ]
        result = clean_replies(replies, self.PROBED, 1, 0.0)
        assert result.total == 5
        assert len(result.kept) == 1
        assert result.removed == 4

    def test_identifier_wraps_16_bits(self):
        result = clean_replies([reply(identifier=1)], self.PROBED, 0x1_0001, 0.0)
        assert len(result.kept) == 1

    def test_bad_config(self):
        with pytest.raises(ConfigurationError):
            CleaningConfig(late_cutoff_seconds=0)


class TestCleaningPrecedence:
    """Each removed reply is counted once, under the *first* matching rule.

    Docstring order: wrong-round → unsolicited → late → duplicates.
    These tests build replies matching two rules at once and pin which
    counter takes them.
    """

    PROBED = {0x0A000001, 0x0A000002}
    CONFIG = CleaningConfig(late_cutoff_seconds=900.0)

    def _clean(self, replies):
        return clean_replies(replies, self.PROBED, 1, 0.0, self.CONFIG)

    def test_wrong_round_beats_unsolicited(self):
        # Wrong identifier from an unprobed address: wrong-round wins.
        result = self._clean([reply(address=0x0B000001, identifier=9)])
        assert (result.wrong_round, result.unsolicited) == (1, 0)

    def test_wrong_round_beats_late(self):
        result = self._clean([reply(identifier=9, timestamp=5000.0)])
        assert (result.wrong_round, result.late) == (1, 0)

    def test_unsolicited_beats_late(self):
        result = self._clean([reply(address=0x0B000001, timestamp=5000.0)])
        assert (result.unsolicited, result.late) == (1, 0)

    def test_unsolicited_beats_duplicate(self):
        # Two replies from the same unprobed address: both unsolicited,
        # neither a duplicate (the duplicate rule only sees kept hosts).
        replies = [
            reply(address=0x0B000001, timestamp=1.0),
            reply(address=0x0B000001, timestamp=2.0),
        ]
        result = self._clean(replies)
        assert (result.unsolicited, result.duplicates) == (2, 0)

    def test_late_beats_duplicate(self):
        # A reply that is both late AND a repeat of a kept address must
        # be counted once, as late — the first matching rule.
        replies = [
            reply(timestamp=1.0),                 # kept
            reply(timestamp=1000.0, sequence=1),  # late + would-be dup
        ]
        result = self._clean(replies)
        assert (result.late, result.duplicates) == (1, 0)
        assert len(result.kept) == 1

    def test_late_reply_does_not_mark_address_seen(self):
        # A late first reply must not turn a later on-time reply from
        # the same address into a duplicate: the on-time one is simply
        # later in arrival order, and since the late rule never saw the
        # address as kept, nothing is deduplicated against it.  (With
        # arrival-time sorting a late reply can only precede an on-time
        # one via timestamp ties at the cutoff boundary, so pin the
        # mirror case instead: on-time kept first, late counted late.)
        replies = [
            reply(timestamp=899.0),
            reply(timestamp=1000.0, sequence=1),
        ]
        result = self._clean(replies)
        assert len(result.kept) == 1
        assert result.kept[0].timestamp == 899.0
        assert (result.late, result.duplicates) == (1, 0)

    def test_duplicate_of_kept_only(self):
        # Three replies from one probed address: first kept, the other
        # two duplicates (not late, not unsolicited).
        replies = [reply(timestamp=t, sequence=s) for s, t in enumerate((1.0, 2.0, 3.0))]
        result = self._clean(replies)
        assert len(result.kept) == 1
        assert result.duplicates == 2
        assert result.removed == 2


class TestStreamingCleaner:
    PROBED = {0x0A000001, 0x0A000002, 0x0A000003}

    def _mixed_stream(self):
        return [
            reply(timestamp=1.0),                                  # kept
            reply(timestamp=2.0, sequence=1),                      # duplicate
            reply(address=0x0A000002, timestamp=3.0),              # kept
            reply(address=0x0B000001, timestamp=4.0),              # unsolicited
            reply(identifier=9, timestamp=5.0),                    # wrong round
            reply(address=0x0A000003, timestamp=1000.0),           # late
            reply(address=0x0A000002, timestamp=1001.0),           # late (not dup)
        ]

    @pytest.mark.parametrize("batch_size", [1, 2, 3, 7])
    def test_totals_match_batch_cleaner(self, batch_size):
        from repro.collector.stream import StreamingCleaner

        replies = sorted(
            self._mixed_stream(),
            key=lambda r: (r.timestamp, r.source_address, r.site_code,
                           r.identifier, r.sequence),
        )
        expected = clean_replies(replies, self.PROBED, 1, 0.0)
        cleaner = StreamingCleaner(self.PROBED, 1, 0.0)
        batches = [
            ReplyColumns.from_replies(replies[i:i + batch_size])
            for i in range(0, len(replies), batch_size)
        ]
        increments = [cleaner.feed(batch) for batch in batches]
        totals = cleaner.totals
        assert list(totals.kept) == expected.kept
        assert totals.wrong_round == expected.wrong_round
        assert totals.unsolicited == expected.unsolicited
        assert totals.late == expected.late
        assert totals.duplicates == expected.duplicates
        assert totals.total == expected.total
        # The per-batch increments partition the totals.
        assert sum(r.total for r in increments) == expected.total
        assert cleaner.batches == len(batches)

    def test_duplicates_detected_across_batches(self):
        from repro.collector.stream import StreamingCleaner

        cleaner = StreamingCleaner(self.PROBED, 1, 0.0)
        first = cleaner.feed(ReplyColumns.from_replies([reply(timestamp=1.0)]))
        second = cleaner.feed(
            ReplyColumns.from_replies([reply(timestamp=2.0, sequence=1)])
        )
        assert len(first.kept) == 1
        assert second.duplicates == 1
        assert cleaner.totals.duplicates == 1

    def test_poisoned_batch_commits_nothing(self):
        from repro.collector.stream import StreamingCleaner

        cleaner = StreamingCleaner(self.PROBED, 1, 0.0)
        cleaner.feed(ReplyColumns.from_replies([reply(timestamp=1.0)]))
        before = (
            list(cleaner.totals.kept),
            cleaner.totals.removed,
            cleaner.batches,
        )
        # Reply objects are not a batch any more: anything that is not
        # well-formed columns raises while staging, and the cleaner
        # must stay exactly as it was.
        with pytest.raises(AttributeError):
            cleaner.feed([reply(address=0x0A000002, timestamp=2.0), object()])
        after = (
            list(cleaner.totals.kept),
            cleaner.totals.removed,
            cleaner.batches,
        )
        assert before == after
        # And the cleaner still works afterwards.
        result = cleaner.feed(
            ReplyColumns.from_replies([reply(address=0x0A000002, timestamp=2.0)])
        )
        assert len(result.kept) == 1

    def test_identifier_wraps_16_bits(self):
        from repro.collector.stream import StreamingCleaner

        cleaner = StreamingCleaner(self.PROBED, 0x1_0001, 0.0)
        result = cleaner.feed(ReplyColumns.from_replies([reply(identifier=1)]))
        assert len(result.kept) == 1
