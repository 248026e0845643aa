"""The daemon's columnar reply stream against its two oracles.

(a) ``replay_feed`` against the wire walk ``run_scan(wire_level=True)``
cleans (``Verfploeter.wire_round``), reply by reply; (b) the columnar
``StreamingCleaner`` against ``clean_replies`` on generated streams;
(c) malformed batches, which must raise while staging and leave no
trace.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collector.cleaning import clean_replies
from repro.collector.stream import ReplyColumns, StreamingCleaner
from repro.core.verfploeter import Verfploeter
from repro.icmp.network import DeliveredReply
from repro.load.estimator import LoadEstimate
from repro.service import (
    MappingService,
    MeasurementState,
    ReplyBatch,
    RoundEnd,
    RoundStart,
    replay_feed,
)

BATCH = 17
INTERVAL = 900.0


def _rounds_of(events):
    """Split a feed into ``(RoundStart, [ReplyColumns, ...])`` per round."""
    rounds = []
    for event in events:
        if isinstance(event, RoundStart):
            rounds.append((event, []))
        elif isinstance(event, ReplyBatch):
            assert event.round_id == rounds[-1][0].round_id
            rounds[-1][1].append(event.replies)
        else:
            assert isinstance(event, RoundEnd)
            assert event.round_id == rounds[-1][0].round_id
    return rounds


@pytest.mark.parametrize(
    "scenario_name, rounds, start_round",
    [("broot_tiny", 3, 0), ("broot_tiny", 2, 65535), ("tangled_tiny", 2, 0)],
    ids=["broot", "broot-rollover", "tangled"],
)
def test_stream_equals_the_wire_walk(request, scenario_name, rounds, start_round):
    scenario = request.getfixturevalue(scenario_name)
    verfploeter = Verfploeter(scenario.internet, scenario.service)
    routing = verfploeter.routing_for()
    feed = _rounds_of(
        replay_feed(
            verfploeter, routing=routing, rounds=rounds, batch_size=BATCH,
            start_round=start_round,
        )
    )
    assert len(feed) == rounds
    shared = feed[0][0].probed_addresses
    for index, (start, batches) in enumerate(feed):
        round_id, start_time = start_round + index, index * INTERVAL
        schedule, send_times, collected = verfploeter.wire_round(
            routing, round_id, start_time
        )
        assert (start.round_id, start.start_time) == (round_id, start_time)
        assert start.probes_sent == len(schedule)
        assert start.probed_addresses is shared and not shared.flags.writeable
        assert (np.diff(shared) > 0).all()
        assert set(shared.tolist()) == set(send_times)

        assert all(len(batch) == BATCH for batch in batches[:-1])
        streamed = [reply for batch in batches for reply in batch]
        assert len(streamed) == len(collected) > 0
        for ours, theirs in zip(streamed, collected):
            assert replace(ours, timestamp=theirs.timestamp) == theirs
            assert abs(ours.timestamp - theirs.timestamp) <= 1e-12
        # The stream really carries what cleaning exists to remove.
        assert len({reply.source_address for reply in streamed}) < len(streamed)
        assert any(reply.source_address not in send_times for reply in streamed)


def test_streamed_state_equals_batch_scans_across_the_rollover(broot_tiny):
    verfploeter = Verfploeter(broot_tiny.internet, broot_tiny.service)
    routing = verfploeter.routing_for()
    state = MeasurementState(
        routing.policy.site_codes,
        np.array(verfploeter.hitlist.blocks, dtype=np.uint64),
        LoadEstimate(broot_tiny.day_load("rollover-day")),
    )
    feed = replay_feed(
        verfploeter, routing=routing, rounds=2, batch_size=BATCH,
        start_round=65535,
    )
    assert MappingService(state, feed).ingest() == 2
    merged = {}
    for index, record in enumerate(state.view.rounds):
        scan = verfploeter.run_scan(
            routing=routing, round_id=65535 + index, start_time=index * INTERVAL
        )
        merged.update(dict(scan.catchment.items()))
        stats = scan.stats
        assert (
            record.kept, record.wrong_round, record.unsolicited,
            record.late, record.duplicates,
        ) == (
            stats.kept, stats.wrong_round, stats.unsolicited,
            stats.late, stats.duplicates,
        )
    assert dict(state.view.catchment.items()) == merged


# -- (b) columnar cleaner == batch cleaner ---------------------------------

PROBED = [0x0A000001, 0x0A000002, 0x0A000003, 0x0A000104]
ROUND_ID = 0x1_0001  # masks to identifier 1
CUTOFF = 900.0

_replies = st.builds(
    DeliveredReply,
    site_code=st.sampled_from(["AMS", "LAX", "MIA"]),
    source_address=st.sampled_from(PROBED + [0x0A000005, 0x0B000001]),
    identifier=st.sampled_from([1, 1, 1, 9]),
    sequence=st.integers(0, 2),
    timestamp=st.sampled_from(
        [0.5, 1.0, 1.0, 2.5, CUTOFF, math.nextafter(CUTOFF, math.inf), 1000.0]
    )
    | st.floats(0.0, 1200.0),
)


def _sort_key(reply):
    return (
        reply.timestamp, reply.source_address, reply.site_code,
        reply.identifier, reply.sequence,
    )


def _recode(columns: ReplyColumns) -> ReplyColumns:
    """The same replies over the reversed site-code tuple, so a site's
    index and the rank of its code disagree."""
    last = len(columns.site_codes) - 1
    return replace(
        columns,
        site_codes=columns.site_codes[::-1],
        site=(last - columns.site).astype(np.int16),
    )


@settings(max_examples=200, deadline=None)
@given(
    replies=st.lists(_replies, max_size=40),
    cuts=st.lists(st.integers(0, 40), max_size=8),
    scramble=st.booleans(),
)
def test_columnar_cleaner_equals_batch_cleaner(replies, cuts, scramble):
    expected = clean_replies(replies, set(PROBED), ROUND_ID, 0.0)
    ordered = sorted(replies, key=_sort_key)
    # Arbitrary partition of the sorted stream; repeated cut points are
    # empty batches, and a batch may arrive internally out of order.
    bounds = [0, *sorted(min(cut, len(ordered)) for cut in cuts), len(ordered)]
    cleaner = StreamingCleaner(PROBED, ROUND_ID, 0.0)
    kept = []
    for low, high in zip(bounds, bounds[1:]):
        batch = ordered[low:high]
        columns = _recode(
            ReplyColumns.from_replies(batch[::-1] if scramble else batch)
        )
        assert sorted(columns, key=_sort_key) == batch
        kept.extend(cleaner.feed(columns).kept)
    totals = cleaner.totals
    assert kept == list(totals.kept) == expected.kept
    assert (
        totals.wrong_round, totals.unsolicited, totals.late, totals.duplicates
    ) == (
        expected.wrong_round, expected.unsolicited, expected.late,
        expected.duplicates,
    )
    assert cleaner.batches == len(bounds) - 1


# -- (c) poisoned batches ---------------------------------------------------


def _good(address=PROBED[0], timestamp=1.0):
    return ReplyColumns.from_replies(
        [DeliveredReply("LAX", address, 1, 0, timestamp)]
    )


def _poisons():
    good = _good(PROBED[1], 2.0)
    return {
        "not-columns": (object(),),
        "ragged": replace(good, timestamp=np.array([2.0, 3.0])),
        "site-out-of-range": replace(good, site=np.array([1], dtype=np.int16)),
        "negative-site": replace(good, site=np.array([-1], dtype=np.int16)),
        "wrong-dtype": replace(good, source_address=np.array([float(PROBED[1])])),
        "object-dtype": replace(good, timestamp=np.array([None])),
    }


@pytest.mark.parametrize("form", sorted(_poisons()))
def test_poisoned_columns_raise_in_feed_and_commit_nothing(form):
    cleaner = StreamingCleaner(PROBED, ROUND_ID, 0.0)
    cleaner.feed(_good())

    def snapshot():
        totals = cleaner.totals
        return list(totals.kept), totals.removed, cleaner.batches

    before = snapshot()
    with pytest.raises(Exception):
        cleaner.feed(_poisons()[form])
    assert snapshot() == before
    # The address the poisoned batch carried was not marked seen.
    result = cleaner.feed(_good(PROBED[1], 2.0))
    assert len(result.kept) == 1 and result.removed == 0


@pytest.mark.parametrize("form", sorted(_poisons()))
def test_poisoned_columns_are_quarantined_by_the_state(form, broot_tiny):
    blocks = np.array([address >> 8 for address in PROBED[::3]], dtype=np.uint64)
    state = MeasurementState(
        ["LAX"], blocks, LoadEstimate(broot_tiny.day_load("poison-day"))
    )
    state.begin_round(ROUND_ID, 0.0, PROBED)
    assert state.ingest_batch(_good()) is not None
    assert state.ingest_batch(_poisons()[form]) is None
    cleaned = state.ingest_batch(_good(PROBED[1], 2.0))
    assert cleaned is not None and len(cleaned.kept) == 1
    record = state.end_round()
    assert (record.kept, record.quarantined_batches) == (2, 1)
    assert record.wrong_round + record.unsolicited + record.late + record.duplicates == 0
