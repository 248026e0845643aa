"""Fuzz/property tests: parsers must never fail with anything but their
own typed error, and structural invariants must hold for arbitrary input."""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anycast.catchment import CatchmentMap
from repro.errors import DNSError, PacketError, ReproError
from repro.oracle.cleaning import clean_replies
from repro.oracle.dns import DnsMessage, decode_name
from repro.oracle.network import DeliveredReply
from repro.oracle.packets import EchoMessage, IPv4Header, parse_packet
from repro.oracle.schedule import PseudorandomOrder
from tests import catchment_model as model


class TestParserRobustness:
    @given(st.binary(max_size=128))
    def test_dns_decode_total(self, data):
        """Arbitrary bytes: valid message or DNSError, nothing else."""
        try:
            DnsMessage.decode(data)
        except DNSError:
            pass

    @given(st.binary(max_size=64), st.integers(min_value=0, max_value=63))
    def test_name_decode_total(self, data, offset):
        try:
            decode_name(data, offset)
        except DNSError:
            pass

    @given(st.binary(max_size=96))
    def test_packet_parse_total(self, data):
        try:
            parse_packet(data)
        except PacketError:
            pass

    @given(st.binary(max_size=40))
    def test_icmp_decode_total(self, data):
        try:
            EchoMessage.decode(data)
        except PacketError:
            pass

    @given(st.binary(max_size=40))
    def test_ipv4_decode_total(self, data):
        try:
            IPv4Header.decode(data)
        except PacketError:
            pass

    @given(st.text(max_size=200))
    def test_scan_read_total(self, text):
        from repro.datasets import read_scan

        try:
            read_scan(io.StringIO(text))
        except ReproError:
            pass


#: Non-empty site vocabularies in any order, some sharing no code.
site_lists = st.lists(
    st.sampled_from(["A", "B", "C", "D"]), min_size=1, max_size=4, unique=True
)


@st.composite
def mapping_pairs(draw):
    """Two plain ``{block: site}`` dicts over overlapping blocks, each with
    its own site vocabulary (they may differ in order and in membership)."""
    earlier_sites, later_sites = draw(site_lists), draw(site_lists)
    blocks = draw(st.lists(st.integers(min_value=0, max_value=500),
                           unique=True, max_size=40))
    first = {b: draw(st.sampled_from(earlier_sites)) for b in blocks}
    second = {
        b: draw(st.sampled_from(later_sites))
        for b in blocks + draw(st.lists(st.integers(min_value=0, max_value=500)))
        if draw(st.booleans())
    }
    return earlier_sites, first, later_sites, second


@st.composite
def catchment_pairs(draw):
    earlier_sites, first, later_sites, second = draw(mapping_pairs())
    return (
        CatchmentMap.from_mapping(earlier_sites, first),
        CatchmentMap.from_mapping(later_sites, second),
    )


class TestCatchmentProperties:
    @settings(max_examples=60)
    @given(catchment_pairs())
    def test_diff_partitions_blocks(self, pair):
        earlier, later = pair
        diff = earlier.diff(later)
        assert diff.stable + diff.flipped + diff.disappeared == len(earlier)
        assert diff.stable + diff.flipped + diff.appeared == len(later)

    @settings(max_examples=60)
    @given(catchment_pairs())
    def test_diff_reverse_symmetry(self, pair):
        earlier, later = pair
        forward = earlier.diff(later)
        backward = later.diff(earlier)
        assert forward.stable == backward.stable
        assert forward.flipped == backward.flipped
        assert forward.appeared == backward.disappeared
        assert forward.disappeared == backward.appeared

    @settings(max_examples=60)
    @given(catchment_pairs())
    def test_fractions_sum_to_one(self, pair):
        earlier, _ = pair
        if len(earlier):
            assert sum(earlier.fractions().values()) == pytest.approx(1.0)

    @settings(max_examples=100)
    @given(mapping_pairs(), st.lists(st.integers(min_value=-5, max_value=505)))
    def test_array_map_equivalent_to_dict_map(self, pair, keep):
        """Columnar maps agree with the plain-dict model on arbitrary input:
        items, ``counts``, ``fractions``, ``restrict`` and ``diff`` (counts
        and flipped-block order), also when the two maps' site vocabularies
        differ in order or in membership (``diff`` recodes ``later``'s
        indices)."""
        earlier_sites, first, later_sites, second = pair
        earlier = CatchmentMap.from_mapping(earlier_sites, first)
        later = CatchmentMap.from_mapping(later_sites, second)
        assert list(earlier.items()) == sorted(first.items())
        assert earlier.counts() == model.counts(earlier_sites, first)
        assert earlier.fractions() == model.fractions(earlier_sites, first)
        kept = model.restrict(first, keep)
        restricted = earlier.restrict(keep)
        assert dict(restricted.items()) == kept
        assert restricted.counts() == model.counts(earlier_sites, kept)
        assert earlier.diff(later) == model.diff(first, second)
        assert later.diff(earlier) == model.diff(second, first)


class TestCleaningProperties:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["LAX", "MIA"]),
                st.integers(min_value=0, max_value=50),
                st.integers(min_value=0, max_value=3),
                st.floats(min_value=0.0, max_value=2000.0,
                          allow_nan=False),
            ),
            max_size=40,
        )
    )
    def test_cleaning_is_order_insensitive(self, raw):
        replies = [
            DeliveredReply(site, 0x0A000000 + address, identifier, 0, timestamp)
            for site, address, identifier, timestamp in raw
        ]
        probed = {0x0A000000 + n for n in range(0, 51, 2)}
        forward = clean_replies(replies, probed, 1, 0.0)
        backward = clean_replies(list(reversed(replies)), probed, 1, 0.0)
        assert forward.kept == backward.kept
        assert forward.duplicates == backward.duplicates
        assert forward.unsolicited == backward.unsolicited
        assert forward.late == backward.late

    @given(
        st.lists(
            st.integers(min_value=0, max_value=100),
            max_size=40,
        )
    )
    def test_kept_sources_unique(self, addresses):
        replies = [
            DeliveredReply("LAX", 0x0A000000 + a, 1, 0, float(i))
            for i, a in enumerate(addresses)
        ]
        probed = {0x0A000000 + n for n in range(101)}
        result = clean_replies(replies, probed, 1, 0.0)
        sources = [reply.source_address for reply in result.kept]
        assert len(sources) == len(set(sources))


class TestPermutationProperties:
    @settings(max_examples=20)
    @given(
        st.integers(min_value=1, max_value=100_000),
        st.integers(min_value=0, max_value=(1 << 62)),
    )
    def test_sampled_injectivity_large_domains(self, n, seed):
        order = PseudorandomOrder(n, seed)
        sample = [order.index(i) for i in range(0, n, max(1, n // 64))]
        assert len(sample) == len(set(sample))
        assert all(0 <= value < n for value in sample)


class TestShardPlanProperties:
    @settings(max_examples=60)
    @given(
        st.integers(min_value=1, max_value=5000),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=0, max_value=(1 << 32) - 1),
    )
    def test_merge_of_split_is_identity(self, size, shards, seed):
        """Slicing any array by a shard plan and concatenating the
        slices back must reproduce the original buffer bit for bit."""
        from repro.core.sharding import ShardPlan, assert_buffers_equal

        plan = ShardPlan.split(size, shards)
        values = (
            np.arange(size, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            + np.uint64(seed)
        )
        parts = [values[start:stop] for start, stop in plan.bounds]
        merged = parts[0] if len(parts) == 1 else np.concatenate(parts)
        assert_buffers_equal(merged, values)
        assert plan.shard_count == min(shards, size)
        assert sum(plan.sizes()) == size
        assert plan.imbalance() >= 1.0
