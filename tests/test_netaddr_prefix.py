"""Tests for CIDR prefixes."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AddressError
from repro.netaddr.prefix import Prefix
from repro.topology.validate import overlaps


def aligned_prefixes():
    """Strategy: valid prefixes with host bits clear."""
    return st.integers(min_value=0, max_value=32).flatmap(
        lambda length: st.integers(
            min_value=0, max_value=(1 << length) - 1 if length else 0
        ).map(lambda top: Prefix((top << (32 - length)) & 0xFFFFFFFF, length))
    )


class TestConstruction:
    def test_from_cidr_string(self):
        prefix = Prefix("192.0.2.0/24")
        assert prefix.network == 0xC0000200
        assert prefix.length == 24

    def test_from_network_and_length(self):
        assert str(Prefix(0xC0000200, 24)) == "192.0.2.0/24"

    def test_host_bits_rejected(self):
        with pytest.raises(AddressError):
            Prefix("192.0.2.1/24")

    def test_bad_length(self):
        with pytest.raises(AddressError):
            Prefix("10.0.0.0/33")
        with pytest.raises(AddressError):
            Prefix(0, -1)

    def test_missing_length(self):
        with pytest.raises(AddressError):
            Prefix("10.0.0.0")

    def test_zero_length(self):
        assert Prefix("0.0.0.0/0").size == 1 << 32

    def test_network_as_text_or_int_only(self):
        assert Prefix("10.0.0.0", 8) == Prefix(0x0A000000, 8)
        with pytest.raises(AddressError):
            Prefix(1.5, 24)  # type: ignore[arg-type]


class TestProperties:
    def test_netmask(self):
        assert Prefix("10.0.0.0/8").netmask == 0xFF000000
        assert Prefix("0.0.0.0/0").netmask == 0

    def test_broadcast(self):
        assert Prefix("192.0.2.0/24").broadcast == 0xC00002FF

    def test_size(self):
        assert Prefix("192.0.2.0/24").size == 256
        assert Prefix("10.0.0.0/8").size == 1 << 24

    def test_block_count(self):
        assert Prefix("192.0.2.0/24").block_count == 1
        assert Prefix("10.0.0.0/16").block_count == 256
        assert Prefix("192.0.2.128/25").block_count == 0

    def test_blocks_iteration(self):
        prefix = Prefix("10.0.0.0/22")
        assert prefix.block_count == 4
        assert prefix.network >> 8 == 0x0A0000
        assert prefix.broadcast >> 8 == 0x0A0003

    def test_blocks_empty_for_long_prefix(self):
        assert Prefix("10.0.0.128/25").block_count == 0


class TestContainment:
    def test_contains_address(self):
        prefix = Prefix("192.0.2.0/24")
        assert prefix.contains_address(0xC0000280)
        assert not prefix.contains_address(0xC0000380)

    def test_contains_prefix(self):
        def contains(outer, inner):
            return outer.contains_address(inner.network) and outer.contains_address(inner.broadcast)

        assert contains(Prefix("10.0.0.0/8"), Prefix("10.1.0.0/16"))
        assert not contains(Prefix("10.1.0.0/16"), Prefix("10.0.0.0/8"))
        assert contains(Prefix("10.0.0.0/8"), Prefix("10.0.0.0/8"))

    def test_overlaps(self):
        assert overlaps(Prefix("10.0.0.0/8"), Prefix("10.1.0.0/16"))
        assert overlaps(Prefix("10.1.0.0/16"), Prefix("10.0.0.0/8"))
        assert not overlaps(Prefix("10.0.0.0/8"), Prefix("11.0.0.0/8"))

    @given(aligned_prefixes())
    def test_contains_own_network_and_broadcast(self, prefix):
        assert prefix.contains_address(prefix.network)
        assert prefix.contains_address(prefix.broadcast)


class TestOrderingAndHash:
    def test_sort_order(self):
        prefixes = [Prefix("10.0.0.0/16"), Prefix("10.0.0.0/8"), Prefix("9.0.0.0/8")]
        ordered = sorted(prefixes)
        assert ordered[0] == Prefix("9.0.0.0/8")
        assert ordered[1] == Prefix("10.0.0.0/8")

    def test_hashable(self):
        assert len({Prefix("10.0.0.0/8"), Prefix("10.0.0.0/8")}) == 1

    @given(aligned_prefixes())
    def test_string_roundtrip(self, prefix):
        assert Prefix(str(prefix)) == prefix
