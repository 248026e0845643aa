"""Tests for IPv4 address parsing/formatting."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AddressError
from repro.netaddr.address import (
    IPv4Address,
    format_ipv4,
    parse_ipv4,
)


class TestParse:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("0.0.0.0", 0),
            ("255.255.255.255", 0xFFFFFFFF),
            ("192.0.2.1", 0xC0000201),
            ("10.0.0.1", 0x0A000001),
            ("1.2.3.4", 0x01020304),
        ],
    )
    def test_valid(self, text, value):
        assert parse_ipv4(text) == value

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "1.2.3",
            "1.2.3.4.5",
            "256.1.1.1",
            "1.2.3.-4",
            "a.b.c.d",
            "01.2.3.4",
            "1..2.3",
            " 1.2.3.4",
            "1.2.3.4 ",
        ],
    )
    def test_invalid(self, text):
        with pytest.raises(AddressError):
            parse_ipv4(text)

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_roundtrip(self, value):
        assert parse_ipv4(format_ipv4(value)) == value

    def test_format_out_of_range(self):
        with pytest.raises(AddressError):
            format_ipv4(1 << 32)
        with pytest.raises(AddressError):
            format_ipv4(-1)


class TestIPv4Address:
    def test_from_string(self):
        assert IPv4Address("192.0.2.1").value == 0xC0000201

    def test_from_int(self):
        assert str(IPv4Address(0xC0000201)) == "192.0.2.1"

    def test_from_address(self):
        original = IPv4Address("10.0.0.1")
        assert IPv4Address(original) == original

    def test_rejects_bad_type(self):
        with pytest.raises(AddressError):
            IPv4Address(1.5)  # type: ignore[arg-type]

    def test_rejects_out_of_range(self):
        with pytest.raises(AddressError):
            IPv4Address(1 << 32)

    def test_block_property(self):
        assert IPv4Address("192.0.2.77").block == 0xC00002

    def test_ordering(self):
        assert IPv4Address("1.0.0.0") < IPv4Address("2.0.0.0")
        assert IPv4Address("1.0.0.0") < 0x02000000

    def test_int_equality(self):
        assert IPv4Address("1.2.3.4") == 0x01020304

    def test_hash_matches_int(self):
        assert hash(IPv4Address("1.2.3.4")) == hash(0x01020304)

    def test_addition(self):
        assert str(IPv4Address("10.0.0.1") + 9) == "10.0.0.10"

    def test_index_protocol(self):
        assert hex(IPv4Address("0.0.0.255")) == "0xff"

    def test_repr(self):
        assert "192.0.2.1" in repr(IPv4Address("192.0.2.1"))
