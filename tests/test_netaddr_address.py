"""Tests for IPv4 address parsing/formatting."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AddressError
from repro.netaddr.address import format_ipv4, parse_ipv4


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
