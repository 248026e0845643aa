"""Tests for /24 block helpers."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AddressError
from repro.netaddr.blocks import (
    BLOCK_COUNT,
    block_base_address,
    format_block,
    parse_block,
)


class TestBlockMath:
    def test_block_base_address(self):
        assert block_base_address(0xC00002) == 0xC0000200

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_roundtrip_through_base(self, address):
        block = address >> 8
        assert block_base_address(block) <= address < block_base_address(block) + 256

    def test_out_of_range(self):
        with pytest.raises(AddressError):
            block_base_address(BLOCK_COUNT)


class TestFormatting:
    def test_format(self):
        assert format_block(0xC00002) == "192.0.2.0/24"

    def test_parse(self):
        assert parse_block("192.0.2.0/24") == 0xC00002

    def test_parse_bare_address(self):
        assert parse_block("192.0.2.0") == 0xC00002

    def test_parse_rejects_other_lengths(self):
        with pytest.raises(AddressError):
            parse_block("192.0.2.0/23")

    def test_parse_rejects_unaligned(self):
        with pytest.raises(AddressError):
            parse_block("192.0.2.5/24")

    @given(st.integers(min_value=0, max_value=BLOCK_COUNT - 1))
    def test_format_parse_roundtrip(self, block):
        assert parse_block(format_block(block)) == block
