"""Tests for the RIB and path dumps."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.bgp.reference import selection_of, selections
from repro.bgp.ribdump import read_rib_dump, write_rib_dump
from repro.errors import DatasetError


class TestRibDump:
    @pytest.fixture(scope="class")
    def lookup(self, tiny_internet):
        buffer = io.StringIO()
        write_rib_dump(tiny_internet, buffer)
        buffer.seek(0)
        return read_rib_dump(buffer)

    def test_every_announced_prefix_present(self, tiny_internet, lookup):
        assert len(lookup) == len(tiny_internet.announced)

    def test_origin_matches_topology(self, tiny_internet, lookup):
        blocks = list(tiny_internet.blocks)[:300]
        origins = tiny_internet.asns_of_blocks(np.array(blocks))
        for block, origin in zip(blocks, origins.tolist()):
            assert lookup.origin_of_block(block) == origin

    def test_unrouted_space_unmapped(self, lookup):
        assert lookup.origin_of_address(0xDEADBEEF) is None
        assert lookup.origin_of_block(0xFFFFFF) is None

    def test_prefix_of_address(self, tiny_internet, lookup):
        block = list(tiny_internet.blocks)[0]
        prefix = lookup.prefix_of_address(block << 8)
        assert prefix is not None
        assert prefix.contains_address(block << 8)

    def test_rejects_malformed_lines(self):
        with pytest.raises(DatasetError):
            read_rib_dump(io.StringIO("10.0.0.0/8\n"))
        with pytest.raises(DatasetError):
            read_rib_dump(io.StringIO("10.0.0.0/8 notanasn\n"))

    def test_rejects_empty_dump(self):
        with pytest.raises(DatasetError):
            read_rib_dump(io.StringIO("# prefix origin-as\n"))

    def test_comments_and_blanks_ignored(self):
        lookup = read_rib_dump(io.StringIO("# header\n\n10.0.0.0/8 65000\n"))
        assert lookup.origin_of_address(0x0A000001) == 65000


class TestPathDump:
    def test_roundtrip(self, tiny_internet, two_site_routing):
        import io

        from repro.bgp.ribdump import read_path_dump, write_path_dump

        buffer = io.StringIO()
        write_path_dump(two_site_routing, buffer)
        buffer.seek(0)
        paths = read_path_dump(buffer)
        assert len(paths) == len(selections(two_site_routing))
        for asn, hops in paths.items():
            assert tuple(hops) == selection_of(two_site_routing, asn).as_path

    def test_rejects_garbage(self):
        import io

        from repro.bgp.ribdump import read_path_dump

        with pytest.raises(DatasetError):
            read_path_dump(io.StringIO("# only a header\n"))
        with pytest.raises(DatasetError):
            read_path_dump(io.StringIO("notanasn: 1 2 3\n"))
