"""Micro-benchmarks of the core data structures.

Not a paper experiment — performance regression tracking for the pieces
every scan leans on: LPM trie lookups, the Feistel permutation, the
Internet checksum, route propagation, and the vectorised round.
"""

from __future__ import annotations

import numpy as np

from repro.bgp.propagation import compute_routes
from repro.bgp.reference import reachable_fraction
from repro.core.fastscan import FastScanEngine
from repro.core.verfploeter import Verfploeter
from repro.netaddr.prefix import Prefix
from repro.netaddr.trie import LongestPrefixTrie
from repro.oracle.packets import build_probe, internet_checksum, parse_packet
from repro.oracle.schedule import PseudorandomOrder
from repro.rng import uniform_unit_np


def test_micro_trie_lookup(benchmark, broot):
    trie: LongestPrefixTrie = LongestPrefixTrie()
    for entry in broot.internet.announced:
        trie.insert(entry.prefix, entry.origin_asn)
    addresses = [(block << 8) | 1 for block in list(broot.internet.blocks)[:1000]]

    def lookup_all():
        return sum(1 for a in addresses if trie.lookup_value(a) is not None)

    hits = benchmark(lookup_all)
    assert hits == len(addresses)


def test_micro_feistel_permutation(benchmark):
    order = PseudorandomOrder(10_000, 7)

    def walk():
        return sum(order.index(i) for i in range(0, 10_000, 10))

    total = benchmark(walk)
    assert total > 0


def test_micro_checksum_and_parse(benchmark):
    packets = [
        build_probe(0x0A000001, 0xC0000200 + i, i & 0xFFFF, i & 0xFFFF)
        for i in range(200)
    ]

    def parse_all():
        return sum(parse_packet(p)[1].sequence for p in packets)

    benchmark(parse_all)
    assert internet_checksum(b"\x00\x00") == 0xFFFF


def test_micro_route_propagation(benchmark, broot):
    policy = broot.service.default_policy()
    outcome = benchmark(lambda: compute_routes(broot.internet, policy))
    assert reachable_fraction(outcome) == 1.0


def test_micro_vectorised_round(benchmark, broot, broot_vp, broot_routing_may):
    engine = FastScanEngine(broot_vp, broot_routing_may)
    scan = benchmark(lambda: engine.run_scan(round_id=5))
    assert scan.mapped_blocks > 0


def test_micro_vectorised_rng(benchmark):
    blocks = np.arange(100_000, dtype=np.uint64)

    def draw():
        return float(uniform_unit_np(1, 0x1234, blocks, 7).sum())

    total = benchmark(draw)
    assert 45_000 < total < 55_000  # mean ~0.5
