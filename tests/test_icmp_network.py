"""Tests for the host responder and the simulated dataplane."""

from __future__ import annotations

import pytest

from repro.bgp.reference import site_of_block
from repro.errors import MeasurementError
from repro.oracle.network import SimulatedDataplane
from repro.oracle.packets import EchoMessage, ICMP_ECHO_REPLY, ICMP_ECHO_REQUEST, build_probe, build_reply
from repro.oracle.responder import HostResponder, replies_from_other_address

SOURCE = 0xC0000201


@pytest.fixture(scope="module")
def dataplane(two_site_routing):
    return SimulatedDataplane(two_site_routing)


def request(identifier=1, sequence=2):
    return EchoMessage(ICMP_ECHO_REQUEST, identifier, sequence)


class TestHostResponder:
    def test_unpopulated_block_silent(self, tiny_internet):
        responder = HostResponder(tiny_internet)
        assert responder.respond(0xDEADBEEF, request(), 0) == []

    def test_reply_mirrors_identifier(self, tiny_internet, two_site_routing):
        responder = HostResponder(tiny_internet)
        for block in list(tiny_internet.blocks)[:100]:
            events = responder.respond((block << 8) | 1, request(77, 88), 0)
            for event in events:
                assert event.message.identifier == 77
                assert event.message.sequence == 88
                assert event.message.is_reply

    def test_non_request_ignored(self, tiny_internet):
        responder = HostResponder(tiny_internet)
        block = list(tiny_internet.blocks)[0]
        reply = EchoMessage(ICMP_ECHO_REPLY, 1, 2)
        assert responder.respond((block << 8) | 1, reply, 0) == []

    def test_response_rate_matches_model(self, tiny_internet):
        responder = HostResponder(tiny_internet)
        blocks = list(tiny_internet.blocks)
        responded = sum(
            bool(responder.respond((block << 8) | 1, request(), 0))
            for block in blocks
        )
        rate = responded / len(blocks)
        assert 0.40 < rate < 0.70  # ~55% with country overrides and churn

    def test_off_address_replies_in_same_block(self, tiny_internet):
        responder = HostResponder(tiny_internet)
        model = tiny_internet.host_model
        off_blocks = [
            block for block in tiny_internet.blocks
            if replies_from_other_address(model, block)
        ]
        found_off = False
        for block in off_blocks:
            events = responder.respond((block << 8) | 1, request(), 0)
            for event in events:
                assert event.source_block == block
                if event.source_address != ((block << 8) | 1):
                    found_off = True
        if off_blocks:
            assert found_off or not any(
                responder.respond((b << 8) | 1, request(), 0) for b in off_blocks
            )


class TestDataplane:
    def test_replies_delivered_to_catchment_site(self, tiny_internet, dataplane, two_site_routing):
        for block in list(tiny_internet.blocks)[:200]:
            delivered = dataplane.send_probe_packet(
                build_probe(SOURCE, (block << 8) | 1, 1, 0), 0.0, 0
            )
            expected = site_of_block(two_site_routing, block, 0)
            for reply in delivered:
                assert reply.site_code == expected

    def test_wire_and_fast_paths_equivalent(self, tiny_internet, dataplane):
        # The per-probe fast path is gone; what it pinned — the packet
        # encode/decode round-trip changes nothing the host model
        # decided — is checked against the responder directly.
        responder = HostResponder(tiny_internet)
        for block in list(tiny_internet.blocks)[:300]:
            destination = (block << 8) | 1
            wire = dataplane.send_probe_packet(
                build_probe(SOURCE, destination, 5, 6), 10.0, 1
            )
            events = responder.respond(destination, request(5, 6), 1)
            assert [r.source_address for r in wire] == [
                e.source_address for e in events
            ]
            assert [r.timestamp for r in wire] == [
                10.0 + e.delay_ms / 1000.0 for e in events
            ]
            assert all((r.identifier, r.sequence) == (5, 6) for r in wire)

    def test_send_reply_packet_rejected(self, dataplane):
        wire = build_reply(1, 2, 3, 4)
        with pytest.raises(MeasurementError):
            dataplane.send_probe_packet(wire, 0.0, 0)

    def test_timestamps_include_latency(self, tiny_internet, dataplane):
        for block in list(tiny_internet.blocks)[:50]:
            delivered = dataplane.send_probe_packet(
                build_probe(SOURCE, (block << 8) | 1, 1, 0), 100.0, 0
            )
            for reply in delivered:
                assert reply.timestamp > 100.0
