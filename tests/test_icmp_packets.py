"""Tests for the IPv4/ICMP wire format."""

from __future__ import annotations

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import PacketError
from repro.oracle.packets import (
    ICMP_ECHO_REPLY,
    ICMP_ECHO_REQUEST,
    EchoMessage,
    IPv4Header,
    build_probe,
    build_reply,
    internet_checksum,
    parse_packet,
)


class TestChecksum:
    def test_known_vector(self):
        # RFC 1071 example data.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == 0x220D

    def test_checksum_of_checksummed_is_zero(self):
        data = b"hello world"
        checksum = internet_checksum(data)
        padded = data + b"\x00"  # odd length gets padded
        combined = padded + struct.pack("!H", checksum)
        assert internet_checksum(combined) == 0

    def test_empty(self):
        assert internet_checksum(b"") == 0xFFFF


class TestIPv4Header:
    def test_roundtrip(self):
        header = IPv4Header(0x0A000001, 0xC0000201, 84, ttl=17, identification=99)
        decoded = IPv4Header.decode(header.encode())
        assert decoded == header

    def test_corrupt_checksum_detected(self):
        wire = bytearray(IPv4Header(1, 2, 28).encode())
        wire[8] ^= 0xFF
        with pytest.raises(PacketError):
            IPv4Header.decode(bytes(wire))

    def test_truncated(self):
        with pytest.raises(PacketError):
            IPv4Header.decode(b"\x45\x00\x00")

    def test_wrong_version(self):
        wire = bytearray(IPv4Header(1, 2, 28).encode())
        wire[0] = 0x65
        with pytest.raises(PacketError):
            IPv4Header.decode(bytes(wire))


class TestEchoMessage:
    def test_roundtrip(self):
        message = EchoMessage(ICMP_ECHO_REQUEST, 0x1234, 7, b"payload")
        decoded = EchoMessage.decode(message.encode())
        assert decoded == message

    def test_reply_mirrors_request(self):
        request = EchoMessage(ICMP_ECHO_REQUEST, 5, 6, b"x")
        reply = request.reply()
        assert reply.is_reply
        assert reply.identifier == 5
        assert reply.sequence == 6
        assert reply.payload == b"x"

    def test_reply_of_reply_rejected(self):
        reply = EchoMessage(ICMP_ECHO_REPLY, 5, 6)
        with pytest.raises(PacketError):
            reply.reply()

    def test_corrupt_detected(self):
        wire = bytearray(EchoMessage(ICMP_ECHO_REQUEST, 1, 2).encode())
        wire[4] ^= 0x01
        with pytest.raises(PacketError):
            EchoMessage.decode(bytes(wire))

    def test_identifier_range_checked(self):
        with pytest.raises(PacketError):
            EchoMessage(ICMP_ECHO_REQUEST, 0x10000, 0).encode()
        with pytest.raises(PacketError):
            EchoMessage(ICMP_ECHO_REQUEST, 0, 0x10000).encode()

    def test_non_echo_type_rejected(self):
        wire = bytearray(EchoMessage(ICMP_ECHO_REQUEST, 1, 2).encode())
        wire[0] = 3  # destination unreachable
        # Fix up checksum so only the type check trips.
        wire[2:4] = b"\x00\x00"
        checksum = internet_checksum(bytes(wire))
        wire[2:4] = struct.pack("!H", checksum)
        with pytest.raises(PacketError):
            EchoMessage.decode(bytes(wire))

    @given(
        st.integers(min_value=0, max_value=0xFFFF),
        st.integers(min_value=0, max_value=0xFFFF),
        st.binary(max_size=64),
    )
    def test_roundtrip_property(self, identifier, sequence, payload):
        message = EchoMessage(ICMP_ECHO_REQUEST, identifier, sequence, payload)
        assert EchoMessage.decode(message.encode()) == message


class TestFullPackets:
    def test_probe_roundtrip(self):
        wire = build_probe(0x0A000001, 0xC0000201, 42, 7, b"verfploeter")
        header, message = parse_packet(wire)
        assert header.source == 0x0A000001
        assert header.destination == 0xC0000201
        assert message.is_request
        assert message.identifier == 42
        assert message.payload == b"verfploeter"

    def test_reply_roundtrip(self):
        wire = build_reply(0xC0000201, 0x0A000001, 42, 7)
        header, message = parse_packet(wire)
        assert message.is_reply
        assert header.source == 0xC0000201

    def test_length_mismatch_detected(self):
        wire = build_probe(1, 2, 3, 4) + b"extra"
        with pytest.raises(PacketError):
            parse_packet(wire)

    def test_non_icmp_protocol_rejected(self):
        icmp = EchoMessage(ICMP_ECHO_REQUEST, 1, 2).encode()
        header = IPv4Header(1, 2, 20 + len(icmp), protocol=17)  # UDP
        with pytest.raises(PacketError):
            parse_packet(header.encode() + icmp)

    @given(
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        st.integers(min_value=0, max_value=0xFFFF),
        st.integers(min_value=0, max_value=0xFFFF),
    )
    def test_probe_roundtrip_property(self, source, destination, identifier, sequence):
        wire = build_probe(source, destination, identifier, sequence)
        header, message = parse_packet(wire)
        assert (header.source, header.destination) == (source, destination)
        assert (message.identifier, message.sequence) == (identifier, sequence)
