"""Tests for the DNS wire format and the site-identity server."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.oracle.dns import (
    CLASS_CHAOS,
    CLASS_IN,
    TYPE_OPT,
    TYPE_TXT,
    DnsMessage,
    DnsQuestion,
    DnsRecord,
    decode_name,
    encode_name,
)
from repro.errors import DNSError
from repro.oracle.chaos import SiteIdentityServer

_LABEL = st.text(
    alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789-"),
    min_size=1,
    max_size=20,
).filter(lambda label: not label.startswith("-"))


class TestNames:
    def test_encode_simple(self):
        assert encode_name("a.bc") == b"\x01a\x02bc\x00"

    def test_root(self):
        assert encode_name(".") == b"\x00"
        assert encode_name("") == b"\x00"

    def test_trailing_dot_ignored(self):
        assert encode_name("a.bc.") == encode_name("a.bc")

    def test_rejects_long_label(self):
        with pytest.raises(DNSError):
            encode_name("x" * 64)

    def test_rejects_empty_label(self):
        with pytest.raises(DNSError):
            encode_name("a..b")

    @given(st.lists(_LABEL, min_size=1, max_size=5))
    def test_roundtrip(self, labels):
        name = ".".join(labels)
        wire = encode_name(name)
        decoded, offset = decode_name(wire, 0)
        assert decoded == name
        assert offset == len(wire)

    def test_compression_pointer(self):
        # "example" at offset 0, then a pointer to it prefixed by "www".
        base = encode_name("example")
        pointer = b"\x03www" + bytes([0xC0, 0x00])
        data = base + pointer
        decoded, offset = decode_name(data, len(base))
        assert decoded == "www.example"
        assert offset == len(data)

    def test_pointer_loop_detected(self):
        data = bytes([0xC0, 0x00])
        with pytest.raises(DNSError):
            decode_name(data, 0)

    def test_truncated_name(self):
        with pytest.raises(DNSError):
            decode_name(b"\x05ab", 0)


class TestRecords:
    def test_txt_roundtrip(self):
        record = DnsRecord.txt("hostname.bind", "lax1.b.example")
        assert record.txt_strings() == ["lax1.b.example"]

    def test_txt_too_long(self):
        with pytest.raises(DNSError):
            DnsRecord.txt("x", "y" * 256)

    def test_txt_strings_on_non_txt(self):
        record = DnsRecord.nsid_opt(b"x")
        with pytest.raises(DNSError):
            record.txt_strings()

    def test_nsid_roundtrip(self):
        record = DnsRecord.nsid_opt(b"site-7")
        assert record.nsid_value() == b"site-7"

    def test_nsid_absent(self):
        record = DnsRecord("", TYPE_OPT, 4096, 0, b"")
        assert record.nsid_value() is None


class TestMessages:
    def test_query_roundtrip(self):
        query = DnsMessage.query(0x1234, "hostname.bind")
        decoded = DnsMessage.decode(query.encode())
        assert decoded.message_id == 0x1234
        assert not decoded.is_response
        assert decoded.questions == [
            DnsQuestion("hostname.bind", TYPE_TXT, CLASS_CHAOS)
        ]

    def test_response_roundtrip(self):
        message = DnsMessage(
            message_id=7,
            is_response=True,
            authoritative=True,
            answers=[DnsRecord.txt("hostname.bind", "abc")],
        )
        decoded = DnsMessage.decode(message.encode())
        assert decoded.is_response
        assert decoded.authoritative
        assert decoded.answers[0].txt_strings() == ["abc"]

    def test_query_with_nsid(self):
        query = DnsMessage.query(1, "hostname.bind", request_nsid=True)
        decoded = DnsMessage.decode(query.encode())
        assert any(record.rtype == TYPE_OPT for record in decoded.additionals)

    def test_truncated_rejected(self):
        with pytest.raises(DNSError):
            DnsMessage.decode(b"\x00\x01\x00")

    def test_rcode_preserved(self):
        message = DnsMessage(message_id=1, is_response=True, rcode=5)
        assert DnsMessage.decode(message.encode()).rcode == 5


class TestSiteIdentityServer:
    def make_query(self, name="hostname.bind", qclass=CLASS_CHAOS, qtype=TYPE_TXT):
        return DnsMessage.query(42, name, qtype=qtype, qclass=qclass)

    def test_answers_hostname_bind(self):
        server = SiteIdentityServer("LAX", "B.root-servers.net")
        response = server.handle(self.make_query())
        assert response.rcode == 0
        assert response.answers[0].txt_strings() == ["lax1.b.root-servers.net"]
        assert response.authoritative

    def test_answers_id_server(self):
        server = SiteIdentityServer("MIA", "B.root-servers.net")
        response = server.handle(self.make_query("id.server"))
        assert response.answers[0].txt_strings()[0].startswith("mia1.")

    def test_refuses_class_in(self):
        server = SiteIdentityServer("LAX", "svc")
        response = server.handle(self.make_query(qclass=CLASS_IN))
        assert response.rcode == 5
        assert not response.answers

    def test_refuses_other_names(self):
        server = SiteIdentityServer("LAX", "svc")
        response = server.handle(self.make_query("version.bind"))
        assert response.rcode == 5

    def test_refuses_empty_question(self):
        server = SiteIdentityServer("LAX", "svc")
        response = server.handle(DnsMessage(message_id=1))
        assert response.rcode == 5

    def test_nsid_echoed(self):
        server = SiteIdentityServer("LAX", "svc")
        query = DnsMessage.query(1, "hostname.bind", request_nsid=True)
        response = server.handle(query)
        opt = [r for r in response.additionals if r.rtype == TYPE_OPT]
        assert opt and opt[0].nsid_value() == b"lax1.svc"

    def test_message_id_mirrored(self):
        server = SiteIdentityServer("LAX", "svc")
        assert server.handle(self.make_query()).message_id == 42

    def test_wire_roundtrip_through_server(self):
        server = SiteIdentityServer("CDG", "tangled.example.net")
        query_wire = self.make_query().encode()
        response = server.handle(DnsMessage.decode(query_wire))
        decoded = DnsMessage.decode(response.encode())
        assert decoded.answers[0].txt_strings() == ["cdg1.tangled.example.net"]
