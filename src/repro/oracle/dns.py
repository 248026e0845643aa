"""DNS wire format: header, questions, TXT and OPT records.

Covers what catchment mapping needs — CHAOS TXT ``hostname.bind``
queries and NSID — with RFC 1035-conformant encoding.  Name
*decompression* (pointer chasing) is supported for robustness; we never
emit pointers ourselves.  Only the CHAOS oracle
(:mod:`repro.oracle.chaos`) speaks it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import DNSError

TYPE_TXT = 16
TYPE_OPT = 41
CLASS_IN = 1
CLASS_CHAOS = 3
EDNS_OPTION_NSID = 3

_FLAG_QR = 1 << 15
_FLAG_AA = 1 << 10
_MAX_LABEL = 63
_MAX_NAME = 255
_POINTER_MASK = 0xC0


def encode_name(name: str) -> bytes:
    """Encode a dotted name into DNS label format."""
    if name in ("", "."):
        return b"\x00"
    wire = bytearray()
    for label in name.rstrip(".").split("."):
        raw = label.encode("ascii")
        if not raw:
            raise DNSError(f"empty label in {name!r}")
        if len(raw) > _MAX_LABEL:
            raise DNSError(f"label too long in {name!r}")
        wire.append(len(raw))
        wire.extend(raw)
    wire.append(0)
    if len(wire) > _MAX_NAME:
        raise DNSError(f"name too long: {name!r}")
    return bytes(wire)


def decode_name(data: bytes, offset: int) -> Tuple[str, int]:
    """Decode a (possibly compressed) name; return (name, next offset)."""
    labels: List[str] = []
    jumps = 0
    next_offset: Optional[int] = None
    position = offset
    while True:
        if position >= len(data):
            raise DNSError("name runs past end of message")
        length = data[position]
        if length & _POINTER_MASK == _POINTER_MASK:
            if position + 1 >= len(data):
                raise DNSError("truncated compression pointer")
            pointer = ((length & 0x3F) << 8) | data[position + 1]
            if next_offset is None:
                next_offset = position + 2
            jumps += 1
            if jumps > 32:
                raise DNSError("compression pointer loop")
            position = pointer
            continue
        if length & _POINTER_MASK:
            raise DNSError(f"bad label length byte {length:#x}")
        position += 1
        if length == 0:
            break
        if position + length > len(data):
            raise DNSError("label runs past end of message")
        raw = data[position : position + length]
        try:
            labels.append(raw.decode("ascii"))
        except UnicodeDecodeError:
            raise DNSError(f"non-ASCII label {raw!r}") from None
        position += length
    if next_offset is None:
        next_offset = position
    return ".".join(labels), next_offset


@dataclass(frozen=True)
class DnsQuestion:
    """One question-section entry."""

    name: str
    qtype: int
    qclass: int

    def encode(self) -> bytes:
        """Wire-format bytes of this question entry."""
        return encode_name(self.name) + struct.pack("!HH", self.qtype, self.qclass)


@dataclass(frozen=True)
class DnsRecord:
    """One resource record (answer/authority/additional sections)."""

    name: str
    rtype: int
    rclass: int
    ttl: int
    rdata: bytes

    def encode(self) -> bytes:
        """Wire-format bytes of this resource record."""
        return (
            encode_name(self.name)
            + struct.pack("!HHIH", self.rtype, self.rclass, self.ttl, len(self.rdata))
            + self.rdata
        )

    @staticmethod
    def txt(name: str, text: str, rclass: int = CLASS_CHAOS, ttl: int = 0) -> "DnsRecord":
        """Build a single-string TXT record."""
        raw = text.encode("utf-8")
        if len(raw) > 255:
            raise DNSError("TXT string longer than 255 bytes")
        return DnsRecord(name, TYPE_TXT, rclass, ttl, bytes([len(raw)]) + raw)

    def txt_strings(self) -> List[str]:
        """Decode TXT rdata into its strings."""
        if self.rtype != TYPE_TXT:
            raise DNSError("not a TXT record")
        strings: List[str] = []
        position = 0
        while position < len(self.rdata):
            length = self.rdata[position]
            position += 1
            if position + length > len(self.rdata):
                raise DNSError("TXT string runs past rdata")
            strings.append(self.rdata[position : position + length].decode("utf-8"))
            position += length
        return strings

    @staticmethod
    def nsid_opt(nsid: bytes = b"", udp_size: int = 4096) -> "DnsRecord":
        """Build an OPT pseudo-record carrying an NSID option [RFC 5001]."""
        option = struct.pack("!HH", EDNS_OPTION_NSID, len(nsid)) + nsid
        return DnsRecord("", TYPE_OPT, udp_size, 0, option)

    def nsid_value(self) -> Optional[bytes]:
        """Extract the NSID option payload from an OPT record, if present."""
        if self.rtype != TYPE_OPT:
            raise DNSError("not an OPT record")
        position = 0
        while position + 4 <= len(self.rdata):
            code, length = struct.unpack("!HH", self.rdata[position : position + 4])
            position += 4
            if position + length > len(self.rdata):
                raise DNSError("EDNS option runs past rdata")
            if code == EDNS_OPTION_NSID:
                return self.rdata[position : position + length]
            position += length
        return None


@dataclass
class DnsMessage:
    """A DNS message (query or response)."""

    message_id: int
    is_response: bool = False
    authoritative: bool = False
    rcode: int = 0
    questions: List[DnsQuestion] = field(default_factory=list)
    answers: List[DnsRecord] = field(default_factory=list)
    authorities: List[DnsRecord] = field(default_factory=list)
    additionals: List[DnsRecord] = field(default_factory=list)

    def encode(self) -> bytes:
        """Wire-format bytes of the whole message (header + sections)."""
        flags = 0
        if self.is_response:
            flags |= _FLAG_QR
        if self.authoritative:
            flags |= _FLAG_AA
        flags |= self.rcode & 0xF
        header = struct.pack(
            "!HHHHHH",
            self.message_id,
            flags,
            len(self.questions),
            len(self.answers),
            len(self.authorities),
            len(self.additionals),
        )
        body = b"".join(question.encode() for question in self.questions)
        body += b"".join(record.encode() for record in self.answers)
        body += b"".join(record.encode() for record in self.authorities)
        body += b"".join(record.encode() for record in self.additionals)
        return header + body

    @classmethod
    def decode(cls, data: bytes) -> "DnsMessage":
        """Parse wire-format bytes into a DnsMessage (raises DNSError)."""
        if len(data) < 12:
            raise DNSError(f"DNS message truncated: {len(data)} bytes")
        message_id, flags, qdcount, ancount, nscount, arcount = struct.unpack(
            "!HHHHHH", data[:12]
        )
        message = cls(
            message_id=message_id,
            is_response=bool(flags & _FLAG_QR),
            authoritative=bool(flags & _FLAG_AA),
            rcode=flags & 0xF,
        )
        offset = 12
        for _ in range(qdcount):
            name, offset = decode_name(data, offset)
            if offset + 4 > len(data):
                raise DNSError("question runs past end of message")
            qtype, qclass = struct.unpack("!HH", data[offset : offset + 4])
            offset += 4
            message.questions.append(DnsQuestion(name, qtype, qclass))
        records: List[DnsRecord] = []
        for _ in range(ancount + nscount + arcount):
            name, offset = decode_name(data, offset)
            if offset + 10 > len(data):
                raise DNSError("record header runs past end of message")
            rtype, rclass, ttl, rdlength = struct.unpack(
                "!HHIH", data[offset : offset + 10]
            )
            offset += 10
            if offset + rdlength > len(data):
                raise DNSError("rdata runs past end of message")
            records.append(
                DnsRecord(name, rtype, rclass, ttl, data[offset : offset + rdlength])
            )
            offset += rdlength
        message.answers = records[:ancount]
        message.authorities = records[ancount : ancount + nscount]
        message.additionals = records[ancount + nscount :]
        return message

    @classmethod
    def query(
        cls,
        message_id: int,
        name: str,
        qtype: int = TYPE_TXT,
        qclass: int = CLASS_CHAOS,
        request_nsid: bool = False,
    ) -> "DnsMessage":
        """Build a query message (optionally asking for NSID)."""
        message = cls(message_id=message_id)
        message.questions.append(DnsQuestion(name, qtype, qclass))
        if request_nsid:
            message.additionals.append(DnsRecord.nsid_opt())
        return message
