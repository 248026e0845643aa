"""Minimal-but-real DNS substrate.

Implements the wire format needed for the traditional anycast mapping
technique the paper compares against: CHAOS-class TXT queries for
``hostname.bind`` [49] and the NSID EDNS option [4], answered by a
per-site authoritative responder that identifies the site.
"""

from repro.dns.message import (
    CLASS_CHAOS,
    CLASS_IN,
    EDNS_OPTION_NSID,
    TYPE_OPT,
    TYPE_TXT,
    DnsMessage,
    DnsQuestion,
    DnsRecord,
    decode_name,
    encode_name,
)
from repro.dns.server import SiteIdentityServer

__all__ = [
    "CLASS_CHAOS",
    "CLASS_IN",
    "TYPE_TXT",
    "TYPE_OPT",
    "EDNS_OPTION_NSID",
    "DnsMessage",
    "DnsQuestion",
    "DnsRecord",
    "encode_name",
    "decode_name",
    "SiteIdentityServer",
]
