"""Minimal-but-real DNS substrate.

Implements the wire format needed for the traditional anycast mapping
technique the paper compares against: CHAOS-class TXT queries for
``hostname.bind`` [49] and the NSID EDNS option [4], answered by a
per-site authoritative responder that identifies the site.
"""

from repro.lazy import lazy_exports

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

_EXPORTS = {
    "CLASS_CHAOS": "repro.dns.message",
    "CLASS_IN": "repro.dns.message",
    "TYPE_TXT": "repro.dns.message",
    "TYPE_OPT": "repro.dns.message",
    "EDNS_OPTION_NSID": "repro.dns.message",
    "DnsMessage": "repro.dns.message",
    "DnsQuestion": "repro.dns.message",
    "DnsRecord": "repro.dns.message",
    "encode_name": "repro.dns.message",
    "decode_name": "repro.dns.message",
    "SiteIdentityServer": "repro.dns.server",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
