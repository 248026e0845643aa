"""IPv4 address machinery: addresses, prefixes, /24 blocks, LPM tries.

Addresses are plain 32-bit integers internally; the classes here wrap
them with parsing, formatting, and containment logic.  The /24 *block*
(``address >> 8``) is the unit of measurement throughout the library,
matching the paper's use of /24 as the smallest BGP-routable prefix.
"""

from repro.lazy import lazy_exports

__all__ = [
    "IPv4Address",
    "Prefix",
    "LongestPrefixTrie",
    "parse_ipv4",
    "format_ipv4",
    "BLOCK_COUNT",
    "block_base_address",
    "format_block",
    "parse_block",
]

_EXPORTS = {
    "IPv4Address": "repro.netaddr.address",
    "Prefix": "repro.netaddr.prefix",
    "LongestPrefixTrie": "repro.netaddr.trie",
    "parse_ipv4": "repro.netaddr.address",
    "format_ipv4": "repro.netaddr.address",
    "BLOCK_COUNT": "repro.netaddr.blocks",
    "block_base_address": "repro.netaddr.blocks",
    "format_block": "repro.netaddr.blocks",
    "parse_block": "repro.netaddr.blocks",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
