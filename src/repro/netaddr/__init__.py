"""IPv4 address machinery: addresses, prefixes, /24 blocks, LPM tries.

Addresses are plain 32-bit integers internally; the classes here wrap
them with parsing, formatting, and containment logic.  The /24 *block*
(``address >> 8``) is the unit of measurement throughout the library,
matching the paper's use of /24 as the smallest BGP-routable prefix.
"""

from repro.netaddr.address import (
    IPv4Address,
    format_ipv4,
    is_valid_ipv4,
    parse_ipv4,
)
from repro.netaddr.blocks import (
    BLOCK_COUNT,
    block_base_address,
    block_of_address,
    block_to_prefix,
    format_block,
    parse_block,
)
from repro.netaddr.prefix import Prefix
from repro.netaddr.trie import LongestPrefixTrie

__all__ = [
    "IPv4Address",
    "Prefix",
    "LongestPrefixTrie",
    "parse_ipv4",
    "format_ipv4",
    "is_valid_ipv4",
    "BLOCK_COUNT",
    "block_of_address",
    "block_base_address",
    "block_to_prefix",
    "format_block",
    "parse_block",
]
