"""/24 block helpers.

Throughout the library a *block* is a /24 network identified by the top
24 bits of its base address (``address >> 8``), matching the paper's use
of /24s as passive vantage points.  Block ids are plain ints in
``[0, 2**24)`` so they can be numpy indices.
"""

from __future__ import annotations

from repro.errors import AddressError
from repro.netaddr.address import format_ipv4, parse_ipv4

BLOCK_COUNT = 1 << 24


def block_base_address(block: int) -> int:
    """Return the base (``.0``) address of ``block``."""
    if not 0 <= block < BLOCK_COUNT:
        raise AddressError(f"block id {block} out of range")
    return block << 8


def format_block(block: int) -> str:
    """Format ``block`` as its CIDR string, e.g. ``192.0.2.0/24``."""
    return f"{format_ipv4(block_base_address(block))}/24"


def parse_block(text: str) -> int:
    """Parse ``a.b.c.0/24`` (or a bare base address) into a block id."""
    address_text, _, length_text = text.partition("/")
    if length_text and length_text != "24":
        raise AddressError(f"{text!r} is not a /24")
    address = parse_ipv4(address_text)
    if address & 0xFF:
        raise AddressError(f"{text!r} is not /24-aligned")
    return address >> 8
