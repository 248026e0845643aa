"""IPv4 address parsing and formatting (addresses are 32-bit ints)."""

from __future__ import annotations

from repro.errors import AddressError

MAX_ADDRESS = (1 << 32) - 1


def parse_ipv4(text: str) -> int:
    """Parse dotted-quad ``text`` into a 32-bit integer.

    Strict: exactly four decimal octets, each 0-255, no leading ``+``/``-``
    signs, no whitespace.  Leading zeros are rejected because historic
    parsers disagree on whether they are octal (CVE-class ambiguity).
    """
    parts = text.split(".")
    if len(parts) != 4:
        raise AddressError(f"invalid IPv4 address {text!r}: expected 4 octets")
    value = 0
    for part in parts:
        if not part or not part.isdigit():
            raise AddressError(f"invalid IPv4 address {text!r}: bad octet {part!r}")
        if len(part) > 1 and part[0] == "0":
            raise AddressError(
                f"invalid IPv4 address {text!r}: leading zero in octet {part!r}"
            )
        octet = int(part)
        if octet > 255:
            raise AddressError(f"invalid IPv4 address {text!r}: octet {octet} > 255")
        value = (value << 8) | octet
    return value


def format_ipv4(value: int) -> str:
    """Format 32-bit integer ``value`` as a dotted quad."""
    if not 0 <= value <= MAX_ADDRESS:
        raise AddressError(f"address {value:#x} out of 32-bit range")
    return ".".join(
        str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0)
    )
