"""IPv4 address parsing, formatting, and a lightweight wrapper type."""

from __future__ import annotations

import functools
from typing import Union

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


@functools.total_ordering
class IPv4Address:
    """An immutable IPv4 address.

    Thin wrapper over an int; ints and other ``IPv4Address`` objects
    compare and hash interchangeably where the library accepts either.
    """

    __slots__ = ("_value",)

    def __init__(self, value: Union[int, str, "IPv4Address"]):
        if isinstance(value, IPv4Address):
            self._value = value._value
        elif isinstance(value, str):
            self._value = parse_ipv4(value)
        elif isinstance(value, int):
            if not 0 <= value <= MAX_ADDRESS:
                raise AddressError(f"address {value:#x} out of 32-bit range")
            self._value = value
        else:
            raise AddressError(f"cannot build IPv4Address from {type(value).__name__}")

    @property
    def value(self) -> int:
        """The address as a 32-bit integer."""
        return self._value

    @property
    def block(self) -> int:
        """The /24 block id containing this address (``value >> 8``)."""
        return self._value >> 8

    def __int__(self) -> int:
        return self._value

    def __index__(self) -> int:
        return self._value

    def __str__(self) -> str:
        return format_ipv4(self._value)

    def __repr__(self) -> str:
        return f"IPv4Address({format_ipv4(self._value)!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IPv4Address):
            return self._value == other._value
        if isinstance(other, int):
            return self._value == other
        return NotImplemented

    def __lt__(self, other: object) -> bool:
        if isinstance(other, IPv4Address):
            return self._value < other._value
        if isinstance(other, int):
            return self._value < other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._value)

    def __add__(self, offset: int) -> "IPv4Address":
        return IPv4Address(self._value + offset)
