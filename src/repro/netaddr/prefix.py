"""CIDR prefixes.

A :class:`Prefix` is an immutable ``network/length`` pair stored as ints.
Prefixes sort first by network address and then by length, which puts
covering prefixes immediately before their subnets — convenient for
aggregation sweeps.
"""

from __future__ import annotations

import functools
from typing import Tuple, Union

from repro.errors import AddressError
from repro.netaddr.address import format_ipv4, parse_ipv4


@functools.total_ordering
class Prefix:
    """An immutable IPv4 CIDR prefix such as ``192.0.2.0/24``."""

    __slots__ = ("_network", "_length")

    def __init__(self, network: Union[int, str], length: int = None):
        if isinstance(network, str) and length is None:
            network, length = self._split_cidr(network)
        if length is None:
            raise AddressError("prefix length is required")
        if not 0 <= length <= 32:
            raise AddressError(f"prefix length {length} out of range 0-32")
        if isinstance(network, str):
            value = parse_ipv4(network)
        elif isinstance(network, int):
            value = network
        else:
            raise AddressError(f"cannot build a prefix from {type(network).__name__}")
        if not 0 <= value <= 0xFFFFFFFF:
            raise AddressError(f"network {value:#x} out of 32-bit range")
        mask = self._mask_for(length)
        if value & ~mask & 0xFFFFFFFF:
            raise AddressError(
                f"{format_ipv4(value)}/{length} has host bits set"
            )
        self._network = value
        self._length = length

    @staticmethod
    def _split_cidr(text: str) -> Tuple[int, int]:
        network_text, _, length_text = text.partition("/")
        if not length_text or not length_text.isdigit():
            raise AddressError(f"invalid CIDR {text!r}")
        return parse_ipv4(network_text), int(length_text)

    @staticmethod
    def _mask_for(length: int) -> int:
        return (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF if length else 0

    @property
    def network(self) -> int:
        """Network address as a 32-bit integer."""
        return self._network

    @property
    def length(self) -> int:
        """Prefix length (0-32)."""
        return self._length

    @property
    def netmask(self) -> int:
        """Netmask as a 32-bit integer."""
        return self._mask_for(self._length)

    @property
    def broadcast(self) -> int:
        """Highest address in the prefix."""
        return self._network | (~self.netmask & 0xFFFFFFFF)

    @property
    def size(self) -> int:
        """Number of addresses covered."""
        return 1 << (32 - self._length)

    @property
    def block_count(self) -> int:
        """Number of whole /24 blocks covered (0 for prefixes longer than /24)."""
        if self._length > 24:
            return 0
        return 1 << (24 - self._length)

    def contains_address(self, address: int) -> bool:
        """Return True if ``address`` falls inside this prefix."""
        return (int(address) & self.netmask) == self._network

    def __str__(self) -> str:
        return f"{format_ipv4(self._network)}/{self._length}"

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Prefix):
            return (self._network, self._length) == (other._network, other._length)
        return NotImplemented

    def __lt__(self, other: "Prefix") -> bool:
        if isinstance(other, Prefix):
            return (self._network, self._length) < (other._network, other._length)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._network, self._length))
