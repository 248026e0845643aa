"""Sequential aligned allocator for IPv4 prefixes.

Hands out non-overlapping, properly aligned CIDR prefixes from a region
of the address space, mimicking registry allocation.  Keeps a simple
bump cursor with alignment; fragmentation is acceptable because the
synthetic Internet uses a small fraction of the space.
"""

from __future__ import annotations

from repro.errors import AddressError, TopologyError
from repro.netaddr.prefix import Prefix


class PrefixAllocator:
    """Allocates aligned, non-overlapping prefixes from a base prefix."""

    def __init__(self, pool: Prefix) -> None:
        self._pool = pool
        self._cursor = pool.network
        self._end = pool.network + pool.size

    def allocate(self, length: int) -> Prefix:
        """Allocate the next free prefix of ``length`` bits.

        Raises :class:`TopologyError` when the pool is exhausted.
        """
        if length < self._pool.length or length > 32:
            raise AddressError(
                f"cannot allocate /{length} from pool {self._pool}"
            )
        size = 1 << (32 - length)
        aligned = (self._cursor + size - 1) & ~(size - 1)
        if aligned + size > self._end:
            raise TopologyError(
                f"address pool {self._pool} exhausted allocating /{length}"
            )
        self._cursor = aligned + size
        return Prefix(aligned, length)
