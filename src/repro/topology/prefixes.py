"""BGP-announced prefixes and their populated /24 blocks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.netaddr.prefix import Prefix


@dataclass
class AnnouncedPrefix:
    """A prefix announced in BGP by one origin AS.

    ``populated`` holds the /24 block ids inside the prefix that
    actually contain hosts, ascending (the generator's view of the
    prefix's rows of the block column); sparse population of big
    prefixes mirrors the real Internet, where most of a /12 has no
    ping-responsive /24s.
    """

    prefix: Prefix
    origin_asn: int
    populated: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    @property
    def populated_blocks(self) -> Sequence[int]:
        """:attr:`populated` as a sequence of plain ints."""
        return memoryview(self.populated)

    @property
    def length(self) -> int:
        """Announced prefix length."""
        return self.prefix.length

    def __str__(self) -> str:
        return f"{self.prefix} (AS{self.origin_asn})"
