"""Autonomous systems and points of presence."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.errors import ConfigurationError


class ASTier:
    """Coarse AS roles in the synthetic hierarchy."""

    TIER1 = "tier1"
    TRANSIT = "transit"
    STUB = "stub"

    ALL = (TIER1, TRANSIT, STUB)


@dataclass(frozen=True)
class PoP:
    """A point of presence: where an AS touches a city/region.

    Multi-PoP ASes are what produce intra-AS catchment splits: each PoP
    may prefer a different egress toward the anycast prefix (hot-potato
    routing), so parts of one AS land in different catchments
    (paper §6.2).
    """

    pop_id: int
    asn: int
    country_code: str
    latitude: float
    longitude: float


@dataclass
class AutonomousSystem:
    """One AS in the synthetic topology."""

    asn: int
    tier: str
    name: str
    country_code: str
    pop_ids: List[int] = field(default_factory=list)
    flipper: bool = False

    @property
    def is_multi_pop(self) -> bool:
        """True when the AS has more than one PoP."""
        return len(self.pop_ids) > 1

    def __post_init__(self) -> None:
        if self.tier not in ASTier.ALL:
            raise ConfigurationError(f"unknown AS tier {self.tier!r}")


@dataclass(frozen=True)
class SeededAS:
    """An AS the caller requires to exist with exact properties.

    ``prefix_plan`` lists ``(prefix_length, count)`` pairs to announce;
    ``pop_countries`` creates one PoP per listed country (repeats allowed
    for multiple PoPs in one country).
    """

    name: str
    tier: str
    country_code: str
    pop_countries: Tuple[str, ...]
    prefix_plan: Tuple[Tuple[int, int], ...]
    flipper: bool = False
    block_density: float = 0.5
    provider_names: Tuple[str, ...] = ()
    peer_regions: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.tier not in ASTier.ALL:
            raise ConfigurationError(f"seeded AS {self.name!r}: bad tier {self.tier!r}")
        if not self.pop_countries:
            raise ConfigurationError(f"seeded AS {self.name!r}: needs >= 1 PoP")
        for length, count in self.prefix_plan:
            if not 8 <= length <= 24 or count < 1:
                raise ConfigurationError(
                    f"seeded AS {self.name!r}: bad prefix plan entry ({length}, {count})"
                )
