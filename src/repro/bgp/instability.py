"""Catchment instability model.

The paper (§6.3, Figure 9, Table 7) finds that ~0.1% of VPs change
catchment between 15-minute rounds, and that flips concentrate heavily
in a few ASes (51% in Chinanet) — consistent with per-packet or
per-flow load balancing across links that reach different anycast
sites.  We model exactly that: ASes marked ``flipper`` have a subset of
blocks on load-balanced paths which oscillate between the AS's primary
and alternate route; all other multi-path ASes flip at a tiny
background rate (transient routing changes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.rng import uniform_unit
from repro.topology.asys import AutonomousSystem

_PARTICIPATE_SALT = 0x464C4950
_FLIP_SALT = 0x0F11BB11


@dataclass(frozen=True)
class FlipModelConfig:
    """Instability rates.

    ``flipper_block_fraction``: share of a flipper AS's blocks that sit
    behind a load-balanced link.  ``flipper_flip_probability``: chance
    such a block takes the alternate path in a given round.
    ``background_flip_probability``: chance any block of a non-flipper
    multi-candidate AS flips in a round (transient routing changes).
    """

    flipper_block_fraction: float = 0.12
    flipper_flip_probability: float = 0.10
    background_flip_probability: float = 0.001

    def __post_init__(self) -> None:
        for name in (
            "flipper_block_fraction",
            "flipper_flip_probability",
            "background_flip_probability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name}={value} must be in [0, 1]")


class FlipModel:
    """Deterministic per-(block, round) flip decisions."""

    def __init__(self, seed: int, config: Optional[FlipModelConfig] = None) -> None:
        self._seed = seed
        self.config = config or FlipModelConfig()

    def fingerprint(self) -> tuple:
        """Hashable identity of this model's decisions (for cache keys).

        Two models with equal fingerprints return identical flip
        decisions for every (block, round) pair.
        """
        return (
            self._seed,
            self.config.flipper_block_fraction,
            self.config.flipper_flip_probability,
            self.config.background_flip_probability,
        )

    def participates(self, asys: AutonomousSystem, block: int) -> bool:
        """Whether ``block`` of flipper ``asys`` sits on a load-balanced path."""
        if not asys.flipper:
            return False
        return (
            uniform_unit(self._seed, _PARTICIPATE_SALT, block)
            < self.config.flipper_block_fraction
        )

    def site_for(
        self,
        asys: AutonomousSystem,
        alternate: Optional[str],
        base_site: str,
        block: int,
        round_id: int,
    ) -> str:
        """Resolve the per-round site for ``block`` given its AS's
        alternate site (None: the AS has none)."""
        if alternate is None or alternate == base_site:
            return base_site
        if asys.flipper:
            if not self.participates(asys, block):
                return base_site
            probability = self.config.flipper_flip_probability
        else:
            probability = self.config.background_flip_probability
        if uniform_unit(self._seed, _FLIP_SALT, block, round_id) < probability:
            return alternate
        return base_site
