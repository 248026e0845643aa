"""Catchment instability model.

The paper (§6.3, Figure 9, Table 7) finds that ~0.1% of VPs change
catchment between 15-minute rounds, and that flips concentrate heavily
in a few ASes (51% in Chinanet) — consistent with per-packet or
per-flow load balancing across links that reach different anycast
sites.  We model exactly that: ASes marked ``flipper`` have a subset of
blocks on load-balanced paths which oscillate between the AS's primary
and alternate route; all other multi-path ASes flip at a tiny
background rate (transient routing changes).

:func:`flip_sites` is that decision over arrays, for the scan engine and
``RoutingOutcome.sites_of``; :mod:`repro.bgp.reference` is its oracle.
Every draw keys on the seed of the Internet the block lives in: no
object carries a second copy of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

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


FLIP_RATES = FlipModelConfig()
"""The rates every flip decision uses; its draws key on ``internet.seed``."""


def flip_sites(
    base: np.ndarray,
    alternate: np.ndarray,
    flipper: np.ndarray,
    participate_draw: np.ndarray,
    flip_draw: np.ndarray,
    config: FlipModelConfig,
) -> np.ndarray:
    """Site index per block this round: ``base``, or ``alternate`` (-1 =
    none) where the block flips.  The draws are ``uniform_unit(seed,
    _PARTICIPATE_SALT, block)`` and ``uniform_unit(seed, _FLIP_SALT,
    block, round)``."""
    participates = flipper & (participate_draw < config.flipper_block_fraction)
    flips = (alternate >= 0) & (
        (participates & (flip_draw < config.flipper_flip_probability))
        | (~flipper & (flip_draw < config.background_flip_probability))
    )
    return np.where(flips, alternate, base)
