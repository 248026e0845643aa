"""Host responsiveness model for /24 blocks.

The paper probes one representative address per /24 and sees replies
from ~55% of blocks, with per-round churn (blocks going silent or
coming back, Figure 9), ~2% duplicate replies, and a small fraction of
hosts replying from a different source address (§4 "data cleaning").

Everything here is a *deterministic function* of (seed, block, round),
computed on demand via stateless hashing, so no per-block state needs
to be stored and results are reproducible for any subset of blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.geo.geodb import GeoDatabase
from repro.rng import uniform_unit, uniform_unit_np

_STABLE_SALT = 0x5741424C  # arbitrary distinct salts per decision
_CHURN_SALT = 0x43485552
_DUP_SALT = 0x44555053
_DUPN_SALT = 0x4E445550
_OFFADDR_SALT = 0x4F464641
_LATE_SALT = 0x4C415445
_LATENCY_SALT = 0x4C544E43


@dataclass(frozen=True)
class HostModelConfig:
    """Tunable behaviour of the passive-VP population.

    ``base_responsiveness`` matches the paper's ~55% block response rate;
    ``country_responsiveness`` overrides it per country (the paper finds
    Korea and parts of Asia heavily ping-unresponsive despite sending
    real DNS traffic — Table 5 / Figure 4a red slices).
    """

    base_responsiveness: float = 0.55
    country_responsiveness: Dict[str, float] = field(
        default_factory=lambda: {"KR": 0.12, "JP": 0.38, "VN": 0.40, "PK": 0.42}
    )
    churn_probability: float = 0.024
    duplicate_fraction: float = 0.015
    heavy_duplicate_fraction: float = 0.05
    max_duplicates: int = 25
    off_address_fraction: float = 0.005
    late_fraction: float = 0.002
    late_threshold_ms: float = 900_000.0

    def __post_init__(self) -> None:
        for name in (
            "base_responsiveness",
            "churn_probability",
            "duplicate_fraction",
            "off_address_fraction",
            "late_fraction",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name}={value} must be in [0, 1]")
        if self.max_duplicates < 3:
            raise ConfigurationError("max_duplicates must be >= 3")
        if not 0.0 < self.heavy_duplicate_fraction <= 1.0:
            raise ConfigurationError("heavy_duplicate_fraction must be in (0, 1]")


class HostModel:
    """Deterministic per-(block, round) host behaviour."""

    def __init__(self, seed: int, config: Optional[HostModelConfig] = None) -> None:
        self._seed = seed
        self.config = config or HostModelConfig()

    def responsiveness_for(self, country_code: Optional[str]) -> float:
        """Long-term response probability for blocks in ``country_code``."""
        if country_code is None:
            return self.config.base_responsiveness
        return self.config.country_responsiveness.get(
            country_code, self.config.base_responsiveness
        )

    def is_stable_responder(self, block: int, country_code: Optional[str] = None) -> bool:
        """Whether ``block`` hosts a ping responder at all (time-invariant)."""
        threshold = self.responsiveness_for(country_code)
        return uniform_unit(self._seed, _STABLE_SALT, block) < threshold

    def stable_mask(self, blocks: np.ndarray, geodb: GeoDatabase) -> np.ndarray:
        """:meth:`is_stable_responder` of every block, countries from ``geodb``.

        The one array form of the draw: hitlist scores, the day load,
        Atlas sizing and the scan engine read it through
        :meth:`~repro.topology.internet.Internet.stable_mask`.
        """
        threshold = geodb.country_values(
            blocks, self.responsiveness_for, self.responsiveness_for(None)
        )
        return uniform_unit_np(self._seed, _STABLE_SALT, np.asarray(blocks, np.uint64)) < threshold

    def responds_in_round(
        self, block: int, round_id: int, country_code: Optional[str] = None
    ) -> bool:
        """Whether ``block`` replies in measurement round ``round_id``.

        A stable responder goes temporarily silent with the churn
        probability, independently per round — this produces the paper's
        to-NR / from-NR bands in Figure 9.
        """
        if not self.is_stable_responder(block, country_code):
            return False
        churn_draw = uniform_unit(self._seed, _CHURN_SALT, block, round_id)
        return churn_draw >= self.config.churn_probability

    def reply_count(self, block: int, round_id: int) -> int:
        """Number of replies sent to a single echo request (>= 1).

        ~2% of responders duplicate; duplicate counts are heavy-tailed
        (the paper observed up to thousands; we cap for tractability).
        """
        if uniform_unit(self._seed, _DUP_SALT, block) >= self.config.duplicate_fraction:
            return 1
        # Most duplicating hosts send one extra reply; a small heavy
        # tail sends many (the paper saw up to thousands; we cap).
        tail = uniform_unit(self._seed, _DUPN_SALT, block, round_id)
        if tail >= self.config.heavy_duplicate_fraction:
            return 2
        heaviness = tail / self.config.heavy_duplicate_fraction
        return 3 + int((self.config.max_duplicates - 3) * heaviness)

    def replies_from_other_address(self, block: int) -> bool:
        """True when the responder replies from an address we never probed."""
        return uniform_unit(self._seed, _OFFADDR_SALT, block) < self.config.off_address_fraction

    def is_late_replier(self, block: int, round_id: int) -> bool:
        """True when the reply arrives after the collection cut-off."""
        return (
            uniform_unit(self._seed, _LATE_SALT, block, round_id)
            < self.config.late_fraction
        )

    def reply_latency_ms(self, block: int, round_id: int) -> float:
        """Reply latency in milliseconds.

        Normal replies fall in tens to a few hundred ms; late repliers
        (stale NAT bindings, queued boxes) exceed the cleaning cut-off.
        """
        if self.is_late_replier(block, round_id):
            extra = uniform_unit(self._seed, _LATENCY_SALT, block, round_id)
            return self.config.late_threshold_ms * (1.0 + 4.0 * extra)
        base = uniform_unit(self._seed, _LATENCY_SALT, block, round_id)
        return 10.0 + 390.0 * base
