"""Host responsiveness model for /24 blocks.

The paper probes one representative address per /24 and sees replies
from ~55% of blocks, with per-round churn (blocks going silent or
coming back, Figure 9), ~2% duplicate replies, and a small fraction of
hosts replying from a different source address (§4 "data cleaning").

Everything here is a *deterministic function* of (seed, block, round),
computed on demand via stateless hashing, so no per-block state needs
to be stored and results are reproducible for any subset of blocks.
The seed is the Internet's own: :attr:`Internet.host_model
<repro.topology.internet.Internet.host_model>` is the one place a
:class:`HostModel` is built, over that Internet, and the model reads the
seed through it.  This module keeps the configuration, the
time-invariant responder draw and the salts; the per-(block, round)
draws are read as columns by the engine (:mod:`repro.core.fastscan`)
and one host at a time by the wire oracle (:mod:`repro.oracle.responder`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.geo.geodb import GeoDatabase
from repro.rng import uniform_unit, uniform_unit_np

if TYPE_CHECKING:
    from repro.topology.internet import Internet

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
    """Deterministic per-(block, round) host behaviour of one Internet."""

    def __init__(self, internet: "Internet", config: Optional[HostModelConfig] = None) -> None:
        self._internet = internet
        self.config = config or HostModelConfig()

    @property
    def seed(self) -> int:
        """The Internet's seed, which every host draw keys on."""
        return self._internet.seed

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
        return uniform_unit(self.seed, _STABLE_SALT, block) < threshold

    def stable_mask(self, blocks: np.ndarray, geodb: GeoDatabase) -> np.ndarray:
        """:meth:`is_stable_responder` of every block, countries from ``geodb``.

        The one array form of the draw: hitlist scores, the day load,
        Atlas sizing and the scan engine read it through
        :meth:`~repro.topology.internet.Internet.stable_mask`.
        """
        threshold = geodb.country_values(
            blocks, self.responsiveness_for, self.responsiveness_for(None)
        )
        return uniform_unit_np(self.seed, _STABLE_SALT, np.asarray(blocks, np.uint64)) < threshold
