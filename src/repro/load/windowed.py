"""Windowed incremental load aggregation for the always-on service.

The expensive step of load prediction is the catchment×load join
(:func:`~repro.load.weighting.weight_catchment`); it runs **once per
round** on the columnar path.  A :class:`LoadWindow` then maintains the
"hourly load over the last W rounds" view the service exposes without
ever re-running a join: it keeps the last W per-round
:class:`~repro.load.weighting.SiteLoad` results and sums them oldest to
newest.

Determinism contract: :meth:`LoadWindow.aggregate` is bit-identical to
summing the same W rounds' loads from scratch in round order — float64
addition in a fixed order, never a running total corrected by
subtraction (subtracting the expired round would drift from the batch
recompute).  ``tests/test_service.py`` pins this against a full batch
replay.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.load.weighting import UNKNOWN, SiteLoad
from repro.traffic.logs import HOURS


class LoadWindow:
    """Sliding window of per-round site loads with a cached aggregate."""

    def __init__(self, site_codes: List[str], window_rounds: int) -> None:
        if window_rounds < 1:
            raise ConfigurationError("window_rounds must be >= 1")
        self._site_codes = list(site_codes)
        self._window_rounds = window_rounds
        self._rounds: Deque[SiteLoad] = deque(maxlen=window_rounds)
        self._aggregate: Optional[SiteLoad] = None

    @property
    def window_rounds(self) -> int:
        """Maximum rounds the window covers."""
        return self._window_rounds

    def __len__(self) -> int:
        return len(self._rounds)

    def push(self, load: SiteLoad) -> None:
        """Add the newest round's load (the oldest falls out when full)."""
        if load.site_codes != self._site_codes:
            raise ConfigurationError(
                "pushed load's site codes differ from the window's"
            )
        self._rounds.append(load)
        self._aggregate = None

    def aggregate(self) -> SiteLoad:
        """Summed load over the window, oldest round first.

        Recomputed lazily after a push by re-summing the (small) cached
        per-round results — the per-round joins themselves are never
        redone.  Fixed summation order keeps the result bit-identical
        to a batch recompute over the same rounds.
        """
        if self._aggregate is None:
            if not self._rounds:
                raise ConfigurationError("load window is empty")
            codes = [*self._site_codes, UNKNOWN]
            daily: Dict[str, float] = {code: 0.0 for code in codes}
            hourly: Dict[str, np.ndarray] = {
                code: np.zeros(HOURS) for code in codes
            }
            for load in self._rounds:  # deque iterates oldest -> newest
                for code in codes:
                    daily[code] += load.daily_of(code)
                    hourly[code] += load.hourly_of(code)
            self._aggregate = SiteLoad(list(self._site_codes), daily, hourly)
        return self._aggregate
