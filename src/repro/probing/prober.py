"""The Verfploeter prober: rate-limited, round-stamped probe schedules.

One measurement round sends a single Echo Request to every hitlist
entry, in pseudorandom order, at a configured rate (the paper uses
6-10k packets/s so a 6.4M-target round takes 10-20 minutes), with the
round's unique identifier in the ICMP header.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from repro.errors import ConfigurationError, MeasurementError
from repro.obs import NULL_OBSERVER, Observer
from repro.probing.hitlist import Hitlist
from repro.probing.order import PseudorandomOrder, round_order_seed


@dataclass(frozen=True)
class ProberConfig:
    """Prober parameters.

    ``rate_pps`` caps probe transmission (paper: ~6-10k/s to avoid rate
    limits and abuse complaints); ``source_address`` must be the
    anycast measurement address.
    """

    source_address: int
    rate_pps: float = 10_000.0
    payload: bytes = b"verfploeter"

    def __post_init__(self) -> None:
        if self.rate_pps <= 0:
            raise ConfigurationError("rate_pps must be positive")
        if not 0 <= self.source_address <= 0xFFFFFFFF:
            raise ConfigurationError("source_address out of 32-bit range")


@dataclass(frozen=True)
class ScheduledProbe:
    """One probe in a round's schedule."""

    send_time: float
    destination: int
    identifier: int
    sequence: int


class ProbeSchedule:
    """The complete, ordered probe schedule of one measurement round."""

    def __init__(
        self,
        hitlist: Hitlist,
        config: ProberConfig,
        round_id: int,
        start_time: float,
        order_seed: int,
    ) -> None:
        if len(hitlist) == 0:
            raise MeasurementError("cannot schedule an empty hitlist")
        self._hitlist = hitlist
        self._config = config
        self.round_id = round_id
        self.start_time = start_time
        self.identifier = round_id & 0xFFFF
        self._order = PseudorandomOrder(len(hitlist), order_seed)

    def __len__(self) -> int:
        return len(self._hitlist)

    @property
    def duration_seconds(self) -> float:
        """Wall-clock length of the round at the configured rate."""
        return len(self._hitlist) / self._config.rate_pps

    def __iter__(self) -> Iterator[ScheduledProbe]:
        interval = 1.0 / self._config.rate_pps
        addresses = self._hitlist.addresses.tolist()
        for position, target_index in enumerate(self._order):
            yield ScheduledProbe(
                send_time=self.start_time + position * interval,
                destination=addresses[target_index],
                identifier=self.identifier,
                sequence=target_index & 0xFFFF,
            )

    def max_burst_per_prefix(self, prefix_bits: int = 16) -> Tuple[int, int]:
        """Worst-case probes landing in one /``prefix_bits`` within a second.

        Diagnostic for the pseudorandom ordering: sequential ordering
        concentrates each second's probes in one prefix; the Feistel
        order spreads them (exercised by the ablation benchmark).
        """
        interval = 1.0 / self._config.rate_pps
        shift = 32 - prefix_bits
        per_second_prefix: dict = {}
        worst = (0, 0)
        addresses = self._hitlist.addresses.tolist()
        # Walk the permutation directly — same positions, same arithmetic —
        # without materialising a ScheduledProbe per target.
        for position, target_index in enumerate(self._order):
            second = int(self.start_time + position * interval)
            prefix = addresses[target_index] >> shift
            key = (second, prefix)
            tally = per_second_prefix.get(key, 0) + 1
            per_second_prefix[key] = tally
            if tally > worst[1]:
                worst = (prefix, tally)
        return worst


class Prober:
    """Builds probe schedules for successive measurement rounds."""

    def __init__(
        self,
        hitlist: Hitlist,
        config: ProberConfig,
        seed: int,
        observer: Optional[Observer] = None,
    ) -> None:
        self.hitlist = hitlist
        self.config = config
        self._seed = seed
        self._observer = observer if observer is not None else NULL_OBSERVER

    def schedule_round(self, round_id: int, start_time: float = 0.0) -> ProbeSchedule:
        """Schedule one measurement round.

        Each round gets its own ICMP identifier (dataset separation) and
        its own probe order (derived from the prober seed and round id).
        """
        with self._observer.tracer.span(
            "probe.schedule", round_id=round_id
        ) as span:
            schedule = ProbeSchedule(
                self.hitlist, self.config, round_id, start_time,
                self.order_seed(round_id),
            )
            span.set(probes=len(schedule))
        self._observer.metrics.counter("probe.rounds_scheduled").inc()
        return schedule

    def order_seed(self, round_id: int) -> int:
        """Probe-order permutation seed for ``round_id``.

        Exposed so alternative engines (the vectorized fast path) can
        reproduce this prober's ordering bit-for-bit instead of
        re-deriving a stream of their own.
        """
        return round_order_seed(self._seed, round_id)
