"""The scalar probe walk: Feistel order and the round's probe schedule.

The paper sends probes "in a pseudorandom order (following [25])" so
that consecutive probes never hammer one network.  We implement a
format-preserving permutation of ``[0, n)``: a four-round Feistel
network over the smallest even-bit-width domain covering ``n``, with
cycle-walking to stay inside the range.  The permutation is a bijection
(property-tested), so every index is probed exactly once.

One measurement round sends a single Echo Request to every hitlist
entry, in that order, at a configured rate (the paper uses 6-10k
packets/s so a 6.4M-target round takes 10-20 minutes), with the round's
unique identifier in the ICMP header.  The engine replays both as
columns (:func:`repro.core.fastscan.send_offsets`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.errors import ConfigurationError, MeasurementError
from repro.probing.hitlist import Hitlist
from repro.probing.prober import ProberConfig, round_order_seed
from repro.rng import mix64

_ROUNDS = 4


class PseudorandomOrder:
    """A seeded permutation of ``range(n)``."""

    def __init__(self, n: int, seed: int) -> None:
        if n <= 0:
            raise ConfigurationError("permutation domain must be non-empty")
        self._n = n
        self._seed = seed
        bits = max(2, (n - 1).bit_length())
        if bits % 2:
            bits += 1
        self._half_bits = bits // 2
        self._half_mask = (1 << self._half_bits) - 1

    def __len__(self) -> int:
        return self._n

    def _round_function(self, value: int, round_index: int) -> int:
        return mix64(self._seed ^ (value * 0x9E3779B1) ^ (round_index << 48)) & self._half_mask

    def _feistel(self, value: int) -> int:
        left = value >> self._half_bits
        right = value & self._half_mask
        for round_index in range(_ROUNDS):
            left, right = right, left ^ self._round_function(right, round_index)
        return (left << self._half_bits) | right

    def index(self, i: int) -> int:
        """The ``i``-th probe target index (cycle-walking Feistel)."""
        if not 0 <= i < self._n:
            raise ConfigurationError(f"index {i} outside permutation domain")
        value = self._feistel(i)
        while value >= self._n:
            value = self._feistel(value)
        return value

    def __iter__(self) -> Iterator[int]:
        for i in range(self._n):
            yield self.index(i)


@dataclass(frozen=True)
class ScheduledProbe:
    """One probe in a round's schedule."""

    send_time: float
    destination: int
    identifier: int
    sequence: int


class ProbeSchedule:
    """The complete, ordered probe schedule of one measurement round.

    Each round gets its own ICMP identifier (dataset separation) and its
    own probe order, seeded by :func:`~repro.probing.prober.round_order_seed`
    of ``seed`` and the round id — the stream the engine also reads.
    """

    def __init__(
        self,
        hitlist: Hitlist,
        config: ProberConfig,
        seed: int,
        round_id: int,
        start_time: float = 0.0,
    ) -> None:
        if len(hitlist) == 0:
            raise MeasurementError("cannot schedule an empty hitlist")
        self._hitlist = hitlist
        self._config = config
        self.round_id = round_id
        self.start_time = start_time
        self.identifier = round_id & 0xFFFF
        self.order_seed = round_order_seed(seed, round_id)
        self._order = PseudorandomOrder(len(hitlist), self.order_seed)

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
