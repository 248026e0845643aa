"""Data cleaning (paper §4).

Removes, in order:

* replies carrying a different measurement identifier (other rounds);
* *unsolicited* replies — from addresses we never probed (includes
  hosts that reply from a different address than the probed one);
* *late* replies — arriving more than the cut-off after round start
  (the paper uses 15 minutes);
* *duplicates* — extra replies beyond the first per source address
  (the paper sees ~2% duplicates, some hosts replying thousands of
  times).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set

from repro.errors import ConfigurationError
from repro.icmp.network import DeliveredReply
from repro.obs import NULL_OBSERVER, Observer


@dataclass(frozen=True)
class CleaningConfig:
    """Cleaning thresholds."""

    late_cutoff_seconds: float = 900.0

    def __post_init__(self) -> None:
        if self.late_cutoff_seconds <= 0:
            raise ConfigurationError("late_cutoff_seconds must be positive")


@dataclass
class CleaningResult:
    """Cleaned replies plus per-category removal counts (``kept`` is a
    ``ReplyColumns`` when the streaming cleaner produced it)."""

    kept: Sequence[DeliveredReply] = field(default_factory=list)
    wrong_round: int = 0
    unsolicited: int = 0
    late: int = 0
    duplicates: int = 0

    @property
    def removed(self) -> int:
        """Total replies removed by all rules."""
        return self.wrong_round + self.unsolicited + self.late + self.duplicates

    @property
    def total(self) -> int:
        """Total replies examined."""
        return len(self.kept) + self.removed


def clean_replies(
    replies: List[DeliveredReply],
    probed_addresses: Set[int],
    round_identifier: int,
    round_start: float,
    config: Optional[CleaningConfig] = None,
    observer: Optional[Observer] = None,
) -> CleaningResult:
    """Apply the paper's cleaning rules to a collected reply stream.

    Keeps the first reply per source address; a host that answered from
    the "wrong" address is removed as unsolicited even when its /24 was
    probed, exactly as address-keyed cleaning does in the paper.

    A reply arriving *exactly* ``late_cutoff_seconds`` after round start
    is kept (the late rule is a strict ``>``); see the boundary test in
    ``tests/test_collector.py``.
    """
    if config is None:
        config = CleaningConfig()
    if observer is None:
        observer = NULL_OBSERVER
    result = CleaningResult()
    seen: Set[int] = set()
    with observer.tracer.span("cleaning.pass") as span:
        # Full tuple key: equal-timestamp ties (possible when two sites log
        # with coarse clocks) must not make the outcome input-order-dependent.
        for reply in sorted(
            replies,
            key=lambda r: (
                r.timestamp, r.source_address, r.site_code, r.identifier, r.sequence
            ),
        ):
            if reply.identifier != (round_identifier & 0xFFFF):
                result.wrong_round += 1
                continue
            if reply.source_address not in probed_addresses:
                result.unsolicited += 1
                continue
            if reply.timestamp - round_start > config.late_cutoff_seconds:
                result.late += 1
                continue
            if reply.source_address in seen:
                result.duplicates += 1
                continue
            seen.add(reply.source_address)
            result.kept.append(reply)
        span.set(total=result.total, kept=len(result.kept))
    metrics = observer.metrics
    metrics.counter("cleaning.kept").inc(len(result.kept))
    metrics.counter("cleaning.dropped", rule="wrong_round").inc(result.wrong_round)
    metrics.counter("cleaning.dropped", rule="unsolicited").inc(result.unsolicited)
    metrics.counter("cleaning.dropped", rule="late").inc(result.late)
    metrics.counter("cleaning.dropped", rule="duplicate").inc(result.duplicates)
    return result
