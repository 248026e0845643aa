"""Data cleaning (paper §4): the thresholds and the result.

The rules remove, in order:

* replies carrying a different measurement identifier (other rounds);
* *unsolicited* replies — from addresses we never probed (includes
  hosts that reply from a different address than the probed one);
* *late* replies — arriving more than the cut-off after round start
  (the paper uses 15 minutes);
* *duplicates* — extra replies beyond the first per source address
  (the paper sees ~2% duplicates, some hosts replying thousands of
  times).

:class:`~repro.collector.stream.StreamingCleaner` applies them to reply
columns; the wire oracle's batch cleaner
(:func:`repro.oracle.cleaning.clean_replies`) to reply objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import ConfigurationError


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
    ``ReplyColumns`` when the streaming cleaner produced it, a list of
    reply objects when the wire oracle's batch cleaner did)."""

    kept: Sequence = field(default_factory=list)
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
