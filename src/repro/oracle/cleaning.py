"""The wire oracle's batch cleaner (paper §4) and the column conversions.

:func:`clean_replies` applies the rules :mod:`repro.collector.cleaning`
lists to a whole round of reply objects in one sorted pass.  The
operator paths apply them to columns
(:class:`~repro.collector.stream.StreamingCleaner`, the engine's masks);
:func:`columns_of` and :func:`replies_of` convert between the two forms
so the suites can compare them reply by reply.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

import numpy as np

from repro.collector.cleaning import CleaningConfig, CleaningResult
from repro.collector.stream import _COLUMNS, ReplyColumns
from repro.obs import NULL_OBSERVER, Observer
from repro.oracle.network import DeliveredReply


def replies_of(columns: ReplyColumns) -> List[DeliveredReply]:
    """The rows of ``columns`` as reply objects, in row order."""
    rows = zip(*(getattr(columns, name).tolist() for name in _COLUMNS))
    return [DeliveredReply(columns.site_codes[site], *fields) for site, *fields in rows]


def columns_of(replies: Iterable[DeliveredReply]) -> ReplyColumns:
    """Columns of ``replies``, in their order, over their own site codes."""
    replies = list(replies)
    codes = tuple(sorted({reply.site_code for reply in replies}))
    rows = [
        (codes.index(r.site_code), r.source_address, r.identifier, r.sequence, r.timestamp)
        for r in replies
    ]
    columns = zip(*rows) if rows else [()] * len(_COLUMNS)
    return ReplyColumns(codes, *map(np.array, columns, _COLUMNS.values()))


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
