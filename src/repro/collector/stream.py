"""Streaming reply cleaning: the §4 rules fed batch by batch, in columns.

The wire oracle's batch cleaner
(:func:`repro.oracle.cleaning.clean_replies`) sorts a whole round's
replies and makes one pass; an always-on collector never *has* the
whole round — replies arrive as the dataplane delivers them.
:class:`StreamingCleaner` applies the same §4 rules (wrong round →
unsolicited → late → duplicates, first matching rule counts)
incrementally and in columns only: a batch is a
:class:`ReplyColumns`, each rule one mask over it, the probed set a
sorted address array and the addresses kept by earlier batches a bool
column over that array.  Only a batch whose timestamps are not already
strictly increasing is sorted first.

Equivalence contract: when the concatenation of the fed batches is in
the batch cleaner's global sort order (timestamp, source, site,
identifier, sequence) — which it is for slices of one sorted round —
the cumulative :attr:`~StreamingCleaner.totals` are *identical* to one
``clean_replies`` call over all replies at once, kept sequence
included (``tests/test_collector.py`` for every batch size,
``tests/test_stream_equivalence.py`` for generated streams).

Batches commit atomically: :meth:`~StreamingCleaner.stage` validates
and cleans a batch without touching the cleaner, so a malformed one
(not columns, ragged, a wrong dtype, a site index out of range) raises
and leaves no trace; :meth:`~StreamingCleaner.commit` cannot fail.  The
service stages, applies the kept rows to its catchment, then commits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.collector.cleaning import CleaningConfig, CleaningResult
from repro.errors import MeasurementError
from repro.obs import NULL_OBSERVER, Observer

_COLUMNS = dict(
    site=np.int16, source_address=np.int64, identifier=np.int64,
    sequence=np.int64, timestamp=np.float64,
)


@dataclass(frozen=True, eq=False)
class ReplyColumns:
    """A reply stream, or any slice of one (slices are views): one row
    per reply, :class:`~repro.oracle.network.DeliveredReply`'s fields as
    parallel arrays (:mod:`repro.oracle.cleaning` converts to and from
    the object form, for comparisons with the wire oracle)."""

    site_codes: Tuple[str, ...]
    site: np.ndarray  # index into site_codes
    source_address: np.ndarray
    identifier: np.ndarray
    sequence: np.ndarray
    timestamp: np.ndarray  # seconds

    def __len__(self) -> int:
        return len(self.timestamp)

    def __getitem__(self, rows) -> "ReplyColumns":
        """The rows a slice, index array or mask selects."""
        return replace(self, **{name: getattr(self, name)[rows] for name in _COLUMNS})

    @classmethod
    def concat(cls, parts: Sequence["ReplyColumns"]) -> "ReplyColumns":
        """``parts`` end to end, re-indexed over the union of their site codes."""
        parts = [cls((), *(np.empty(0, dtype) for dtype in _COLUMNS.values())), *parts]
        codes = tuple(sorted({code for part in parts for code in part.site_codes}))
        site = [part.site_over(codes) for part in parts]
        rest = [[getattr(part, name) for part in parts] for name in list(_COLUMNS)[1:]]
        return cls(codes, *map(np.concatenate, [site, *rest]))

    def site_over(self, codes: Sequence[str]) -> np.ndarray:
        """The site column re-indexed over ``codes`` (a code not in it raises)."""
        return np.array([codes.index(c) for c in self.site_codes], dtype=np.int16)[self.site]

    def check(self) -> None:
        """Raise unless the five columns are 1-D, equally long and of the
        declared dtypes, and every site index names a site code."""
        columns = [getattr(self, name) for name in _COLUMNS]
        typed = [column.dtype for column in columns] == list(_COLUMNS.values())
        if not typed or {column.shape for column in columns} != {(len(self),)}:
            raise MeasurementError("reply columns are ragged or of the wrong dtype")
        if len(self) and not 0 <= self.site.min() <= self.site.max() < len(self.site_codes):
            raise MeasurementError("reply site index outside its site codes")

    def sort_order(self) -> np.ndarray:
        """Row order of the collector's global sort: timestamp, source
        address, site *code*, identifier, sequence.

        Timestamps that are all distinct (and not NaN) decide the order
        alone, so one argsort of them is the whole sort.
        """
        order = np.argsort(self.timestamp, kind="stable")
        stamps = self.timestamp[order]  # NaNs sort last
        distinct = not (stamps[1:] == stamps[:-1]).any()
        if distinct and not (stamps.size and np.isnan(stamps[-1])):
            return order
        code_rank = np.argsort(np.argsort(np.array(self.site_codes, dtype=str)))
        return np.lexsort((
            self.sequence, self.identifier, code_rank[self.site],
            self.source_address, self.timestamp,
        ))


def _run_heads(values: np.ndarray) -> np.ndarray:
    """Mask of the first element of every run of equal ``values``."""
    heads = np.ones(values.size, dtype=bool)
    heads[1:] = values[1:] != values[:-1]
    return heads


class StreamingCleaner:
    """One round's cleaning state, fed a reply stream batch by batch."""

    def __init__(
        self,
        probed_addresses: Iterable[int],
        round_identifier: int,
        round_start: float,
        config: Optional[CleaningConfig] = None,
        observer: Optional[Observer] = None,
    ) -> None:
        if not isinstance(probed_addresses, np.ndarray):
            probed_addresses = np.fromiter(probed_addresses, dtype=np.int64)
        probed = np.sort(probed_addresses)
        self._probed = probed[_run_heads(probed)]
        self._seen = np.zeros(self._probed.size, dtype=bool)
        self._identifier = round_identifier & 0xFFFF
        self._round_start = round_start
        self._config = config if config is not None else CleaningConfig()
        self._observer = observer if observer is not None else NULL_OBSERVER
        self._counts = CleaningResult()
        self._kept: List[ReplyColumns] = []

    @property
    def totals(self) -> CleaningResult:
        """Cumulative result over every committed batch."""
        return replace(self._counts, kept=ReplyColumns.concat(self._kept))

    @property
    def batches(self) -> int:
        """Number of batches committed so far."""
        return len(self._kept)

    def stage(self, replies: ReplyColumns) -> Tuple[CleaningResult, np.ndarray]:
        """Clean one batch against the committed state, committing nothing:
        its result, and the probed-array rows :meth:`commit` marks seen."""
        with self._observer.tracer.span("cleaning.stream.batch", batch=self.batches) as span:
            replies.check()
            stamps = replies.timestamp
            if not (stamps[1:] > stamps[:-1]).all():
                replies = replies[replies.sort_order()]
            # Work by address, ties in stream order: sorted keys make the
            # join cheap, and an address's first answer heads its run.
            order = replies.source_address.argsort(kind="stable")
            probed, address = self._probed, replies.source_address[order]
            rows = probed.searchsorted(address)
            solicited = rows < probed.size
            solicited[solicited] = probed[rows[solicited]] == address[solicited]
            wrong_round = replies.identifier[order] != self._identifier
            unsolicited = ~(wrong_round | solicited)
            age = replies.timestamp[order] - self._round_start
            late = ~(wrong_round | unsolicited) & (age > self._config.late_cutoff_seconds)
            answered = np.flatnonzero(~(wrong_round | unsolicited | late))
            rows = rows[answered]
            fresh = _run_heads(rows) & ~self._seen[rows]
            staged = CleaningResult(
                kept=replies[np.sort(order[answered[fresh]])],
                wrong_round=int(wrong_round.sum()),
                unsolicited=int(unsolicited.sum()),
                late=int(late.sum()),
                duplicates=int(answered.size - fresh.sum()),
            )
            span.set(total=staged.total, kept=len(staged.kept))
        return staged, rows[fresh]

    def commit(self, staged: CleaningResult, rows: np.ndarray) -> None:
        """Fold what :meth:`stage` returned into the cumulative state."""
        self._seen[rows] = True
        self._kept.append(staged.kept)
        counts = self._counts
        counts.wrong_round += staged.wrong_round
        counts.unsolicited += staged.unsolicited
        counts.late += staged.late
        counts.duplicates += staged.duplicates
        metrics = self._observer.metrics
        metrics.counter("cleaning.kept").inc(len(staged.kept))
        metrics.counter("cleaning.dropped", rule="wrong_round").inc(staged.wrong_round)
        metrics.counter("cleaning.dropped", rule="unsolicited").inc(staged.unsolicited)
        metrics.counter("cleaning.dropped", rule="late").inc(staged.late)
        metrics.counter("cleaning.dropped", rule="duplicate").inc(staged.duplicates)

    def feed(self, replies: ReplyColumns) -> CleaningResult:
        """Clean and commit one batch; returns its own counts and kept
        replies.  If it raises, the cleaner is exactly as it was."""
        staged, rows = self.stage(replies)
        self.commit(staged, rows)
        return staged
