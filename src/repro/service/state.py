"""Incremental per-measurement state for the always-on mapping service.

A :class:`MeasurementState` folds an unbounded stream of measurement
rounds into three pieces of live state, none of which is ever rebuilt
from scratch:

- the **current catchment** — a
  :class:`~repro.anycast.catchment.CatchmentAccumulator` updated block
  by block as cleaned reply batches arrive;
- the **windowed load** — per-round
  :class:`~repro.load.weighting.SiteLoad` joins pushed through a
  :class:`~repro.load.windowed.LoadWindow` (the expensive
  catchment×load join runs once per round, never per query);
- a **ring of round snapshots** — the last N rounds'
  :class:`~repro.anycast.catchment.ArrayCatchmentMap` copies, for the
  diff endpoint.

Concurrency contract: the ingest thread mutates state freely *between*
:meth:`MeasurementState.begin_round` and
:meth:`MeasurementState.end_round`; queries never see any of it.  Only
``end_round`` publishes — it assembles an immutable :class:`StateView`
(snapshot catchment copy, finished loads, frozen round ring) and swaps
it in with one attribute assignment, which is atomic in CPython.  A
request served concurrently with ingest therefore returns bytes
identical to one served after the stream quiesces at the same round.

Robustness contract: a poisoned reply batch (anything that raises while
cleaning or applying it) is quarantined — counted, skipped, and the
round continues.  A batch (:class:`~repro.collector.stream.ReplyColumns`)
is staged in the :class:`~repro.collector.stream.StreamingCleaner`, its
kept rows are applied to the catchment (which validates sites and blocks
before it writes), and only then is the cleaner committed — a batch
quarantined at *either* step leaves no counts, no seen addresses and no
catchment rows behind.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.anycast.catchment import ArrayCatchmentMap, CatchmentAccumulator
from repro.collector.cleaning import CleaningConfig, CleaningResult
from repro.collector.stream import ReplyColumns, StreamingCleaner
from repro.errors import ServiceError
from repro.load.estimator import LoadEstimate
from repro.load.weighting import SiteLoad, weight_catchment
from repro.load.windowed import LoadWindow
from repro.obs import NULL_OBSERVER, Observer


@dataclass(frozen=True)
class RoundRecord:
    """One completed round: its snapshot, load, and cleaning counts."""

    round_id: int
    start_time: float
    catchment: ArrayCatchmentMap
    load: SiteLoad
    kept: int
    wrong_round: int
    unsolicited: int
    late: int
    duplicates: int
    quarantined_batches: int
    changed_blocks: int


@dataclass(frozen=True)
class StateView:
    """Immutable published view the query side reads.

    Swapped in atomically at every round end; everything reachable
    from a view is frozen (snapshot copies, finished ``SiteLoad``
    results, a tuple ring), so readers need no locks.  ``rendered`` is
    the query side's memo of bodies that are functions of this view.
    """

    site_codes: Tuple[str, ...]
    rounds: Tuple[RoundRecord, ...]
    catchment: Optional[ArrayCatchmentMap]
    window_load: Optional[SiteLoad]
    window_size: int
    rounds_completed: int
    quarantined_batches: int
    generation: int
    rendered: Dict[object, bytes] = field(default_factory=dict, compare=False)


class MeasurementState:
    """Live state of one measurement series, updated round by round."""

    def __init__(
        self,
        site_codes: Sequence[str],
        universe: np.ndarray,
        estimate: LoadEstimate,
        window_rounds: int = 4,
        ring_size: int = 8,
        cleaning: Optional[CleaningConfig] = None,
        observer: Optional[Observer] = None,
        weighter=None,
    ) -> None:
        if ring_size < 1:
            raise ServiceError("ring_size must be >= 1")
        self._site_codes = list(site_codes)
        self._estimate = estimate
        # The round-end load join, replaceable so a daemon can route it
        # through a ShardPool (same signature and bit-identical output
        # as weight_catchment when the pool-backed join is used).
        self._weighter = weighter if weighter is not None else weight_catchment
        self._cleaning = cleaning if cleaning is not None else CleaningConfig()
        self._observer = observer if observer is not None else NULL_OBSERVER
        self._accumulator = CatchmentAccumulator(self._site_codes, universe)
        self._window = LoadWindow(self._site_codes, window_rounds)
        self._ring: Deque[RoundRecord] = deque(maxlen=ring_size)
        self._rounds_completed = 0
        self._quarantined = 0
        self._cleaner: Optional[StreamingCleaner] = None
        self._round_id = 0
        self._round_start = 0.0
        self._round_quarantined = 0
        self._round_changed = 0
        self._view = StateView(
            site_codes=tuple(self._site_codes),
            rounds=(),
            catchment=None,
            window_load=None,
            window_size=0,
            rounds_completed=0,
            quarantined_batches=0,
            generation=0,
        )

    @property
    def observer(self) -> Observer:
        """The observer the service's spans and metrics flow through."""
        return self._observer

    @property
    def view(self) -> StateView:
        """The currently published (quiesced) view — safe from any thread."""
        return self._view

    @property
    def round_open(self) -> bool:
        """True between :meth:`begin_round` and :meth:`end_round`."""
        return self._cleaner is not None

    def begin_round(
        self,
        round_id: int,
        round_start: float,
        probed_addresses: Iterable[int],
    ) -> None:
        """Open a measurement round: arm a fresh streaming cleaner.

        ``probed_addresses`` is any iterable of addresses (the feed's is
        one shared array).  ``round_id`` is the full measurement id; the
        cleaner masks it to the 16-bit ICMP identifier internally, so id
        rollover past 65535 mid-stream just works — state stays keyed by
        the full id.
        """
        if self._cleaner is not None:
            raise ServiceError(
                f"round {self._round_id} is still open; end it first"
            )
        self._cleaner = StreamingCleaner(
            probed_addresses,
            round_id,
            round_start,
            config=self._cleaning,
            observer=self._observer,
        )
        self._round_id = round_id
        self._round_start = round_start
        self._round_quarantined = 0
        self._round_changed = 0

    def ingest_batch(self, replies: ReplyColumns) -> Optional[CleaningResult]:
        """Clean one reply batch and fold its kept replies in, in place.

        Returns the batch's own cleaning result, or ``None`` when the
        batch was quarantined.  Kept replies update the catchment
        accumulator immediately (last write wins within the batch, same
        as a dict merge in stream order), so round-end needs no replay.
        """
        cleaner = self._cleaner
        if cleaner is None:
            raise ServiceError("no round is open; call begin_round first")
        try:
            batch, rows = cleaner.stage(replies)
            kept = batch.kept
            if len(kept):
                self._round_changed += self._accumulator.apply_blocks(
                    kept.source_address >> 8, kept.site_over(self._site_codes)
                )
        except Exception:  # reprolint: disable=E302 — quarantine boundary: one poisoned batch must not kill the ingest loop; it is counted and skipped
            self._round_quarantined += 1
            self._quarantined += 1
            self._observer.metrics.counter("service.quarantined_batches").inc()
            return None
        cleaner.commit(batch, rows)
        return batch

    def end_round(self) -> RoundRecord:
        """Close the round, join load once, and publish the new view.

        Everything a query can reach is assembled *before* the single
        ``self._view`` swap: the accumulator snapshot (a copy — later
        rounds cannot mutate it), the per-round load join, the window
        aggregate, and the frozen ring tuple.
        """
        cleaner = self._cleaner
        if cleaner is None:
            raise ServiceError("no round is open; call begin_round first")
        totals = cleaner.totals
        with self._observer.tracer.span(
            "service.round_end", round_id=self._round_id
        ) as span:
            snapshot = self._accumulator.snapshot()
            load = self._weighter(
                snapshot, self._estimate, hourly=True, observer=self._observer
            )
            self._window.push(load)
            aggregate = self._window.aggregate()
            record = RoundRecord(
                round_id=self._round_id,
                start_time=self._round_start,
                catchment=snapshot,
                load=load,
                kept=len(totals.kept),
                wrong_round=totals.wrong_round,
                unsolicited=totals.unsolicited,
                late=totals.late,
                duplicates=totals.duplicates,
                quarantined_batches=self._round_quarantined,
                changed_blocks=self._round_changed,
            )
            self._ring.append(record)
            self._rounds_completed += 1
            span.set(kept=record.kept, changed=record.changed_blocks)
        metrics = self._observer.metrics
        metrics.gauge("service.rounds_completed").set(self._rounds_completed)
        metrics.gauge("service.mapped_blocks").set(len(self._accumulator))
        metrics.counter("service.changed_blocks").inc(self._round_changed)
        self._cleaner = None
        # Publish: one atomic swap; readers see old or new, never partial.
        self._view = StateView(
            site_codes=tuple(self._site_codes),
            rounds=tuple(self._ring),
            catchment=snapshot,
            window_load=aggregate,
            window_size=len(self._window),
            rounds_completed=self._rounds_completed,
            quarantined_batches=self._quarantined,
            generation=self._accumulator.generation,
        )
        return record


def batch_replay(
    state_site_codes: Sequence[str],
    universe: np.ndarray,
    rounds: Sequence[ArrayCatchmentMap],
) -> ArrayCatchmentMap:
    """Batch reference for the accumulator: merge whole rounds in order.

    Rebuilds the "current catchment" the slow, obviously-correct way —
    fold each round's mapped blocks over the previous state — for the
    equivalence tests that pin the incremental path against it.
    """
    accumulator = CatchmentAccumulator(state_site_codes, universe)
    for round_map in rounds:
        accumulator.apply_catchment(round_map)
    return accumulator.snapshot()
