"""Reply-stream feeds that drive the always-on mapping service.

The daemon consumes a flat event stream — :class:`RoundStart`, then any
number of :class:`ReplyBatch` events, then :class:`RoundEnd`, repeated
per round.  :func:`replay_feed` produces that stream from a
:class:`~repro.core.verfploeter.Verfploeter` deployment on the engine
every default scan runs on: one
:func:`~repro.core.fastscan.evaluate_round` per round, expanded into one
:class:`~repro.collector.stream.ReplyColumns` row per delivered reply
(duplicates, late repliers and off-address sources included — cleaning
is the consumer's job), sorted once into the central collector's global
order and sliced into batches that are views of the round's columns.

Each round's concatenated batches equal the wire walk's sorted
collector drain (``tests/test_stream_equivalence.py``; timestamps agree
to within an ulp or two, where numpy's haversine and ``math``'s
differ), so the streaming cleaner's equivalence contract holds (see
:mod:`repro.collector.stream`) and the service's incremental state is
bit-identical to a batch ``run_scan`` over the same rounds.  The
generator is lazy — one round's columns are alive at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple, Union

import numpy as np

from repro.bgp.propagation import RoutingOutcome
from repro.collector.stream import ReplyColumns
from repro.core.fastscan import RoundArrays, RoundState, evaluate_round, round_draws, send_offsets
from repro.core.verfploeter import Verfploeter
from repro.errors import ServiceError
from repro.obs import Tracer


@dataclass(frozen=True)
class RoundStart:
    """A measurement round opened: the probes are on the wire."""

    round_id: int
    start_time: float
    probed_addresses: np.ndarray  # sorted, read-only, the same object every round
    probes_sent: int


@dataclass(frozen=True)
class ReplyBatch:
    """One batch of delivered replies, in global collector sort order."""

    round_id: int
    replies: ReplyColumns


@dataclass(frozen=True)
class RoundEnd:
    """The round's reply stream is exhausted."""

    round_id: int


FeedEvent = Union[RoundStart, ReplyBatch, RoundEnd]


def _round_replies(
    state: RoundState, round_id: int, arrays: RoundArrays,
    site_codes: Tuple[str, ...], sources: np.ndarray, start_time: float,
    tracer: Tracer,
) -> ReplyColumns:
    """Every reply the round's probes drew, in collector order.

    Mirrors the dataplane: a probe's ``k``-th reply trails its first by
    ``0.1 * k`` ms and arrives at ``(start_time + position * interval)
    + delay_ms / 1000``, from its row of ``sources``.  Send offsets are
    computed for the replying rows only.
    """
    emitting = np.flatnonzero(arrays.counts)
    counts = arrays.counts[emitting]
    with tracer.span("service.feed.offsets", rows=int(emitting.size)):
        sent = start_time + send_offsets(state, round_id, emitting)
    rows = np.repeat(emitting, counts)
    burst_start = np.cumsum(counts) - counts
    extra = np.arange(rows.size) - np.repeat(burst_start, counts)
    delay_ms = arrays.delay[rows] + 0.1 * extra
    replies = ReplyColumns(
        site_codes,
        arrays.site[rows],
        sources[rows],
        np.full(rows.size, round_id & 0xFFFF),
        (state.row_start + rows) & 0xFFFF,
        np.repeat(sent, counts) + delay_ms / 1000.0,
    )
    return replies[replies.sort_order()]


def replay_feed(
    verfploeter: Verfploeter,
    routing: Optional[RoutingOutcome] = None,
    rounds: int = 1,
    interval_seconds: float = 900.0,
    batch_size: int = 512,
    start_round: int = 0,
) -> Iterator[FeedEvent]:
    """The event stream of ``rounds`` measurement rounds.

    ``start_round`` offsets the measurement ids (``start_round=65535``
    exercises the 16-bit ICMP identifier rollover mid-stream).  Round
    ``r`` starts at ``(r - start_round) * interval_seconds``, matching
    a series begun when the daemon came up.  The arguments are checked
    here, at the call, so a bad one raises before a daemon serves; the
    rounds are computed lazily, as the stream is consumed.
    """
    if rounds < 1:
        raise ServiceError("rounds must be >= 1")
    if batch_size < 1:
        raise ServiceError("batch_size must be >= 1")
    if interval_seconds < 0:
        raise ServiceError("interval_seconds must be >= 0")
    if start_round < 0:
        raise ServiceError("start_round must be >= 0")
    return _feed(verfploeter, routing, rounds, interval_seconds, batch_size, start_round)


def _feed(
    verfploeter: Verfploeter,
    routing: Optional[RoutingOutcome],
    rounds: int,
    interval_seconds: float,
    batch_size: int,
    start_round: int,
) -> Iterator[FeedEvent]:
    """The generator behind :func:`replay_feed`, over checked arguments."""
    if routing is None:
        routing = verfploeter.routing_for()
    metrics, tracer = verfploeter.observer.metrics, verfploeter.observer.tracer
    engine = verfploeter.engine_for(routing)
    state, site_codes = engine.state, engine.routes.site_codes
    addresses = verfploeter.hitlist.addresses
    # An off-address host answers from the next host address of its /24.
    neighbour = (addresses & ~0xFF) | ((addresses & 0xFF) + 1) % 256
    sources = np.where(state.off_address, neighbour, addresses)
    for index in range(rounds):
        round_id = start_round + index
        start_time = index * interval_seconds
        with tracer.span("service.feed.round", round_id=round_id):
            with tracer.span("fastscan.draws"):
                draws, _ = round_draws(state, round_id)
            arrays = evaluate_round(state, engine.routes, draws, tracer)
            replies = _round_replies(
                state, round_id, arrays, site_codes, sources, start_time, tracer
            )
        metrics.counter("probe.rounds_scheduled").inc()
        metrics.counter("probe.probes_sent").inc(state.rows)
        metrics.counter("collector.replies_received").inc(len(replies))
        per_site = np.bincount(replies.site, minlength=len(site_codes)).tolist()
        for code, count in zip(site_codes, per_site):
            metrics.counter("collector.site_replies", site=code).inc(count)
        yield RoundStart(round_id, start_time, addresses, state.rows)
        for offset in range(0, len(replies), batch_size):
            yield ReplyBatch(round_id, replies[offset : offset + batch_size])
        yield RoundEnd(round_id)
