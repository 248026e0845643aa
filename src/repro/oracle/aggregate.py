"""Central aggregation of per-site captures."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.errors import MeasurementError
from repro.obs import NULL_OBSERVER, Observer
from repro.oracle.capture import SiteCapture
from repro.oracle.network import DeliveredReply


class CentralCollector:
    """Collects replies from all anycast sites into one ordered stream.

    The paper copies capture data from every site to a central site for
    analysis; measurement only works if *all* sites capture
    concurrently (a reply lands wherever BGP sends it).
    """

    def __init__(
        self,
        captures: Iterable[SiteCapture],
        observer: Optional[Observer] = None,
    ) -> None:
        self._captures: Dict[str, SiteCapture] = {}
        self._observer = observer if observer is not None else NULL_OBSERVER
        for capture in captures:
            if capture.site_code in self._captures:
                raise MeasurementError(f"duplicate capture for {capture.site_code}")
            self._captures[capture.site_code] = capture
        if not self._captures:
            raise MeasurementError("collector needs at least one site capture")

    @property
    def site_codes(self) -> List[str]:
        """Sites with a running capture."""
        return sorted(self._captures)

    def ingest(self, reply: DeliveredReply) -> None:
        """Route one delivered reply to its site's capture."""
        capture = self._captures.get(reply.site_code)
        if capture is None:
            raise MeasurementError(
                f"reply arrived at {reply.site_code} but no capture runs there — "
                "captures must run concurrently at every anycast site"
            )
        capture.record(reply)

    def collect(self) -> List[DeliveredReply]:
        """Drain every site and merge, ordered by arrival time."""
        observer = self._observer
        with observer.tracer.span("collector.merge") as span:
            merged: List[DeliveredReply] = []
            for site_code in sorted(self._captures):
                drained = self._captures[site_code].drain()
                if observer.enabled:
                    observer.metrics.counter(
                        "collector.site_replies", site=site_code
                    ).inc(len(drained))
                merged.extend(drained)
            merged.sort(
                key=lambda reply: (
                    reply.timestamp,
                    reply.source_address,
                    reply.site_code,
                    reply.identifier,
                    reply.sequence,
                )
            )
            span.set(replies=len(merged), sites=len(self._captures))
        return merged
