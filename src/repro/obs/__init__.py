"""Observability for the scan pipeline: tracing, metrics, profiling.

The pipeline (hitlist build, probe scheduling, per-round scans, BGP
propagation and cache resolution, reply cleaning, catchment mapping,
load weighting) is instrumented through an :class:`Observer` — a bundle
of a :class:`~repro.obs.trace.Tracer`, a
:class:`~repro.obs.metrics.MetricsRegistry`, and an optional
:class:`~repro.obs.profile.Profiler`.  Every instrumented constructor
takes ``observer=None`` and defaults to the shared no-op
:data:`NULL_OBSERVER`, whose per-call cost is a single method call
(benchmarked in ``benchmarks/bench_extension_observability.py``).

Enable collection with::

    from repro.obs import Observer

    obs = Observer.collecting()
    vp = Verfploeter(scenario.internet, scenario.service, observer=obs)
    vp.run_scan()
    print(obs.metrics.render_text())
    print(obs.tracer.to_json())

Artifacts are deterministic given a seed: span timestamps come from the
tracer's injected monotonic clock (a :class:`~repro.obs.trace.TickClock`
by default), never from the wall clock, so two same-seed runs emit
byte-identical trace and metrics JSON.  See ``docs/observability.md``
for the span/metric reference and what a healthy run looks like.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.obs.meta import metadata_fingerprint, run_metadata
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
)
from repro.obs.profile import Profiler, SectionTiming
from repro.obs.trace import NULL_SPAN, NullTracer, Span, TickClock, Tracer

__all__ = [
    "Observer",
    "NULL_OBSERVER",
    "Tracer",
    "NullTracer",
    "Span",
    "TickClock",
    "NULL_SPAN",
    "MetricsRegistry",
    "NullMetrics",
    "Counter",
    "Gauge",
    "Histogram",
    "Profiler",
    "SectionTiming",
    "run_metadata",
    "metadata_fingerprint",
]


class Observer:
    """Tracer + metrics + optional profiler, threaded through the pipeline.

    ``enabled`` lets instrumentation sites skip *computing* expensive
    attributes (e.g. per-site catchment fractions) when nothing
    listens; the tracer/metrics objects themselves are already no-ops
    in that case.
    """

    __slots__ = ("tracer", "metrics", "profiler", "enabled")

    def __init__(
        self,
        tracer=None,
        metrics=None,
        profiler: Optional[Profiler] = None,
        enabled: bool = True,
    ) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.profiler = profiler
        self.enabled = enabled

    @classmethod
    def collecting(
        cls,
        clock: Optional[Callable[[], float]] = None,
        profile: bool = False,
    ) -> "Observer":
        """A live observer: fresh tracer + registry, profiler on request.

        ``clock`` overrides the tracer's deterministic tick clock (pass
        ``time.perf_counter`` for wall-clock span durations, at the
        cost of run-to-run artifact identity).
        """
        return cls(tracer=Tracer(clock=clock), metrics=MetricsRegistry(),
                   profiler=Profiler() if profile else None)

    @classmethod
    def null(cls) -> "Observer":
        """The shared no-op observer (the default everywhere)."""
        return NULL_OBSERVER

    def profile(self, name: str):
        """Profiling context for a hot section (no-op without a profiler)."""
        if self.profiler is None:
            return NULL_SPAN
        return self.profiler.section(name)


#: Shared disabled observer: null tracer, null metrics, no profiler.
NULL_OBSERVER = Observer(
    tracer=NullTracer(), metrics=NullMetrics(), profiler=None, enabled=False
)
