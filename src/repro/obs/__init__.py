"""Observability for the scan pipeline: tracing and metrics.

The pipeline (hitlist build, probe scheduling, per-round scans, BGP
propagation and cache resolution, reply cleaning, catchment mapping,
load weighting) is instrumented through an :class:`Observer` — a bundle
of a :class:`~repro.obs.trace.Tracer` and a
:class:`~repro.obs.metrics.MetricsRegistry`.  Every instrumented
constructor takes ``observer=None`` and defaults to the shared no-op
:data:`NULL_OBSERVER`, whose per-call cost is a single method call
(benchmarked in ``benchmarks/bench_extension_observability.py``).

Enable collection with::

    from repro.obs import Observer

    obs = Observer.collecting()
    vp = Verfploeter(scenario.internet, scenario.service, observer=obs)
    vp.run_scan()
    print(obs.metrics.render_text())
    print(obs.tracer.to_json())
    print(obs.tracer.render_wall())

Artifacts are deterministic given a seed: span timestamps come from the
tracer's injected monotonic clock (a :class:`~repro.obs.trace.TickClock`
by default), never from the wall clock, so two same-seed runs emit
byte-identical trace and metrics JSON.  Each span's wall-clock duration
is kept in memory only (``span.wall``), which is what the CLI's
``--profile`` table sums.  See ``docs/observability.md`` for the
span/metric reference and what a healthy run looks like.
"""

from __future__ import annotations

from repro.obs.meta import metadata_fingerprint, run_metadata
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    NullMetrics,
)
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
    "run_metadata",
    "metadata_fingerprint",
]


class Observer:
    """Tracer + metrics, threaded through the pipeline.

    ``enabled`` lets instrumentation sites skip *computing* expensive
    attributes (e.g. per-site catchment fractions) when nothing
    listens; the tracer/metrics objects themselves are already no-ops
    in that case.
    """

    __slots__ = ("tracer", "metrics", "enabled")

    def __init__(self, tracer=None, metrics=None, enabled: bool = True) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.enabled = enabled

    @classmethod
    def collecting(cls) -> "Observer":
        """A live observer: fresh tick-clock tracer and registry."""
        return cls()


#: Shared disabled observer: null tracer, null metrics.
NULL_OBSERVER = Observer(tracer=NullTracer(), metrics=NullMetrics(), enabled=False)
