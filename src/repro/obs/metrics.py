"""Counters and gauges for the scan pipeline.

A :class:`MetricsRegistry` is a flat, thread-safe namespace of metrics
keyed by name plus optional labels (``counter("cleaning.dropped",
rule="late")``).  Instrumented code asks the registry for a metric on
every use — creation is idempotent — so call sites stay one line.

Everything renders deterministically: ``to_dict``/``to_json`` sort by
full metric name, and label sets are canonicalised by key, so two
same-seed runs emit byte-identical documents.  The no-op
:class:`NullMetrics` twin keeps disabled instrumentation at the cost of
a single method call.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "NullMetrics",
]


def _full_name(name: str, labels: Dict[str, object]) -> str:
    """Canonical registry key: ``name{k=v,...}`` with sorted label keys."""
    if not labels:
        return name
    rendered = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{rendered}}}"


class Counter:
    """Monotonically increasing count.

    ``inc`` is locked: the always-on service updates counters from the
    ingest thread and request-handler threads concurrently, and a bare
    float ``+=`` is a read-modify-write race under free threading.
    """

    __slots__ = ("name", "value", "_lock")

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        with self._lock:
            self.value += amount

    def snapshot(self) -> object:
        """JSON-ready value (int when whole, float otherwise)."""
        whole = int(self.value)
        return whole if whole == self.value else self.value


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "value")

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)

    def snapshot(self) -> object:
        """JSON-ready value."""
        return self.value


class MetricsRegistry:
    """Thread-safe, deterministic namespace of counters and gauges."""

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._metrics)

    def _get_or_create(self, factory, name: str, labels: Dict[str, object]):
        key = _full_name(name, labels)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = factory(key)
                self._metrics[key] = metric
            elif not isinstance(metric, factory):
                raise ConfigurationError(
                    f"metric {key!r} already registered as {metric.kind}"
                )
            return metric

    def counter(self, name: str, **labels: object) -> Counter:
        """The counter for ``name`` + ``labels`` (created on first use)."""
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The gauge for ``name`` + ``labels`` (created on first use)."""
        return self._get_or_create(Gauge, name, labels)

    def value_of(self, name: str, **labels: object) -> object:
        """Snapshot of one metric's value (0 for a never-touched name)."""
        metric = self._metrics.get(_full_name(name, labels))
        if metric is None:
            return 0
        return metric.snapshot()

    def to_dict(self, meta: Optional[Dict[str, object]] = None) -> Dict[str, object]:
        """JSON-ready document grouped by metric kind, sorted by name."""
        counters: Dict[str, object] = {}
        gauges: Dict[str, object] = {}
        with self._lock:
            for key in sorted(self._metrics):
                metric = self._metrics[key]
                bucket = counters if metric.kind == "counter" else gauges
                bucket[key] = metric.snapshot()
        document: Dict[str, object] = {"version": 1}
        if meta is not None:
            document["meta"] = meta
        document["counters"] = counters
        document["gauges"] = gauges
        document["histograms"] = {}
        return document

    def to_json(self, meta: Optional[Dict[str, object]] = None) -> str:
        """Stable JSON rendering of :meth:`to_dict`."""
        return json.dumps(self.to_dict(meta=meta), indent=2)

    def render_text(self, title: str = "metrics") -> str:
        """Aligned two-column table of every metric, sorted by name."""
        document = self.to_dict()
        rows: List[Tuple[str, str]] = []
        for kind in ("counters", "gauges"):
            for key, value in document[kind].items():  # already sorted
                if isinstance(value, float):
                    rendered = f"{value:.4f}".rstrip("0").rstrip(".")
                else:
                    rendered = str(value)
                rows.append((key, rendered))
        if not rows:
            return f"{title}: (empty)"
        name_width = max(len(name) for name, _ in rows)
        lines = [f"{title}:"]
        lines.extend(
            f"  {name.ljust(name_width)}  {rendered}" for name, rendered in rows
        )
        return "\n".join(lines)


class _NullMetric:
    """Shared no-op metric accepting every update method."""

    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        """Discard the increment."""

    def set(self, value: float) -> None:
        """Discard the value."""


_NULL_METRIC = _NullMetric()


class NullMetrics(MetricsRegistry):
    """Registry twin that records nothing (one method call per use); it reads
    and renders as the empty registry it stays."""

    def counter(self, name: str, **labels: object) -> _NullMetric:
        """The shared no-op metric."""
        return _NULL_METRIC

    def gauge(self, name: str, **labels: object) -> _NullMetric:
        """The shared no-op metric."""
        return _NULL_METRIC
