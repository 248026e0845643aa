"""Nested, deterministic tracing spans for the scan pipeline.

A :class:`Tracer` records a tree of named :class:`Span` objects around
the pipeline phases (hitlist build, probe scheduling, per-round scans,
BGP propagation, cleaning, load weighting).  Timestamps come from an
injected monotonic clock; the default :class:`TickClock` advances one
tick per reading, so the emitted trace of a seeded run is bit-identical
across reruns — tests pin trace *shape* without depending on wall
time.  Operators who want wall-clock durations inject
``time.perf_counter`` instead.

The tracer keeps one span stack per thread: spans opened on another
thread (the daemon's ingest thread, a library user's own threads)
become additional roots in completion order.  Deterministic artifacts
therefore come from sequential runs, which is what the CLI and the
report generator do.
"""

from __future__ import annotations

import json
import threading
from typing import Callable, Dict, Iterator, List, Optional

__all__ = ["TickClock", "Span", "Tracer", "NullTracer", "NULL_SPAN"]


class TickClock:
    """Deterministic monotonic clock: every reading advances one step.

    Spans timed with a ``TickClock`` measure *events*, not seconds: a
    span's duration is the number of clock readings taken while it was
    open.  That is exactly what makes seeded traces reproducible.
    """

    __slots__ = ("_now", "_step")

    def __init__(self, start: float = 0.0, step: float = 1.0) -> None:
        self._now = start
        self._step = step

    def __call__(self) -> float:
        """Read the clock (and advance it by one step)."""
        value = self._now
        self._now += self._step
        return value


class Span:
    """One traced operation: name, start/end ticks, attributes, children."""

    __slots__ = ("name", "start", "end", "attributes", "children")

    def __init__(self, name: str, **attributes: object) -> None:
        self.name = name
        self.start: Optional[float] = None
        self.end: Optional[float] = None
        self.attributes: Dict[str, object] = dict(attributes)
        self.children: List["Span"] = []

    def set(self, **attributes: object) -> "Span":
        """Attach (or overwrite) attributes; returns self for chaining."""
        self.attributes.update(attributes)
        return self

    @property
    def duration(self) -> float:
        """Clock units between start and end (0.0 while still open)."""
        if self.start is None or self.end is None:
            return 0.0
        return self.end - self.start

    def walk(self) -> Iterator["Span"]:
        """This span, then every descendant, depth-first in record order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        """First span named ``name`` in this subtree, or None."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (stable key order, nested children)."""
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attributes": {
                key: self.attributes[key] for key in sorted(self.attributes)
            },
            "children": [child.to_dict() for child in self.children],
        }


class _ActiveSpan:
    """Context manager that opens/closes one span on its tracer's stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._open(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._close(self._span)
        return False


class Tracer:
    """Records a deterministic tree of spans around pipeline phases.

    ``clock`` is any zero-argument callable returning a float; it is
    read once when a span opens and once when it closes.  The default
    is a fresh :class:`TickClock`.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock if clock is not None else TickClock()
        self.roots: List[Span] = []
        self._local = threading.local()
        self._roots_lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def span(self, name: str, **attributes: object) -> _ActiveSpan:
        """A context manager recording one span named ``name``.

        Entering yields the :class:`Span` so callers can ``.set()``
        result attributes before it closes.
        """
        return _ActiveSpan(self, Span(name, **attributes))

    def _open(self, span: Span) -> None:
        stack = self._stack()
        span.start = self._clock()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._roots_lock:
                self.roots.append(span)
        stack.append(span)

    def _close(self, span: Span) -> None:
        span.end = self._clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, or None."""
        stack = self._stack()
        return stack[-1] if stack else None

    def find(self, name: str) -> Optional[Span]:
        """First recorded span named ``name`` (depth-first), or None."""
        for root in self.roots:
            found = root.find(name)
            if found is not None:
                return found
        return None

    def span_names(self) -> List[str]:
        """Every recorded span name, depth-first in record order."""
        return [span.name for root in self.roots for span in root.walk()]

    def to_dict(self, meta: Optional[Dict[str, object]] = None) -> Dict[str, object]:
        """JSON-ready trace document, optionally embedding a metadata block."""
        document: Dict[str, object] = {"version": 1}
        if meta is not None:
            document["meta"] = meta
        document["spans"] = [root.to_dict() for root in self.roots]
        return document

    def to_json(self, meta: Optional[Dict[str, object]] = None) -> str:
        """Stable JSON rendering of :meth:`to_dict`."""
        return json.dumps(self.to_dict(meta=meta), indent=2)


class _NullSpan:
    """Shared no-op stand-in for a span; also its own context manager."""

    __slots__ = ()

    name = ""
    attributes: Dict[str, object] = {}
    children: tuple = ()
    start = None
    end = None
    duration = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attributes: object) -> "_NullSpan":
        """Discard attributes."""
        return self


#: Singleton no-op span, reused by every disabled tracing site.
NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracer that records nothing; ``span()`` costs one method call."""

    __slots__ = ()

    roots: tuple = ()

    def span(self, name: str, **attributes: object) -> _NullSpan:
        """The shared no-op span."""
        return NULL_SPAN

    def current(self) -> None:
        """Always None (nothing is ever open)."""
        return None

    def find(self, name: str) -> None:
        """Always None (nothing is ever recorded)."""
        return None

    def span_names(self) -> List[str]:
        """Always empty."""
        return []

    def to_dict(self, meta: Optional[Dict[str, object]] = None) -> Dict[str, object]:
        """An empty trace document."""
        document: Dict[str, object] = {"version": 1}
        if meta is not None:
            document["meta"] = meta
        document["spans"] = []
        return document

    def to_json(self, meta: Optional[Dict[str, object]] = None) -> str:
        """Stable JSON rendering of the empty document."""
        return json.dumps(self.to_dict(meta=meta), indent=2)
