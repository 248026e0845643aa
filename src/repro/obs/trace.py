"""Nested, deterministic tracing spans for the scan pipeline.

A :class:`Tracer` records a tree of named :class:`Span` objects around
the pipeline phases (hitlist build, probe scheduling, per-round scans,
BGP propagation, cleaning, load weighting).  Timestamps come from an
injected monotonic clock; the default :class:`TickClock` advances one
tick per reading, so the emitted trace of a seeded run is bit-identical
across reruns — tests pin trace *shape* without depending on wall
time.  Wall-clock time is kept beside the ticks, never in them: every
closed span also carries its ``time.perf_counter`` duration in
``span.wall``, which :meth:`Tracer.to_dict` leaves out and
:meth:`Tracer.render_wall` (the CLI's ``--profile``) sums per span name.

The tracer keeps one span stack per thread: a span opened on another
thread (the daemon's ingest thread, a library user's own threads) with
nothing open there becomes an additional root, appended when it
*opens*.  Deterministic artifacts therefore come from sequential runs,
which is what the CLI and the report generator do.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["TickClock", "Span", "Tracer", "NullTracer", "NULL_SPAN"]


class TickClock:
    """Deterministic monotonic clock: every reading advances one step.

    Spans timed with a ``TickClock`` measure *events*, not seconds: a
    span's duration is the number of clock readings taken while it was
    open.  That is exactly what makes seeded traces reproducible; for
    seconds, read ``span.wall``.
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
    """One traced operation: name, start/end ticks, attributes, children.

    ``wall`` is the span's ``perf_counter`` duration in seconds (0.0
    until it closes); it is not part of :meth:`to_dict`.
    """

    __slots__ = ("name", "start", "end", "attributes", "children", "wall", "_opened")

    def __init__(self, name: str, **attributes: object) -> None:
        self.name = name
        self.start: Optional[float] = None
        self.end: Optional[float] = None
        self.attributes: Dict[str, object] = dict(attributes)
        self.children: List["Span"] = []
        self.wall = 0.0
        self._opened = 0.0

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

    @property
    def self_wall(self) -> float:
        """Wall seconds spent in this span outside its children."""
        return self.wall - sum(child.wall for child in self.children)

    def walk(self) -> Iterator["Span"]:
        """This span, then every descendant, depth-first in record order."""
        yield self
        for child in self.children:
            yield from child.walk()

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
    is a fresh :class:`TickClock`.  ``time.perf_counter`` is read beside
    it, into ``span.wall``.
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
        span._opened = time.perf_counter()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._roots_lock:
                self.roots.append(span)
        stack.append(span)

    def _close(self, span: Span) -> None:
        span.wall = time.perf_counter() - span._opened
        span.end = self._clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def walk(self) -> Iterator[Span]:
        """Every recorded span, depth-first in record order."""
        for root in self.roots:
            yield from root.walk()

    def wall_by_name(self) -> Dict[str, Tuple[int, float, float]]:
        """Per span name: calls, total and self wall seconds."""
        table: Dict[str, Tuple[int, float, float]] = {}
        for span in self.walk():
            calls, total, own = table.get(span.name, (0, 0.0, 0.0))
            table[span.name] = (calls + 1, total + span.wall, own + span.self_wall)
        return table

    def render_wall(self) -> str:
        """The ``--profile`` table: one row per span name, by self time."""
        table = self.wall_by_name()
        lines = ["profile (wall clock, opt-in):"]
        if not table:
            return "\n".join([*lines, "  (no spans recorded)"])
        width = max(len(name) for name in table)
        lines.append(f"  {'span'.ljust(width)}  {'calls':>7}  {'total s':>10}  {'self s':>10}")
        for name in sorted(table, key=lambda key: (-table[key][2], key)):
            calls, total, own = table[name]
            lines.append(f"  {name.ljust(width)}  {calls:7d}  {total:10.4f}  {own:10.4f}")
        return "\n".join(lines)

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


class NullTracer(Tracer):
    """Tracer that records nothing; ``span()`` costs one method call, and the
    trace reads and renders as the empty one it stays."""

    def span(self, name: str, **attributes: object) -> _NullSpan:
        """The shared no-op span."""
        return NULL_SPAN
