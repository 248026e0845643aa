"""Opt-in profiling hooks for the pipeline's hot paths.

Off unless an operator asks.  Every instrumented hot path (the
vectorised round evaluation, load weighting, BGP propagation) is
wrapped in ``observer.profile("name")``; with a :class:`Profiler`
attached the wrapper accumulates ``time.perf_counter`` elapsed per
section, which is cheap enough to leave on for whole runs.

Profiling output is wall-clock by construction and therefore never part
of the deterministic artifacts; it goes to the operator's terminal (the
CLI ``--profile`` flag), not into the trace/metrics JSON.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

__all__ = ["SectionTiming", "Profiler"]


@dataclass
class SectionTiming:
    """Accumulated wall-clock time of one instrumented section."""

    calls: int = 0
    seconds: float = 0.0


class _SectionContext:
    """Context manager timing one entry of one section."""

    __slots__ = ("_profiler", "_name", "_start")

    def __init__(self, profiler: "Profiler", name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_SectionContext":
        self._start = self._profiler._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = self._profiler._clock() - self._start
        timing = self._profiler._timings.setdefault(self._name, SectionTiming())
        timing.calls += 1
        timing.seconds += elapsed
        return False


class Profiler:
    """Accumulates per-section wall time.

    ``clock`` is injectable for tests (defaults to
    ``time.perf_counter``, which reprolint permits: it measures
    *elapsed* time and never enters deterministic artifacts).
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock if clock is not None else time.perf_counter
        self._timings: Dict[str, SectionTiming] = {}

    def section(self, name: str) -> _SectionContext:
        """Context manager accumulating elapsed time under ``name``."""
        return _SectionContext(self, name)

    def timings(self) -> Dict[str, SectionTiming]:
        """Per-section accumulated timings (live view, do not mutate)."""
        return self._timings

    def report(self) -> str:
        """Human-readable summary: the section table."""
        lines: List[str] = ["profile (wall clock, opt-in):"]
        if not self._timings:
            lines.append("  (no instrumented sections ran)")
        else:
            width = max(len(name) for name in self._timings)
            for name in sorted(
                self._timings,
                key=lambda key: -self._timings[key].seconds,
            ):
                timing = self._timings[name]
                lines.append(
                    f"  {name.ljust(width)}  {timing.seconds:10.4f} s"
                    f"  ({timing.calls} calls)"
                )
        return "\n".join(lines)
