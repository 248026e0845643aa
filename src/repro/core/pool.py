"""Persistent shard pool with per-process memmap attach caching.

:class:`ShardPool` is the one place in the library that constructs a
``ProcessPoolExecutor`` (reprolint rule D112 enforces this).  It exists
because the sharded scan's cost model changed once payloads became
fingerprints instead of arrays: with `core.tables` externalising every
round-invariant column, the expensive part of a worker task is no
longer unpickling state but *attaching* it — and attaching is cacheable
per process.  The pool therefore (a) keeps its worker processes alive
across calls, so `repro scan` series, stability series, and sharded
load joins in one invocation reuse warm workers, and (b) runs every
task through :func:`run_attached`, which resolves fingerprints through
a per-process cache before invoking the real worker function.

Cache safety: the cache is per *process* (a module-global
:class:`_ProcessCache` instance, re-initialised on pid change so a
forked worker never aliases its parent's memmaps), holds a bounded
number of read-only memmap-backed states keyed by ``(store root,
fingerprint)``, and fingerprints are content hashes — a stale hit is
impossible by construction.  Workers never write an
attached array, so no locking is needed.  Nothing a worker runs writes
a module global either: the cache mutates only attributes of one
private instance.  Reprolint's W502 checks that only within the file
that submits to the pool, so for this module it is kept by review.

Determinism: the pool changes *where* tasks run, never what they
return; ``map`` yields results in submission order, and all
order-sensitive float accumulation stays in the parent (see
`core.sharding`).  Shutdown mid-use raises
:class:`~repro.errors.PoolError` instead of hanging or leaking the
executor's own ``RuntimeError``.
"""

from __future__ import annotations

import os
import resource
from collections import OrderedDict
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, PoolError
from repro.obs import NULL_OBSERVER, Observer


#: Attachments a process keeps before dropping its oldest: far above what
#: one CLI run attaches (a round state and a few joined columns; a pooled
#: playbook lattice ships route columns, not ``sites`` columns), yet a
#: daemon joining a new catchment every round stays bounded.
_ATTACH_CACHE_LIMIT = 128


class _ProcessCache:
    """Attached state for one worker process, keyed by fingerprint.

    Guarding on pid means a process forked *after* the cache was warm
    starts cold instead of sharing file handles with its parent.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.attached: "OrderedDict[tuple, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evicted = 0
        self.tasks = 0

    def ensure_current(self) -> None:
        if self.pid != os.getpid():
            self.__init__()

    def lookup(self, key: tuple, attach: Callable[[], object]):
        """The attachment under ``key``, made on a miss; past the limit the
        oldest attachment goes first."""
        self.ensure_current()
        value = self.attached.get(key)
        if value is not None:
            self.hits += 1
            return value
        self.misses += 1
        value = self.attached[key] = attach()
        while len(self.attached) > _ATTACH_CACHE_LIMIT:
            self.attached.popitem(last=False)
            self.evicted += 1
        return value


_CACHE = _ProcessCache()


def attached_round_state(store_root: str, fingerprint: str):
    """This process's attached ``RoundState`` for a fingerprint."""
    from repro.core.tables import TableStore, attach_round_state

    return _CACHE.lookup(
        (store_root, fingerprint),
        lambda: attach_round_state(TableStore(store_root), fingerprint),
    )


def attached_array(store_root: str, fingerprint: str) -> np.ndarray:
    """This process's attached memmap for a content-addressed array."""
    from repro.core.tables import TableStore, attach_array

    return _CACHE.lookup(
        (store_root, fingerprint),
        lambda: attach_array(TableStore(store_root), fingerprint),
    )


@dataclass(frozen=True)
class TaskStats:
    """Per-task cache and memory telemetry shipped back with a result."""

    attach_hits: int
    attach_misses: int
    attach_evicted: int
    reused: bool
    max_rss_kb: int


def run_attached(fn: Callable[[object], object], payload: object):
    """Run one task in this process, reporting attach-cache telemetry.

    Top-level (hence picklable) wrapper the pool submits for every
    task; ``fn`` resolves its own fingerprints via
    :func:`attached_round_state` / :func:`attached_array`.
    """
    _CACHE.ensure_current()
    reused = _CACHE.tasks > 0
    _CACHE.tasks += 1
    hits_before = _CACHE.hits
    misses_before = _CACHE.misses
    evicted_before = _CACHE.evicted
    result = fn(payload)
    stats = TaskStats(
        attach_hits=_CACHE.hits - hits_before,
        attach_misses=_CACHE.misses - misses_before,
        attach_evicted=_CACHE.evicted - evicted_before,
        reused=reused,
        max_rss_kb=int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
    )
    return result, stats


class ShardPool:
    """A reusable, context-managed process pool for shard fan-outs.

    ``workers=0`` runs tasks inline through the same attach path (the
    bit-identity tests exercise the full fingerprint protocol without
    process startup); ``workers=None`` uses every core this process may
    schedule on.  The underlying executor is created lazily on first
    ``map`` and survives until :meth:`shutdown`, so consecutive series
    reuse warm workers and their attach caches.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        store=None,
        observer: Optional[Observer] = None,
    ) -> None:
        if workers is None:
            workers = len(os.sched_getaffinity(0))
        if workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
        self.workers = workers
        if store is None:
            from repro.core.tables import TableStore

            store = TableStore()
        self.store = store
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.max_worker_rss_kb = 0
        self._executor: Optional[ProcessPoolExecutor] = None
        self._closed = False

    @property
    def closed(self) -> bool:
        """Whether :meth:`shutdown` has been called."""
        return self._closed

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        """Stop the workers; further ``map`` calls raise ``PoolError``.

        The executor reference is deliberately kept: its manager thread
        performs the ``cancel_futures`` sweep through a *weakref* to the
        executor, so dropping the last strong reference here would race
        that sweep — a gc'd executor cancels nothing and an in-flight
        ``map`` would silently drain every queued task instead of
        raising.
        """
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)

    def map(
        self,
        fn: Callable[[object], object],
        payloads: Sequence[object],
        observer: Optional[Observer] = None,
    ) -> List[object]:
        """Run ``fn`` over ``payloads``, results in submission order.

        Raises :class:`~repro.errors.PoolError` if the pool is shut
        down before or during the fan-out; exceptions raised by ``fn``
        itself propagate unchanged.
        """
        observer = observer if observer is not None else self.observer
        if self._closed:
            raise PoolError("ShardPool.map called after shutdown")
        payloads = list(payloads)
        with observer.tracer.span(
            "pool.map", tasks=len(payloads), workers=self.workers
        ):
            if self.workers == 0:
                outcomes = [run_attached(fn, payload) for payload in payloads]
            else:
                outcomes = self._map_processes(fn, payloads)
        metrics = observer.metrics
        hits = sum(stats.attach_hits for _, stats in outcomes)
        misses = sum(stats.attach_misses for _, stats in outcomes)
        reused = sum(1 for _, stats in outcomes if stats.reused)
        metrics.counter("pool.attach.hit").inc(hits)
        metrics.counter("pool.attach.miss").inc(misses)
        metrics.counter("pool.attach.evicted").inc(
            sum(stats.attach_evicted for _, stats in outcomes)
        )
        metrics.counter("pool.worker.reuse").inc(reused)
        metrics.counter("pool.tasks").inc(len(outcomes))
        for _, stats in outcomes:
            if stats.max_rss_kb > self.max_worker_rss_kb:
                self.max_worker_rss_kb = stats.max_rss_kb
        return [result for result, _ in outcomes]

    def _map_processes(
        self, fn: Callable[[object], object], payloads: List[object]
    ) -> List[Tuple[object, TaskStats]]:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        try:
            futures = [
                self._executor.submit(run_attached, fn, payload)
                for payload in payloads
            ]
        except RuntimeError as error:
            raise PoolError(f"ShardPool shut down mid-use: {error}") from error
        try:
            return [future.result() for future in futures]
        except (CancelledError, BrokenProcessPool) as error:
            raise PoolError(
                f"ShardPool workers died or were cancelled mid-use: {error}"
            ) from error
