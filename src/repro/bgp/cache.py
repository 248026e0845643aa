"""Content-addressed cache of routing outcomes.

Sweeps and planning searches evaluate the same announcement policies
repeatedly (benchmarks re-run configurations, stability series reuse
one policy across 96 rounds, placement search revisits baselines).  A
:class:`RoutingCache` keys fully-computed :class:`RoutingOutcome`
objects by *content* — the internet's identity, the policy's complete
announcement tuple, the :class:`RoutingConfig` and the flip model — so
a repeated scenario is a dictionary hit rather than a propagation.

:meth:`RoutingCache.get_or_compute_many` is how every what-if routes —
a playbook lattice, a prepend sweep, a site-failure study, a site
addition: the batch's misses propagate together as one array program
(:func:`~repro.bgp.propagation.compute_lattice`).

:meth:`RoutingCache.get_or_compute` serves one policy.  A cold miss
propagates in full; a miss with a cached outcome over the same internet
object, config and flip model propagates **incrementally**, with that
outcome as a :class:`~repro.bgp.delta.DeltaPropagator` baseline.  Delta
reuse requires object identity on the internet (``is``), not just an
equal fingerprint: the delta engine splices baseline selection objects,
which is only sound against the very topology they were built from.
A baseline that came from the array propagation first runs the scalar
reference once to get the selections and working maps delta splices.
No subcommand takes the delta path any more (a stability series makes
one cold lookup); it stays for the operator benchmark's traced probe.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bgp.instability import FlipModel
from repro.bgp.policy import AnnouncementPolicy
from repro.bgp.propagation import (
    RoutingConfig,
    RoutingOutcome,
    compute_lattice,
    compute_routes,
)
from repro.errors import ConfigurationError
from repro.obs import NULL_OBSERVER, Observer
from repro.topology.internet import Internet


def policy_fingerprint(policy: AnnouncementPolicy) -> tuple:
    """Hashable identity of a policy's complete announcement set."""
    return tuple(
        (entry.site_code, entry.upstream_asn, entry.prepend, entry.no_export_to)
        for entry in policy.announcements
    )


def policy_digest(policy: AnnouncementPolicy) -> str:
    """Short stable hex id of a policy's announcement set.

    A blake2b-8 digest of the same announcement tuple that keys the
    :class:`RoutingCache`, so two policies share a digest exactly when
    they share a cache identity (with internet, config and flip model
    held fixed, as they are within one planning search).  The playbook
    planner uses it as the config-lattice key: stable across processes
    and runs, usable in dataset ids and artifact JSON, and ties every
    ranked playbook row back to the routing state that produced it.
    """
    payload = repr(policy_fingerprint(policy)).encode("utf-8")
    return hashlib.blake2b(payload, digest_size=8).hexdigest()


def internet_fingerprint(internet: Internet) -> tuple:
    """Hashable identity of a generated topology.

    Topologies are pure functions of their seed and size parameters,
    so (seed, headline counts) identifies one; two distinct Internet
    objects with equal fingerprints hold identical graphs.
    """
    summary = internet.summary()
    return (
        internet.seed,
        summary["ases"],
        summary["pops"],
        summary["announced_prefixes"],
        summary["blocks"],
    )


@dataclass
class CacheStats:
    """Where each lookup was served from."""

    hits: int = 0
    full_computes: int = 0
    delta_computes: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total number of policies looked up."""
        return self.hits + self.full_computes + self.delta_computes

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups served straight from the LRU (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class _Entry:
    outcome: RoutingOutcome
    config: RoutingConfig
    flip_fingerprint: tuple = field(default_factory=tuple)


class RoutingCache:
    """LRU cache of routing outcomes: array propagation for batches,
    delta-based warm single misses."""

    def __init__(
        self, maxsize: int = 64, observer: Optional[Observer] = None
    ) -> None:
        if maxsize < 1:
            raise ConfigurationError("cache maxsize must be >= 1")
        self.maxsize = maxsize
        self.stats = CacheStats()
        self.observer = observer if observer is not None else NULL_OBSERVER
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def _key(
        self,
        internet: Internet,
        policy: AnnouncementPolicy,
        config: RoutingConfig,
        flip_fingerprint: tuple,
    ) -> tuple:
        return (
            internet_fingerprint(internet),
            policy_fingerprint(policy),
            config,
            flip_fingerprint,
        )

    def _find_baseline(
        self, internet: Internet, config: RoutingConfig, flip_fingerprint: tuple
    ) -> Optional[RoutingOutcome]:
        """Most recently used cached outcome usable as a delta baseline.

        Every cached outcome has, or derives on first use, the working
        maps a baseline needs; deriving them is left to the delta run,
        outside the lock.
        """
        for entry in reversed(self._entries.values()):
            outcome = entry.outcome
            if (
                outcome.internet is internet
                and entry.config == config
                and entry.flip_fingerprint == flip_fingerprint
            ):
                return outcome
        return None

    def _store(
        self,
        key: tuple,
        outcome: RoutingOutcome,
        config: RoutingConfig,
        flip_fingerprint: tuple,
    ) -> RoutingOutcome:
        """Insert ``outcome`` under ``key`` (the lock is held); returns the
        entry's outcome — an earlier concurrent insert wins."""
        if key not in self._entries:
            self._entries[key] = _Entry(outcome, config, flip_fingerprint)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
                self.observer.metrics.counter("routing.cache.evictions").inc()
            return outcome
        self._entries.move_to_end(key)
        return self._entries[key].outcome

    def get_or_compute(
        self,
        internet: Internet,
        policy: AnnouncementPolicy,
        flip_model: Optional[FlipModel] = None,
        config: Optional[RoutingConfig] = None,
    ) -> RoutingOutcome:
        """The outcome for (internet, policy, config, flip model).

        Hit: the cached outcome, LRU-refreshed.  Miss with a usable
        baseline: delta propagation.  Cold miss: full propagation.
        Results are bit-identical across all three paths, so callers
        never need to know which one served them.
        """
        resolved_config = config or RoutingConfig()
        resolved_flip = flip_model or FlipModel(internet.seed)
        flip_fp = resolved_flip.fingerprint()
        key = self._key(internet, policy, resolved_config, flip_fp)
        observer = self.observer
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                observer.metrics.counter("routing.cache.hits").inc()
                return entry.outcome
            baseline = self._find_baseline(internet, resolved_config, flip_fp)
        # Propagation runs outside the lock: concurrent misses for the
        # same key both compute, but results are deterministic and
        # identical, so whichever insert wins is indistinguishable.
        if baseline is not None:
            from repro.bgp.delta import DeltaPropagator

            with observer.tracer.span("bgp.propagate.delta"):
                outcome = DeltaPropagator(baseline).propagate(policy)
            observer.metrics.counter("routing.cache.delta_computes").inc()
            with self._lock:
                self.stats.delta_computes += 1
        else:
            with observer.tracer.span("bgp.propagate.full"):
                outcome = compute_routes(
                    internet, policy, flip_model=resolved_flip,
                    config=resolved_config,
                )
            observer.metrics.counter("routing.cache.full_computes").inc()
            with self._lock:
                self.stats.full_computes += 1
        with self._lock:
            return self._store(key, outcome, resolved_config, flip_fp)

    def get_or_compute_many(
        self,
        internet: Internet,
        policies: Sequence[AnnouncementPolicy],
        flip_model: Optional[FlipModel] = None,
        config: Optional[RoutingConfig] = None,
    ) -> List[RoutingOutcome]:
        """The outcome of every policy, in input order.

        Hits come from the LRU.  The distinct missed policies propagate
        in one :func:`~repro.bgp.propagation.compute_lattice` call and
        count as full computes; a policy repeated in the batch counts
        as a hit after its first sight, as it would one call at a time.
        Every outcome is returned even when the batch outgrows
        ``maxsize``.
        """
        resolved_config = config or RoutingConfig()
        resolved_flip = flip_model or FlipModel(internet.seed)
        flip_fp = resolved_flip.fingerprint()
        keys = [
            self._key(internet, policy, resolved_config, flip_fp) for policy in policies
        ]
        found: Dict[tuple, RoutingOutcome] = {}
        missing: Dict[tuple, AnnouncementPolicy] = {}
        hits = 0
        with self._lock:
            for key, policy in zip(keys, policies):
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    found[key] = entry.outcome
                    hits += 1
                elif key in missing:
                    hits += 1
                else:
                    missing[key] = policy
            self.stats.hits += hits
        metrics = self.observer.metrics
        if hits:
            metrics.counter("routing.cache.hits").inc(hits)
        if missing:
            with self.observer.tracer.span(
                "bgp.propagate.lattice", configs=len(missing)
            ) as span:
                outcomes, levels = compute_lattice(
                    internet, list(missing.values()), flip_model=resolved_flip,
                    config=resolved_config,
                )
                span.set(levels=levels)
            metrics.counter("routing.cache.full_computes").inc(len(missing))
            metrics.counter("routing.lattice_configs").inc(len(missing))
            with self._lock:
                self.stats.full_computes += len(missing)
                for key, outcome in zip(missing, outcomes):
                    found[key] = self._store(key, outcome, resolved_config, flip_fp)
        return [found[key] for key in keys]

    def clear(self) -> None:
        """Drop all entries (stats are kept)."""
        with self._lock:
            self._entries.clear()


_default_cache: Optional[RoutingCache] = None
_default_cache_lock = threading.Lock()


def default_routing_cache() -> RoutingCache:
    """Process-wide cache shared by experiment drivers (small LRU)."""
    global _default_cache
    with _default_cache_lock:
        if _default_cache is None:
            _default_cache = RoutingCache(maxsize=16)
        return _default_cache
