"""DDoS playbook planner: search routing configs under attack load.

"Anycast Agility: Network Playbooks to Fight DDoS" (PAPERS.md)
precomputes *playbooks*: ranked BGP configurations — AS-path prepends,
withdrawals, site shutdown — an operator flips to when one site is
overwhelmed.  This module is that search over our substrate:

1. :func:`enumerate_lattice` spans the deterministic config lattice
   around an attacked site (prepend it 1..N, withdraw it, and at depth
   2 pair each of those with a second site's prepend to steer where the
   displaced traffic lands);
2. :class:`PlaybookPlanner` routes every candidate not yet measured
   through the fingerprint-keyed :class:`~repro.bgp.cache.RoutingCache`
   in one batch (the lattice propagates as one array program on first
   sight, dictionary hits after), builds their per-PoP route columns in
   one stacked weighted pick, and scans them as one lattice
   (:func:`~repro.core.fastscan.scan_lattice`): §4 cleaning runs once
   on the round's outcome grid and each config gathers from it.  With
   a :class:`~repro.core.pool.ShardPool` that scan is one ``pool.map``
   with one task per shard.  Catchments are memoised per policy (a
   single one, :meth:`PlaybookPlanner.catchment_for`, is a lattice of
   one); one
   :func:`~repro.load.weighting.weight_catchments` call joins the
   attack-day traffic to the shared block universe once and weighs
   every config;
3. the result ranks configs by (capacity violations, worst peak
   utilisation, config id) — byte-identically across runs, in-process
   or pooled — and renders to a canonical JSON artifact with per-config
   before/after load tables and an "absorber" recommendation.

Capacity semantics are the repo-wide pinned definition of
:func:`repro.load.weighting.capacity_violations`: peak hourly load,
strict ``>``, withdrawn sites never violate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.anycast.catchment import CatchmentMap
from repro.bgp.cache import RoutingCache, default_routing_cache, policy_digest
from repro.bgp.policy import AnnouncementPolicy
from repro.core.fastscan import scan_lattice
from repro.core.verfploeter import Verfploeter
from repro.errors import ConfigurationError, DatasetError
from repro.load.estimator import LoadEstimate
from repro.load.weighting import SiteLoad, capacity_violations, weight_catchments
from repro.traffic.attack import AttackProfile


@dataclass(frozen=True)
class PlaybookEntry:
    """One candidate mitigation config in the lattice.

    ``config_id`` is the :func:`~repro.bgp.cache.policy_digest` of the
    entry's policy — the stable key tying ranked artifact rows, dataset
    ids, and routing-cache identity together.
    """

    label: str
    config_id: str
    prepends: Tuple[Tuple[str, int], ...]
    withdrawn: Tuple[str, ...]

    def policy_for(self, service) -> AnnouncementPolicy:
        """This entry's announcement policy for ``service``."""
        return service.policy(
            prepends=dict(self.prepends), withdrawn=list(self.withdrawn)
        )


def _entry(service, prepends: Dict[str, int], withdrawn: Tuple[str, ...]) -> PlaybookEntry:
    """Build an entry, deriving label and digest from the policy itself."""
    parts = [f"{code}+{count}" for code, count in sorted(prepends.items())]
    parts += [f"-{code}" for code in withdrawn]
    label = ",".join(parts) if parts else "equal"
    policy = service.policy(prepends=prepends, withdrawn=list(withdrawn))
    return PlaybookEntry(
        label=label,
        config_id=policy_digest(policy),
        prepends=tuple(sorted(prepends.items())),
        withdrawn=withdrawn,
    )


def enumerate_lattice(
    service,
    attacked_site: str,
    max_prepend: int = 3,
    depth: int = 1,
) -> List[PlaybookEntry]:
    """The deterministic config lattice around one attacked site.

    Depth 1: do nothing ("equal"), prepend the attacked site 1..N, or
    withdraw it (shutdown).  Depth 2 additionally pairs every depth-1
    *action* with a second site's prepend 1..N — the Anycast-Agility
    move that protects a would-be-overloaded absorber by deflecting the
    displaced traffic past it.  Enumeration order (and therefore every
    downstream tie-break) is fixed: baseline, ascending attacked-site
    prepends, withdrawal, then depth-2 pairs sorted by (base action,
    second site, prepend count).
    """
    site_codes = list(service.site_codes)
    if attacked_site not in site_codes:
        raise ConfigurationError(
            f"attacked site {attacked_site!r} is not in the deployment"
        )
    if max_prepend < 1:
        raise ConfigurationError("max_prepend must be >= 1")
    if depth not in (1, 2):
        raise ConfigurationError("lattice depth must be 1 or 2")
    if len(site_codes) < 2:
        raise ConfigurationError("playbooks need at least two sites")

    entries = [_entry(service, {}, ())]
    actions: List[Tuple[Dict[str, int], Tuple[str, ...]]] = []
    for count in range(1, max_prepend + 1):
        actions.append(({attacked_site: count}, ()))
    actions.append(({}, (attacked_site,)))
    for prepends, withdrawn in actions:
        entries.append(_entry(service, dict(prepends), withdrawn))
    if depth == 2:
        others = [code for code in sorted(site_codes) if code != attacked_site]
        for prepends, withdrawn in actions:
            for other in others:
                for count in range(1, max_prepend + 1):
                    combined = dict(prepends)
                    combined[other] = count
                    entries.append(_entry(service, combined, withdrawn))
    return entries


def derive_capacities(
    baseline: SiteLoad,
    site_codes: Sequence[str],
    headroom: float = 3.0,
) -> Dict[str, float]:
    """Per-site capacity: ``headroom`` x the site's normal peak hour.

    Operators provision for the observed diurnal peak plus headroom
    (RSSAC-002 reports peak rates for exactly this purpose).  Sites
    whose normal peak falls below the fleet mean are floored at the
    mean: a site that happens to attract little baseline traffic is
    still built to fleet scale, and a near-zero capacity would brand
    any displaced byte a violation.
    """
    if headroom <= 0:
        raise ConfigurationError("capacity headroom must be positive")
    peaks = {code: baseline.peak_of(code) for code in site_codes}
    if not peaks:
        raise ConfigurationError("cannot derive capacities for zero sites")
    mean_peak = sum(peaks.values()) / len(peaks)
    return {
        code: headroom * max(peak, mean_peak) for code, peak in peaks.items()
    }


@dataclass(frozen=True)
class ConfigOutcome:
    """One evaluated config: loads under attack, checked against capacity."""

    entry: PlaybookEntry
    daily: Dict[str, float]
    peaks: Dict[str, float]
    utilization: Dict[str, float]
    violations: Tuple[str, ...]
    worst_utilization: float

    @property
    def violation_count(self) -> int:
        """Number of announcing sites pushed past capacity."""
        return len(self.violations)

    def sort_key(self) -> Tuple[int, float, str]:
        """Ranking key: fewest violations, lowest worst utilisation,
        then the config digest — a total, deterministic order even
        under tied scores."""
        return (self.violation_count, self.worst_utilization, self.entry.config_id)


@dataclass(frozen=True)
class Recommendation:
    """The playbook's headline: which config to flip to, and who absorbs."""

    config_id: str
    label: str
    absorber: Optional[str]
    clears_violations: bool


@dataclass(frozen=True)
class Playbook:
    """A ranked, deterministic mitigation plan for one attack."""

    attacked_site: str
    capacities: Dict[str, float]
    baseline: ConfigOutcome
    ranked: List[ConfigOutcome]
    recommendation: Recommendation
    attack: Optional[AttackProfile]
    attacker_count: int

    def to_artifact(self, meta: Optional[dict] = None) -> dict:
        """The playbook as a plain deterministic dict (artifact schema).

        Stats that legitimately vary between equivalent runs — cache
        hit counts, wall-clock — are deliberately absent: two same-seed
        searches must render byte-identically, in-process or pooled,
        cold caches or warm (they live in the metrics/trace sidecars
        instead).  Floats are rounded to 6 decimals for a stable,
        readable rendering.
        """
        def table(outcome: ConfigOutcome) -> dict:
            return {
                "daily": {k: round(v, 6) for k, v in outcome.daily.items()},
                "peaks": {k: round(v, 6) for k, v in outcome.peaks.items()},
                "utilization": {
                    k: round(v, 6) for k, v in outcome.utilization.items()
                },
                "violations": list(outcome.violations),
                "worst_utilization": round(outcome.worst_utilization, 6),
            }

        ranked_rows = []
        for rank, outcome in enumerate(self.ranked, 1):
            row = table(outcome)
            row.update(
                rank=rank,
                config_id=outcome.entry.config_id,
                label=outcome.entry.label,
                prepends={code: n for code, n in outcome.entry.prepends},
                withdrawn=list(outcome.entry.withdrawn),
                delta_daily={
                    code: round(
                        outcome.daily.get(code, 0.0)
                        - self.baseline.daily.get(code, 0.0),
                        6,
                    )
                    for code in sorted(self.baseline.daily)
                },
            )
            ranked_rows.append(row)

        artifact = {
            "version": 1,
            "attacked_site": self.attacked_site,
            "attack": None
            if self.attack is None
            else {
                "name": self.attack.name,
                "target_site": self.attack.target_site,
                "intensity": self.attack.intensity,
                "hotspot_fraction": self.attack.hotspot_fraction,
                "start_hour": self.attack.start_hour,
                "duration_hours": self.attack.duration_hours,
                "attacker_blocks": self.attacker_count,
            },
            "capacities": {k: round(v, 6) for k, v in self.capacities.items()},
            "before": table(self.baseline),
            "ranked": ranked_rows,
            "recommendation": {
                "config_id": self.recommendation.config_id,
                "label": self.recommendation.label,
                "absorber": self.recommendation.absorber,
                "clears_violations": self.recommendation.clears_violations,
            },
            "configs_evaluated": len(self.ranked),
        }
        if meta is not None:
            artifact["meta"] = meta
        return artifact

    def to_json(self, meta: Optional[dict] = None) -> str:
        """Canonical JSON rendering (sorted keys, 2-space indent)."""
        return json.dumps(
            self.to_artifact(meta=meta), sort_keys=True, indent=2
        )


class PlaybookPlanner:
    """Searches the mitigation lattice for a deployment under attack.

    One planner amortises work across searches: routing states live in
    the shared :class:`~repro.bgp.cache.RoutingCache`, and measured
    catchments are memoised per policy digest — a repeated search
    (the playbook-refresh loop an operator runs as attacks evolve)
    skips both propagation and scanning, which is what
    ``BENCH_playbook.json`` measures.  A ``store`` (the ``(root, key)``
    of :func:`~repro.core.scenarios.catchment_store`) persists the memo
    for later processes.  All evaluation paths are deterministic, so
    memo and store hits are indistinguishable from recomputes.
    """

    def __init__(
        self,
        verfploeter: Verfploeter,
        cache: Optional[RoutingCache] = None,
        store: Optional[Tuple[str, str]] = None,
    ) -> None:
        self.verfploeter = verfploeter
        self.cache = cache if cache is not None else default_routing_cache()
        self.observer = verfploeter.observer
        self.store = store
        self._catchments: Dict[str, CatchmentMap] = {}
        self._stored: Optional[Dict[str, CatchmentMap]] = None

    def catchment_for(self, policy: AnnouncementPolicy, pool=None) -> CatchmentMap:
        """The measured catchment of ``policy``, memoised per digest:
        a lattice of one (:meth:`_measure_lattice`)."""
        return self._measure_lattice([policy], [policy_digest(policy)], pool)[0]

    def _attach_stored(self, missing: Dict[str, AnnouncementPolicy]) -> None:
        """Move each of ``missing`` the store holds into the memo (the entry is
        read once; a damaged one is measured again and overwritten)."""
        from repro.core.scenarios import stored_catchments

        metrics = self.observer.metrics
        with self.observer.tracer.span("playbook.catchments.attach") as span:
            if self._stored is None:
                try:
                    self._stored = stored_catchments(*self.store)
                except DatasetError:
                    self._stored = {}
                    metrics.counter("playbook.catchment_store.damaged").inc()
            hits = [key for key in missing if key in self._stored]
            for key in hits:
                self._catchments[key] = self._stored[key]
                del missing[key]
            span.set(hit=len(hits), miss=len(missing))
        for name, count in (("hit", len(hits)), ("miss", len(missing))):
            if count:
                metrics.counter(f"playbook.catchment_store.{name}").inc(count)

    def _measure_lattice(
        self, policies: Sequence[AnnouncementPolicy], keys: Sequence[str], pool
    ) -> List[CatchmentMap]:
        """The catchment of every policy (``keys`` are their digests).

        Memo hits are returned as they are, store hits attached; the
        misses route through the cache in one lattice call and scan as
        one lattice: in-process, or as one ``pool.map`` over ``pool``'s
        shards.
        """
        missing: Dict[str, AnnouncementPolicy] = {}
        for key, policy in zip(keys, policies):
            if key not in self._catchments:
                missing.setdefault(key, policy)
        metrics = self.observer.metrics
        # A policy repeated after a miss is served from the memo, as it
        # would be one call at a time.
        hits = len(keys) - len(missing)
        if hits:
            metrics.counter("playbook.catchment_memo.hits").inc(hits)
        if missing:
            metrics.counter("playbook.catchment_memo.misses").inc(len(missing))
            if self.store is not None:
                self._attach_stored(missing)
        if missing:
            routings = self.cache.get_or_compute_many(
                self.verfploeter.internet, list(missing.values())
            )
            if pool is not None:
                from repro.core.sharding import sharded_lattice

                scanned = sharded_lattice(self.verfploeter, routings, pool)
            else:
                scanned = scan_lattice(self.verfploeter, routings)
            self._catchments.update(zip(missing, scanned))
            if self.store is not None:
                from repro.core.scenarios import save_catchments

                save_catchments(*self.store, self._catchments)
        return [self._catchments[key] for key in keys]

    def _outcome(
        self,
        entry: PlaybookEntry,
        load: SiteLoad,
        capacities: Dict[str, float],
    ) -> ConfigOutcome:
        """Check one config's loads against the pinned capacity semantics."""
        service = self.verfploeter.service
        daily, peaks = load.tables(service.site_codes)
        announcing = [
            code
            for code in service.site_codes
            if code not in entry.withdrawn
        ]
        utilization = {}
        for code in announcing:
            capacity = capacities.get(code)
            if capacity is None:
                continue
            if capacity > 0:
                utilization[code] = peaks[code] / capacity
            else:
                utilization[code] = float("inf") if peaks[code] > 0 else 0.0
        violations = tuple(
            capacity_violations(peaks, capacities, exclude=entry.withdrawn)
        )
        worst = max(utilization.values(), default=0.0)
        return ConfigOutcome(
            entry=entry,
            daily=daily,
            peaks=peaks,
            utilization=utilization,
            violations=violations,
            worst_utilization=worst,
        )

    def _recommend(
        self, baseline: ConfigOutcome, ranked: List[ConfigOutcome],
        attacked_site: str,
    ) -> Recommendation:
        """The absorber call: who soaks up the displaced attack load.

        Under the top config, the absorber is the announcing site
        (other than the attacked one) gaining the most daily load over
        the do-nothing baseline; ties break toward the lower site code.
        If the top config *is* the do-nothing baseline, the attacked
        site itself absorbs the attack.
        """
        top = ranked[0]
        if top.entry.config_id == baseline.entry.config_id:
            absorber: Optional[str] = attacked_site
        else:
            candidates = [
                code
                for code in sorted(top.peaks)
                if code != attacked_site and code not in top.entry.withdrawn
            ]
            absorber = None
            best_gain = float("-inf")
            for code in candidates:
                gain = top.daily.get(code, 0.0) - baseline.daily.get(code, 0.0)
                if gain > best_gain:
                    best_gain = gain
                    absorber = code
        return Recommendation(
            config_id=top.entry.config_id,
            label=top.entry.label,
            absorber=absorber,
            clears_violations=top.violation_count == 0,
        )

    def plan(
        self,
        estimate: LoadEstimate,
        attacked_site: str,
        capacities: Dict[str, float],
        max_prepend: int = 3,
        depth: int = 1,
        pool=None,
        attack: Optional[AttackProfile] = None,
        attacker_count: int = 0,
    ) -> Playbook:
        """Search the lattice and rank every config under ``estimate``.

        ``estimate`` is the *attack-day* load (compose one with
        :func:`repro.traffic.attack.compose_attack`); ``capacities``
        come from :func:`derive_capacities` over the normal day.
        An open :class:`~repro.core.pool.ShardPool` as ``pool`` shards
        the lattice scan over warm worker processes (one task per
        shard); the ranked result is byte-identical to the in-process
        search.
        """
        service = self.verfploeter.service
        observer = self.observer
        entries = enumerate_lattice(
            service, attacked_site, max_prepend=max_prepend, depth=depth
        )
        with observer.tracer.span(
            "playbook.search",
            attacked_site=attacked_site,
            depth=depth,
            max_prepend=max_prepend,
        ) as span:
            policies = [entry.policy_for(service) for entry in entries]
            catchments = self._measure_lattice(
                policies, [entry.config_id for entry in entries], pool
            )
            loads = weight_catchments(catchments, estimate, observer=observer)
            observer.metrics.counter("playbook.configs_evaluated").inc(len(entries))
            outcomes = [
                self._outcome(entry, load, capacities)
                for entry, load in zip(entries, loads)
            ]
            baseline = outcomes[0]
            ranked = sorted(outcomes, key=ConfigOutcome.sort_key)
            span.set(configs=len(entries))
        observer.metrics.gauge("playbook.cache_hit_ratio").set(
            round(self.cache.stats.hit_ratio, 6)
        )
        return Playbook(
            attacked_site=attacked_site,
            capacities=dict(capacities),
            baseline=baseline,
            ranked=ranked,
            recommendation=self._recommend(baseline, ranked, attacked_site),
            attack=attack,
            attacker_count=attacker_count,
        )


def format_playbook_table(playbook: Playbook, top: int = 8) -> str:
    """Render the ranked playbook as the CLI/report table."""
    from repro.analysis.report import render_table

    rows = []
    for rank, outcome in enumerate(playbook.ranked[:top], 1):
        rows.append(
            (
                rank,
                outcome.entry.label,
                outcome.violation_count,
                f"{outcome.worst_utilization:.2f}",
                f"{outcome.peaks.get(playbook.attacked_site, 0.0):,.0f}",
            )
        )
    title = (
        f"playbook for attack on {playbook.attacked_site} "
        f"({len(playbook.ranked)} configs)"
    )
    return render_table(
        ["rank", "config", "violations", "worst util", "peak@attacked"],
        rows,
        title=title,
    )
