"""Volumetric attack workloads layered on the diurnal day.

"Anycast Agility: Network Playbooks to Fight DDoS" (PAPERS.md) plans
mitigations against *volumetric* attacks: a hotspot of source blocks —
typically concentrated in one site's catchment — suddenly multiplies
the service's query volume for a few hours.  This module turns that
attack model into data the rest of the pipeline already understands: an
:class:`AttackProfile` plus a deterministic attacker sample compose
with any baseline :class:`~repro.traffic.logs.DayLoad` into a new
``DayLoad``, so catchment weighting, capacity checks, and the playbook
planner (:mod:`repro.core.playbook`) treat attack days exactly like
ordinary days.

Everything is deterministic in the seed: attacker selection and
per-attacker volume draws go through :func:`repro.rng.uniform_unit`
with module-level salts, mirroring :mod:`repro.traffic.ditl`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.anycast.catchment import CatchmentMap
from repro.errors import ConfigurationError, DatasetError
from repro.rng import uniform_unit
from repro.traffic.logs import HOURS, DayLoad

_HOTSPOT_SALT = 0x41545048  # attacker-sample membership draws
_ATTACK_VOLUME_SALT = 0x41545656  # per-attacker volume weights


@dataclass(frozen=True)
class AttackProfile:
    """One volumetric attack scenario.

    ``intensity`` is the attack's hourly rate as a multiple of the
    baseline day's **peak-hour** rate — the unit operators reason in
    ("a flood twice our busiest hour"), and deliberately the peak
    rather than the mean: capacity planning across the repo compares
    peak rates (see :meth:`repro.load.estimator.LoadEstimate.peak_qph`
    and :func:`repro.load.weighting.capacity_violations`), so an
    intensity-1.0 attack doubles the service's previous worst hour.
    ``hotspot_fraction`` is the share of the target site's catchment
    blocks that source attack traffic; the attack runs for
    ``duration_hours`` starting at UTC ``start_hour`` (wrapping past
    midnight), flat across the window.
    """

    target_site: str
    intensity: float = 1.0
    hotspot_fraction: float = 0.5
    start_hour: int = 12
    duration_hours: int = 4
    name: str = "volumetric"

    def __post_init__(self) -> None:
        if self.intensity <= 0:
            raise ConfigurationError("attack intensity must be positive")
        if not 0 < self.hotspot_fraction <= 1:
            raise ConfigurationError("hotspot fraction must be in (0, 1]")
        if not 0 <= self.start_hour < HOURS:
            raise ConfigurationError(f"start hour must be in [0, {HOURS})")
        if not 1 <= self.duration_hours <= HOURS:
            raise ConfigurationError(
                f"attack duration must be 1..{HOURS} hours"
            )

    def window_hours(self) -> Tuple[int, ...]:
        """The UTC hour bins the attack occupies, in firing order."""
        return tuple(
            (self.start_hour + offset) % HOURS
            for offset in range(self.duration_hours)
        )


def hotspot_blocks(
    catchment: CatchmentMap,
    site_code: str,
    fraction: float,
    seed: int,
) -> List[int]:
    """Deterministic attacker sample from one site's catchment.

    Each block mapped to ``site_code`` joins the attacker population
    with probability ``fraction`` via a salted per-block draw, so the
    sample is a pure function of (seed, block) — independent of
    iteration order and of every other block.  A non-empty catchment
    always yields at least one attacker (the lowest block), so an
    attack on a mapped site never degenerates to a no-op.
    """
    if not 0 < fraction <= 1:
        raise ConfigurationError("hotspot fraction must be in (0, 1]")
    members = sorted(catchment.blocks_of_site(site_code))
    chosen = [
        block
        for block in members
        if uniform_unit(seed, _HOTSPOT_SALT, block) < fraction
    ]
    if not chosen and members:
        chosen = [members[0]]
    return chosen


def attack_day_load(
    baseline: DayLoad,
    attackers: Sequence[int],
    profile: AttackProfile,
    seed: int,
) -> DayLoad:
    """Overlay ``profile``'s flood from ``attackers`` onto a baseline day.

    The attack's hourly rate (``intensity`` x the baseline day's peak
    hour) times the window length gives its total volume, split across
    the attacker blocks with mildly uneven per-block weights (salted
    draws in ``[0.5, 1.5)``, normalised), then spread flat over the
    attack window's hour bins.  The result is a
    valid :class:`DayLoad` over the union block universe: baseline
    hourly counts are preserved bit-for-bit outside the window and
    merely *added to* inside it, so the composition commutes with
    restriction and with the diurnal shape of the underlying day.

    Blocks already in the baseline keep their good/all-reply fractions
    (the QUERIES load kind, which capacity planning uses, is
    fraction-independent); attacker-only blocks get ``good_fraction``
    0.0 and ``reply_fraction`` 1.0 — junk queries that all draw an
    answer but never a good one.
    """
    attacker_array = np.unique(np.asarray(list(attackers), dtype=np.int64))
    if attacker_array.size == 0:
        raise DatasetError("attack needs at least one attacker block")
    peak_rate = float(baseline.hourly_totals().max()) if len(baseline) else 0.0
    attack_total = profile.intensity * peak_rate * profile.duration_hours
    if attack_total <= 0:
        raise DatasetError("baseline day has no traffic to scale against")

    weights = 0.5 + np.asarray(
        [
            uniform_unit(seed, _ATTACK_VOLUME_SALT, int(block))
            for block in attacker_array
        ],
        dtype=np.float64,
    )
    per_block_daily = attack_total * weights / weights.sum()
    per_block_hourly = per_block_daily / profile.duration_hours

    union = np.union1d(baseline.blocks, attacker_array)
    queries = np.zeros((union.size, HOURS), dtype=np.float64)
    good = np.zeros(union.size, dtype=np.float64)
    reply = np.ones(union.size, dtype=np.float64)

    baseline_rows = np.searchsorted(union, baseline.blocks)
    queries[baseline_rows] = baseline.queries
    good[baseline_rows] = baseline.good_fraction
    reply[baseline_rows] = baseline.reply_fraction

    attacker_rows = np.searchsorted(union, attacker_array)
    for hour in profile.window_hours():
        queries[attacker_rows, hour] += per_block_hourly

    return DayLoad(
        service_name=baseline.service_name,
        date_label=f"{baseline.date_label}+{profile.name}",
        blocks=union,
        queries=queries,
        good_fraction=good,
        reply_fraction=reply,
    )


def compose_attack(
    baseline: DayLoad,
    catchment: CatchmentMap,
    profile: AttackProfile,
    seed: int,
) -> Tuple[DayLoad, List[int]]:
    """Sample the hotspot and overlay it in one step.

    Convenience for the CLI / planner path: returns the attack-day load
    together with the attacker blocks (the latter feed the playbook
    artifact's attacker count).
    """
    attackers = hotspot_blocks(
        catchment, profile.target_site, profile.hotspot_fraction, seed
    )
    if not attackers:
        raise DatasetError(
            f"site {profile.target_site!r} has an empty catchment; "
            "nothing to concentrate an attack on"
        )
    return attack_day_load(baseline, attackers, profile, seed), attackers
