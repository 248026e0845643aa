"""DITL-style day builders: a full synthetic day of query logs.

Produces a :class:`~repro.traffic.logs.DayLoad` from a topology and a
:class:`~repro.traffic.workload.WorkloadProfile`: deterministic
per-block daily volumes (heavy-tailed, resolver-concentrated,
regionally weighted) spread over 24 hourly bins with a local-time
diurnal curve.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.rng import hash_prefix_np, uniform_from_prefix_np, uniform_unit_np
from repro.topology.internet import Internet
from repro.traffic.logs import HOURS, DayLoad
from repro.traffic.workload import WorkloadProfile

_SENDER_SALT = 0x53454E44
_VOLUME_SALT = 0x564F4C00
_RESOLVER_SALT = 0x5245534F
_GOOD_SALT = 0x474F4F44
_REPLY_SALT = 0x5245504C
_PEAK_LOCAL_HOUR = 14.0


def _gaussian_from_unit(u1: float, u2: float) -> float:
    """Box-Muller transform of two uniform draws."""
    u1 = max(u1, 1e-12)
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def build_day_load(
    internet: Internet,
    profile: WorkloadProfile,
    date_label: str,
    day_index: int = 0,
    target_total_queries: Optional[float] = None,
) -> DayLoad:
    """Build one day of query logs for ``internet`` under ``profile``,
    every per-block draw keyed on the Internet's seed.

    ``day_index`` decorrelates different days slightly (load drifts a
    few percent day to day); ``target_total_queries`` rescales the whole
    day to a fixed total (e.g. the paper's 2.2G queries/day, scaled).
    """
    seed = internet.seed
    blocks = internet.block_table()[0]
    geodb = internet.geodb
    sender_fraction = geodb.country_values(
        blocks, profile.sender_fraction_for, profile.sender_fraction
    )
    # Query sources are mostly resolver infrastructure, which is far
    # more ping-responsive than the average /24 — without this
    # correlation the unmappable share of traffic (paper Table 5:
    # 17.6%) would balloon to ~50%.  Countries with explicit sender
    # overrides (Korea, Japan) keep their ping-dark senders.
    dark = ~internet.stable_mask() & ~geodb.country_values(
        blocks, profile.has_sender_override, False
    )
    sender_fraction = np.where(dark, sender_fraction * profile.dark_sender_penalty, sender_fraction)
    keys = blocks.astype(np.uint64)
    sends = uniform_unit_np(seed, _SENDER_SALT, keys) < sender_fraction
    blocks, keys = blocks[sends], keys[sends]

    # Box-Muller and the log-normal stay ``math.*`` over the senders:
    # numpy's vectorised exp/log/cos are not ulp-equal to libm's.
    volume_prefix = hash_prefix_np(seed, _VOLUME_SALT, keys)
    u1 = uniform_from_prefix_np(volume_prefix, 1).tolist()
    u2 = uniform_from_prefix_np(volume_prefix, 2).tolist()
    daily_array = np.array(
        [
            profile.base_queries_per_day
            * math.exp(profile.lognormal_sigma * _gaussian_from_unit(a, b))
            for a, b in zip(u1, u2)
        ],
        dtype=np.float64,
    )
    resolver = uniform_unit_np(seed, _RESOLVER_SALT, keys) < profile.resolver_fraction
    daily_array[resolver] *= profile.resolver_boost
    daily_array *= geodb.country_values(blocks, profile.multiplier_for, 1.0)
    # Mild day-to-day drift so different dates differ realistically.
    daily_array *= 0.9 + 0.2 * uniform_from_prefix_np(volume_prefix, 100 + day_index)
    good = profile.good_reply_low + (
        profile.good_reply_high - profile.good_reply_low
    ) * uniform_unit_np(seed, _GOOD_SALT, keys)
    reply = profile.reply_fraction_low + (
        profile.reply_fraction_high - profile.reply_fraction_low
    ) * uniform_unit_np(seed, _REPLY_SALT, keys)
    geo_rows, located = geodb.join(blocks)
    longitude_array = np.zeros(blocks.size)
    longitude_array[located] = geodb.columnar().longitudes[geo_rows[located]]

    # Diurnal curve peaking at local afternoon; hour weights normalised
    # per block so the daily total is exactly the drawn volume.  One
    # (senders x 24) buffer, updated in place: local hour -> phase ->
    # weight -> queries.
    queries = np.arange(HOURS, dtype=np.float64)[None, :] + longitude_array[:, None] / 15.0
    queries %= 24.0
    queries -= _PEAK_LOCAL_HOUR
    queries *= 2.0 * math.pi
    queries /= 24.0
    np.cos(queries, out=queries)
    queries *= profile.diurnal_amplitude
    queries += 1.0
    queries /= queries.sum(axis=1, keepdims=True)
    queries *= daily_array[:, None]

    load = DayLoad(
        service_name=profile.name,
        date_label=date_label,
        blocks=blocks,
        queries=queries,
        good_fraction=good,
        reply_fraction=reply,
    )
    if target_total_queries is not None and load.total_queries() > 0:
        load = load.scaled(target_total_queries / load.total_queries())
    return load
