"""Combining catchment maps with load estimates (paper §5.4).

Raw block counts over-weight quiet networks and under-weight resolver
farms; weighting each mapped block by its historical load turns a
catchment map into a calibrated per-site load prediction.  Blocks that
send traffic but were not mapped (no ping reply) go to the ``UNK``
bucket — the paper shows their traffic splits like the mapped blocks'
(§5.5), so predictions normalise over known sites.

One ``searchsorted`` join (:meth:`CatchmentMap.join`) per block universe
resolves every traffic block's row at once — :func:`weight_catchments`
shares it between catchments over one universe — then two ``bincount``
passes accumulate the loads: one daily, one over ``bucket * 24 + hour``
keys.  ``bincount`` adds rows in input order, so the float64 sums are
bit-identical to a per-block loop that adds each block's load in
traffic-row order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.anycast.catchment import UNKNOWN_SITE, CatchmentMap
from repro.errors import DatasetError
from repro.load.estimator import LoadEstimate
from repro.obs import NULL_OBSERVER, Observer
from repro.traffic.logs import HOURS

UNKNOWN = UNKNOWN_SITE

#: Shared read-only zero vector returned for sites with no hourly state.
_ZERO_HOURS = np.zeros(HOURS)
_ZERO_HOURS.flags.writeable = False


class SiteLoad:
    """Predicted load per site, daily and hourly, including ``UNK``."""

    def __init__(
        self,
        site_codes: List[str],
        daily: Dict[str, float],
        hourly: Dict[str, np.ndarray],
    ) -> None:
        self.site_codes = site_codes
        self._daily = daily
        self._hourly = hourly

    def daily_of(self, site_code: str) -> float:
        """Daily load attributed to ``site_code`` (or ``UNKNOWN``)."""
        return self._daily.get(site_code, 0.0)

    def hourly_of(self, site_code: str) -> np.ndarray:
        """Hourly load vector of ``site_code`` (a read-only view).

        Present and absent sites alike return a non-writeable array:
        callers may not mutate the load's internal state through the
        returned vector, and writes to the absent-site zeros (which
        would otherwise be silently lost) fail loudly instead.
        """
        vector = self._hourly.get(site_code)
        if vector is None:
            return _ZERO_HOURS
        view = vector.view()
        view.flags.writeable = False
        return view

    def peak_of(self, site_code: str) -> float:
        """Peak hourly load at ``site_code`` (max over the 24 bins).

        This — not the daily mean — is the repo's capacity-comparison
        quantity: a site overloads in its busiest hour, and volumetric
        attacks (:mod:`repro.traffic.attack`) concentrate whole daily
        volumes into a few bins, which a mean would dilute ~6x.  See
        :func:`capacity_violations` for the pinned semantics.
        """
        vector = self._hourly.get(site_code)
        if vector is None or vector.size == 0:
            return 0.0
        return float(vector.max())

    def tables(
        self, site_codes: Sequence[str]
    ) -> Tuple[Dict[str, float], Dict[str, float]]:
        """(daily load of each of ``site_codes`` and ``UNK``, peak hourly
        load of each of ``site_codes``); a site this load never saw reads
        0.0.  The site-failure study and the playbook planner tabulate
        every config this way."""
        daily = {code: self.daily_of(code) for code in (*site_codes, UNKNOWN)}
        return daily, {code: self.peak_of(code) for code in site_codes}

    def total(self, include_unknown: bool = True) -> float:
        """Total daily load."""
        total = sum(self._daily.get(code, 0.0) for code in self.site_codes)
        if include_unknown:
            total += self._daily.get(UNKNOWN, 0.0)
        return total

    def unknown_fraction(self) -> float:
        """Share of load from unmappable blocks (paper Table 5: 17.6%)."""
        total = self.total(include_unknown=True)
        return self._daily.get(UNKNOWN, 0.0) / total if total else 0.0

    def fraction_of(self, site_code: str, include_unknown: bool = False) -> float:
        """Share of load at ``site_code``.

        By default normalises over *known* sites only — the paper's
        prediction assumes unmappable traffic splits proportionally.
        """
        total = self.total(include_unknown=include_unknown)
        return self._daily.get(site_code, 0.0) / total if total else 0.0

    def fractions(self, include_unknown: bool = False) -> Dict[str, float]:
        """Per-site load shares.

        The normalising total is summed once, not per site — the
        divisions themselves are unchanged, so each share equals the
        matching :meth:`fraction_of` exactly.  With
        ``include_unknown=True`` the ``UNK`` bucket appears as its own
        entry (equal to :meth:`unknown_fraction`), so the returned
        shares always sum to 1.0 over a non-empty load.
        """
        total = self.total(include_unknown=include_unknown)
        codes = (
            [*self.site_codes, UNKNOWN] if include_unknown else self.site_codes
        )
        if not total:
            return {code: 0.0 for code in codes}
        return {code: self._daily.get(code, 0.0) / total for code in codes}


def capacity_violations(
    peaks: Dict[str, float],
    capacities: Dict[str, float],
    exclude: Sequence[str] = (),
) -> List[str]:
    """Sites whose peak hourly load **strictly exceeds** their capacity.

    This is the single capacity definition shared by
    :func:`repro.core.experiments.site_failure_study` and the playbook
    planner (:mod:`repro.core.playbook`), pinned by boundary tests:

    * the compared quantity is the **peak hourly** load
      (:meth:`SiteLoad.peak_of`), never the daily total or its mean —
      a site that survives on average but melts at 14:00 UTC is down;
    * a site **exactly at** capacity is *not* in violation (strict
      ``>``): capacity is the highest sustainable rate, not the first
      failing one;
    * sites without a declared capacity are unconstrained, and
      ``exclude`` (withdrawn sites, the ``UNK`` bucket) never violate —
      a site that is not announcing serves nothing.

    Returns the violating site codes sorted lexicographically.
    """
    excluded = set(exclude) | {UNKNOWN}
    return [
        code
        for code in sorted(capacities)
        if code not in excluded and peaks.get(code, 0.0) > capacities[code]
    ]


def accumulate_site_load(
    site_codes: List[str],
    site_indices: np.ndarray,
    estimate: LoadEstimate,
) -> SiteLoad:
    """Sum ``estimate``'s rows into per-site buckets (``-1`` = ``UNK``).

    ``site_indices`` holds one site index per traffic row, as
    :meth:`CatchmentMap.site_indices_of` returns it.  ``bincount``
    processes input rows in order, so each per-bucket (and per-hour)
    accumulator sees the identical sequence of float64
    additions as a per-block loop — the results are bit-equal, not
    just close.  The sharded join passes its worker-joined indices here
    too, so the parent owns every float addition.
    """
    unknown_bucket = len(site_codes)
    indices = site_indices.astype(np.int64)
    buckets = np.where(indices >= 0, indices, unknown_bucket)
    daily_sums = np.bincount(
        buckets, weights=estimate.daily, minlength=unknown_bucket + 1
    )
    daily = {code: float(daily_sums[i]) for i, code in enumerate(site_codes)}
    daily[UNKNOWN] = float(daily_sums[unknown_bucket])
    # One pass over (row, hour) keys in row-major order: each
    # (bucket, hour) bin still adds its rows in row order.
    keys = (buckets * HOURS)[:, None] + np.arange(HOURS)
    hourly_sums = np.bincount(
        keys.ravel(),
        weights=estimate.hourly_matrix().ravel(),
        minlength=(unknown_bucket + 1) * HOURS,
    ).reshape(unknown_bucket + 1, HOURS)
    hourly_acc = {code: hourly_sums[i] for i, code in enumerate(site_codes)}
    hourly_acc[UNKNOWN] = hourly_sums[unknown_bucket]
    return SiteLoad(site_codes, daily, hourly_acc)


def weight_catchments(
    catchments: Sequence[CatchmentMap],
    estimate: LoadEstimate,
    observer: Optional[Observer] = None,
) -> List[SiteLoad]:
    """Attribute every traffic-sending block's load to its mapped site,
    once per catchment.

    Blocks absent from a catchment land in ``UNK``.  The traffic
    blocks join each distinct universe once (a playbook lattice shares
    one), and every catchment then gathers its site column through that
    join.  Equal site codes and traffic-site columns share one
    :class:`SiteLoad`: the same rows in the same order, the same sums.
    """
    if observer is None:
        observer = NULL_OBSERVER
    if len(estimate) == 0:
        raise DatasetError("load estimate is empty")
    # Always ``columnar=True``: the attribute is part of the documented span.
    with observer.tracer.span("load.weight", columnar=True) as span:
        joins: Dict[int, np.ndarray] = {}
        weighed: Dict[tuple, SiteLoad] = {}
        loads = []
        for catchment in catchments:
            rows = joins.get(id(catchment.universe))
            if rows is None:
                rows = joins[id(catchment.universe)] = catchment.join(estimate.blocks)
            codes, column = catchment.site_codes, catchment.site_indices_at(rows)
            key = (tuple(codes), column.tobytes())
            if key not in weighed:
                weighed[key] = accumulate_site_load(codes, column, estimate)
            loads.append(weighed[key])
        span.set(join_rows=len(estimate))
        if len(catchments) > 1:  # one catchment keeps the single-join span shape
            span.set(catchments=len(catchments))
    observer.metrics.gauge("load.join_rows").set(len(estimate))
    return loads


def weight_catchment(
    catchment: CatchmentMap,
    estimate: LoadEstimate,
    observer: Optional[Observer] = None,
) -> SiteLoad:
    """Attribute every traffic-sending block's load to its mapped site
    (:func:`weight_catchments` of one catchment)."""
    return weight_catchments([catchment], estimate, observer)[0]
