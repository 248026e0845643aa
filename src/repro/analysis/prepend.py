"""Figures 5 and 6: prepending sweeps and predicted hourly load."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.report import render_table
from repro.analysis.results import PrependMeasurement
from repro.load.estimator import LoadEstimate
from repro.load.weighting import UNKNOWN, weight_catchments


def prepend_rows(
    measurements: Sequence[PrependMeasurement], site_code: str
) -> List[Tuple[str, float, float]]:
    """Figure 5 series: (config label, Atlas fraction, Verfploeter fraction)."""
    return [
        (
            entry.label,
            entry.atlas_fraction_of(site_code),
            entry.verfploeter_fraction_of(site_code),
        )
        for entry in measurements
    ]


def format_prepend_table(
    measurements: Sequence[PrependMeasurement], site_code: str
) -> str:
    """Render Figure 5 as a table."""
    return render_table(
        ["prepending", f"Atlas VPs to {site_code}", f"Verfploeter /24s to {site_code}"],
        [
            (label, f"{atlas:.3f}", f"{verf:.3f}")
            for label, atlas, verf in prepend_rows(measurements, site_code)
        ],
        title=f"Figure 5: fraction of traffic to {site_code} vs prepending",
    )


def hourly_load_by_config(
    measurements: Sequence[PrependMeasurement],
    estimate: LoadEstimate,
) -> Dict[str, Dict[str, np.ndarray]]:
    """Figure 6 series: config label -> site -> hourly predicted load (q/s).

    Combines each prepending configuration's measured catchment with the
    historical per-block load, exactly as the paper does with SBV-4-21
    catchments and LB-4-12 DITL load: every config in one traffic join.
    """
    loads = weight_catchments([entry.catchment for entry in measurements], estimate)
    return {
        entry.label: {
            site: load.hourly_of(site) / 3600.0
            for site in (*entry.catchment.site_codes, UNKNOWN)
        }
        for entry, load in zip(measurements, loads)
    }


def format_hourly_load_table(
    hourly: Dict[str, Dict[str, np.ndarray]],
    sites: Sequence[str],
    sample_hours: Sequence[int] = (0, 6, 12, 18),
) -> str:
    """Render Figure 6 as a condensed table (mean q/s at sampled hours)."""
    rows = []
    for label, series in hourly.items():
        for site in (*sites, UNKNOWN):
            values = series.get(site)
            if values is None:
                continue
            rows.append(
                (
                    label,
                    site,
                    *[f"{values[hour]:,.0f}" for hour in sample_hours],
                )
            )
    return render_table(
        ["config", "site", *[f"{hour:02d}h q/s" for hour in sample_hours]],
        rows,
        title="Figure 6: predicted per-site load under prepending configs",
    )
