"""Table 6: catchment fraction of one site, by measurement method.

The paper quantifies B-Root's LAX share five ways: Atlas VPs on two
dates, Verfploeter /24s on two dates, load-weighted Verfploeter, and
the actual measured load.  :class:`MethodRow` is one line of that
table; the bench assembles the rows from live measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.report import render_table


@dataclass(frozen=True)
class MethodRow:
    """One row of Table 6."""

    date: str
    method: str
    measurement: str
    fraction: float


def format_method_table(rows: List[MethodRow], site_code: str) -> str:
    """Render Table 6 for ``site_code``."""
    return render_table(
        ["Date", "Method", "Measurement", f"% {site_code}"],
        [
            (row.date, row.method, row.measurement, f"{row.fraction:.1%}")
            for row in rows
        ],
        title=f"Table 6: {site_code} catchment share by measurement method",
    )
