"""Analysis: one module per paper table/figure.

Each module turns raw measurement objects into the structured rows the
paper reports, plus a text rendering.  The benchmark harness prints
these tables; EXPERIMENTS.md records them against the paper's values.
"""

from repro.analysis.catchment_fractions import MethodRow, format_method_table
from repro.analysis.coverage import coverage_rows, format_coverage_table
from repro.analysis.divisions import (
    format_prefix_division_table,
    prefix_site_distribution,
    prefixes_by_sites_seen,
    sites_seen_per_as,
)
from repro.analysis.flips import (
    FlipTableRow,
    flip_table,
    format_flip_table,
    format_stability_table,
)
from repro.analysis.containment import (
    containment_report,
    country_site_matrix,
    format_containment_table,
)
from repro.analysis.inflation import (
    format_inflation_table,
    inflation_per_block,
    summarize_inflation,
)
from repro.analysis.maps import catchment_grid, load_grid, render_ascii_map
from repro.analysis.placement import rtt_summary_by_site, suggest_sites
from repro.analysis.prepend import (
    format_prepend_table,
    hourly_load_by_config,
    prepend_rows,
)
from repro.analysis.report import render_table
from repro.analysis.traffic_coverage import TrafficCoverage, traffic_coverage

__all__ = [
    "render_table",
    "coverage_rows",
    "format_coverage_table",
    "TrafficCoverage",
    "traffic_coverage",
    "MethodRow",
    "format_method_table",
    "FlipTableRow",
    "flip_table",
    "format_flip_table",
    "format_stability_table",
    "sites_seen_per_as",
    "prefixes_by_sites_seen",
    "prefix_site_distribution",
    "format_prefix_division_table",
    "prepend_rows",
    "format_prepend_table",
    "hourly_load_by_config",
    "catchment_grid",
    "load_grid",
    "render_ascii_map",
    "containment_report",
    "country_site_matrix",
    "format_containment_table",
    "inflation_per_block",
    "summarize_inflation",
    "format_inflation_table",
    "suggest_sites",
    "rtt_summary_by_site",
]
