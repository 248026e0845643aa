"""Analysis: one module per paper table/figure.

Each module turns raw measurement objects into the structured rows the
paper reports, plus a text rendering.  The benchmark harness prints
these tables; EXPERIMENTS.md records them against the paper's values.
"""

from repro.lazy import lazy_exports

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

_EXPORTS = {
    "render_table": "repro.analysis.report",
    "coverage_rows": "repro.analysis.coverage",
    "format_coverage_table": "repro.analysis.coverage",
    "TrafficCoverage": "repro.analysis.traffic_coverage",
    "traffic_coverage": "repro.analysis.traffic_coverage",
    "MethodRow": "repro.analysis.catchment_fractions",
    "format_method_table": "repro.analysis.catchment_fractions",
    "FlipTableRow": "repro.analysis.flips",
    "flip_table": "repro.analysis.flips",
    "format_flip_table": "repro.analysis.flips",
    "format_stability_table": "repro.analysis.flips",
    "sites_seen_per_as": "repro.analysis.divisions",
    "prefixes_by_sites_seen": "repro.analysis.divisions",
    "prefix_site_distribution": "repro.analysis.divisions",
    "format_prefix_division_table": "repro.analysis.divisions",
    "prepend_rows": "repro.analysis.prepend",
    "format_prepend_table": "repro.analysis.prepend",
    "hourly_load_by_config": "repro.analysis.prepend",
    "catchment_grid": "repro.analysis.maps",
    "load_grid": "repro.analysis.maps",
    "render_ascii_map": "repro.analysis.maps",
    "containment_report": "repro.analysis.containment",
    "country_site_matrix": "repro.analysis.containment",
    "format_containment_table": "repro.analysis.containment",
    "inflation_per_block": "repro.analysis.inflation",
    "summarize_inflation": "repro.analysis.inflation",
    "format_inflation_table": "repro.analysis.inflation",
    "suggest_sites": "repro.analysis.placement",
    "rtt_summary_by_site": "repro.analysis.placement",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
