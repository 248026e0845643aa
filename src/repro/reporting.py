"""One-shot reproduction reports.

``generate_full_report`` runs the paper's whole evaluation on one
scenario — coverage, traffic coverage, method comparison, prepending
sweep, hourly load, stability, flip concentration, divisions, maps,
plus this library's latency-inflation and containment extensions — and
writes a single self-contained markdown report plus the scan dataset.
Exposed on the CLI as ``python -m repro paper``.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Optional

from repro.analysis.coverage import format_coverage_table
from repro.analysis.divisions import (
    format_as_division_table,
    format_prefix_division_table,
)
from repro.analysis.flips import flip_table, format_flip_table, format_stability_table
from repro.analysis.inflation import format_inflation_table, summarize_inflation
from repro.analysis.maps import atlas_grid, catchment_grid, load_grid, render_ascii_map
from repro.analysis.prepend import format_prepend_table
from repro.analysis.catchment_fractions import MethodRow, format_method_table
from repro.analysis.traffic_coverage import format_traffic_coverage, traffic_coverage
from repro.bgp.cache import RoutingCache
from repro.core.comparison import compare_coverage
from repro.core.experiments import prepend_sweep, run_stability_series
from repro.core.scenarios import Scenario
from repro.core.verfploeter import Verfploeter
from repro.datasets import write_scan
from repro.load.estimator import LoadEstimate
from repro.load.prediction import compare_prediction, measured_site_load
from repro.load.weighting import weight_catchment
from repro.obs import NULL_OBSERVER, Observer, run_metadata


def _section(title: str, body: str) -> str:
    return f"## {title}\n\n```\n{body}\n```\n\n"


def generate_full_report(
    scenario: Scenario,
    output_dir: Path,
    stability_rounds: int = 24,
    day_queries: Optional[float] = None,
    observer: Optional[Observer] = None,
) -> Path:
    """Run the full evaluation on ``scenario``; return the report path.

    Writes ``REPORT.md`` and the primary scan dataset
    (``scan.tsv``) into ``output_dir`` (created if needed).  With a
    collecting ``observer``, also writes ``metrics.json`` and
    ``trace.json`` sidecars — both embedding the same run-metadata
    block (scenario, scale, seed, fingerprint) the ``BENCH_*.json``
    baselines carry, so report artifacts and benchmark timings from the
    same seeded run are joinable by fingerprint — and appends an
    Observability section to the report.
    """
    if observer is None:
        observer = NULL_OBSERVER
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    verfploeter = Verfploeter(
        scenario.internet, scenario.service, observer=observer
    )
    cache = RoutingCache(observer=observer)
    routing = verfploeter.routing_for()
    scan = verfploeter.run_scan(routing=routing, dataset_id="report-scan")
    atlas_measurement = scenario.atlas.measure(routing, scenario.service)
    load = scenario.day_load("report-day", target_total_queries=day_queries)
    estimate = LoadEstimate(load)

    parts = [
        f"# Verfploeter reproduction report — scenario `{scenario.name}` "
        f"({scenario.scale})\n\n"
        f"topology: {scenario.internet.summary()}; "
        f"service: {scenario.service.name} with sites "
        f"{scenario.service.site_codes}\n\n"
    ]

    parts.append(_section(
        "Coverage: Atlas vs Verfploeter (paper Table 4)",
        format_coverage_table(
            compare_coverage(atlas_measurement, scan, scenario.internet)
        ),
    ))
    parts.append(_section(
        "Traffic coverage (paper Table 5)",
        format_traffic_coverage(traffic_coverage(scan.catchment, estimate)),
    ))

    primary = scenario.service.site_codes[0]
    predicted = weight_catchment(scan.catchment, estimate, observer=observer)
    measured = measured_site_load(routing, estimate)
    comparison = compare_prediction(predicted, measured)
    rows = [
        MethodRow("report-day", "Atlas",
                  f"{atlas_measurement.responding_vps} VPs",
                  atlas_measurement.fraction_of(primary)),
        MethodRow("report-day", "Verfploeter",
                  f"{scan.mapped_blocks} /24s",
                  scan.catchment.fraction_of(primary)),
        MethodRow("report-day", "Verfploeter + load",
                  f"{predicted.total():,.0f} q/day",
                  predicted.fraction_of(primary)),
        MethodRow("report-day", "Actual load",
                  f"{measured.total():,.0f} q/day",
                  measured.fraction_of(primary)),
    ]
    parts.append(_section(
        "Catchment share by method (paper Table 6)",
        format_method_table(rows, primary)
        + f"\nsame-day prediction error: {comparison.error_of(primary):.2%}",
    ))

    sweep = prepend_sweep(
        verfploeter, scenario.atlas,
        configs=tuple(
            [("equal", {})]
            + [(f"+{n} {primary}", {primary: n}) for n in (1, 2)]
        ),
        cache=cache,
    )
    parts.append(_section(
        "Prepending sweep (paper Figure 5)",
        format_prepend_table(sweep, primary),
    ))

    series = run_stability_series(
        verfploeter, rounds=stability_rounds, cache=cache
    )
    parts.append(_section(
        "Stability (paper Figure 9)",
        format_stability_table(series, every=max(1, stability_rounds // 6)),
    ))
    parts.append(_section(
        "Flip concentration (paper Table 7)",
        format_flip_table(flip_table(series, scenario.internet)),
    ))
    stable = series.stable_catchment()
    parts.append(_section(
        "Intra-AS divisions (paper Figure 7)",
        format_as_division_table(stable, scenario.internet),
    ))
    parts.append(_section(
        "Per-prefix divisions (paper Figure 8)",
        format_prefix_division_table(stable, scenario.internet),
    ))

    parts.append(_section(
        "Verfploeter coverage map (paper Figure 2b/3b)",
        render_ascii_map(catchment_grid(scan.catchment, scenario.internet.geodb, 4.0)),
    ))
    parts.append(_section(
        "Atlas coverage map (paper Figure 2a/3a)",
        render_ascii_map(atlas_grid(atlas_measurement, 4.0)),
    ))
    parts.append(_section(
        "Load map (paper Figure 4a)",
        render_ascii_map(
            load_grid(scan.catchment, estimate, scenario.internet.geodb, 4.0)
        ),
    ))

    from repro.core.playbook import (
        PlaybookPlanner,
        derive_capacities,
        format_playbook_table,
    )
    from repro.traffic.attack import AttackProfile, compose_attack

    planner = PlaybookPlanner(verfploeter, cache=cache)
    attacked = max(
        sorted(scenario.service.site_codes), key=predicted.daily_of
    )
    attack_profile = AttackProfile(target_site=attacked)
    attack_day, attackers = compose_attack(
        load, scan.catchment, attack_profile, scenario.internet.seed
    )
    playbook = planner.plan(
        LoadEstimate(attack_day),
        attacked,
        derive_capacities(predicted, scenario.service.site_codes),
        max_prepend=2,
        depth=1,
        attack=attack_profile,
        attacker_count=len(attackers),
    )
    recommendation = playbook.recommendation
    parts.append(_section(
        "DDoS playbook (extension, Anycast Agility)",
        format_playbook_table(playbook, top=6)
        + f"\nrecommended config: {recommendation.label}; "
        f"absorber {recommendation.absorber}; "
        + ("clears all capacity violations"
           if recommendation.clears_violations
           else "violations remain (see docs/playbooks.md)"),
    ))

    parts.append(_section(
        "Latency inflation (extension, paper §7)",
        format_inflation_table(
            summarize_inflation(scan, verfploeter.latency_model)
        ),
    ))

    if observer.enabled:
        meta = run_metadata(
            scenario=scenario.name,
            scale=scenario.scale,
            seed=scenario.internet.seed,
            stability_rounds=stability_rounds,
        )
        (output_dir / "metrics.json").write_text(
            observer.metrics.to_json(meta=meta) + "\n", encoding="utf-8"
        )
        (output_dir / "trace.json").write_text(
            observer.tracer.to_json(meta=meta) + "\n", encoding="utf-8"
        )
        parts.append(_section(
            "Observability (this run's pipeline metrics)",
            observer.metrics.render_text(title="pipeline metrics")
            + f"\nrun fingerprint: {meta['fingerprint']}"
            + "\nfull trace: trace.json; full metrics: metrics.json",
        ))

    report_path = output_dir / "REPORT.md"
    report_path.write_text("".join(parts), encoding="utf-8")
    scan_buffer = io.StringIO()
    write_scan(scan, scan_buffer)
    (output_dir / "scan.tsv").write_text(scan_buffer.getvalue(), encoding="utf-8")
    return report_path
