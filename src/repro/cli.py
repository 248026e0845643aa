"""Command-line interface: ``python -m repro <command>``.

Drives the library the way an operator would drive the original
Verfploeter tooling: run a scan, sweep prepending configurations, study
stability, compare coverage against Atlas, plan for site failures, and
suggest new site locations from measured RTTs.  Every command is
deterministic in ``--seed``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional

from repro.core.scenarios import SCALES, Scenario, broot_like, cdn_like, nl_like, tangled_like
from repro.errors import ReproError
from repro.obs import NULL_OBSERVER, Observer, run_metadata

_SCENARIOS: Dict[str, Callable[..., Scenario]] = {
    "broot": broot_like,
    "tangled": tangled_like,
    "nl": nl_like,
    "cdn": cdn_like,
}


def _build_scenario(args: argparse.Namespace) -> Scenario:
    builder = _SCENARIOS[args.scenario]
    kwargs = {"scale": args.scale}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    return builder(**kwargs)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario", choices=sorted(_SCENARIOS), default="broot",
        help="which canonical deployment to build (default: broot)",
    )
    parser.add_argument(
        "--scale", choices=sorted(SCALES), default="small",
        help="topology size (default: small)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="override the scenario's default seed",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write pipeline metrics as JSON to FILE",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write the pipeline trace as JSON to FILE",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print calls, total and self wall time per traced span",
    )


def _observer_for(args: argparse.Namespace) -> Observer:
    """The observer this invocation runs under.

    Tests inject one via ``main(argv, observer=...)``; otherwise any of
    the ``--metrics-out``/``--trace-out``/``--profile`` flags switches
    on a collecting observer, and the default stays the shared no-op.
    """
    injected = getattr(args, "observer", None)
    if injected is not None:
        return injected
    if args.metrics_out or args.trace_out or args.profile:
        return Observer.collecting()
    return NULL_OBSERVER


def _emit_observability(
    args: argparse.Namespace, observer: Observer, scenario: Scenario
) -> None:
    """Write the requested metrics/trace artifacts and print the profile.

    Both artifacts embed the shared run-metadata block (scenario, scale,
    seed, fingerprint) so they are joinable with each other and with the
    ``BENCH_*.json`` baselines offline.  The profile is the trace's own
    spans with their wall durations, which no artifact carries.
    """
    if observer is NULL_OBSERVER or not observer.enabled:
        return
    meta = run_metadata(
        scenario=args.scenario,
        scale=args.scale,
        seed=scenario.internet.seed,
    )
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as stream:
            stream.write(observer.metrics.to_json(meta=meta) + "\n")
        print(f"wrote metrics to {args.metrics_out}")
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as stream:
            stream.write(observer.tracer.to_json(meta=meta) + "\n")
        print(f"wrote trace to {args.trace_out}")
    if args.profile:
        print(observer.tracer.render_wall())


def _cmd_scan(args: argparse.Namespace) -> int:
    from repro.analysis.report import render_table
    from repro.core.verfploeter import Verfploeter

    scenario = _build_scenario(args)
    observer = _observer_for(args)
    verfploeter = Verfploeter(
        scenario.internet, scenario.service, observer=observer
    )
    scan = verfploeter.run_scan(
        routing=verfploeter.routing_for(), dataset_id="cli-scan"
    )
    if args.output:
        from repro.datasets import write_scan

        with open(args.output, "w", encoding="utf-8") as stream:
            write_scan(scan, stream)
        print(f"wrote dataset to {args.output}")
    stats = scan.stats
    print(f"scenario {scenario.name} ({scenario.scale}): "
          f"{scenario.internet.summary()}")
    print(f"probed {stats.probes_sent} /24s; kept {stats.kept} replies "
          f"(removed {stats.duplicates} dup / {stats.unsolicited} unsolicited "
          f"/ {stats.late} late)")
    rows = [
        (site, count, f"{fraction:.1%}")
        for (site, count), fraction in zip(
            sorted(scan.catchment.counts().items()),
            (scan.catchment.fractions()[site]
             for site in sorted(scan.catchment.counts())),
        )
    ]
    print(render_table(["site", "/24s", "share"], rows, title="catchment"))
    if args.map:
        from repro.analysis.maps import catchment_grid, render_ascii_map

        grid = catchment_grid(scan.catchment, scenario.internet.geodb, 4.0)
        print(render_ascii_map(grid))
    if args.rtt:
        from repro.analysis.placement import rtt_summary_by_site

        summary = rtt_summary_by_site(scan)
        print(render_table(
            ["site", "blocks", "median RTT (ms)"],
            [(site, blocks, f"{median:.0f}")
             for site, (blocks, median) in sorted(summary.items())],
            title="latency",
        ))
    if observer.enabled:
        print(observer.metrics.render_text(title="pipeline metrics"))
    _emit_observability(args, observer, scenario)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.prepend import format_prepend_table
    from repro.bgp.cache import RoutingCache
    from repro.core.experiments import prepend_sweep
    from repro.core.verfploeter import Verfploeter

    scenario = _build_scenario(args)
    observer = _observer_for(args)
    verfploeter = Verfploeter(
        scenario.internet, scenario.service, observer=observer
    )
    # A fresh per-invocation cache keeps repeated same-seed invocations
    # byte-identical in their hit/miss counters (the process-wide
    # default cache would serve the second invocation from memory).
    cache = RoutingCache(observer=observer)
    if args.scenario != "broot":
        site = args.site or scenario.service.site_codes[0]
        configs = [("equal", {})] + [
            (f"+{n} {site}", {site: n}) for n in range(1, 4)
        ]
        sweep = prepend_sweep(
            verfploeter, scenario.atlas, configs=configs, cache=cache
        )
    else:
        # B-Root sweeps the paper's fixed configs and tracks --site.
        site = scenario.service.site(args.site or "LAX").code
        sweep = prepend_sweep(verfploeter, scenario.atlas, cache=cache)
    print(format_prepend_table(sweep, site))
    _emit_observability(args, observer, scenario)
    return 0


def _cmd_stability(args: argparse.Namespace) -> int:
    from repro.analysis.flips import flip_table, format_flip_table, format_stability_table
    from repro.bgp.cache import RoutingCache
    from repro.core.experiments import run_stability_series
    from repro.core.verfploeter import Verfploeter

    scenario = _build_scenario(args)
    observer = _observer_for(args)
    verfploeter = Verfploeter(
        scenario.internet, scenario.service, observer=observer
    )
    series = run_stability_series(
        verfploeter, rounds=args.rounds, interval_seconds=900.0,
        cache=RoutingCache(observer=observer),
        shards=args.shards, workers=args.workers,
    )
    print(format_stability_table(series, every=max(1, args.rounds // 8)))
    print()
    print(format_flip_table(flip_table(series, scenario.internet)))
    _emit_observability(args, observer, scenario)
    return 0


def _cmd_coverage(args: argparse.Namespace) -> int:
    from repro.analysis.coverage import format_coverage_table
    from repro.core.comparison import compare_coverage
    from repro.core.verfploeter import Verfploeter

    scenario = _build_scenario(args)
    observer = _observer_for(args)
    verfploeter = Verfploeter(
        scenario.internet, scenario.service, observer=observer
    )
    routing = verfploeter.routing_for()
    scan = verfploeter.run_scan(routing=routing)
    measurement = scenario.atlas.measure(routing, scenario.service)
    print(format_coverage_table(
        compare_coverage(measurement, scan, scenario.internet)
    ))
    _emit_observability(args, observer, scenario)
    return 0


def _cmd_loadmap(args: argparse.Namespace) -> int:
    from repro.analysis.maps import load_grid, render_ascii_map
    from repro.analysis.report import render_table
    from repro.core.verfploeter import Verfploeter
    from repro.load.estimator import LoadEstimate

    scenario = _build_scenario(args)
    observer = _observer_for(args)
    verfploeter = Verfploeter(
        scenario.internet, scenario.service, observer=observer
    )
    scan = verfploeter.run_scan(dataset_id="cli-loadmap")
    estimate = LoadEstimate(scenario.day_load("cli-day"))
    grid = load_grid(scan.catchment, estimate, scenario.internet.geodb, 4.0)
    print(render_ascii_map(grid))
    totals = grid.site_totals()
    print(render_table(
        ["site", "load share"],
        [(site, f"{value / sum(totals.values()):.1%}")
         for site, value in sorted(totals.items())],
    ))
    _emit_observability(args, observer, scenario)
    return 0


def _cmd_failure(args: argparse.Namespace) -> int:
    from repro.analysis.report import render_table
    from repro.bgp.cache import RoutingCache
    from repro.core.experiments import site_failure_study
    from repro.core.verfploeter import Verfploeter
    from repro.load.estimator import LoadEstimate

    scenario = _build_scenario(args)
    observer = _observer_for(args)
    verfploeter = Verfploeter(
        scenario.internet, scenario.service, observer=observer
    )
    estimate = LoadEstimate(scenario.day_load("cli-day"))
    sites = [args.site] if args.site else None
    results = site_failure_study(
        verfploeter, estimate, sites=sites,
        cache=RoutingCache(observer=observer),
    )
    rows = []
    for result in results:
        worst_site, factor = result.worst_overload()
        rows.append(
            (result.withdrawn_site, worst_site,
             f"{factor:.2f}x" if factor != float("inf") else "new")
        )
    print(render_table(
        ["withdrawn site", "worst-hit survivor", "load multiple"],
        rows,
        title="site-failure what-if (load-weighted)",
    ))
    _emit_observability(args, observer, scenario)
    return 0


def _cmd_playbook(args: argparse.Namespace) -> int:
    from repro.bgp.cache import RoutingCache
    from repro.core.playbook import (
        PlaybookPlanner,
        derive_capacities,
        format_playbook_table,
    )
    from repro.core.verfploeter import Verfploeter
    from repro.load.estimator import LoadEstimate
    from repro.load.weighting import weight_catchment
    from repro.traffic.attack import AttackProfile, compose_attack

    scenario = _build_scenario(args)
    observer = _observer_for(args)
    verfploeter = Verfploeter(
        scenario.internet, scenario.service, observer=observer
    )
    # Fresh per-invocation cache (same reasoning as the sweep): two
    # same-seed invocations emit byte-identical artifacts AND metrics.
    planner = PlaybookPlanner(
        verfploeter, cache=RoutingCache(maxsize=256, observer=observer)
    )
    pool = None
    try:
        if args.workers is not None:
            from repro.core.pool import ShardPool

            pool = ShardPool(workers=args.workers, observer=observer)
        baseline_policy = scenario.service.default_policy()
        baseline_catchment = planner.catchment_for(baseline_policy, pool=pool)
        day = scenario.day_load("playbook-day")
        baseline_estimate = LoadEstimate(day)
        if pool is not None:
            from repro.core.sharding import sharded_weight_catchment

            baseline_load = sharded_weight_catchment(
                baseline_catchment, baseline_estimate, pool=pool,
                observer=observer,
            )
        else:
            baseline_load = weight_catchment(
                baseline_catchment, baseline_estimate, observer=observer
            )
        site_codes = scenario.service.site_codes
        attacked = args.attack_site or max(
            sorted(site_codes), key=baseline_load.daily_of
        )
        profile = AttackProfile(
            target_site=attacked,
            intensity=args.intensity,
            hotspot_fraction=args.hotspot_fraction,
            start_hour=args.start_hour,
            duration_hours=args.duration_hours,
        )
        attack_day, attackers = compose_attack(
            day, baseline_catchment, profile, scenario.internet.seed
        )
        capacities = derive_capacities(
            baseline_load, site_codes, headroom=args.headroom
        )
        attack_estimate = LoadEstimate(attack_day)
        playbook = planner.plan(
            attack_estimate,
            attacked,
            capacities,
            max_prepend=args.max_prepend,
            depth=args.depth,
            pool=pool,
            attack=profile,
            attacker_count=len(attackers),
        )
    finally:
        if pool is not None:
            pool.shutdown()
    print(
        f"attack on {attacked}: {len(attackers)} attacker /24s, "
        f"{profile.intensity:g}x peak-hour rate for "
        f"{profile.duration_hours}h from {profile.start_hour:02d}:00 UTC "
        f"(day peaks at {attack_estimate.peak_qph() / baseline_estimate.peak_qph():.1f}x normal)"
    )
    print(format_playbook_table(playbook, top=args.top))
    rec = playbook.recommendation
    verdict = (
        "keeps every announcing site under capacity"
        if rec.clears_violations
        else "best effort - violations remain"
    )
    print(
        f"recommended config: {rec.label} ({rec.config_id}); "
        f"absorber {rec.absorber}; {verdict}"
    )
    if args.out:
        meta = run_metadata(
            scenario=args.scenario,
            scale=args.scale,
            seed=scenario.internet.seed,
        )
        with open(args.out, "w", encoding="utf-8") as stream:
            stream.write(playbook.to_json(meta=meta) + "\n")
        print(f"wrote playbook artifact to {args.out}")
    _emit_observability(args, observer, scenario)
    return 0


def _cmd_suggest(args: argparse.Namespace) -> int:
    from repro.analysis.placement import suggest_sites
    from repro.analysis.report import render_table
    from repro.core.verfploeter import Verfploeter
    from repro.load.estimator import LoadEstimate

    scenario = _build_scenario(args)
    observer = _observer_for(args)
    verfploeter = Verfploeter(
        scenario.internet, scenario.service, observer=observer
    )
    scan = verfploeter.run_scan(dataset_id="cli-suggest")
    estimate = LoadEstimate(scenario.day_load("cli-day"))
    suggestions = suggest_sites(
        scan, scenario.internet.geodb, count=args.count,
        rtt_threshold_ms=args.threshold, estimate=estimate,
    )
    if not suggestions:
        print("no underserved regions above the RTT threshold")
        return 0
    print(render_table(
        ["lat", "lon", "blocks", "median RTT (ms)"],
        [(f"{s.latitude:+.0f}", f"{s.longitude:+.0f}",
          s.affected_blocks, f"{s.median_rtt_ms:.0f}")
         for s in suggestions],
        title="suggested new site locations (from Verfploeter RTTs)",
    ))
    _emit_observability(args, observer, scenario)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import time

    import numpy as np

    from repro.core.verfploeter import Verfploeter
    from repro.load.estimator import LoadEstimate
    from repro.service import MappingService, MeasurementState, replay_feed

    scenario = _build_scenario(args)
    observer = _observer_for(args)
    if observer is NULL_OBSERVER:
        # The daemon's /v1/metrics endpoint is part of the API surface;
        # serve it populated even when no artifact flags were passed.
        observer = Observer.collecting()
    verfploeter = Verfploeter(
        scenario.internet, scenario.service, observer=observer
    )
    routing = verfploeter.routing_for()
    estimate = LoadEstimate(scenario.day_load("serve-day"))
    universe = verfploeter.hitlist.blocks.astype(np.uint64)
    state = MeasurementState(
        routing.policy.site_codes,
        universe,
        estimate,
        window_rounds=args.window,
        ring_size=args.ring,
        cleaning=verfploeter.cleaning,
        observer=observer,
    )
    feed = replay_feed(
        verfploeter,
        routing=routing,
        rounds=args.rounds,
        interval_seconds=args.interval,
        batch_size=args.batch_size,
        start_round=args.start_round,
    )
    service = MappingService(state, feed, observer=observer)
    host, port = service.serve_http(host=args.host, port=args.port)
    print(f"serving on http://{host}:{port}")
    print("endpoints: /v1/health /v1/catchment/<block> /v1/load "
          "/v1/diff?rounds=N /v1/metrics")
    # Ingest runs on the daemon's own thread, so Ctrl-C interrupts only
    # this wait: shutdown() drains the open round and the exit is normal.
    status = 0
    try:
        service.start_ingest()
        service.wait_ingest()
        view = state.view
        print(f"ingested {view.rounds_completed} round(s); "
              f"{len(view.catchment) if view.catchment is not None else 0} "
              f"blocks mapped; {view.quarantined_batches} batch(es) quarantined")
        if args.linger_seconds > 0:
            time.sleep(args.linger_seconds)
    except KeyboardInterrupt:
        status = 130
    finally:
        service.shutdown()
    _emit_observability(args, observer, scenario)
    return status


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.core.verfploeter import Verfploeter
    from repro.load.rssac import build_rssac_report

    scenario = _build_scenario(args)
    observer = _observer_for(args)
    verfploeter = Verfploeter(
        scenario.internet, scenario.service, observer=observer
    )
    routing = verfploeter.routing_for()
    load = scenario.day_load("cli-report-day")
    report = build_rssac_report(scenario.service.name, load, routing)
    report.write(sys.stdout)
    _emit_observability(args, observer, scenario)
    return 0


def _cmd_paper(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.reporting import generate_full_report

    scenario = _build_scenario(args)
    observer = _observer_for(args)
    report_path = generate_full_report(
        scenario, Path(args.outdir), stability_rounds=args.rounds,
        observer=observer,
    )
    print(f"wrote {report_path}")
    _emit_observability(args, observer, scenario)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Verfploeter reproduction: anycast catchment mapping "
                    "on a synthetic Internet",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    scan = commands.add_parser("scan", help="run one Verfploeter round")
    _add_common(scan)
    scan.add_argument("--map", action="store_true", help="print ASCII map")
    scan.add_argument("--rtt", action="store_true", help="print RTT summary")
    scan.add_argument("--output", default=None,
                      help="also write the scan dataset to this file")
    scan.set_defaults(handler=_cmd_scan)

    sweep = commands.add_parser("sweep", help="AS-path prepending sweep")
    _add_common(sweep)
    sweep.add_argument("--site", default=None, help="site to prepend/track")
    sweep.set_defaults(handler=_cmd_sweep)

    stability = commands.add_parser("stability", help="repeated-round stability study")
    _add_common(stability)
    stability.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="partition the block universe into N contiguous shards "
             "(bit-identical to the default run)",
    )
    stability.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="evaluate shards across N worker processes "
             "(0 runs the shards inline in this process)",
    )
    stability.add_argument("--rounds", type=int, default=16)
    stability.set_defaults(handler=_cmd_stability)

    coverage = commands.add_parser("coverage", help="Atlas vs Verfploeter coverage")
    _add_common(coverage)
    coverage.set_defaults(handler=_cmd_coverage)

    loadmap = commands.add_parser("loadmap", help="load-weighted catchment map")
    _add_common(loadmap)
    loadmap.set_defaults(handler=_cmd_loadmap)

    failure = commands.add_parser("failure", help="site-withdrawal what-ifs")
    _add_common(failure)
    failure.add_argument("--site", default=None, help="only withdraw this site")
    failure.set_defaults(handler=_cmd_failure)

    playbook = commands.add_parser(
        "playbook",
        help="DDoS playbook: ranked mitigation configs for an attacked site",
    )
    _add_common(playbook)
    playbook.add_argument(
        "--attack-site", default=None, metavar="SITE",
        help="the site the attack hotspot targets "
             "(default: the heaviest-loaded site)",
    )
    playbook.add_argument(
        "--intensity", type=float, default=1.0,
        help="attack rate as a multiple of the day's peak-hour rate",
    )
    playbook.add_argument(
        "--hotspot-fraction", type=float, default=0.5,
        help="share of the target catchment's blocks sourcing attack traffic",
    )
    playbook.add_argument(
        "--start-hour", type=int, default=12,
        help="UTC hour the attack window opens",
    )
    playbook.add_argument(
        "--duration-hours", type=int, default=4,
        help="attack window length in hours",
    )
    playbook.add_argument(
        "--max-prepend", type=int, default=3,
        help="deepest AS-path prepend in the config lattice",
    )
    playbook.add_argument(
        "--depth", type=int, choices=(1, 2), default=2,
        help="lattice depth: 1 = attacked-site actions only, "
             "2 = pair each with a second site's prepend",
    )
    playbook.add_argument(
        "--headroom", type=float, default=3.0,
        help="per-site capacity as a multiple of its normal peak hour",
    )
    playbook.add_argument(
        "--top", type=int, default=8,
        help="ranked configs to print (the artifact always has all)",
    )
    playbook.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="shard scans and load joins over N worker processes "
             "(0 runs the sharded path inline; byte-identical either way)",
    )
    playbook.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the ranked playbook artifact as canonical JSON",
    )
    playbook.set_defaults(handler=_cmd_playbook)

    suggest = commands.add_parser("suggest", help="suggest new sites from RTTs")
    _add_common(suggest)
    suggest.add_argument("--count", type=int, default=3)
    suggest.add_argument("--threshold", type=float, default=120.0,
                         help="RTT (ms) above which a block is underserved")
    suggest.set_defaults(handler=_cmd_suggest)

    serve = commands.add_parser(
        "serve", help="always-on mapping service with a JSON query API"
    )
    _add_common(serve)
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default: loopback)")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 binds an ephemeral port, printed)")
    serve.add_argument("--rounds", type=int, default=4,
                       help="measurement rounds to ingest before exiting")
    serve.add_argument("--interval", type=float, default=900.0,
                       help="simulated seconds between rounds")
    serve.add_argument("--batch-size", type=int, default=512,
                       help="replies per streamed batch")
    serve.add_argument("--window", type=int, default=4,
                       help="rounds in the sliding load window")
    serve.add_argument("--ring", type=int, default=8,
                       help="round snapshots kept for /v1/diff")
    serve.add_argument("--start-round", type=int, default=0,
                       help="first measurement id (65535 exercises rollover)")
    serve.add_argument("--linger-seconds", type=float, default=0.0,
                       help="keep serving this long after ingest finishes")
    serve.set_defaults(handler=_cmd_serve)

    report = commands.add_parser(
        "report", help="RSSAC-002-style daily traffic report"
    )
    _add_common(report)
    report.set_defaults(handler=_cmd_report)

    paper = commands.add_parser(
        "paper", help="regenerate the full evaluation into a markdown report"
    )
    _add_common(paper)
    paper.add_argument("--outdir", default="repro-report",
                       help="directory for REPORT.md and datasets")
    paper.add_argument("--rounds", type=int, default=24,
                       help="stability rounds (paper: 96)")
    paper.set_defaults(handler=_cmd_paper)

    return parser


def main(
    argv: Optional[List[str]] = None,
    observer: Optional[Observer] = None,
) -> int:
    """CLI entry point; returns the process exit code.

    ``observer`` lets callers (tests, embedding scripts) supply a
    pre-built :class:`~repro.obs.Observer` and inspect its tracer and
    metrics after the command returns, instead of round-tripping
    through ``--metrics-out``/``--trace-out`` files.  A
    :class:`~repro.errors.ReproError` from the command is reported as one
    ``repro: error:`` line on stderr and exit code 2, like a usage error.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if observer is not None:
        args.observer = observer
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
