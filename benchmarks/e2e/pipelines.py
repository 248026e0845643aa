"""The five workloads as pipelines of public calls, one span per call.

Each function here runs what the matching operator path runs — the
same public functions in the same order as ``repro.cli``'s handler —
with a span from the *harness's* tracer around each call into a layer
(span names are ``<module>.<step>``, the module being the layer).
Nothing under ``src/`` is instrumented for this; a
:class:`~repro.obs.trace.NullTracer` makes the spans free, which is how
the ``build_synth`` and ``serve_queries`` child processes run them.

Run as a script this file *is* those two child processes::

    python benchmarks/e2e/pipelines.py build_synth --seed 7 --size full
    python benchmarks/e2e/pipelines.py serve --size full

(the three CLI workloads need no child code: their child is
``python -m repro`` itself).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import spec
from repro.analysis.flips import flip_table, format_flip_table, format_stability_table
from repro.analysis.results import build_stability_series
from repro.bgp.cache import RoutingCache
from repro.collector.results import ScanResult
from repro.core.playbook import PlaybookPlanner, derive_capacities, format_playbook_table
from repro.core.scenarios import Scenario, tangled_like
from repro.core.sharding import sharded_weight_catchment
from repro.core.verfploeter import Verfploeter
from repro.load.estimator import LoadEstimate
from repro.load.weighting import weight_catchment
from repro.obs import NullTracer, Observer, run_metadata
from repro.service import MappingService, MeasurementState, replay_feed
from repro.service.feed import FeedEvent, ReplyBatch, RoundEnd, RoundStart
from repro.topology.generator import TopologyConfig, build_internet
from repro.topology.internet import Internet
from repro.topology.validate import validate_internet
from repro.traffic.attack import AttackProfile, compose_attack
from repro.traffic.ditl import build_day_load
from repro.traffic.logs import DayLoad
from repro.traffic.workload import root_profile

#: The stability CLI's fixed round spacing.
INTERVAL_SECONDS = 900.0


# -- stability ----------------------------------------------------------------


@dataclass
class StabilityRun:
    """What the stability pipeline built, for the probes that reuse it."""

    scenario: Scenario
    verfploeter: Verfploeter
    routing: object
    scans: List[ScanResult]
    stdout: str


def stability(tracer, scale: str, rounds: int) -> StabilityRun:
    """``repro stability --scenario tangled`` on the default scalar engine."""
    with tracer.span("core.scenarios.build"):
        scenario = tangled_like(scale)
    with tracer.span("core.verfploeter.init"):
        verfploeter = Verfploeter(scenario.internet, scenario.service)
    with tracer.span("bgp.propagate_full"):
        routing = RoutingCache().get_or_compute(
            scenario.internet, scenario.service.default_policy()
        )
    scans = []
    with tracer.span("core.verfploeter.series"):
        for round_id in range(rounds):
            with tracer.span("core.verfploeter.round"):
                scans.append(
                    verfploeter.run_scan(
                        routing=routing,
                        round_id=round_id,
                        start_time=round_id * INTERVAL_SECONDS,
                        dataset_id=f"stability-r{round_id:03d}",
                        wire_level=False,
                    )
                )
    with tracer.span("analysis.stability"):
        series = build_stability_series(scans)
    with tracer.span("analysis.flip_table"):
        stdout = (
            format_stability_table(series, every=max(1, rounds // 8))
            + "\n\n"
            + format_flip_table(flip_table(series, scenario.internet))
            + "\n"
        )
    return StabilityRun(scenario, verfploeter, routing, scans, stdout)


# -- playbook -----------------------------------------------------------------


@dataclass
class PlaybookRun:
    """What the playbook pipeline built, for the probes that reuse it."""

    scenario: Scenario
    verfploeter: Verfploeter
    planner: PlaybookPlanner
    estimate: LoadEstimate
    baseline_catchment: object
    plan_args: dict
    artifact: str


def playbook(
    tracer,
    scale: str,
    depth: int,
    start_hour: int,
    duration_hours: int,
    pool=None,
) -> PlaybookRun:
    """``repro playbook --scenario tangled``; ``pool`` is ``--workers``.

    The only departure from the CLI handler's order is that the
    all-sites routing state is resolved in its own span first, so full
    propagation is visible apart from the baseline scan that follows
    (which then finds it cached) — the same work, split in two.
    """
    with tracer.span("core.scenarios.build"):
        scenario = tangled_like(scale)
    with tracer.span("core.verfploeter.init"):
        verfploeter = Verfploeter(scenario.internet, scenario.service)
    planner = PlaybookPlanner(verfploeter, cache=RoutingCache(maxsize=256))
    baseline_policy = scenario.service.default_policy()
    with tracer.span("bgp.propagate_full"):
        planner.cache.get_or_compute(scenario.internet, baseline_policy)
    with tracer.span("core.playbook.baseline"):
        baseline_catchment = planner.catchment_for(baseline_policy, pool=pool)
    with tracer.span("traffic.day_load"):
        day = scenario.day_load("playbook-day")
    with tracer.span("load.estimate"):
        baseline_estimate = LoadEstimate(day)
    with tracer.span("load.weight"):
        if pool is not None:
            baseline_load = sharded_weight_catchment(
                baseline_catchment, baseline_estimate, pool=pool
            )
        else:
            baseline_load = weight_catchment(baseline_catchment, baseline_estimate)
    site_codes = scenario.service.site_codes
    attacked = max(sorted(site_codes), key=baseline_load.daily_of)
    profile = AttackProfile(
        target_site=attacked, start_hour=start_hour, duration_hours=duration_hours
    )
    with tracer.span("traffic.compose_attack"):
        attack_day, attackers = compose_attack(
            day, baseline_catchment, profile, scenario.internet.seed
        )
    capacities = derive_capacities(baseline_load, site_codes, headroom=3.0)
    with tracer.span("load.estimate"):
        attack_estimate = LoadEstimate(attack_day)
    plan_args = dict(
        attacked_site=attacked,
        capacities=capacities,
        max_prepend=3,
        depth=depth,
        attack=profile,
        attacker_count=len(attackers),
    )
    with tracer.span("core.playbook.plan_cold"):
        plan = planner.plan(attack_estimate, pool=pool, **plan_args)
    with tracer.span("core.playbook.artifact"):
        format_playbook_table(plan, top=8)
        meta = run_metadata(
            scenario=spec.SCENARIO, scale=scale, seed=scenario.internet.seed
        )
        artifact = plan.to_json(meta=meta) + "\n"
    return PlaybookRun(
        scenario, verfploeter, planner, attack_estimate, baseline_catchment,
        plan_args, artifact,
    )


# -- build_synth --------------------------------------------------------------


def build_synth(tracer, seed: int, config: dict) -> Tuple[Internet, DayLoad]:
    """A seed-built synthetic Internet and one day of its traffic."""
    with tracer.span("topology.build"):
        internet = build_internet(TopologyConfig(seed=seed, **config))
    with tracer.span("traffic.day_load"):
        day = build_day_load(internet, root_profile(), "bench-day")
    return internet, day


def synth_digest(internet: Internet, day: DayLoad) -> str:
    """Content digest of the built block universe and its day load."""
    digest = hashlib.blake2b(digest_size=8)
    digest.update(np.asarray(internet.blocks, dtype=np.uint64).tobytes())
    digest.update(np.ascontiguousarray(day.blocks).tobytes())
    digest.update(np.ascontiguousarray(day.queries).tobytes())
    return digest.hexdigest()


# -- serve --------------------------------------------------------------------


@dataclass
class ServeRun:
    """A daemon with its feed materialised but not yet ingested."""

    service: MappingService
    state: MeasurementState
    events: List[FeedEvent]
    observer: Observer
    feed_s: float


def serve_setup(tracer, scale: str, rounds: int, batch_size: int) -> ServeRun:
    """``repro serve``'s set-up, with the reply feed drained into a list.

    Materialising the feed is what keeps the scalar scan engine out of
    the timed ingest: ``MappingService.ingest`` then costs only the
    service's own streaming cleaner, accumulator and round-end join.
    """
    with tracer.span("core.scenarios.build"):
        scenario = tangled_like(scale)
    observer = Observer.collecting()
    with tracer.span("core.verfploeter.init"):
        verfploeter = Verfploeter(
            scenario.internet, scenario.service, observer=observer
        )
    with tracer.span("bgp.propagate_full"):
        routing = verfploeter.routing_for()
    with tracer.span("traffic.day_load"):
        day = scenario.day_load("serve-day")
    with tracer.span("load.estimate"):
        estimate = LoadEstimate(day)
    with tracer.span("service.state_init"):
        state = MeasurementState(
            routing.policy.site_codes,
            np.array(verfploeter.hitlist.blocks, dtype=np.uint64),
            estimate,
            cleaning=verfploeter.cleaning,
            observer=observer,
        )
    started = time.perf_counter()
    with tracer.span("service.feed"):
        events = list(
            replay_feed(
                verfploeter, routing=routing, rounds=rounds, batch_size=batch_size
            )
        )
    feed_s = time.perf_counter() - started
    service = MappingService(state, events, observer=observer)
    return ServeRun(service, state, events, observer, feed_s)


def ingest_traced(tracer, run: ServeRun) -> int:
    """``MappingService.ingest`` unrolled, with a span per round end.

    The daemon's own loop hides the round-end publish (snapshot, load
    join, view swap) inside one call; this drives the same public
    ``MeasurementState`` methods in the same order so the trace can
    show it.  Returns the replies fed.
    """
    replies = 0
    with tracer.span("service.ingest"):
        for event in run.events:
            if isinstance(event, RoundStart):
                run.state.begin_round(
                    event.round_id, event.start_time, set(event.probed_addresses)
                )
            elif isinstance(event, ReplyBatch):
                run.state.ingest_batch(event.replies)
                replies += len(event.replies)
            elif isinstance(event, RoundEnd):
                with tracer.span("service.round_end"):
                    run.state.end_round()
    return replies


def _current_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as stream:
        for line in stream:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


# -- child processes ----------------------------------------------------------


def _emit(document: dict) -> None:
    sys.stdout.write(json.dumps(document, sort_keys=True) + "\n")
    sys.stdout.flush()


def _child_build_synth(seed: int, config: dict) -> int:
    """Build, say so at once (the parent stops its clock), then check."""
    internet, day = build_synth(NullTracer(), seed, config)
    _emit({"event": "built"})
    _emit(
        {
            "event": "checked",
            "blocks": len(internet.blocks),
            "day_blocks": len(day),
            "valid": validate_internet(internet).ok,
            "digest": synth_digest(internet, day),
        }
    )
    return 0


def _child_serve(sizes: dict) -> int:
    """Set up, ingest, announce the port, answer stdin commands, exit.

    Commands, one per line: ``expect <block>...`` answers with the
    published catchment's site for each block; ``quit`` (or end of
    input) shuts the daemon down.
    """
    started = time.perf_counter()
    run = serve_setup(
        NullTracer(), sizes["serve_scale"], sizes["serve_rounds"], sizes["serve_batch"]
    )
    host, port = run.service.serve_http()
    setup_s = time.perf_counter() - started
    started = time.perf_counter()
    completed = run.service.ingest()
    ingest_s = time.perf_counter() - started
    _emit(
        {
            "event": "ready",
            "host": host,
            "port": port,
            "setup_s": setup_s,
            "feed_s": run.feed_s,
            "ingest_s": ingest_s,
            "rounds": completed,
            "replies": sum(
                len(event.replies)
                for event in run.events
                if isinstance(event, ReplyBatch)
            ),
            "rss_mb": _current_rss_mb(),
        }
    )
    for line in sys.stdin:
        command = line.split()
        if not command or command[0] == "quit":
            break
        if command[0] == "expect":
            catchment = run.state.view.catchment
            _emit(
                {
                    "event": "expected",
                    "sites": {
                        block: catchment.site_of(int(block))
                        for block in command[1:]
                    },
                }
            )
    rss_mb = _current_rss_mb()
    run.service.shutdown()
    _emit({"event": "stopped", "rss_mb": rss_mb})
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Child-process entry point."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("child", choices=("build_synth", "serve"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--size", choices=("full", "smoke", "setup"), default="full")
    args = parser.parse_args(argv)
    # The set-up sample of build_synth builds the smoke-sized Internet.
    sizes: Dict[str, object] = spec.FULL if args.size == "full" else spec.SMOKE
    if args.child == "build_synth":
        return _child_build_synth(args.seed, sizes["synth"])
    return _child_serve(sizes)


if __name__ == "__main__":
    sys.exit(main())
