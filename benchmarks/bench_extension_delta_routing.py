"""Extension: incremental propagation speedup on the 5-point prepend sweep.

Scratch propagation rebuilds every AS's route selection for each of the
paper's five prepend configurations (Figure 5's x-axis) with the scalar
reference propagator; the delta engine propagates the equal-announcement
baseline once and recomputes only each configuration's change cone, and
the routing cache makes repeated configurations dictionary hits.  The
gate holds delta to the job it does — building selections — against
building them from scratch.  The array propagation behind
``compute_routes`` computes catchments without building selections at
all; its sweep time is recorded beside the gated one, ungated, as the
input to ROADMAP item 4's decision on delta.  Timings (and the
speedups) are recorded in ``BENCH_delta_routing.json`` at the repo root
so later PRs have a perf trajectory to regress against.
"""

from __future__ import annotations

import json
import os
import time

from repro.bgp.cache import RoutingCache
from repro.bgp.delta import DeltaPropagator
from repro.bgp.propagation import RoutingConfig, compute_routes
from repro.bgp.reference import _Propagator, catchment_map
from repro.core.experiments import BROOT_PREPEND_CONFIGS
from repro.obs import run_metadata

from conftest import BENCH_SCALE

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_PATH = os.path.join(REPO_ROOT, "BENCH_delta_routing.json")

#: The acceptance floor: baseline-plus-deltas must beat five scratch
#: selection builds by at least this factor.
MIN_SPEEDUP = 3.0


def _best_of(runner, repeats: int = 3):
    """(best wall-clock seconds, last result) over ``repeats`` runs."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = runner()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_extension_delta_routing(benchmark, broot):
    internet = broot.internet
    service = broot.service
    policies = [
        (label, service.policy(prepends=prepends))
        for label, prepends in BROOT_PREPEND_CONFIGS
    ]

    # -- scratch: five independent full selection builds ------------------
    def run_scratch():
        return [
            _Propagator(internet, policy, RoutingConfig()).run()
            for _, policy in policies
        ]

    full_seconds, _ = _best_of(run_scratch)

    # -- array: five catchment-ready propagations, no selections -----------
    def run_array():
        return [compute_routes(internet, policy) for _, policy in policies]

    array_seconds, scratch = _best_of(run_array)

    # -- delta: five incremental recomputations against the baseline -------
    # The default-policy baseline is what every experiment driver seeds
    # its cache with (and the sweep's "equal" point *is* that baseline),
    # so it is timed separately: the marginal cost of the sweep under
    # the cache is exactly these five propagations.  A usable baseline
    # includes its selections and working maps, built on first use.
    start = time.perf_counter()
    baseline = compute_routes(internet, service.default_policy())
    propagator = DeltaPropagator(baseline)
    baseline_seconds = time.perf_counter() - start

    def run_deltas():
        return [propagator.propagate(policy) for _, policy in policies]

    delta_seconds, deltas = _best_of(run_deltas)

    # Equivalence spot-check: the speed must not buy a different answer.
    for (label, _), fast, slow in zip(policies, deltas, scratch):
        assert dict(catchment_map(fast).items()) == dict(
            catchment_map(slow).items()
        ), f"delta diverged from scratch at {label}"

    # -- cached: the same sweep served entirely from the LRU ---------------
    cache = RoutingCache()
    cache.get_or_compute(internet, service.default_policy())
    for _, policy in policies:
        cache.get_or_compute(internet, policy)  # warm
    start = time.perf_counter()
    for _, policy in policies:
        cache.get_or_compute(internet, policy)
    cached_seconds = time.perf_counter() - start

    speedup = full_seconds / delta_seconds if delta_seconds else float("inf")
    array_speedup = array_seconds / delta_seconds if delta_seconds else float("inf")
    cached_speedup = (
        full_seconds / cached_seconds if cached_seconds else float("inf")
    )
    payload = {
        # Same identity block as the reporting sidecars: BENCH timings
        # and trace/metrics JSON of one seeded run join by fingerprint.
        "meta": run_metadata(
            scenario=broot.name,
            scale=broot.scale,
            seed=internet.seed,
        ),
        "scale": BENCH_SCALE,
        "configs": [label for label, _ in BROOT_PREPEND_CONFIGS],
        "full_seconds": round(full_seconds, 4),
        "array_seconds": round(array_seconds, 4),
        "baseline_seconds": round(baseline_seconds, 4),
        "delta_seconds": round(delta_seconds, 4),
        "cached_seconds": round(cached_seconds, 6),
        "speedup_delta_vs_full": round(speedup, 2),
        "speedup_delta_vs_array": round(array_speedup, 2),
        "speedup_cached_vs_full": round(cached_speedup, 1),
        "reuse_fraction_last_config": round(propagator.stats.reuse_fraction, 3),
    }
    with open(RESULT_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    print()
    print(f"5-config sweep, scale={BENCH_SCALE}:")
    print(f"  scratch propagation  {full_seconds:8.3f} s")
    print(f"  delta recomputation  {delta_seconds:8.3f} s  ({speedup:.2f}x)")
    print(f"  array propagation    {array_seconds:8.3f} s  "
          f"(delta speedup {array_speedup:.2f}x, not gated)")
    print(f"  (shared baseline     {baseline_seconds:8.3f} s, computed once)")
    print(f"  warm routing cache   {cached_seconds:8.5f} s  ({cached_speedup:.0f}x)")
    print(f"  (recorded in {os.path.basename(RESULT_PATH)})")

    assert speedup >= MIN_SPEEDUP, (
        f"delta sweep only {speedup:.2f}x faster (need >= {MIN_SPEEDUP}x)"
    )
    assert cached_speedup > speedup

    benchmark.pedantic(
        lambda: DeltaPropagator(baseline).propagate(policies[0][1]),
        rounds=1,
        iterations=1,
    )
