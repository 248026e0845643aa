"""Ablation: pseudorandom probe order vs sequential.

DESIGN.md decision #2: the Feistel permutation spreads each second's
probes across the address space (paper §3.1 probes "in a pseudorandom
order ... to spread traffic, limiting traffic to any given network").
Sequential probing concentrates whole seconds into single prefixes.
"""

from __future__ import annotations

from repro.oracle.schedule import ProbeSchedule
from repro.probing.hitlist import build_hitlist
from repro.probing.prober import ProberConfig


def test_ablation_probe_order(benchmark, broot):
    hitlist = build_hitlist(broot.internet)
    rate = 500.0
    schedule = ProbeSchedule(
        hitlist,
        ProberConfig(source_address=broot.service.measurement_address,
                     rate_pps=rate),
        seed=broot.internet.seed,
        round_id=0,
    )
    _, shuffled_worst = benchmark.pedantic(
        lambda: schedule.max_burst_per_prefix(prefix_bits=16),
        rounds=1,
        iterations=1,
    )

    # Sequential baseline: hitlist order at the same rate.
    per_second: dict = {}
    sequential_worst = 0
    for position, address in enumerate(hitlist.addresses.tolist()):
        key = (int(position / rate), address >> 16)
        per_second[key] = per_second.get(key, 0) + 1
        sequential_worst = max(sequential_worst, per_second[key])

    print()
    print("Ablation: probes landing in one /16 within one second (worst case)")
    print(f"  pseudorandom (Feistel) order: {shuffled_worst}")
    print(f"  sequential order:             {sequential_worst}")
    assert shuffled_worst < sequential_worst / 2
