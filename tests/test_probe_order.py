"""Probe-order seed streams: one derivation site, provably distinct labels."""

from __future__ import annotations

import numpy as np
import pytest

from repro.oracle.schedule import ProbeSchedule, PseudorandomOrder
from repro.probing.hitlist import Hitlist
from repro.probing.prober import ProberConfig, round_order_seed
from repro.rng import derive_seed


def _hitlist(n: int) -> Hitlist:
    blocks = np.arange(n, dtype=np.int64)
    return Hitlist(blocks, (blocks << 8) | 1, np.ones(n))


def test_round_order_seed_distinct_across_rounds():
    seeds = {round_order_seed(1234, round_id) for round_id in range(64)}
    assert len(seeds) == 64


def test_round_order_seed_distinct_across_parents():
    seeds = {round_order_seed(parent, 0) for parent in range(64)}
    assert len(seeds) == 64


def test_round_order_label_is_namespaced():
    """Regression for the probe-order label collision.

    The old raw ``probe-order-{round_id}`` label was derived
    independently by the prober and the vectorized engine; any third
    subsystem formatting the same pattern would silently share their
    stream.  The namespaced label is a provably different stream from
    the old one and cannot be produced by naive ``{name}-{id}``
    formatting.
    """
    for round_id in range(8):
        old = derive_seed(99, f"probe-order-{round_id}")
        new = round_order_seed(99, round_id)
        assert new != old
        assert new == derive_seed(99, f"probing.order/round/{round_id}")


def test_prober_exposes_the_same_stream():
    config = ProberConfig(source_address=0x01010101)
    for round_id in (0, 1, 5):
        schedule = ProbeSchedule(_hitlist(50), config, seed=77, round_id=round_id)
        assert schedule.order_seed == round_order_seed(77, round_id)


def test_schedule_uses_the_shared_stream():
    """The schedule's permutation comes from ``order_seed`` — the same
    entry point the vectorized engine consumes."""
    hitlist = _hitlist(40)
    config = ProberConfig(source_address=0x01010101)
    schedule = ProbeSchedule(hitlist, config, seed=3, round_id=2)
    order = PseudorandomOrder(len(hitlist), schedule.order_seed)
    reference = [int(hitlist.addresses[index]) for index in order]
    scheduled = [probe.destination for probe in schedule]
    assert scheduled == reference


def test_fastscan_consumes_the_prober_stream(broot_verfploeter):
    pytest.importorskip("numpy")
    from repro.core.fastscan import FastScanEngine, send_offsets

    engine = FastScanEngine(broot_verfploeter)
    # The oracle's schedule: the deployment's config, seeded by the Internet.
    schedule = ProbeSchedule(
        broot_verfploeter.hitlist, broot_verfploeter.prober_config,
        broot_verfploeter.internet.seed, round_id=1,
    )
    assert engine.state.order_parent_seed == broot_verfploeter.internet.seed
    offsets = send_offsets(engine.state, round_id=1)
    index_of = {
        address: index
        for index, address in enumerate(broot_verfploeter.hitlist.addresses.tolist())
    }
    # The k-th hitlist entry is probed at the same offset in both engines.
    for probe in list(schedule)[:100]:
        k = index_of[probe.destination]
        assert offsets[k] == pytest.approx(probe.send_time - schedule.start_time)
