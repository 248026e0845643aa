"""Columnar synthesis is the scalar synthesis, bit for bit.

The day load, hitlist, stable-responder mask and Atlas grouping are
array programs over the block and geo columns.  ``PINNED`` was recorded
on the last commit whose builders were per-block Python loops
(``PYTHONPATH=<that tree>/src python tests/test_synthesis_columns.py``
prints it) and must never be regenerated from array code.
"""

from __future__ import annotations

import hashlib
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro import rng
from repro.atlas.platform import AtlasPlatform
from repro.core.scenarios import tangled_like
from repro.core.verfploeter import Verfploeter
from repro.errors import DatasetError, MeasurementError
from repro.oracle.responder import country_of_block
from repro.probing.hitlist import build_hitlist
from repro.topology.generator import SeededAS, TopologyConfig, build_internet
from repro.traffic.ditl import build_day_load
from repro.traffic.workload import WorkloadProfile, nl_profile, root_profile

# KR/JP/VN/PK carry per-country responsiveness, 5% of blocks have no
# geo row, and JP-NET / PK-NET join ``transit_asns`` between the
# ``_transit_preference`` calls of the seeded ASes around them.
COLUMNS_CONFIG = TopologyConfig(
    seed=5,
    tier1_count=4,
    transit_count=16,
    stub_count=120,
    max_blocks_per_prefix=8,
    unlocatable_fraction=0.05,
    seeded_ases=(
        SeededAS("KR-NET", "stub", "KR", ("KR",), ((22, 2),)),
        SeededAS("JP-NET", "transit", "JP", ("JP",), ((22, 2),)),
        SeededAS("VN-NET", "stub", "VN", ("VN",), ((22, 2),)),
        SeededAS("PK-NET", "transit", "PK", ("PK",), ((22, 2),)),
        SeededAS("JP-EDGE", "stub", "JP", ("JP",), ((23, 1),)),
    ),
)
#: The ``build_synth`` benchmark's full-size topology, at seed 1.
SYNTH_CONFIG = TopologyConfig(
    seed=1,
    tier1_count=10,
    transit_count=200,
    stub_count=1500,
    max_blocks_per_prefix=128,
    block_density_scale=2.0,
    address_pool="64.0.0.0/2",
)
_TARGET_TOTAL = 2.2e6
_PROFILES = {"root": root_profile, "nl": nl_profile}

PINNED = {
    "day/columns/root/d0/seed=None/raw": "fd70c949ea589d10",
    "day/columns/root/d0/seed=None/scaled": "0b5ffe8e77382f80",
    "day/columns/root/d1/seed=None/raw": "85d0fbf8a14ca41f",
    "day/columns/root/d1/seed=None/scaled": "88915371a364657d",
    "day/columns/nl/d0/seed=None/raw": "25148fb8ead05242",
    "day/columns/nl/d0/seed=None/scaled": "4925bc8885648816",
    "day/columns/nl/d1/seed=None/raw": "3f7623be94fadb8c",
    "day/columns/nl/d1/seed=None/scaled": "06cfe4838c2b86af",
    "hitlist/columns": "0508ca67a16927f6",
    "geo/columns": "84f4b7a3d4dbcdab",
    "day/tangled/root/d0/seed=None/raw": "28a1a909a0f7737b",
    "day/tangled/root/d0/seed=None/scaled": "e9f305e40ee5cf08",
    "day/tangled/root/d1/seed=None/raw": "b57526a93230193c",
    "day/tangled/root/d1/seed=None/scaled": "8c82dd28777557df",
    "day/tangled/nl/d0/seed=None/raw": "716812227c3eedba",
    "day/tangled/nl/d0/seed=None/scaled": "dd9b865b6c84f644",
    "day/tangled/nl/d1/seed=None/raw": "1c69db5c911fb3d5",
    "day/tangled/nl/d1/seed=None/scaled": "153018606f937118",
    "hitlist/tangled": "fc83e51deea05aa1",
    "geo/tangled": "c941ec7f038c5b6d",
    "hitlist/broot": "c044ccb65a501644",
    "atlas/tangled": "299cfa6316ca4e6c",
    "atlas/broot": "9186ace79128405e",
    "edges/tangled": "4e66357e403a33bb",
    "edges/broot": "59078d607ed380f0",
    "edges/columns": "e3219cac072b3b3e",
}

#: The block universe itself: ``(blocks, asns, pop_ids)``, the geo
#: columns, and each announced prefix with its populated blocks.
#: Recorded on the last commit that held the universe as per-block
#: dicts and lists (the same ``__main__`` run prints it); never
#: regenerated from column code.
UNIVERSE_PINNED = {
    "universe/tangled/tiny/blocks": "a602ec440ba3f49a",
    "universe/tangled/tiny/geo": "5394a79388229fac",
    "universe/tangled/tiny/prefixes": "1df55884d0b2c15e",
    "universe/tangled/small/blocks": "b8020862eaf681aa",
    "universe/tangled/small/geo": "9f5a6279bfb329ac",
    "universe/tangled/small/prefixes": "199c3957f1de9ad9",
    "universe/broot/tiny/blocks": "6a8c16ad8b0411ef",
    "universe/broot/tiny/geo": "7d66d18d75ee07bb",
    "universe/broot/tiny/prefixes": "d5e1f126208d531d",
    "universe/broot/small/blocks": "5fcc4d0f7cf5aa38",
    "universe/broot/small/geo": "ac73dadff9555467",
    "universe/broot/small/prefixes": "4f85fba0502b2cbb",
    "universe/columns/blocks": "efd53a20b741f3a6",
    "universe/columns/geo": "c002627e6c5f07e3",
    "universe/columns/prefixes": "cecb918840444a54",
    "universe/synth/seed=1/blocks": "6bd39dbe8f5fc1ce",
    "universe/synth/seed=1/geo": "ca41dcece147c378",
    "universe/synth/seed=1/prefixes": "3c465af979c9a845",
}


def _digest(*parts) -> str:
    state = hashlib.blake2b(digest_size=8)
    for part in parts:
        if isinstance(part, np.ndarray):
            state.update(np.ascontiguousarray(part).tobytes())
        else:
            state.update(repr(part).encode())
    return state.hexdigest()


def _day_digest(internet, profile, day_index, target) -> str:
    day = build_day_load(
        internet, profile, "pinned", day_index=day_index, target_total_queries=target
    )
    assert day.blocks.dtype == np.int64 and day.queries.dtype == np.float64
    return _digest(day.blocks, day.queries, day.good_fraction, day.reply_fraction)


def _hitlist_digest(internet) -> str:
    hitlist = build_hitlist(internet)
    return _digest(hitlist.addresses, hitlist.scores)


def _geo_digest(internet) -> str:
    geo = internet.geodb.columnar()
    countries = [geo.countries[index] for index in geo.country_index.tolist()]
    return _digest(
        list(zip(geo.blocks.tolist(), countries)),
        np.asarray(geo.latitudes, dtype=np.float64),
        np.asarray(geo.longitudes, dtype=np.float64),
    )


def _universe_digests(internet) -> dict:
    blocks, asns, pop_ids = internet.block_table()
    geo = internet.geodb.columnar()
    return {
        "blocks": _digest(*(np.asarray(c, dtype=np.int64) for c in (blocks, asns, pop_ids))),
        "geo": _digest(
            np.asarray(geo.blocks, dtype=np.int64),
            np.asarray(geo.latitudes, dtype=np.float64),
            np.asarray(geo.longitudes, dtype=np.float64),
            [geo.countries[index] for index in geo.country_index.tolist()],
        ),
        "prefixes": _digest(
            [
                (str(entry.prefix), entry.origin_asn, [int(b) for b in entry.populated_blocks])
                for entry in internet.announced
            ]
        ),
    }


def _universes(tangled_tiny, broot_tiny) -> dict:
    from repro.core.scenarios import broot_like

    return {
        "tangled/tiny": lambda: tangled_tiny.internet,
        "tangled/small": lambda: tangled_like(scale="small").internet,
        "broot/tiny": lambda: broot_tiny.internet,
        "broot/small": lambda: broot_like(scale="small").internet,
        "columns": lambda: build_internet(COLUMNS_CONFIG),
        "synth/seed=1": lambda: build_internet(SYNTH_CONFIG),
    }


def _observed_universes(tangled_tiny, broot_tiny) -> dict:
    observed = {}
    for name, build in _universes(tangled_tiny, broot_tiny).items():
        for part, value in _universe_digests(build()).items():
            observed[f"universe/{name}/{part}"] = value
    return observed


def _atlas_digest(platform) -> str:
    return _digest([(vp.block, vp.country_code) for vp in platform.vps])


def _edge_digest(internet) -> str:
    graph = internet.graph
    return _digest(
        [
            (asn, graph.providers_of(asn), graph.peers_of(asn), graph.customers_of(asn))
            for asn in sorted(internet.ases)
        ]
    )


def _observed(columns_internet, tangled_tiny, broot_tiny) -> dict:
    internets = {"columns": columns_internet, "tangled": tangled_tiny.internet}
    observed = {}
    for name, internet in internets.items():
        for profile_name, profile in _PROFILES.items():
            for day_index in (0, 1):
                for label, target in (("raw", None), ("scaled", _TARGET_TOTAL)):
                    # "seed=None": the Internet's own seed, the only one a
                    # day load draws from.
                    key = f"day/{name}/{profile_name}/d{day_index}/seed=None/{label}"
                    observed[key] = _day_digest(internet, profile(), day_index, target)
        observed[f"hitlist/{name}"] = _hitlist_digest(internet)
        observed[f"geo/{name}"] = _geo_digest(internet)
    observed["hitlist/broot"] = _hitlist_digest(broot_tiny.internet)
    observed["atlas/tangled"] = _atlas_digest(tangled_tiny.atlas)
    observed["atlas/broot"] = _atlas_digest(broot_tiny.atlas)
    observed["edges/tangled"] = _edge_digest(tangled_tiny.internet)
    observed["edges/broot"] = _edge_digest(broot_tiny.internet)
    observed["edges/columns"] = _edge_digest(columns_internet)
    return observed


@pytest.fixture(scope="module")
def columns_internet():
    return build_internet(COLUMNS_CONFIG)


@pytest.fixture(scope="module")
def observed(columns_internet, tangled_tiny, broot_tiny):
    return _observed(columns_internet, tangled_tiny, broot_tiny)


@pytest.mark.parametrize("key", sorted(PINNED))
def test_pinned_digest(observed, key):
    assert observed[key] == PINNED[key]


def test_every_observed_digest_is_pinned(observed):
    assert sorted(observed) == sorted(PINNED)


@pytest.fixture(scope="module")
def observed_universes(tangled_tiny, broot_tiny):
    return _observed_universes(tangled_tiny, broot_tiny)


@pytest.mark.parametrize("key", sorted(UNIVERSE_PINNED))
def test_universe_digest(observed_universes, key):
    assert observed_universes[key] == UNIVERSE_PINNED[key]


def test_every_universe_digest_is_pinned(observed_universes):
    assert sorted(observed_universes) == sorted(UNIVERSE_PINNED)


def test_stable_mask_is_the_scalar_draw(columns_internet):
    internet = columns_internet
    countries = {country_of_block(internet, block) for block in internet.blocks}
    assert {"KR", "JP", "VN", "PK", None} <= countries
    model = internet.host_model
    expected = [
        model.is_stable_responder(block, country_of_block(internet, block))
        for block in internet.blocks
    ]
    mask = internet.stable_mask()
    assert mask.dtype == bool and not mask.flags.writeable
    assert mask.tolist() == expected
    assert internet.stable_mask() is mask
    subset = np.asarray(internet.blocks[::3], dtype=np.int64)
    assert np.array_equal(model.stable_mask(subset, internet.geodb), mask[::3])


def test_engine_follows_the_host_config_responsiveness(columns_internet, tangled_tiny):
    """A non-default responsiveness reaches the engine's stable column."""
    from repro.topology.hosts import HostModelConfig

    config = HostModelConfig(base_responsiveness=0.9, country_responsiveness={"KR": 0.5})
    internet = build_internet(replace(COLUMNS_CONFIG, host_config=config))
    assert internet.host_model.config is config
    verfploeter = Verfploeter(internet, tangled_tiny.service)
    expected = [
        internet.host_model.is_stable_responder(block, country_of_block(internet, block))
        for block in internet.blocks
    ]
    assert verfploeter.round_state().stable.tolist() == expected
    default = columns_internet.stable_mask()
    assert sum(expected) > int(default.sum())
    # Same seed, higher thresholds: every default responder still responds.
    assert all(np.asarray(expected)[default])


def test_empty_geo_database_still_builds():
    internet = build_internet(
        TopologyConfig(
            seed=3, tier1_count=2, transit_count=4, stub_count=12,
            max_blocks_per_prefix=4, unlocatable_fraction=1.0,
        )
    )
    assert internet.geodb.columnar().blocks.size == 0 and len(internet) > 0
    model = internet.host_model
    assert internet.stable_mask().tolist() == [
        model.is_stable_responder(block) for block in internet.blocks
    ]
    assert len(build_hitlist(internet)) == len(internet)
    day = build_day_load(internet, root_profile(), "dark")
    assert 0 < len(day) < len(internet)
    with pytest.raises(MeasurementError):
        AtlasPlatform(internet, 5)


def test_profile_without_senders_gives_an_empty_day(columns_internet):
    silent = WorkloadProfile(name="silent", sender_fraction=0.0)
    for target in (None, _TARGET_TOTAL):
        day = build_day_load(
            columns_internet, silent, "silent", target_total_queries=target
        )
        assert len(day) == 0 and day.queries.shape == (0, 24)
        assert day.total_queries() == 0.0
    everyone = WorkloadProfile(name="everyone", sender_fraction=1, dark_sender_penalty=1)
    assert len(build_day_load(columns_internet, everyone, "all")) == len(columns_internet)


def test_hitlist_columns_and_subsets(columns_internet):
    internet = columns_internet
    full = build_hitlist(internet)
    assert np.array_equal(full.blocks, np.asarray(internet.blocks))
    for column in (full.blocks, full.addresses, full.scores):
        assert not column.flags.writeable
    assert (full.blocks.dtype, full.addresses.dtype) == (np.int64, np.int64)
    assert full.scores.dtype == np.float64 and len(full.scores) == len(full)
    chosen = [internet.blocks[40], internet.blocks[3], internet.blocks[11]]
    subset = build_hitlist(internet, chosen)
    assert subset.blocks.tolist() == sorted(chosen)
    rows = full.blocks.searchsorted(subset.blocks)
    assert full.addresses[rows].tolist() == subset.addresses.tolist()
    assert full.scores[rows].tolist() == subset.scores.tolist()
    assert not np.isin([internet.blocks[-1] + 1, 0], full.blocks).any()
    with pytest.raises(DatasetError):
        build_hitlist(internet, [internet.blocks[0], 0xFFFFFF])
    with pytest.raises(DatasetError):
        build_hitlist(internet, [internet.blocks[0], internet.blocks[0]])


def test_synthesis_scalar_draws_do_not_scale_with_blocks():
    """O(VPs + PoPs) scalar draws, not O(blocks): no wall clock involved."""
    target = rng.uniform_unit.__code__
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is target:
            calls += 1

    sys.setprofile(count)
    try:
        scenario = tangled_like("tiny")
        scenario.atlas  # deployed on first use
        Verfploeter(scenario.internet, scenario.service)
        scenario.day_load("guard")
    finally:
        sys.setprofile(None)
    assert 0 < calls < len(scenario.internet.blocks)


def test_build_memory_does_not_scale_with_python_objects():
    """Bytes per extra block retained by, and at the peak of, a build.

    Doubling the block density at fixed AS counts isolates the per-block
    cost.  Per-block Python objects (dict entries, tuples, boxed ints
    and floats) cost about 400 B retained and 530 B at the peak; the
    columns, a few int64/float64 cells per block, about 55 B and 140 B.
    """

    def traced(block_density_scale):
        config = TopologyConfig(
            seed=1, tier1_count=6, transit_count=50, stub_count=400,
            max_blocks_per_prefix=64, block_density_scale=block_density_scale,
        )
        tracemalloc.start()
        try:
            internet = build_internet(config)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return len(internet), retained, peak

    traced(1.0)  # a first build also fills import-time and module caches
    sparse, dense = traced(1.0), traced(2.0)
    extra = dense[0] - sparse[0]
    assert extra > 2_000
    retained, peak = ((dense[i] - sparse[i]) / extra for i in (1, 2))
    assert retained <= 96, f"{retained:.0f} B retained per block"
    assert peak <= 200, f"{peak:.0f} B peak per block"


if __name__ == "__main__":
    from repro.core.scenarios import broot_like

    tangled, broot = tangled_like(scale="tiny", seed=11), broot_like(scale="tiny", seed=7)
    for key, value in _observed(build_internet(COLUMNS_CONFIG), tangled, broot).items():
        print(f'    "{key}": "{value}",')
    for key, value in _observed_universes(tangled, broot).items():
        print(f'    "{key}": "{value}",')
