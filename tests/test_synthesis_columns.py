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

import numpy as np
import pytest

from repro import rng
from repro.atlas.platform import AtlasPlatform
from repro.core.scenarios import tangled_like
from repro.core.verfploeter import Verfploeter
from repro.errors import DatasetError, MeasurementError
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
_FOREIGN_SEED = 0xD17
_TARGET_TOTAL = 2.2e6
_PROFILES = {"root": root_profile, "nl": nl_profile}

PINNED = {
    "day/columns/root/d0/seed=None/raw": "fd70c949ea589d10",
    "day/columns/root/d0/seed=None/scaled": "0b5ffe8e77382f80",
    "day/columns/root/d0/seed=3351/raw": "5a9a5e0a7640a9bd",
    "day/columns/root/d0/seed=3351/scaled": "c0c9ac084982c20a",
    "day/columns/root/d1/seed=None/raw": "85d0fbf8a14ca41f",
    "day/columns/root/d1/seed=None/scaled": "88915371a364657d",
    "day/columns/root/d1/seed=3351/raw": "2eb265003899adac",
    "day/columns/root/d1/seed=3351/scaled": "711c758288743fab",
    "day/columns/nl/d0/seed=None/raw": "25148fb8ead05242",
    "day/columns/nl/d0/seed=None/scaled": "4925bc8885648816",
    "day/columns/nl/d0/seed=3351/raw": "04b5118f54c8cf00",
    "day/columns/nl/d0/seed=3351/scaled": "797005e1b9e63c94",
    "day/columns/nl/d1/seed=None/raw": "3f7623be94fadb8c",
    "day/columns/nl/d1/seed=None/scaled": "06cfe4838c2b86af",
    "day/columns/nl/d1/seed=3351/raw": "56e875fad8d2d757",
    "day/columns/nl/d1/seed=3351/scaled": "e64488c1793e1607",
    "hitlist/columns": "0508ca67a16927f6",
    "geo/columns": "84f4b7a3d4dbcdab",
    "day/tangled/root/d0/seed=None/raw": "28a1a909a0f7737b",
    "day/tangled/root/d0/seed=None/scaled": "e9f305e40ee5cf08",
    "day/tangled/root/d0/seed=3351/raw": "a0e986f55525e86b",
    "day/tangled/root/d0/seed=3351/scaled": "0feb79da06703ff1",
    "day/tangled/root/d1/seed=None/raw": "b57526a93230193c",
    "day/tangled/root/d1/seed=None/scaled": "8c82dd28777557df",
    "day/tangled/root/d1/seed=3351/raw": "9339173e755fc64c",
    "day/tangled/root/d1/seed=3351/scaled": "a1e779e539b2a9dc",
    "day/tangled/nl/d0/seed=None/raw": "716812227c3eedba",
    "day/tangled/nl/d0/seed=None/scaled": "dd9b865b6c84f644",
    "day/tangled/nl/d0/seed=3351/raw": "113ffe4aafdbe73d",
    "day/tangled/nl/d0/seed=3351/scaled": "a65615ad1d54ebd8",
    "day/tangled/nl/d1/seed=None/raw": "1c69db5c911fb3d5",
    "day/tangled/nl/d1/seed=None/scaled": "153018606f937118",
    "day/tangled/nl/d1/seed=3351/raw": "dc15d485b7d13832",
    "day/tangled/nl/d1/seed=3351/scaled": "117c382c7d806718",
    "hitlist/tangled": "fc83e51deea05aa1",
    "geo/tangled": "c941ec7f038c5b6d",
    "hitlist/broot": "c044ccb65a501644",
    "atlas/tangled": "299cfa6316ca4e6c",
    "atlas/broot": "9186ace79128405e",
    "atlas/columns/foreign-seed": "42da9fa40ed233e3",
    "edges/tangled": "4e66357e403a33bb",
    "edges/broot": "59078d607ed380f0",
    "edges/columns": "e3219cac072b3b3e",
}


def _digest(*parts) -> str:
    state = hashlib.blake2b(digest_size=8)
    for part in parts:
        if isinstance(part, np.ndarray):
            state.update(np.ascontiguousarray(part).tobytes())
        else:
            state.update(repr(part).encode())
    return state.hexdigest()


def _day_digest(internet, profile, day_index, seed, target) -> str:
    day = build_day_load(
        internet, profile, "pinned", seed=seed, day_index=day_index,
        target_total_queries=target,
    )
    assert day.blocks.dtype == np.int64 and day.queries.dtype == np.float64
    return _digest(day.blocks, day.queries, day.good_fraction, day.reply_fraction)


def _hitlist_digest(internet) -> str:
    entries = list(build_hitlist(internet))
    return _digest(
        np.array([entry.address for entry in entries], dtype=np.int64),
        np.array([entry.score for entry in entries], dtype=np.float64),
    )


def _geo_digest(internet) -> str:
    records = sorted(internet.geodb.items())
    return _digest(
        [(block, record.country_code) for block, record in records],
        np.array([record.latitude for _, record in records], dtype=np.float64),
        np.array([record.longitude for _, record in records], dtype=np.float64),
    )


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
                for seed in (None, _FOREIGN_SEED):
                    for label, target in (("raw", None), ("scaled", _TARGET_TOTAL)):
                        key = f"day/{name}/{profile_name}/d{day_index}/seed={seed}/{label}"
                        observed[key] = _day_digest(
                            internet, profile(), day_index, seed, target
                        )
        observed[f"hitlist/{name}"] = _hitlist_digest(internet)
        observed[f"geo/{name}"] = _geo_digest(internet)
    observed["hitlist/broot"] = _hitlist_digest(broot_tiny.internet)
    observed["atlas/tangled"] = _atlas_digest(tangled_tiny.atlas)
    observed["atlas/broot"] = _atlas_digest(broot_tiny.atlas)
    observed["atlas/columns/foreign-seed"] = _atlas_digest(
        AtlasPlatform(columns_internet, 40, seed=_FOREIGN_SEED)
    )
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


def test_stable_mask_is_the_scalar_draw(columns_internet):
    internet = columns_internet
    countries = {internet.country_of_block(block) for block in internet.blocks}
    assert {"KR", "JP", "VN", "PK", None} <= countries
    model = internet.host_model
    expected = [
        model.is_stable_responder(block, internet.country_of_block(block))
        for block in internet.blocks
    ]
    mask = internet.stable_mask()
    assert mask.dtype == bool and not mask.flags.writeable
    assert mask.tolist() == expected
    assert internet.stable_mask() is mask
    subset = np.asarray(internet.blocks[::3], dtype=np.int64)
    assert np.array_equal(model.stable_mask(subset, internet.geodb), mask[::3])


def test_engine_reads_the_host_models_seed(columns_internet, tangled_tiny):
    """A host model seeded apart from the Internet drives the engine too."""
    from repro.topology.hosts import HostModel

    internet = build_internet(COLUMNS_CONFIG)
    internet.host_model = HostModel(_FOREIGN_SEED)
    verfploeter = Verfploeter(internet, tangled_tiny.service)
    expected = [
        internet.host_model.is_stable_responder(block, internet.country_of_block(block))
        for block in internet.blocks
    ]
    assert verfploeter.round_state().stable.tolist() == expected
    assert expected != columns_internet.stable_mask().tolist()


def test_empty_geo_database_still_builds():
    internet = build_internet(
        TopologyConfig(
            seed=3, tier1_count=2, transit_count=4, stub_count=12,
            max_blocks_per_prefix=4, unlocatable_fraction=1.0,
        )
    )
    assert len(internet.geodb) == 0 and len(internet) > 0
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
    assert not full.blocks.flags.writeable
    entries = list(full)
    assert [entry.block for entry in entries] == full.blocks.tolist()
    assert [entry.address for entry in entries] == full.addresses.tolist()
    assert [entry.score for entry in entries] == full.scores.tolist()
    assert full[7] == entries[7] and full[-1] == entries[-1]
    assert type(full[7].block) is int and type(full[7].score) is float
    chosen = [internet.blocks[40], internet.blocks[3], internet.blocks[11]]
    subset = build_hitlist(internet, chosen)
    assert [entry.block for entry in subset] == sorted(chosen)
    for entry in subset:
        assert entry == full.entry_for(entry.block)
    assert full.entry_for(internet.blocks[-1] + 1) is None
    assert full.entry_for(0) is None
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


if __name__ == "__main__":
    from repro.core.scenarios import broot_like

    for key, value in _observed(
        build_internet(COLUMNS_CONFIG),
        tangled_like(scale="tiny", seed=11),
        broot_like(scale="tiny", seed=7),
    ).items():
        print(f'    "{key}": "{value}",')
