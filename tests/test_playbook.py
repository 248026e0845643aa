"""Tests for the DDoS playbook planner and volumetric attack workloads."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.bgp.cache import RoutingCache, policy_digest
from repro.core.playbook import (
    ConfigOutcome,
    PlaybookEntry,
    PlaybookPlanner,
    derive_capacities,
    enumerate_lattice,
)
from repro.core.scenarios import tangled_like
from repro.core.verfploeter import Verfploeter
from repro.load.estimator import LoadEstimate
from repro.load.weighting import UNKNOWN, capacity_violations, weight_catchment
from repro.traffic.attack import (
    AttackProfile,
    attack_day_load,
    compose_attack,
    hotspot_blocks,
)
from repro.traffic.logs import HOURS


@pytest.fixture(scope="module")
def tangled_vp(tangled_tiny):
    return Verfploeter(tangled_tiny.internet, tangled_tiny.service)


@pytest.fixture(scope="module")
def baseline_catchment(tangled_vp):
    planner = PlaybookPlanner(tangled_vp, cache=RoutingCache())
    return planner.catchment_for(tangled_vp.service.default_policy())


@pytest.fixture(scope="module")
def day(tangled_tiny):
    return tangled_tiny.day_load("playbook-test-day")


@pytest.fixture(scope="module")
def attacked_site(baseline_catchment, day):
    """The heaviest-loaded site — the CLI's default target."""
    load = weight_catchment(baseline_catchment, LoadEstimate(day))
    return max(sorted(load.peaks()), key=load.daily_of)


class TestAttackComposition:
    def test_profile_validation(self):
        with pytest.raises(Exception):
            AttackProfile(target_site="X", intensity=0.0)
        with pytest.raises(Exception):
            AttackProfile(target_site="X", hotspot_fraction=0.0)
        with pytest.raises(Exception):
            AttackProfile(target_site="X", start_hour=24)
        with pytest.raises(Exception):
            AttackProfile(target_site="X", duration_hours=0)

    def test_window_wraps_midnight(self):
        profile = AttackProfile(
            target_site="X", start_hour=22, duration_hours=4
        )
        assert profile.window_hours() == (22, 23, 0, 1)

    def test_hotspot_is_deterministic_subset(
        self, baseline_catchment, attacked_site
    ):
        first = hotspot_blocks(baseline_catchment, attacked_site, 0.5, seed=11)
        second = hotspot_blocks(baseline_catchment, attacked_site, 0.5, seed=11)
        assert first == second
        members = set(baseline_catchment.blocks_of_site(attacked_site))
        assert set(first) <= members
        assert first  # non-empty on a mapped site

    def test_hotspot_fraction_one_is_whole_catchment(
        self, baseline_catchment, attacked_site
    ):
        everyone = hotspot_blocks(
            baseline_catchment, attacked_site, 1.0, seed=11
        )
        assert everyone == sorted(
            baseline_catchment.blocks_of_site(attacked_site)
        )

    def test_attack_volume_scales_with_peak_rate(self, day):
        profile = AttackProfile(
            target_site="X", intensity=2.0, duration_hours=4
        )
        attackers = [int(day.blocks[0]), int(day.blocks[1])]
        attacked = attack_day_load(day, attackers, profile, seed=11)
        peak_rate = float(day.hourly_totals().max())
        expected_extra = 2.0 * peak_rate * 4
        assert attacked.total_queries() == pytest.approx(
            day.total_queries() + expected_extra
        )

    def test_baseline_hours_preserved_outside_window(self, day):
        profile = AttackProfile(
            target_site="X", start_hour=12, duration_hours=4
        )
        attackers = [int(day.blocks[0])]
        attacked = attack_day_load(day, attackers, profile, seed=11)
        rows = np.searchsorted(attacked.blocks, day.blocks)
        outside = [h for h in range(HOURS) if h not in profile.window_hours()]
        assert np.array_equal(
            attacked.queries[np.ix_(rows, outside)],
            day.queries[:, outside],
        )

    def test_attacker_only_blocks_send_junk(self, day):
        new_block = int(day.blocks[-1]) + 7
        profile = AttackProfile(target_site="X")
        attacked = attack_day_load(day, [new_block], profile, seed=11)
        row = attacked.row_of(new_block)
        assert row is not None
        assert attacked.good_fraction[row] == 0.0
        assert attacked.reply_fraction[row] == 1.0
        # strictly ascending union universe (the DayLoad contract)
        assert np.all(np.diff(attacked.blocks) > 0)

    def test_compose_attack_round_trip(
        self, day, baseline_catchment, attacked_site
    ):
        profile = AttackProfile(target_site=attacked_site)
        attacked, attackers = compose_attack(
            day, baseline_catchment, profile, seed=11
        )
        assert attackers == hotspot_blocks(
            baseline_catchment, attacked_site, profile.hotspot_fraction, 11
        )
        assert attacked.total_queries() > day.total_queries()


class TestCapacitySemantics:
    """The pinned, repo-wide capacity definition (peak hourly, strict >)."""

    def test_peak_is_max_hourly(self, baseline_catchment, day):
        load = weight_catchment(baseline_catchment, LoadEstimate(day))
        for code in load.site_codes:
            assert load.peak_of(code) == pytest.approx(
                float(load.hourly_of(code).max())
            )

    def test_exactly_at_capacity_is_not_a_violation(self):
        peaks = {"AAA": 100.0, "BBB": 100.0}
        assert capacity_violations(peaks, {"AAA": 100.0, "BBB": 100.0}) == []
        just_over = {"AAA": 100.0000001, "BBB": 100.0}
        assert capacity_violations(
            just_over, {"AAA": 100.0, "BBB": 100.0}
        ) == ["AAA"]

    def test_excluded_and_unknown_never_violate(self):
        peaks = {"AAA": 500.0, UNKNOWN: 999.0}
        capacities = {"AAA": 1.0, UNKNOWN: 1.0}
        assert capacity_violations(peaks, capacities, exclude=("AAA",)) == []

    def test_peak_not_mean_is_compared(self):
        """A site fine on average but melting at peak IS in violation."""
        peaks = {"AAA": 240.0}  # daily 240 spread over one hour
        capacities = {"AAA": 100.0}  # mean would be 10/h: comfortably under
        assert capacity_violations(peaks, capacities) == ["AAA"]

    def test_site_failure_study_shares_the_definition(
        self, broot_verfploeter, broot_tiny
    ):
        from repro.core.experiments import site_failure_study

        estimate = LoadEstimate(broot_tiny.day_load("failure-day"))
        results = site_failure_study(broot_verfploeter, estimate)
        for result in results:
            assert set(result.peak_after) == set(
                broot_tiny.service.site_codes
            )
            # withdrawn site never violates, even with zero capacity
            zero_caps = {code: 0.0 for code in result.peak_after}
            assert result.withdrawn_site not in result.overloaded_sites(
                zero_caps
            )
            # identical semantics to the shared helper the planner uses
            caps = {code: 1.0 for code in result.peak_after}
            assert result.overloaded_sites(caps) == capacity_violations(
                result.peak_after, caps, exclude=(result.withdrawn_site,)
            )


class TestLattice:
    def test_depth_one_count_and_order(self, tangled_vp):
        entries = enumerate_lattice(
            tangled_vp.service, "MIA", max_prepend=3, depth=1
        )
        labels = [entry.label for entry in entries]
        assert labels == ["equal", "MIA+1", "MIA+2", "MIA+3", "-MIA"]

    def test_depth_two_count(self, tangled_vp):
        sites = len(tangled_vp.service.site_codes)
        max_prepend = 2
        entries = enumerate_lattice(
            tangled_vp.service, "MIA", max_prepend=max_prepend, depth=2
        )
        depth1 = 1 + max_prepend + 1
        depth2 = (max_prepend + 1) * (sites - 1) * max_prepend
        assert len(entries) == depth1 + depth2

    def test_config_ids_are_unique_policy_digests(self, tangled_vp):
        entries = enumerate_lattice(
            tangled_vp.service, "MIA", max_prepend=2, depth=2
        )
        ids = [entry.config_id for entry in entries]
        assert len(set(ids)) == len(ids)
        for entry in entries[:5]:
            assert entry.config_id == policy_digest(
                entry.policy_for(tangled_vp.service)
            )

    def test_rejects_bad_inputs(self, tangled_vp):
        with pytest.raises(Exception):
            enumerate_lattice(tangled_vp.service, "NOPE")
        with pytest.raises(Exception):
            enumerate_lattice(tangled_vp.service, "MIA", max_prepend=0)
        with pytest.raises(Exception):
            enumerate_lattice(tangled_vp.service, "MIA", depth=3)


def _plan_artifact(seed: int) -> str:
    """One complete cold search at tiny scale, rendered to canonical JSON."""
    scenario = tangled_like(scale="tiny", seed=seed)
    vp = Verfploeter(scenario.internet, scenario.service)
    planner = PlaybookPlanner(vp, cache=RoutingCache(maxsize=256))
    catchment = planner.catchment_for(scenario.service.default_policy())
    day = scenario.day_load("pb-day")
    load = weight_catchment(catchment, LoadEstimate(day))
    attacked = max(sorted(load.peaks()), key=load.daily_of)
    profile = AttackProfile(target_site=attacked)
    attack_day, attackers = compose_attack(
        day, catchment, profile, scenario.internet.seed
    )
    playbook = planner.plan(
        LoadEstimate(attack_day),
        attacked,
        derive_capacities(load, scenario.service.site_codes),
        max_prepend=2,
        depth=1,
        attack=profile,
        attacker_count=len(attackers),
    )
    return playbook.to_json()


class TestPlannerDeterminism:
    @pytest.mark.parametrize("seed", [3, 17, 123])
    def test_same_seed_same_bytes(self, seed):
        assert _plan_artifact(seed) == _plan_artifact(seed)

    def test_different_seeds_differ(self):
        assert _plan_artifact(3) != _plan_artifact(17)

    def test_tied_scores_break_on_config_id(self):
        def outcome(config_id: str) -> ConfigOutcome:
            entry = PlaybookEntry(
                label=config_id, config_id=config_id,
                prepends=(), withdrawn=(),
            )
            return ConfigOutcome(
                entry=entry, daily={}, peaks={}, utilization={},
                violations=("AAA",), worst_utilization=2.5,
            )

        shuffled = [outcome("cc"), outcome("aa"), outcome("bb")]
        ranked = sorted(shuffled, key=ConfigOutcome.sort_key)
        assert [o.entry.config_id for o in ranked] == ["aa", "bb", "cc"]

    def test_ranking_is_total_and_minimal_first(self, tangled_vp, day):
        planner = PlaybookPlanner(tangled_vp, cache=RoutingCache(maxsize=256))
        catchment = planner.catchment_for(
            tangled_vp.service.default_policy()
        )
        load = weight_catchment(catchment, LoadEstimate(day))
        attacked = max(sorted(load.peaks()), key=load.daily_of)
        profile = AttackProfile(target_site=attacked)
        attack_day, attackers = compose_attack(
            day, catchment, profile, seed=11
        )
        playbook = planner.plan(
            LoadEstimate(attack_day),
            attacked,
            derive_capacities(load, tangled_vp.service.site_codes),
            max_prepend=2,
            depth=1,
        )
        keys = [outcome.sort_key() for outcome in playbook.ranked]
        assert keys == sorted(keys)
        assert playbook.top.sort_key() == min(keys)
        # the do-nothing baseline is the first enumerated entry
        assert playbook.baseline.entry.label == "equal"
        # the lattice routed as one batch: full computes, never deltas
        assert planner.cache.stats.delta_computes == 0
        assert planner.cache.stats.full_computes == len(playbook.ranked)
        # a second search on the same planner is served from the memo:
        # no new propagations, byte-identical artifact
        before = (
            planner.cache.stats.full_computes,
            planner.cache.stats.delta_computes,
        )
        again = planner.plan(
            LoadEstimate(attack_day),
            attacked,
            derive_capacities(load, tangled_vp.service.site_codes),
            max_prepend=2,
            depth=1,
        )
        after = (
            planner.cache.stats.full_computes,
            planner.cache.stats.delta_computes,
        )
        assert before == after
        assert again.to_json() == playbook.to_json()


class TestCliRoundTrip:
    ARGS = [
        "playbook", "--scenario", "tangled", "--scale", "tiny",
        "--seed", "11", "--max-prepend", "2", "--depth", "1",
    ]

    def test_artifact_round_trip_and_schema(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "playbook.json"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "recommended config:" in printed
        artifact = json.loads(out.read_text())
        assert artifact["version"] == 1
        assert artifact["configs_evaluated"] == len(artifact["ranked"])
        assert [row["rank"] for row in artifact["ranked"]] == list(
            range(1, len(artifact["ranked"]) + 1)
        )
        top = artifact["ranked"][0]
        assert top["config_id"] == artifact["recommendation"]["config_id"]
        assert artifact["attack"]["attacker_blocks"] > 0
        assert set(artifact["before"]) == {
            "daily", "peaks", "utilization", "violations",
            "worst_utilization",
        }
        assert artifact["meta"]["scenario"] == "tangled"
        assert artifact["meta"]["seed"] == 11

    def test_two_runs_byte_identical(self, tmp_path, capsys):
        from repro.cli import main

        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert main(self.ARGS + ["--out", str(first)]) == 0
        assert main(self.ARGS + ["--out", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_workers_zero_matches_in_process(self, tmp_path, capsys):
        from repro.cli import main

        plain = tmp_path / "plain.json"
        sharded = tmp_path / "sharded.json"
        assert main(self.ARGS + ["--out", str(plain)]) == 0
        assert main(
            self.ARGS + ["--workers", "0", "--out", str(sharded)]
        ) == 0
        capsys.readouterr()
        assert plain.read_bytes() == sharded.read_bytes()
