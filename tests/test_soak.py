"""Tests for the chaos soak harness: nemesis generation, invariant
suite, determinism, and the delta-debugging shrinker."""

from __future__ import annotations

import json

import pytest

from repro.faults import FaultPlan
from repro.soak import (
    NemesisGenerator,
    SoakHarness,
    TIERS,
    build_reproducer,
    episode_seed,
    load_reproducer,
    replay_reproducer,
    resolve_tier,
    shrink_episode,
    shrink_events,
    write_reproducer,
)
from repro.soak.nemesis import WorldSpec


def small_world(horizon=1200.0) -> WorldSpec:
    return WorldSpec(
        horizon_s=horizon,
        shard_ids=("s1", "s2", "s3"),
        tower_ids=("s1-t0",),
        killable_device_ids=tuple(f"d{i:02d}" for i in range(10)),
        deregisterable_device_ids=tuple(f"d{i:02d}" for i in range(10)),
    )


class TestEpisodeSeeds:
    def test_stable_across_calls(self):
        assert episode_seed(7, 3) == episode_seed(7, 3)

    def test_distinct_per_episode_and_master(self):
        seeds = {episode_seed(m, e) for m in range(5) for e in range(5)}
        assert len(seeds) == 25

    def test_known_value_pinned(self):
        """Reproducers embed these seeds; a change breaks every one
        already minted, so the derivation is pinned."""
        import hashlib

        digest = hashlib.sha256(b"soak:7:0").digest()
        assert episode_seed(7, 0) == int.from_bytes(digest[:8], "big")


class TestNemesisGenerator:
    def test_same_seed_same_plan(self):
        world = small_world()
        tier = TIERS["medium"]
        a = NemesisGenerator(42).plan_for_episode(5, world, tier)
        b = NemesisGenerator(42).plan_for_episode(5, world, tier)
        assert a.to_json_obj() == b.to_json_obj()

    def test_different_episodes_differ(self):
        world = small_world()
        tier = TIERS["medium"]
        generator = NemesisGenerator(42)
        plans = {
            json.dumps(generator.plan_for_episode(e, world, tier).to_json_obj())
            for e in range(6)
        }
        assert len(plans) == 6

    @pytest.mark.parametrize("tier_name", sorted(TIERS))
    def test_generated_plans_are_temporally_valid(self, tier_name):
        world = small_world()
        tier = TIERS[tier_name]
        generator = NemesisGenerator(7)
        for episode in range(8):
            plan = generator.plan_for_episode(episode, world, tier)
            assert plan.validate() == []

    def test_generated_plans_round_trip(self):
        world = small_world()
        generator = NemesisGenerator(13)
        for episode in range(4):
            plan = generator.plan_for_episode(episode, world, TIERS["heavy"])
            doc = json.loads(json.dumps(plan.to_json_obj()))
            assert FaultPlan.from_json_obj(doc).to_json_obj() == plan.to_json_obj()

    def test_event_times_inside_fault_window(self):
        world = small_world(horizon=1000.0)
        generator = NemesisGenerator(3)
        for episode in range(6):
            plan = generator.plan_for_episode(episode, world, TIERS["heavy"])
            for event in plan.events:
                assert 0.0 < event.at <= 0.9 * world.horizon_s

    def test_concurrent_shard_faults_bounded(self):
        """At every instant, strictly fewer shard-fault intervals are
        open than there are shards — a standby always exists."""
        world = small_world()
        generator = NemesisGenerator(99)
        for episode in range(10):
            plan = generator.plan_for_episode(episode, world, TIERS["heavy"])
            open_faults = 0
            for event in plan.events:
                if event.action in ("shard_crash", "shard_partition"):
                    open_faults += 1
                    assert open_faults <= len(world.shard_ids) - 1
                elif event.action == "shard_heal":
                    open_faults -= 1

    def test_network_partitions_never_overlap(self):
        world = small_world()
        generator = NemesisGenerator(17)
        for episode in range(10):
            plan = generator.plan_for_episode(episode, world, TIERS["heavy"])
            depth = 0
            for event in plan.events:
                if event.action == "partition":
                    depth += 1
                    assert depth == 1
                elif event.action == "heal":
                    depth -= 1

    def test_resolve_tier(self):
        assert resolve_tier("light") is TIERS["light"]
        assert resolve_tier(TIERS["heavy"]) is TIERS["heavy"]
        with pytest.raises(ValueError, match="unknown intensity tier"):
            resolve_tier("apocalyptic")


class TestSoakEpisodes:
    def test_clean_episode_passes_all_invariants(self, tmp_path):
        harness = SoakHarness(
            7, wal_root=str(tmp_path), tier="light", check_replay=False
        )
        result = harness.run_episode(0)
        assert result.ok, [v.message for v in result.violations]
        assert result.stats["data_points"] > 0
        assert result.stats["acked_uploads"] > 0

    def test_same_seed_episode_is_bit_identical(self, tmp_path):
        """The replay arm re-runs the plan in a different WAL dir and
        must land on the same structured-log signature and verdicts."""
        harness = SoakHarness(
            7, wal_root=str(tmp_path), tier="medium", check_replay=True
        )
        result = harness.run_episode(0)
        assert result.replay_checked
        assert "REPLAY_DIVERGED" not in result.codes()
        assert result.ok

    def test_report_aggregates(self, tmp_path):
        harness = SoakHarness(
            11, wal_root=str(tmp_path), tier="light", check_replay=False
        )
        report = harness.run(2)
        assert report.episodes == 2
        assert 0.0 <= report.invariant_pass_rate <= 1.0
        doc = report.as_dict()
        assert doc["tier"] == "light"
        assert len(doc["results"]) == 2

    def test_unknown_planted_bug_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown planted bug"):
            SoakHarness(7, wal_root=str(tmp_path), planted_bug="gremlin")


class TestPlantedBugAndShrinker:
    #: Seed 7 / episode 0 (medium) contains shard faults, so the
    #: planted lost-ack bug fires deterministically.
    SEED = 7

    @pytest.fixture(scope="class")
    def failing_episode(self, tmp_path_factory):
        harness = SoakHarness(
            self.SEED,
            wal_root=str(tmp_path_factory.mktemp("soak-wal")),
            tier="medium",
            check_replay=False,
            planted_bug="lost_ack",
        )
        return harness, harness.run_episode(0)

    def test_planted_bug_violates_acked_upload_loss(self, failing_episode):
        _, result = failing_episode
        assert not result.ok
        assert "ACKED_UPLOAD_LOST" in result.codes()

    def test_shrinker_minimizes_below_quarter(self, failing_episode):
        harness, result = failing_episode
        shrunk = shrink_episode(harness, result, max_runs=48)
        assert shrunk.shrunk_events >= 1
        assert shrunk.ratio <= 0.25
        assert "ACKED_UPLOAD_LOST" in shrunk.target_codes

    def test_reproducer_round_trip_still_fails(
        self, failing_episode, tmp_path
    ):
        harness, result = failing_episode
        shrunk = shrink_episode(harness, result, max_runs=48)
        reproducer = build_reproducer(harness, result, shrunk)
        path = str(tmp_path / "reproducer.json")
        write_reproducer(path, reproducer)
        loaded = load_reproducer(path)
        assert loaded["shrunk_events"] == shrunk.shrunk_events
        violations, _, _ = replay_reproducer(
            loaded, str(tmp_path / "replay-wal")
        )
        assert any(v.code == "ACKED_UPLOAD_LOST" for v in violations)

    def test_reproducer_is_valid_json_with_schema(
        self, failing_episode, tmp_path
    ):
        harness, result = failing_episode
        shrunk = shrink_episode(harness, result, max_runs=48)
        path = str(tmp_path / "reproducer.json")
        write_reproducer(path, build_reproducer(harness, result, shrunk))
        with open(path) as f:
            doc = json.load(f)
        assert doc["schema"] == "soak-reproducer/v1"
        assert doc["plan"]["schema"] == "fault-plan/v1"
        assert doc["world"]["n_devices"] == 10

    def test_load_rejects_non_reproducer(self, tmp_path):
        path = str(tmp_path / "bogus.json")
        with open(path, "w") as f:
            json.dump({"schema": "something/else"}, f)
        with pytest.raises(ValueError, match="not a soak reproducer"):
            load_reproducer(path)


class TestShrinkEvents:
    """ddmin over a synthetic predicate — no simulator involved."""

    @staticmethod
    def _events(n):
        return [
            {"at": float(i), "action": "partition", "kwargs": {}}
            for i in range(n)
        ]

    def test_shrinks_to_single_culprit(self):
        events = self._events(16)
        culprit = events[11]

        def fails(doc):
            return culprit in doc["events"]

        result = shrink_events(events, fails, max_runs=64)
        assert result.events == [culprit]
        assert result.converged

    def test_budget_exhaustion_reported(self):
        events = self._events(32)
        # Failure needs two specific far-apart events: slow to shrink.
        a, b = events[1], events[30]

        def fails(doc):
            return a in doc["events"] and b in doc["events"]

        result = shrink_events(events, fails, max_runs=3)
        assert not result.converged
        assert a in result.events and b in result.events
