"""Tests for FaultPlan serialization, eager kwarg validation, and
temporal sanity (the soak harness's reproducer substrate)."""

from __future__ import annotations

import json

import pytest

from repro.faults import (
    ACTION_SCHEMAS,
    PLAN_SCHEMA,
    FaultPlan,
    FaultPlanError,
    GilbertElliott,
)
from repro.faults.plan import FaultEvent


def full_vocabulary_plan() -> FaultPlan:
    """One of every serializable action, temporally sane."""
    return (
        FaultPlan()
        .tower_down(10.0, "t0", restore_after=40.0)
        .partition(60.0, heal_after=30.0)
        .kill_device(70.0, "d1")
        .deregister_device(75.0, "d2")
        .set_loss_model(
            80.0,
            GilbertElliott(
                p_good_to_bad=0.1,
                p_bad_to_good=0.3,
                loss_good=0.0,
                loss_bad=0.7,
            ),
        )
        .clear_loss_model(120.0)
        .set_delay(130.0, probability=0.25, delay_range_s=(0.5, 3.0))
        .set_duplication(140.0, probability=0.15)
        .server_crash(150.0, restart_after=20.0)
        .overload_burst(180.0, rate_per_s=100.0, duration_s=5.0)
        .shard_crash(200.0, "s1")
        .shard_partition(210.0, "s2", heal_after=50.0)
    )


class TestEagerValidation:
    def test_unknown_action_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault action"):
            FaultPlan().add(10.0, "meteor_strike")

    def test_unknown_action_is_valueerror_compatible(self):
        with pytest.raises(ValueError):
            FaultPlan().add(10.0, "meteor_strike")

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown kwargs"):
            FaultPlan().add(10.0, "tower_down", tower="t0")

    def test_missing_required_kwarg_rejected(self):
        with pytest.raises(FaultPlanError, match="missing required"):
            FaultPlan().add(10.0, "tower_down")

    def test_wrong_type_rejected(self):
        with pytest.raises(FaultPlanError, match="must be a string"):
            FaultPlan().add(10.0, "tower_down", tower_id=7)

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(FaultPlanError, match=r"\[0, 1\]"):
            FaultPlan().add(10.0, "set_duplication", probability=1.5)

    def test_bad_range_rejected(self):
        with pytest.raises(FaultPlanError, match="lo <= hi"):
            FaultPlan().add(
                10.0, "set_delay", probability=0.5, delay_range_s=(5.0, 1.0)
            )

    def test_nan_kwargs_rejected(self):
        nan = float("nan")
        with pytest.raises(FaultPlanError, match="positive"):
            FaultPlan().add(10.0, "overload_burst", rate_per_s=nan, duration_s=5.0)
        with pytest.raises(FaultPlanError, match="lo <= hi"):
            FaultPlan().add(
                10.0, "set_delay", probability=0.5, delay_range_s=(nan, 1.0)
            )

    def test_nan_time_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            FaultEvent(at=float("nan"), action="partition")
        with pytest.raises(ValueError, match="non-negative"):
            FaultPlan().add(float("nan"), "partition")

    def test_loss_model_type_enforced(self):
        with pytest.raises(FaultPlanError, match="GilbertElliott"):
            FaultPlan().add(10.0, "set_loss_model", model={"loss_bad": 0.9})

    def test_optional_kwarg_may_be_omitted(self):
        plan = FaultPlan().add(
            10.0, "overload_burst", rate_per_s=50.0, duration_s=2.0
        )
        assert len(plan) == 1

    def test_every_injector_action_has_a_schema(self):
        from repro.faults.injector import FaultInjector

        for action in ACTION_SCHEMAS:
            assert hasattr(FaultInjector, f"_do_{action}")


class TestTemporalSanity:
    def test_heal_before_partition_raises_strict(self):
        plan = FaultPlan().heal(10.0).partition(50.0)
        with pytest.raises(FaultPlanError, match="would no-op"):
            plan.validate()

    def test_tower_up_before_down_raises_strict(self):
        plan = FaultPlan().tower_up(10.0, "t0").tower_down(50.0, "t0")
        with pytest.raises(FaultPlanError, match="tower_up"):
            plan.validate()

    def test_shard_heal_before_partition_raises_strict(self):
        plan = (
            FaultPlan()
            .shard_heal(10.0, "s1")
            .shard_partition(50.0, "s1")
        )
        with pytest.raises(FaultPlanError, match="shard_heal"):
            plan.validate()

    def test_heal_for_other_resource_does_not_count(self):
        plan = (
            FaultPlan()
            .shard_partition(10.0, "s1")
            .shard_heal(20.0, "s2")  # wrong shard: s2 was never cut
        )
        with pytest.raises(FaultPlanError, match="s2"):
            plan.validate()

    def test_paired_outages_validate_clean(self):
        assert full_vocabulary_plan().validate() == []

    def test_strict_false_warns_instead(self):
        plan = FaultPlan(strict=False).heal(10.0)
        with pytest.warns(UserWarning, match="would no-op"):
            problems = plan.validate()
        assert len(problems) == 1

    def test_injector_attach_enforces_validation(self):
        from repro.cellular.network import CellularNetwork
        from repro.faults import FaultInjector
        from repro.sim.engine import Simulator

        sim = Simulator(seed=1)
        network = CellularNetwork(sim)
        bad = FaultPlan().heal(10.0).partition(50.0)
        with pytest.raises(FaultPlanError):
            FaultInjector(sim, network, plan=bad)


class TestJsonRoundTrip:
    def test_round_trip_preserves_events(self):
        plan = full_vocabulary_plan()
        rebuilt = FaultPlan.from_json(plan.to_json())
        assert rebuilt.to_json() == plan.to_json()
        assert len(rebuilt) == len(plan)
        assert [e.action for e in rebuilt.events] == [
            e.action for e in plan.events
        ]

    def test_round_trip_restores_types(self):
        plan = full_vocabulary_plan()
        rebuilt = FaultPlan.from_json(plan.to_json())
        by_action = {e.action: e for e in rebuilt.events}
        model = by_action["set_loss_model"].kwargs["model"]
        assert isinstance(model, GilbertElliott)
        assert model.loss_bad == 0.7
        delay_range = by_action["set_delay"].kwargs["delay_range_s"]
        assert delay_range == (0.5, 3.0)
        assert isinstance(delay_range, tuple)

    def test_schema_tag_present(self):
        doc = json.loads(full_vocabulary_plan().to_json())
        assert doc["schema"] == PLAN_SCHEMA

    def test_strict_flag_round_trips(self):
        lax = FaultPlan(strict=False).partition(10.0, heal_after=5.0)
        assert FaultPlan.from_json(lax.to_json()).strict is False

    def test_wrong_schema_rejected(self):
        with pytest.raises(FaultPlanError, match="schema"):
            FaultPlan.from_json('{"schema": "fault-plan/v9", "events": []}')

    def test_garbage_json_rejected(self):
        with pytest.raises(FaultPlanError, match="unparseable"):
            FaultPlan.from_json("{nope")

    def test_events_must_be_list(self):
        with pytest.raises(FaultPlanError, match="list"):
            FaultPlan.from_json_obj({"schema": PLAN_SCHEMA, "events": {}})

    def test_event_unknown_field_rejected(self):
        doc = {
            "schema": PLAN_SCHEMA,
            "events": [
                {"at": 1.0, "action": "partition", "kwargs": {}, "note": "x"}
            ],
        }
        with pytest.raises(FaultPlanError, match="unknown fields"):
            FaultPlan.from_json_obj(doc)

    def test_nan_time_rejected(self):
        """Python's json parses the bare token NaN."""
        text = '{"schema": "%s", "events": [{"at": NaN, "action": "partition"}]}'
        with pytest.raises(ValueError, match="non-negative"):
            FaultPlan.from_json(text % PLAN_SCHEMA)

    def test_event_bad_kwargs_rejected_through_add(self):
        doc = {
            "schema": PLAN_SCHEMA,
            "events": [{"at": 1.0, "action": "tower_down", "kwargs": {}}],
        }
        with pytest.raises(FaultPlanError, match="missing required"):
            FaultPlan.from_json_obj(doc)

    def test_events_are_normalized_like_add(self):
        doc = {
            "schema": PLAN_SCHEMA,
            "events": [
                {
                    "at": 5,
                    "action": "set_delay",
                    "kwargs": {
                        "probability": 0.5,
                        "delay_range_s": [1, 2],
                    },
                }
            ],
        }
        plan = FaultPlan.from_json_obj(doc)
        event = plan.events[0]
        assert isinstance(event, FaultEvent)
        assert event.kwargs["delay_range_s"] == (1.0, 2.0)
