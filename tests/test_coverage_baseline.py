"""Tests for the coverage-based (CrowdRecruiter-style) baseline."""

from __future__ import annotations

import pytest

from repro.baselines.coverage import CoverageFramework
from repro.cellular.network import CellularNetwork
from repro.environment.geometry import Point
from repro.sim.engine import Simulator
from tests.conftest import make_device
from tests.test_baselines import CENTER, make_spec


def make_framework(sim, devices):
    return CoverageFramework(sim, CellularNetwork(sim), devices)


class TestRecruitment:
    def test_recruits_devices_likely_in_region(self):
        sim = Simulator()
        inside = [make_device(sim, f"in{i}", position=CENTER) for i in range(3)]
        outside = [
            make_device(sim, f"out{i}", position=Point(9000.0, 9000.0))
            for i in range(3)
        ]
        framework = make_framework(sim, inside + outside)
        task = make_spec(spatial_density=2)
        framework.add_task(task)
        plan = framework.plans[task.task_id]
        assert set(plan.recruited) <= {"in0", "in1", "in2"}
        assert plan.expected_coverage >= 2.0

    def test_presence_probability_bounds(self):
        sim = Simulator()
        device = make_device(sim, "d", position=CENTER)
        framework = make_framework(sim, [device])
        task = make_spec()
        assert framework._presence_probability(device, task) == 1.0
        far = make_device(sim, "far", position=Point(9000.0, 9000.0))
        assert framework._presence_probability(far, task) == 0.0

    def test_devices_without_sensor_not_recruited(self):
        sim = Simulator()
        from repro.devices.profiles import profile_by_model

        nobaro = make_device(
            sim, "nobaro", position=CENTER, profile=profile_by_model("Moto E")
        )
        ok = make_device(sim, "ok", position=CENTER)
        framework = make_framework(sim, [nobaro, ok])
        task = make_spec(spatial_density=1)
        framework.add_task(task)
        assert framework.plans[task.task_id].recruited == ["ok"]


class TestCampaignBehaviour:
    def test_recruited_cohort_uploads_every_tick(self):
        sim = Simulator()
        devices = [make_device(sim, f"d{i}", position=CENTER) for i in range(4)]
        framework = make_framework(sim, devices)
        framework.add_task(make_spec(spatial_density=2, sampling_duration_s=1800.0))
        sim.run(until=1900.0)
        # Stationary in-region devices: cohort of 2 × 3 ticks.
        assert framework.stats.uploads == 6
        assert framework.stats.data_points_delivered == 6
        assert framework.coverage_shortfalls == 0

    def test_shortfall_when_recruits_wander_off(self):
        sim = Simulator()

        class Leaver:
            def __init__(self, leave_at):
                self._leave_at = leave_at

            def position_at(self, time):
                return CENTER if time < self._leave_at else Point(9000.0, 9000.0)

        device = make_device(sim, "d0", position=CENTER)
        device.mobility = Leaver(leave_at=500.0)
        framework = make_framework(sim, [device])
        framework.add_task(make_spec(spatial_density=1, sampling_duration_s=1800.0))
        sim.run(until=1900.0)
        # Tick at t=0 covered; ticks at 600 and 1200 missed entirely —
        # the non-adaptive recruitment failure mode.
        assert framework.stats.uploads == 1
        assert framework.coverage_shortfalls == 2

    def test_energy_cost_is_cold_per_upload(self):
        sim = Simulator()
        device = make_device(sim, "d0", position=CENTER)
        framework = make_framework(sim, [device])
        framework.add_task(make_spec(spatial_density=1, sampling_duration_s=1800.0))
        sim.run(until=1900.0)
        cold = device.modem.profile.cold_upload_energy_j(600)
        assert device.crowdsensing_energy_j() == pytest.approx(
            3 * (cold + 0.022), rel=0.02
        )

    def test_unrecruited_devices_spend_nothing(self):
        sim = Simulator()
        inside = make_device(sim, "in0", position=CENTER)
        spare = make_device(sim, "in1", position=CENTER)
        framework = make_framework(sim, [inside, spare])
        framework.add_task(make_spec(spatial_density=1, sampling_duration_s=600.0))
        sim.run(until=700.0)
        recruited = framework.plans[framework.tasks[0].task_id].recruited
        assert len(recruited) == 1
        others = {d.device_id for d in framework.devices} - set(recruited)
        for device in framework.devices:
            if device.device_id in others:
                assert device.crowdsensing_energy_j() == 0.0
