"""Edge-case sweep across modules: small behaviours the focused test
files don't reach."""

from __future__ import annotations

import pytest

from repro.baselines.common import BaselineCollector
from repro.cellular.network import CellularNetwork
from repro.cellular.packets import Message, MessageKind, TrafficCategory
from repro.cellular.rrc import RRCState, TailPolicy
from repro.clientlib import SenseAidClient
from repro.core.config import ServerMode
from repro.core.sharding import NearestSite, ShardedSenseAid, ShardSpec
from repro.devices.profiles import population_mix
from repro.environment.geometry import Point
from repro.experiments.common import (
    ArmResult,
    ScenarioConfig,
    TaskParams,
    run_periodic_arm,
    run_sense_aid_arm,
)
from repro.sim.engine import Simulator
from tests.conftest import make_device


class TestNetworkEdges:
    def test_downlink_no_reset_preserves_tail(self):
        sim = Simulator()
        network = CellularNetwork(sim)
        device = make_device(sim, tail_policy=TailPolicy.NO_RESET)
        device.modem.transmit(20_000, TrafficCategory.BACKGROUND)
        sim.run(until=3.0)
        deadline = sim.now + device.modem.tail_remaining()
        network.downlink(
            device,
            Message(
                MessageKind.TASK_ASSIGNMENT,
                "srv",
                128,
                category=TrafficCategory.CROWDSENSING,
            ),
        )
        sim.run(until=deadline + 0.2)
        assert device.modem.state is RRCState.IDLE

    def test_zero_byte_message(self):
        sim = Simulator()
        network = CellularNetwork(sim)
        device = make_device(sim)
        delivered = []
        network.uplink(
            device,
            Message(MessageKind.APP_TRAFFIC, "d", 0),
            on_delivered=lambda m, r: delivered.append(r),
        )
        sim.run(until=30.0)
        assert len(delivered) == 1  # min transfer floor applies


class TestProfilesEdges:
    def test_population_mix_zero(self):
        assert population_mix(0) == []

    def test_population_mix_negative_rejected(self):
        with pytest.raises(ValueError):
            population_mix(-1)

    def test_population_mix_all_without_barometer(self):
        mix = population_mix(4, barometer_fraction=0.0)
        from repro.devices.sensors import SensorType

        assert all(SensorType.BAROMETER not in p.sensors for p in mix)


class TestFederationEdges:
    def _fleet(self, sim, network):
        return ShardedSenseAid(
            sim,
            network,
            [ShardSpec("a", Point(0.0, 0.0)), ShardSpec("b", Point(1000.0, 0.0))],
            placement=NearestSite(),
        )

    def test_instance_for_point(self):
        sim = Simulator()
        network = CellularNetwork(sim)
        fleet = self._fleet(sim, network)
        device = make_device(sim, "near-a", position=Point(10.0, 0.0))
        client = SenseAidClient(sim, device, fleet.instance("b"), network)
        assert fleet.instance(fleet.register(client)) is fleet.instance("a")

    def test_invalid_rebalance_period(self):
        with pytest.raises(ValueError):
            NearestSite(rebalance_period_s=0.0)

    def test_deregister_unknown_is_noop(self):
        sim = Simulator()
        self._fleet(sim, CellularNetwork(sim)).deregister("ghost")


class TestExperimentHarnessEdges:
    def test_task_params_to_spec_window(self):
        from repro.environment.campus import default_campus

        params = TaskParams(start_offset_s=120.0, sampling_duration_s=600.0)
        spec = params.to_spec(default_campus(), "test")
        assert spec.start_time == 120.0
        assert spec.end_time == 720.0
        assert spec.origin == "test"

    def test_arm_requires_tasks(self):
        with pytest.raises(ValueError):
            run_periodic_arm(ScenarioConfig(seed=1), [])
        with pytest.raises(ValueError):
            run_sense_aid_arm(ScenarioConfig(seed=1), [], ServerMode.BASIC)

    def test_active_devices_excludes_idle_ones(self):
        arm = run_sense_aid_arm(
            ScenarioConfig(seed=7),
            [TaskParams(area_radius_m=300.0, sampling_duration_s=600.0)],
            ServerMode.COMPLETE,
        )
        active = arm.active_devices()
        assert 0 < len(active) <= 20
        for device_id, joules in arm.energy.per_device_j.items():
            if device_id in active:
                assert joules > 0
            else:
                assert joules == pytest.approx(0.0, abs=1e-9)

    def test_with_seed_returns_new_config(self):
        config = ScenarioConfig(seed=1)
        other = config.with_seed(2)
        assert other.seed == 2
        assert config.seed == 1

    def test_empty_arm_result_helpers(self):
        from repro.analysis.energy import EnergySummary

        arm = ArmResult(
            name="empty",
            energy=EnergySummary(total_j=0.0, per_device_j={}, device_count=0),
            data_points=0,
            participants_per_request={},
            devices=[],
        )
        assert arm.mean_participants() == 0.0
        assert arm.mean_qualified() == 0.0
        assert arm.mean_energy_per_active_device_j() == 0.0


class TestCollector:
    def test_collector_counts(self):
        collector = BaselineCollector()
        assert len(collector) == 0
        collector.on_delivered(Message(MessageKind.SENSOR_DATA, "d", 600), None)
        assert len(collector) == 1
