"""Tests for the Periodic and PCS baseline frameworks."""

from __future__ import annotations

import pytest

from repro.baselines.pcs import PCSFramework
from repro.baselines.periodic import PeriodicFramework
from repro.cellular.network import CellularNetwork
from repro.cellular.packets import TrafficCategory
from repro.core.tasks import TaskSpec
from repro.devices.sensors import SensorType
from repro.environment.geometry import Point
from repro.sim.engine import Simulator
from tests.conftest import make_device

CENTER = Point(500.0, 500.0)


def make_spec(**kwargs) -> TaskSpec:
    defaults = dict(
        sensor_type=SensorType.BAROMETER,
        center=CENTER,
        area_radius_m=1000.0,
        spatial_density=2,
        sampling_period_s=600.0,
        sampling_duration_s=1800.0,
    )
    defaults.update(kwargs)
    return TaskSpec(**defaults)


def make_devices(sim, n, positions=None):
    return [
        make_device(sim, f"d{i}", position=positions[i] if positions else CENTER)
        for i in range(n)
    ]


class TestPeriodic:
    def test_every_participant_uploads_every_tick(self):
        sim = Simulator()
        network = CellularNetwork(sim)
        devices = make_devices(sim, 3)
        framework = PeriodicFramework(sim, network, devices)
        framework.add_task(make_spec())
        sim.run(until=1900.0)
        assert framework.stats.requests_issued == 3
        assert framework.stats.uploads == 9
        assert framework.stats.data_points_delivered == 9
        assert len(framework.collector) == 9

    def test_out_of_region_devices_excluded(self):
        sim = Simulator()
        network = CellularNetwork(sim)
        devices = make_devices(
            sim, 3, positions=[CENTER, CENTER, Point(9000.0, 9000.0)]
        )
        framework = PeriodicFramework(sim, network, devices)
        framework.add_task(make_spec(area_radius_m=500.0, sampling_duration_s=600.0))
        sim.run(until=650.0)
        assert framework.stats.participants_per_request == {
            list(framework.stats.participants_per_request)[0]: 2
        }

    def test_every_upload_pays_cold_cost_when_idle(self):
        sim = Simulator()
        network = CellularNetwork(sim)
        devices = make_devices(sim, 1)
        framework = PeriodicFramework(sim, network, devices)
        framework.add_task(make_spec(sampling_duration_s=1800.0))
        sim.run(until=1900.0)
        device = devices[0]
        cold = device.modem.profile.cold_upload_energy_j(600)
        sensor = 0.022
        assert device.crowdsensing_energy_j() == pytest.approx(
            3 * (cold + sensor), rel=0.02
        )

    def test_device_without_sensor_skipped(self):
        sim = Simulator()
        network = CellularNetwork(sim)
        from repro.devices.profiles import profile_by_model

        devices = [
            make_device(sim, "ok", position=CENTER),
            make_device(
                sim, "nobaro", position=CENTER, profile=profile_by_model("Moto E")
            ),
        ]
        framework = PeriodicFramework(sim, network, devices)
        framework.add_task(make_spec(sampling_duration_s=600.0))
        sim.run(until=650.0)
        assert framework.stats.uploads == 1


class TestPCS:
    def test_invalid_accuracy(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PCSFramework(sim, CellularNetwork(sim), [], accuracy=1.5)

    def test_zero_accuracy_equals_periodic_cost(self):
        """With accuracy 0 every upload is a deadline fallback."""
        sim = Simulator(seed=4)
        network = CellularNetwork(sim)
        devices = make_devices(sim, 2)
        framework = PCSFramework(sim, network, devices, accuracy=0.0)
        framework.add_task(make_spec(sampling_duration_s=1800.0))
        sim.run(until=1900.0)
        assert framework.stats.uploads_forced == 6
        assert framework.stats.uploads_piggybacked == 0

    def test_piggybacks_on_real_sessions(self):
        sim = Simulator(seed=4)
        network = CellularNetwork(sim)
        devices = make_devices(sim, 2)
        for device in devices:
            device.traffic.start()
        framework = PCSFramework(sim, network, devices, accuracy=1.0)
        framework.add_task(make_spec(sampling_duration_s=600.0))
        sim.run(until=650.0)
        assert framework.stats.uploads_piggybacked >= 1
        assert framework.stats.uploads == 2

    def test_no_session_forces_fallback_even_with_good_prediction(self):
        sim = Simulator(seed=4)
        network = CellularNetwork(sim)
        devices = make_devices(sim, 1)  # no traffic started
        framework = PCSFramework(sim, network, devices, accuracy=1.0)
        framework.add_task(make_spec(sampling_duration_s=600.0))
        sim.run(until=650.0)
        assert framework.stats.uploads_forced == 1
        assert framework.stats.data_points_delivered == 1

    def test_oracle_sessions_guarantee_piggyback(self):
        sim = Simulator(seed=4)
        network = CellularNetwork(sim)
        devices = make_devices(sim, 2)
        framework = PCSFramework(
            sim, network, devices, accuracy=1.0, oracle_sessions=True
        )
        framework.add_task(make_spec(sampling_duration_s=1800.0))
        sim.run(until=1900.0)
        assert framework.stats.uploads_piggybacked == 6
        assert framework.stats.uploads_forced == 0

    def test_oracle_piggyback_is_cheap(self):
        sim = Simulator(seed=4)
        network = CellularNetwork(sim)
        devices = make_devices(sim, 1)
        framework = PCSFramework(
            sim, network, devices, accuracy=1.0, oracle_sessions=True
        )
        framework.add_task(make_spec(sampling_duration_s=1800.0))
        sim.run(until=1900.0)
        cold = devices[0].modem.profile.cold_upload_energy_j(600)
        assert devices[0].crowdsensing_energy_j() < cold / 2

    def test_accuracy_monotonically_reduces_energy(self):
        def energy(accuracy):
            sim = Simulator(seed=4)
            network = CellularNetwork(sim)
            devices = make_devices(sim, 3)
            framework = PCSFramework(
                sim, network, devices, accuracy=accuracy, oracle_sessions=True
            )
            framework.add_task(make_spec(sampling_duration_s=3600.0))
            sim.run(until=3700.0)
            return sum(d.crowdsensing_energy_j() for d in devices)

        low, mid, high = energy(0.0), energy(0.5), energy(1.0)
        assert low > mid > high

    def test_all_samples_delivered_regardless_of_accuracy(self):
        """PCS never sacrifices data quality — late predictions fall
        back to a deadline upload."""
        for accuracy in (0.0, 0.5, 1.0):
            sim = Simulator(seed=9)
            network = CellularNetwork(sim)
            devices = make_devices(sim, 2)
            for device in devices:
                device.traffic.start()
            framework = PCSFramework(sim, network, devices, accuracy=accuracy)
            framework.add_task(make_spec(sampling_duration_s=1800.0))
            sim.run(until=1900.0)
            assert framework.stats.data_points_delivered == 6

    def test_pending_count_tracks_obligations(self):
        sim = Simulator(seed=4)
        network = CellularNetwork(sim)
        devices = make_devices(sim, 1)
        framework = PCSFramework(sim, network, devices, accuracy=1.0)
        framework.add_task(make_spec(sampling_duration_s=600.0))
        sim.run(until=10.0)
        assert framework.pending_count("d0") == 1
        sim.run(until=650.0)
        assert framework.pending_count("d0") == 0


class TestFrameworkStats:
    def test_mean_participants(self):
        sim = Simulator()
        network = CellularNetwork(sim)
        devices = make_devices(sim, 4)
        framework = PeriodicFramework(sim, network, devices)
        framework.add_task(make_spec(sampling_duration_s=1200.0))
        sim.run(until=1300.0)
        assert framework.stats.mean_participants() == 4.0

    def test_per_device_energy(self):
        sim = Simulator()
        network = CellularNetwork(sim)
        devices = make_devices(sim, 2)
        framework = PeriodicFramework(sim, network, devices)
        framework.add_task(make_spec(sampling_duration_s=600.0))
        sim.run(until=650.0)
        per_device = framework.per_device_energy_j()
        assert set(per_device) == {"d0", "d1"}
        assert framework.total_crowdsensing_energy_j() == pytest.approx(
            sum(per_device.values())
        )
