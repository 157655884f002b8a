"""Unit tests for background traffic and the composed SimDevice."""

from __future__ import annotations

import pytest

from repro.cellular.packets import TrafficCategory
from repro.cellular.rrc import RRCState
from repro.devices.device import SimDevice, UserPreferences
from repro.devices.profiles import GALAXY_S4, profile_by_model
from repro.devices.sensors import SensorType
from repro.devices.traffic import HEAVY_USER, LIGHT_USER, TrafficPattern
from repro.environment.geometry import Point
from repro.sim.engine import Simulator
from tests.conftest import make_device


class TestTrafficPattern:
    def test_defaults_valid(self):
        TrafficPattern()

    def test_invalid_gap(self):
        with pytest.raises(ValueError):
            TrafficPattern(mean_gap_s=0.0)

    def test_invalid_packets(self):
        with pytest.raises(ValueError):
            TrafficPattern(packets_per_session=0)

    def test_presets(self):
        assert HEAVY_USER.mean_gap_s < TrafficPattern().mean_gap_s
        assert LIGHT_USER.mean_gap_s > TrafficPattern().mean_gap_s


def run_to_first_session(sim: Simulator, device) -> float:
    """Start ``device``'s traffic and run until its first session, the
    only event pending; returns the session's start time."""
    device.traffic.start()
    sim.run(max_events=1)
    return sim.now


class TestBackgroundTraffic:
    def test_sessions_drive_radio(self):
        sim = Simulator(seed=5)
        device = make_device(sim)
        first = run_to_first_session(sim, device)
        sim.run(until=first + 1.0)
        assert device.traffic.sessions == 1
        assert device.modem.state is not RRCState.IDLE

    def test_session_rate_roughly_matches_mean_gap(self):
        counts = []
        for seed in range(10):
            sim = Simulator(seed=seed)
            device = make_device(
                sim, traffic_pattern=TrafficPattern(mean_gap_s=300.0)
            )
            device.traffic.start()
            sim.run(until=3 * 3600.0)
            counts.append(device.traffic.sessions)
        mean = sum(counts) / len(counts)
        # ~3 h / (300 s + ~session) ≈ 35 sessions; generous tolerance.
        assert 22 <= mean <= 42

    def test_session_listeners_invoked(self):
        sim = Simulator(seed=5)
        device = make_device(sim)
        starts = []
        device.traffic.add_session_listener(starts.append)
        first = run_to_first_session(sim, device)
        assert first > 0.0
        assert starts == [first]

    def test_stop_halts_sessions(self):
        sim = Simulator(seed=5)
        device = make_device(sim)
        run_to_first_session(sim, device)
        device.traffic.stop()
        count = device.traffic.sessions
        sim.run(until=3 * 3600.0)
        assert device.traffic.sessions == count

    def test_double_start_rejected(self):
        sim = Simulator(seed=5)
        device = make_device(sim)
        device.traffic.start()
        with pytest.raises(RuntimeError):
            device.traffic.start()

    def test_traffic_charges_background_category(self):
        sim = Simulator(seed=5)
        device = make_device(sim)
        device.traffic.start()
        sim.run(until=3600.0)
        assert device.ledger.total(TrafficCategory.BACKGROUND) > 0
        assert device.crowdsensing_energy_j() == 0.0


class TestUserPreferences:
    def test_defaults(self):
        prefs = UserPreferences()
        assert prefs.energy_budget_j == 496.0
        assert prefs.critical_battery_pct == 20.0
        assert prefs.participating

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            UserPreferences(energy_budget_j=-1.0)

    def test_invalid_critical_level(self):
        with pytest.raises(ValueError):
            UserPreferences(critical_battery_pct=150.0)


class TestSimDevice:
    def test_imei_hash_is_stable_and_opaque(self):
        sim = Simulator()
        a = make_device(sim, "d1", imei="356938035643809")
        b = SimDevice(sim, "d2", imei="356938035643809")
        assert a.imei_hash == b.imei_hash
        assert "356938" not in a.imei_hash
        assert len(a.imei_hash) == 64

    def test_position_follows_mobility(self):
        sim = Simulator()
        device = make_device(sim, position=Point(7.0, 9.0))
        assert device.position() == Point(7.0, 9.0)

    def test_sample_charges_crowdsensing_and_battery(self):
        sim = Simulator()
        device = make_device(sim)
        before = device.battery.remaining_j
        reading = device.sample(SensorType.BAROMETER)
        assert device.crowdsensing_energy_j() == pytest.approx(reading.energy_j)
        assert device.battery.remaining_j == pytest.approx(before - reading.energy_j)
        assert device.samples_taken == 1

    def test_radio_energy_drains_battery(self):
        sim = Simulator()
        device = make_device(sim)
        before = device.battery.remaining_j
        device.modem.transmit(600, TrafficCategory.CROWDSENSING)
        sim.run(until=30.0)
        drained = before - device.battery.remaining_j
        assert drained == pytest.approx(device.crowdsensing_energy_j())

    def test_profile_battery_used(self):
        sim = Simulator()
        device = make_device(sim, profile=GALAXY_S4)
        expected = 2.6 * 3600.0 * 3.8
        assert device.battery.capacity_j == pytest.approx(expected)

    def test_profile_sensor_restrictions(self):
        sim = Simulator()
        device = make_device(sim, profile=profile_by_model("Moto E"))
        assert not device.sensors.has(SensorType.BAROMETER)
        with pytest.raises(KeyError):
            device.sample(SensorType.BAROMETER)

    def test_over_energy_budget(self):
        sim = Simulator()
        device = make_device(
            sim, preferences=UserPreferences(energy_budget_j=0.01)
        )
        assert not device.over_energy_budget()
        device.sample(SensorType.BAROMETER)
        assert device.over_energy_budget()

    def test_below_critical_battery(self):
        sim = Simulator()
        device = make_device(
            sim,
            initial_battery_pct=15.0,
            preferences=UserPreferences(critical_battery_pct=20.0),
        )
        assert device.below_critical_battery()

    def test_crowdsensing_battery_pct(self):
        sim = Simulator()
        device = make_device(sim)
        device.ledger.charge(TrafficCategory.CROWDSENSING, 247.536, "x")
        assert device.crowdsensing_battery_pct() == pytest.approx(1.0, rel=1e-3)
