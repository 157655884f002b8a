"""Tests for diurnal traffic modulation and the diurnal experiment."""

from __future__ import annotations

import pytest

from repro.devices.traffic import TrafficPattern, diurnal_modulator
from repro.experiments import diurnal
from repro.sim.engine import Simulator
from tests.conftest import make_device


class TestDiurnalModulator:
    def test_phases(self):
        assert diurnal_modulator(3 * 3600.0) == 5.0     # night
        assert diurnal_modulator(12 * 3600.0) == 1.0    # day
        assert diurnal_modulator(20 * 3600.0) == 0.6    # evening
        assert diurnal_modulator(23.75 * 3600.0) == 5.0 # late night

    def test_wraps_past_midnight(self):
        assert diurnal_modulator(27 * 3600.0) == diurnal_modulator(3 * 3600.0)

    def test_traffic_rate_follows_modulation(self):
        def sessions_between(start_h, end_h):
            total = 0
            for seed in range(5):
                sim = Simulator(seed=seed)
                device = make_device(
                    sim, "d", traffic_pattern=TrafficPattern(mean_gap_s=300.0)
                )
                device.traffic.set_gap_modulator(diurnal_modulator)
                device.traffic.start()
                sim.run(until=start_h * 3600.0)
                before = device.traffic.sessions
                sim.run(until=end_h * 3600.0)
                total += device.traffic.sessions - before
            return total

        night = sessions_between(0.0, 4.0)
        day = sessions_between(10.0, 14.0)
        assert day > 2 * night

    def test_set_modulator_none_restores_flat_rate(self):
        sim = Simulator(seed=1)
        device = make_device(sim, "d")
        device.traffic.set_gap_modulator(diurnal_modulator)
        device.traffic.set_gap_modulator(None)
        assert device.traffic._current_mean_gap() == pytest.approx(
            device.traffic._pattern.mean_gap_s
        )


class TestDiurnalExperiment:
    @pytest.fixture(scope="class")
    def rows(self):
        return diurnal.run(seed=7)

    def test_six_windows(self, rows):
        assert len(rows) == 6
        assert rows[0].window_label == "00:00-04:00"

    def test_sense_aid_always_wins(self, rows):
        for row in rows:
            assert row.sense_aid_j < row.periodic_j

    def test_savings_track_phone_usage(self, rows):
        """Quiet nights starve the tail-riding: the overnight saving is
        the smallest of the day."""
        night = rows[0].saving_pct
        waking = [r.saving_pct for r in rows[2:]]
        assert min(waking) > night

    def test_periodic_roughly_flat(self, rows):
        """Periodic pays per tick regardless of user activity."""
        energies = [r.periodic_j for r in rows]
        assert max(energies) < 1.5 * min(energies)
