"""Tests for the analysis helpers (energy, fairness, trace, tables)."""

from __future__ import annotations

import pytest

from repro.analysis.energy import (
    min_mean_max,
    savings_pct,
    summarize_devices,
)
from repro.analysis.fairness import (
    fairness_report,
    ideal_spread,
    is_fair_rotation,
    jain_index,
    selection_spread,
)
from repro.analysis.tables import format_min_mean_max, format_percent, format_table
from repro.analysis.trace import RadioTraceRecorder
from repro.cellular.packets import TrafficCategory
from repro.cellular.rrc import RRCState
from repro.sim.engine import Simulator
from tests.conftest import make_device


class TestSavings:
    def test_savings_pct(self):
        assert savings_pct(10.0, 100.0) == pytest.approx(90.0)
        assert savings_pct(100.0, 100.0) == 0.0
        assert savings_pct(150.0, 100.0) == pytest.approx(-50.0)

    def test_zero_comparison(self):
        assert savings_pct(5.0, 0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            savings_pct(-1.0, 10.0)

    def test_min_mean_max(self):
        assert min_mean_max([3.0, 1.0, 2.0]) == (1.0, 2.0, 3.0)
        with pytest.raises(ValueError):
            min_mean_max([])


class TestEnergySummary:
    def test_summarize_devices(self):
        sim = Simulator()
        devices = [make_device(sim, f"d{i}") for i in range(3)]
        devices[0].ledger.charge(TrafficCategory.CROWDSENSING, 600.0, "x")
        devices[1].ledger.charge(TrafficCategory.CROWDSENSING, 100.0, "x")
        summary = summarize_devices(devices)
        assert summary.total_j == pytest.approx(700.0)
        assert summary.device_count == 3
        assert summary.mean_per_device_j == pytest.approx(700.0 / 3)
        assert summary.max_per_device_j == pytest.approx(600.0)
        assert summary.devices_over_2pct() == 1

    def test_empty_summary(self):
        summary = summarize_devices([])
        assert summary.total_j == 0.0
        assert summary.mean_per_device_j == 0.0
        assert summary.max_per_device_j == 0.0


class TestFairness:
    def test_jain_perfectly_fair(self):
        assert jain_index([2, 2, 2, 2]) == pytest.approx(1.0)

    def test_jain_unfair(self):
        assert jain_index([4, 0, 0, 0]) == pytest.approx(0.25)

    def test_jain_empty_and_zero(self):
        assert jain_index([]) == 1.0
        assert jain_index([0, 0]) == 1.0

    def test_selection_spread(self):
        assert selection_spread([1, 2, 1]) == (1, 2)
        assert selection_spread([]) == (0, 0)

    def test_ideal_spread_fig9(self):
        """18 selections over 11 devices → each once or twice."""
        assert ideal_spread(18, 11) == (1, 2)
        assert ideal_spread(22, 11) == (2, 2)

    def test_ideal_spread_validation(self):
        with pytest.raises(ValueError):
            ideal_spread(5, 0)

    def test_is_fair_rotation(self):
        counts = {f"d{i}": 2 if i < 7 else 1 for i in range(11)}
        assert is_fair_rotation(counts, 18)
        counts["d0"] = 5
        assert not is_fair_rotation(counts, 18)

    def test_fairness_report(self):
        report = fairness_report({"a": 1, "b": 2})
        assert report["devices"] == 2
        assert report["total_selections"] == 3
        assert report["min_selections"] == 1
        assert report["max_selections"] == 2


class TestTrace:
    def _traced_device(self):
        sim = Simulator()
        device = make_device(sim)
        recorder = RadioTraceRecorder(sim, device.modem)
        return sim, device, recorder

    def test_segments_capture_transitions(self):
        sim, device, recorder = self._traced_device()
        device.modem.transmit(600, TrafficCategory.BACKGROUND)
        sim.run(until=30.0)
        states = [s.state for s in recorder.segments(closed_at=30.0)]
        assert states == [
            RRCState.IDLE,
            RRCState.PROMOTING,
            RRCState.ACTIVE,
            RRCState.TAIL,
            RRCState.IDLE,
        ]

    def test_time_in_state_matches_profile(self):
        sim, device, recorder = self._traced_device()
        device.modem.transmit(600, TrafficCategory.BACKGROUND)
        sim.run(until=30.0)
        profile = device.modem.profile
        assert recorder.time_in_state(RRCState.TAIL, until=30.0) == pytest.approx(
            profile.tail_s
        )
        assert recorder.time_in_state(
            RRCState.PROMOTING, until=30.0
        ) == pytest.approx(profile.promotion_s)

    def test_tail_segments(self):
        sim, device, recorder = self._traced_device()
        device.modem.transmit(600, TrafficCategory.BACKGROUND)
        sim.run(until=30.0)
        tails = recorder.tail_segments(until=30.0)
        assert len(tails) == 1
        assert tails[0].duration == pytest.approx(device.modem.profile.tail_s)

    def test_ascii_render(self):
        sim, device, recorder = self._traced_device()
        device.modem.transmit(600, TrafficCategory.BACKGROUND)
        sim.run(until=20.0)
        strip = recorder.render_ascii(until=20.0, resolution_s=1.0)
        assert strip[0] == "P"  # transmission started at t=0
        assert "t" in strip
        assert strip[-1] == "."

    def test_ascii_render_validation(self):
        sim, device, recorder = self._traced_device()
        with pytest.raises(ValueError):
            recorder.render_ascii(until=10.0, resolution_s=0.0)
        with pytest.raises(ValueError):
            recorder.render_ascii(until=10.0, start=20.0)


class TestTables:
    def test_format_table_aligns(self):
        table = format_table(["a", "bb"], [(1, 2.5), (10, 3.25)])
        lines = table.splitlines()
        assert lines[0].startswith("a")
        assert "2.5" in table
        assert "10" in table

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a"], [(1, 2)])

    def test_title_included(self):
        table = format_table(["a"], [(1,)], title="My Table")
        assert table.splitlines()[0] == "My Table"

    def test_percent_formats(self):
        assert format_percent(93.25) == "93.2%"
        assert format_min_mean_max(1.0, 2.0, 3.0) == "2.0% (1.0%, 3.0%)"
