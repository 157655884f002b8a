"""Unit tests for the four-factor device selector."""

from __future__ import annotations

import pytest

from repro.core.config import SelectorWeights
from repro.core.selector import TTL_CAP_S, DeviceSelector
from tests.test_core_datastores_queues import make_record

NOW = 1000.0


def selector() -> DeviceSelector:
    return DeviceSelector(SelectorWeights())


class TestScore:
    def test_score_is_linear_combination(self):
        weights = SelectorWeights(alpha=1.0, beta=2.0, gamma=3.0, phi=4.0)
        record = make_record(
            energy_used_j=10.0,
            times_selected=2,
            battery_pct=80.0,
            last_comm_time=NOW - 5.0,
        )
        score = DeviceSelector(weights).score(record, NOW)
        assert score == pytest.approx(1.0 * 10 + 2.0 * 2 + 3.0 * 20 + 4.0 * 5)

    def test_ttl_capped(self):
        weights = SelectorWeights(alpha=0, beta=0, gamma=0, phi=1.0)
        record = make_record(last_comm_time=NOW - 500.0)
        assert DeviceSelector(weights).score(record, NOW) == pytest.approx(TTL_CAP_S)

    def test_never_communicated_gets_worst_ttl(self):
        weights = SelectorWeights(alpha=0, beta=0, gamma=0, phi=1.0)
        record = make_record(last_comm_time=None)
        assert DeviceSelector(weights).score(record, NOW) == pytest.approx(TTL_CAP_S)

    def test_lower_battery_scores_worse(self):
        s = selector()
        full = make_record("full", battery_pct=100.0)
        low = make_record("low", battery_pct=30.0)
        assert s.score(low, NOW) > s.score(full, NOW)

    def test_more_selections_score_worse(self):
        s = selector()
        fresh = make_record("fresh", times_selected=0)
        used = make_record("used", times_selected=3)
        assert s.score(used, NOW) > s.score(fresh, NOW)


class TestEligibility:
    def test_over_budget_ineligible(self):
        verdict = selector().eligibility(make_record(energy_used_j=496.0))
        assert not verdict.eligible
        assert verdict.reason == "over_budget"

    def test_critical_battery_ineligible(self):
        verdict = selector().eligibility(make_record(battery_pct=10.0))
        assert not verdict.eligible
        assert verdict.reason == "critical_battery"

    def test_unresponsive_ineligible(self):
        verdict = selector().eligibility(make_record(responsive=False))
        assert not verdict.eligible
        assert verdict.reason == "unresponsive"

    def test_healthy_device_eligible(self):
        assert selector().eligibility(make_record()).eligible


class TestSelect:
    def _pool(self, n=5):
        return [make_record(f"d{i}") for i in range(n)]

    def test_selects_n_best(self):
        records = self._pool()
        records[2].times_selected = 10  # worst
        selected = selector().select(records, 4, NOW)
        assert selected is not None
        assert "d2" not in selected
        assert len(selected) == 4

    def test_unsatisfiable_returns_none(self):
        """Paper: if n > N the request goes to the wait queue."""
        assert selector().select(self._pool(2), 3, NOW) is None

    def test_ineligible_devices_reduce_pool(self):
        records = self._pool(3)
        records[0].battery_pct = 5.0
        assert selector().select(records, 3, NOW) is None
        assert selector().select(records, 2, NOW) is not None

    def test_equal_scores_tie_break_on_device_id(self):
        selected = selector().select(self._pool(4), 2, NOW)
        assert selected == ["d0", "d1"]

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            selector().select(self._pool(), 0, NOW)

    def test_rank_sorted_best_first(self):
        records = self._pool(3)
        records[0].times_selected = 2
        records[1].times_selected = 1
        ranked = selector().rank(records, NOW)
        assert [r.device_id for r in ranked] == ["d2", "d1", "d0"]

    def test_ineligible_listing(self):
        records = self._pool(3)
        records[1].responsive = False
        bad = selector().ineligible(records)
        assert len(bad) == 1
        assert bad[0].device_id == "d1"


class TestFairnessRotation:
    def test_rotation_through_pool(self):
        """Repeated selections with U-dominant weights rotate fairly —
        the Fig. 9 behaviour."""
        records = [make_record(f"d{i}") for i in range(11)]
        s = selector()
        counts = {r.device_id: 0 for r in records}
        for _ in range(9):  # 9 rounds × 2 picks = Fig. 9's workload
            selected = s.select(records, 2, NOW)
            for device_id in selected:
                counts[device_id] += 1
                next(r for r in records if r.device_id == device_id).times_selected += 1
        assert max(counts.values()) <= 2
        assert min(counts.values()) >= 1

    def test_recently_communicated_preferred_among_equals(self):
        fresh = make_record("fresh", last_comm_time=NOW - 2.0)
        stale = make_record("stale", last_comm_time=NOW - 250.0)
        selected = selector().select([stale, fresh], 1, NOW)
        assert selected == ["fresh"]

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            SelectorWeights(alpha=-1.0)
