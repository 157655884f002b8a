"""Unit tests for the four-factor device selector."""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert selector().cutoff(make_record(energy_used_j=496.0)) == "over_budget"

    def test_critical_battery_ineligible(self):
        assert selector().cutoff(make_record(battery_pct=10.0)) == "critical_battery"

    def test_unresponsive_ineligible(self):
        assert selector().cutoff(make_record(responsive=False)) == "unresponsive"

    def test_healthy_device_eligible(self):
        assert selector().cutoff(make_record()) is None


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
        assert selector().rank(records, NOW) == ["d2", "d1", "d0"]


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


# ----------------------------------------------------------------------
# Equivalence with the verdict-object ranking
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Verdict:
    device_id: str
    score: float
    eligible: bool
    reason: str = ""


def _reference_rank(s: DeviceSelector, candidates, now: float):
    """The ranking as it was first written: one frozen verdict per
    candidate for the cutoffs and another for the score, sorted on a
    ``(score, device_id)`` key."""

    def eligibility(record) -> _Verdict:
        if not record.responsive:
            return _Verdict(record.device_id, float("inf"), False, "unresponsive")
        if record.over_budget():
            return _Verdict(record.device_id, float("inf"), False, "over_budget")
        if record.below_critical_battery():
            return _Verdict(record.device_id, float("inf"), False, "critical_battery")
        return _Verdict(record.device_id, 0.0, True)

    scored = [
        _Verdict(record.device_id, s.score(record, now), True)
        for record in candidates
        if eligibility(record).eligible
    ]
    scored.sort(key=lambda v: (v.score, v.device_id))
    return [v.device_id for v in scored]


_WEIGHTS = st.sampled_from(
    [
        SelectorWeights(),
        SelectorWeights(alpha=0.0, beta=1.0, gamma=0.0, phi=0.0),
        SelectorWeights(alpha=1.0, beta=2.0, gamma=3.0, phi=4.0),
    ]
)
#: Few distinct values per factor, so equal scores are common; each of
#: the three cutoffs is reachable (budget 496 J, critical level 20%).
_RECORD = st.fixed_dictionaries(
    {
        "energy_used_j": st.sampled_from([0.0, 10.0, 496.0]),
        "times_selected": st.integers(min_value=0, max_value=2),
        "battery_pct": st.sampled_from([10.0, 20.0, 60.0, 100.0]),
        "last_comm_time": st.sampled_from([None, NOW - 2.0, NOW - 250.0, NOW - 500.0]),
        "responsive": st.booleans(),
    }
)


@settings(max_examples=300, deadline=None)
@given(_WEIGHTS, st.lists(_RECORD, min_size=1, max_size=12), st.data())
def test_rank_and_select_match_verdict_ranking(weights, fields, data):
    """``rank`` and ``select`` give the verdict ranking's ids and order
    for any pool, in any input order (so a sort that drops the id
    tie-break shows), and ``select`` is None exactly when fewer than
    ``n`` candidates are eligible."""
    s = DeviceSelector(weights)
    records = data.draw(
        st.permutations([make_record(f"d{i:02d}", **f) for i, f in enumerate(fields)])
    )
    expected = _reference_rank(s, records, NOW)
    assert s.rank(records, NOW) == expected
    n = data.draw(st.integers(min_value=1, max_value=len(records) + 1))
    assert s.select(records, n, NOW) == (expected[:n] if len(expected) >= n else None)
