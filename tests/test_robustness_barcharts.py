"""Tests for the robustness experiment and the bar-chart renderer."""

from __future__ import annotations

import pytest

from repro.analysis.tables import format_bar_chart
from repro.experiments import exp1_radius, robustness
from repro.experiments.common import COMPARISONS, ScenarioConfig


class TestBarChart:
    def test_scales_to_peak(self):
        chart = format_bar_chart([("a", 100.0), ("b", 50.0)], width=10)
        lines = chart.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_zero_value_gets_no_bar(self):
        chart = format_bar_chart([("a", 10.0), ("b", 0.0)], width=10)
        assert chart.splitlines()[1].count("#") == 0

    def test_tiny_value_still_visible(self):
        chart = format_bar_chart([("a", 1000.0), ("b", 0.1)], width=10)
        assert chart.splitlines()[1].count("#") == 1

    def test_title_and_values_present(self):
        chart = format_bar_chart([("x", 12.34)], title="T")
        assert chart.splitlines()[0] == "T"
        assert chart.endswith(" 12.3")

    def test_validation(self):
        with pytest.raises(ValueError):
            format_bar_chart([])
        with pytest.raises(ValueError):
            format_bar_chart([("a", 1.0)], width=0)


class TestRobustness:
    @pytest.fixture(scope="class")
    def stats(self):
        return robustness.run(seeds=(7, 8, 9))

    def test_all_comparisons_present(self, stats):
        assert {s.comparison for s in stats} == set(COMPARISONS)
        assert all(s.samples == 3 for s in stats)

    def test_savings_consistently_high(self, stats):
        """The representative-case conclusion holds in every world:
        Sense-Aid saves the large majority of energy."""
        for s in stats:
            assert s.min_pct > 70.0
            assert s.mean_pct > 85.0

    def test_spread_is_small(self, stats):
        for s in stats:
            assert s.max_pct - s.min_pct < 20.0
            assert s.std_pct < 10.0

    def test_complete_at_least_as_good_as_basic(self, stats):
        by_name = {s.comparison: s for s in stats}
        assert (
            by_name["complete_vs_pcs"].mean_pct
            >= by_name["basic_vs_pcs"].mean_pct
        )

    def test_seed_world_is_exp1_1000m_point(self):
        """Each robustness world is Experiment 1's 1000 m point."""
        for seed in (7, 11):
            point = exp1_radius._radius_point(ScenarioConfig(seed=seed), 1000.0)
            assert robustness._seed_savings(seed) == point.savings_row()

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            robustness.run(seeds=())
