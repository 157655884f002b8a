"""Unit tests for random streams and metric primitives."""

from __future__ import annotations

import pytest

from repro.sim.metrics import Counter, MetricsRegistry, TimeSeries
from repro.sim.rng import RandomStreams


class TestRandomStreams:
    def test_same_name_same_stream_object(self):
        streams = RandomStreams(1)
        assert streams.stream("a") is streams.stream("a")

    def test_reproducible_across_instances(self):
        a = RandomStreams(42).stream("mobility").random()
        b = RandomStreams(42).stream("mobility").random()
        assert a == b

    def test_different_names_independent(self):
        streams = RandomStreams(42)
        a = streams.stream("a").random()
        b = streams.stream("b").random()
        assert a != b

    def test_creation_order_does_not_matter(self):
        s1 = RandomStreams(7)
        s1.stream("first")
        v1 = s1.stream("second").random()
        s2 = RandomStreams(7)
        v2 = s2.stream("second").random()
        assert v1 == v2

    def test_different_seeds_differ(self):
        assert RandomStreams(1).stream("x").random() != RandomStreams(2).stream(
            "x"
        ).random()

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            RandomStreams(1).stream("")

    def test_spawn_is_deterministic(self):
        a = RandomStreams(5).spawn("child").stream("x").random()
        b = RandomStreams(5).spawn("child").stream("x").random()
        assert a == b

    def test_spawn_differs_from_parent(self):
        parent = RandomStreams(5)
        child = parent.spawn("child")
        assert parent.stream("x").random() != child.stream("x").random()


class TestCounter:
    def test_add(self):
        counter = Counter("c")
        counter.add()
        counter.add(2.5)
        assert counter.value == 3.5

    def test_cannot_decrease(self):
        with pytest.raises(ValueError):
            Counter("c").add(-1)


class TestTimeSeries:
    def test_record_and_read(self):
        series = TimeSeries("s")
        series.record(1.0, 10.0)
        series.record(2.0, 20.0)
        assert series.samples == [(1.0, 10.0), (2.0, 20.0)]
        assert len(series) == 2
        assert series.last() == (2.0, 20.0)

    def test_out_of_order_rejected(self):
        series = TimeSeries("s")
        series.record(2.0, 1.0)
        with pytest.raises(ValueError):
            series.record(1.0, 1.0)

    def test_empty_last(self):
        assert TimeSeries("s").last() is None


class TestMetricsRegistry:
    def test_counter_is_cached(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_series_is_cached(self):
        registry = MetricsRegistry()
        assert registry.series("x") is registry.series("x")

    def test_counter_values(self):
        registry = MetricsRegistry()
        registry.counter("a").add(2)
        registry.counter("b").add(3)
        assert registry.counter_values() == {"a": 2, "b": 3}

    def test_series_names_sorted(self):
        registry = MetricsRegistry()
        registry.series("zeta")
        registry.series("alpha")
        assert registry.series_names() == ["alpha", "zeta"]
