"""Unit tests for the named random streams."""

from __future__ import annotations

import pytest

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
