"""Unit tests for the event primitives and the simulator's event heap."""

from __future__ import annotations

import pytest

from repro.sim.engine import Simulator
from repro.sim.events import Event


class TestEvent:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Event(-1.0, 0, lambda: None)

    def test_cancel_prevents_fire(self):
        fired = []
        event = Event(1.0, 0, fired.append, args=("x",))
        event.cancel()
        event.fire()
        assert fired == []

    def test_fire_invokes_callback_with_args(self):
        fired = []
        event = Event(1.0, 0, fired.append, args=("x",))
        event.fire()
        assert fired == ["x"]

    def test_cancel_is_idempotent(self):
        event = Event(1.0, 0, lambda: None)
        event.cancel()
        event.cancel()
        assert event.cancelled

    def test_ordering_by_time(self):
        early = Event(1.0, 5, lambda: None)
        late = Event(2.0, 0, lambda: None)
        assert early < late

    def test_ordering_by_priority_at_same_time(self):
        high = Event(1.0, 5, lambda: None, priority=-10)
        low = Event(1.0, 0, lambda: None, priority=0)
        assert high < low

    def test_ordering_by_sequence_as_tiebreak(self):
        first = Event(1.0, 0, lambda: None)
        second = Event(1.0, 1, lambda: None)
        assert first < second


class TestEventQueue:
    """The simulator's event heap, driven through its public calls:
    ``schedule_at`` pushes, ``run(max_events=1)`` pops and fires the
    head, ``cancel`` and ``pending_events``."""

    @staticmethod
    def pop(sim):
        """Fire the next live event; returns its time, or None."""
        return sim.now if sim.run(max_events=1) else None

    def test_empty_queue(self):
        sim = Simulator()
        assert sim.pending_events == 0
        assert self.pop(sim) is None
        assert sim.now == 0.0

    def test_push_pop_in_time_order(self):
        sim = Simulator()
        sim.schedule_at(3.0, lambda: "c")
        sim.schedule_at(1.0, lambda: "a")
        sim.schedule_at(2.0, lambda: "b")
        times = [self.pop(sim) for _ in range(3)]
        assert times == [1.0, 2.0, 3.0]

    def test_same_time_pops_in_insertion_order(self):
        sim = Simulator()
        order = []
        sim.schedule_at(1.0, order.append, "first")
        sim.schedule_at(1.0, order.append, "second")
        self.pop(sim)
        self.pop(sim)
        assert order == ["first", "second"]

    def test_priority_beats_insertion_order(self):
        sim = Simulator()
        order = []
        sim.schedule_at(1.0, order.append, "late", priority=0)
        sim.schedule_at(1.0, order.append, "early", priority=-1)
        self.pop(sim)
        self.pop(sim)
        assert order == ["early", "late"]

    def test_cancelled_events_are_skipped(self):
        sim = Simulator()
        event = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        sim.cancel(event)
        assert sim.pending_events == 1
        assert self.pop(sim) == 2.0

    def test_peek_time_skips_cancelled_head(self):
        sim = Simulator()
        event = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(5.0, lambda: None)
        sim.cancel(event)
        assert self.pop(sim) == 5.0

    def test_clear(self):
        """Cancelling every event leaves nothing to fire."""
        sim = Simulator()
        sim.cancel(sim.schedule_at(1.0, lambda: None))
        assert sim.pending_events == 0
        assert self.pop(sim) is None

    def test_live_count_tracks_pushes_and_pops(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        assert sim.pending_events == 2
        self.pop(sim)
        assert sim.pending_events == 1
