"""Unit tests for the simulator engine, clock, and periodic processes."""

from __future__ import annotations

import ast
import heapq
from pathlib import Path

import pytest

from repro.sim import engine
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.sim.processes import PeriodicProcess

SRC = Path(__file__).resolve().parents[1] / "src"
NAN = float("nan")


class TestSimClock:
    """Simulated time lives on the simulator and only ``run`` moves it."""

    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_custom_start(self):
        assert Simulator(start_time=5.0).now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            Simulator(start_time=-1.0)

    def test_advance(self):
        sim = Simulator()
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_cannot_move_backwards(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(ValueError):
            sim.run(until=4.0)


class TestSimulator:
    def test_schedule_and_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "a")
        sim.schedule(3.0, fired.append, "b")
        processed = sim.run()
        assert processed == 2
        assert fired == ["b", "a"]
        assert sim.now == 5.0

    def test_run_until_advances_clock_past_last_event(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_until_leaves_future_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "late")
        sim.run(until=3.0)
        assert fired == []
        assert sim.pending_events == 1
        sim.run(until=10.0)
        assert fired == ["late"]

    def test_schedule_at_absolute(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(7.0, fired.append, "x")
        sim.run()
        assert sim.now == 7.0
        assert fired == ["x"]

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_cancel(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        sim.cancel(event)
        sim.run()
        assert fired == []
        assert sim.pending_events == 0

    def test_cancel_none_is_noop(self):
        sim = Simulator()
        sim.cancel(None)

    def test_events_scheduled_during_run_fire(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            if len(fired) < 3:
                sim.schedule(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_max_events_bound(self):
        sim = Simulator()

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(1.0, forever)
        processed = sim.run(max_events=10)
        assert processed == 10
        assert sim.run(max_events=0) == 0
        assert sim.run(max_events=-1) == 0

    def test_not_reentrant(self):
        sim = Simulator()
        errors = []

        def recurse():
            try:
                sim.run()
            except RuntimeError as exc:
                errors.append(exc)

        sim.schedule(1.0, recurse)
        sim.run()
        assert len(errors) == 1

    def test_max_events_stop_leaves_the_clock_at_the_last_event(self):
        """A call stopped by ``max_events`` must not jump the clock past
        events still due before ``until``."""
        sim = Simulator()
        fired = []
        sim.schedule_at(3.0, fired.append, 3.0)
        sim.schedule_at(5.0, fired.append, 5.0)
        assert sim.run(until=10.0, max_events=1) == 1
        assert sim.now == 3.0
        assert sim.run(until=20.0) == 1
        assert fired == [3.0, 5.0]
        assert sim.now == 20.0

    def test_max_events_stop_with_nothing_left_due_reaches_until(self):
        sim = Simulator()
        sim.schedule_at(3.0, lambda: None)
        sim.schedule_at(15.0, lambda: None)
        assert sim.run(until=10.0, max_events=1) == 1
        assert sim.now == 10.0
        assert sim.pending_events == 1

    def test_cancel_after_fire_is_a_noop(self):
        sim = Simulator()
        first = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        sim.run(until=1.5)
        sim.cancel(first)
        first.cancel()
        assert not first.cancelled
        assert sim.pending_events == 1
        assert sim.run() == 1
        assert sim.pending_events == 0

    def test_event_cancelling_itself_as_it_fires_keeps_the_count(self):
        """A forced upload cancels its own deadline timer while it fires."""
        sim = Simulator()
        timer = []
        timer.append(sim.schedule_at(1.0, lambda: sim.cancel(timer[0])))
        sim.schedule_at(2.0, lambda: None)
        sim.run(until=1.5)
        assert sim.pending_events == 1

    def test_determinism_same_seed(self):
        def trace(seed):
            sim = Simulator(seed=seed)
            rng = sim.rng.stream("test")
            values = []
            for i in range(5):
                sim.schedule(rng.random() * 10, values.append, i)
            sim.run()
            return values

        assert trace(99) == trace(99)


class TestNaNRejected:
    """NaN compares false with everything, so every guard is written
    ``not (x >= bound)`` and rejects it."""

    def test_schedule(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(NAN, lambda: None)
        assert sim.pending_events == 0

    def test_schedule_at(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule_at(NAN, lambda: None)
        assert sim.pending_events == 0

    def test_run_until(self):
        sim = Simulator()
        # One event, so a kernel that accepts NaN fails here instead of
        # ticking forever.
        sim.schedule(1.0, lambda: None)
        with pytest.raises(ValueError):
            sim.run(until=NAN)
        assert sim.events_processed == 0
        assert sim.now == 0.0

    def test_start_time(self):
        with pytest.raises(ValueError):
            Simulator(start_time=NAN)

    def test_event_time(self):
        with pytest.raises(ValueError):
            Event(NAN, 0, lambda: None)

    def test_periodic_period(self):
        with pytest.raises(ValueError, match="period"):
            PeriodicProcess(Simulator(), NAN, lambda: None)


class TestDispatch:
    """Every event costs one heap push, one heap pop and one ``Event.fire``."""

    def test_patched_fire_sees_every_dispatch_in_order(self, monkeypatch):
        """The e2e tracer wraps ``Event.fire`` on the class; the kernel
        must dispatch each event through it, with the clock at its time."""
        sim = Simulator()
        calls, ran = [], []
        original = Event.fire

        def fire(event):
            calls.append((event, sim.now, event.cancelled))
            original(event)

        monkeypatch.setattr(Event, "fire", fire)

        def step(label):
            ran.append(label)
            if label == "b":
                made.append(sim.schedule(1.0, step, "b2"))

        made = [
            sim.schedule_at(time, step, label, priority=priority)
            for time, label, priority in [
                (2.0, "c", 0),
                (1.0, "b", 0),
                (1.0, "a", -10),
                (3.0, "x", 0),
                (2.0, "d", 10),
            ]
        ]
        sim.cancel(made[3])
        assert sim.run() == 5
        assert ran == ["a", "b", "c", "b2", "d"]
        assert [event.args[0] for event, _, _ in calls] == ran
        live = [event for event in made if not event.cancelled]
        assert [event for event, _, _ in calls] == sorted(live, key=Event.sort_key)
        assert all(now == event.time for event, now, _ in calls)
        assert not any(cancelled for _, _, cancelled in calls)

    def test_every_entry_is_pushed_and_popped_once(self, monkeypatch):
        """Live or cancelled, each scheduled event is pushed onto the heap
        once and popped once, however the runs are cut; each live one
        fires once."""
        pushed, popped, fired = [], [], []

        def push(heap, entry):
            pushed.append(entry[3])
            heapq.heappush(heap, entry)

        def pop(heap):
            entry = heapq.heappop(heap)
            popped.append(entry[3])
            return entry

        original = Event.fire

        def fire(event):
            fired.append(event)
            original(event)

        monkeypatch.setattr(engine, "heappush", push)
        monkeypatch.setattr(engine, "heappop", pop)
        monkeypatch.setattr(Event, "fire", fire)

        sim = Simulator(seed=5)
        rng = sim.rng.stream("heap")

        def echo(depth):
            if depth:
                sim.schedule(rng.random() * 10.0, echo, depth - 1)

        events = [
            sim.schedule(
                rng.random() * 100.0, echo, 2, priority=rng.choice([-10, 0, 10])
            )
            for _ in range(200)
        ]
        for event in events[::3]:
            sim.cancel(event)
        for until in (10.0, 25.0, 25.0, 60.0):
            sim.run(until=until)
        sim.run(max_events=7)
        sim.run()

        assert len(pushed) == 200 + 2 * 133
        assert len({id(event) for event in popped}) == len(popped)
        assert {id(event) for event in popped} == {id(event) for event in pushed}
        cancelled = [event for event in pushed if event.cancelled]
        assert len(cancelled) == 67
        assert len(fired) == len(pushed) - len(cancelled) == sim.events_processed
        assert len({id(event) for event in fired}) == len(fired)
        assert sim.pending_events == 0


#: Modules that may assign an attribute named ``now``, relative to
#: ``src/repro``: the simulator, whose ``run`` moves simulated time, and
#: the service's hand-cranked ``ManualClock``.
NOW_WRITERS = {"sim/engine.py", "service/server.py"}


def test_only_the_simulator_and_the_manual_clock_assign_now():
    """``sim.now`` is a plain attribute; no other module may write it."""
    writers = set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            store = (
                isinstance(node, ast.Attribute)
                and node.attr == "now"
                and not isinstance(node.ctx, ast.Load)
            )
            dynamic = (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("setattr", "delattr")
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value == "now"
            )
            if store or dynamic:
                writers.add(path.relative_to(SRC / "repro").as_posix())
    assert "sim/engine.py" in writers
    assert sorted(writers - NOW_WRITERS) == []


class TestPeriodicProcess:
    def test_fires_every_period(self):
        sim = Simulator()
        ticks = []
        PeriodicProcess(sim, 10.0, lambda: ticks.append(sim.now))
        sim.run(until=35.0)
        assert ticks == [10.0, 20.0, 30.0]

    def test_stop(self):
        sim = Simulator()
        ticks = []
        process = PeriodicProcess(sim, 10.0, lambda: ticks.append(sim.now))
        sim.run(until=15.0)
        process.stop()
        sim.run(until=100.0)
        assert ticks == [10.0]
        assert process.stopped

    def test_stop_from_callback(self):
        sim = Simulator()
        process = PeriodicProcess(sim, 5.0, lambda: process.stop())
        sim.run(until=100.0)
        assert process.firings == 1

    def test_invalid_period(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PeriodicProcess(sim, 0.0, lambda: None)
