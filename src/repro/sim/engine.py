"""The discrete-event simulation engine.

:class:`Simulator` owns the clock, the event heap, the named random
streams, and the perf probes.  Components receive the simulator at
construction and interact with simulated time exclusively through it.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.clock import SimClock
from repro.sim.events import Event, EventQueue
from repro.sim.perf import PerfRegistry
from repro.sim.rng import RandomStreams

# Priorities for simultaneous events: infrastructure state changes fire
# before application logic reads them, and bookkeeping runs last.
PRIORITY_RADIO = -10
PRIORITY_DEFAULT = 0
PRIORITY_BOOKKEEPING = 10


class Simulator:
    """Deterministic discrete-event simulator."""

    def __init__(self, seed: int = 0, start_time: float = 0.0) -> None:
        self.clock = SimClock(start_time)
        self.rng = RandomStreams(seed)
        #: Wall-clock perf probes for hot paths; never feeds the
        #: simulation, so instrumentation cannot perturb determinism.
        self.perf = PerfRegistry()
        self._queue = EventQueue()
        self._running = False
        self._event_count = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self.clock.now

    @property
    def events_processed(self) -> int:
        return self._event_count

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_DEFAULT,
    ) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay!r}")
        return self._queue.push(self.now + delay, callback, args, priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_DEFAULT,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation time ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past: now={self.now!r}, requested={time!r}"
            )
        return self._queue.push(time, callback, args, priority)

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel a pending event.  None and already-cancelled are no-ops."""
        if event is None or event.cancelled:
            return
        event.cancel()
        self._queue.note_cancelled()

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> int:
        """Process events until the heap empties, ``until`` is reached,
        or ``max_events`` have fired.  Returns the number of events
        processed by this call.

        When ``until`` is given the clock is advanced to exactly
        ``until`` on return even if the last event fired earlier, so
        residency-based energy accounting covers the full window.
        """
        if self._running:
            raise RuntimeError("simulator is not re-entrant")
        self._running = True
        processed = 0
        pop_until = self._queue.pop_until
        advance_to = self.clock.advance_to
        try:
            while max_events is None or processed < max_events:
                event = pop_until(until)
                if event is None:
                    break
                advance_to(event.time)
                event.fire()
                processed += 1
            if until is not None and until > self.now:
                advance_to(until)
        finally:
            self._event_count += processed
            self._running = False
        return processed

    def run_for(self, duration: float, max_events: Optional[int] = None) -> int:
        """Process events for ``duration`` seconds of simulated time."""
        if duration < 0:
            raise ValueError(f"duration must be non-negative, got {duration!r}")
        return self.run(until=self.now + duration, max_events=max_events)
