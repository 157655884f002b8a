"""The discrete-event simulation engine.

:class:`Simulator` owns simulated time, the event heap, the named
random streams, and the perf probes.  Components receive the simulator
at construction and interact with simulated time exclusively through it.

Time is a float number of seconds since the start of the run.  ``now``
is a plain attribute that only :meth:`Simulator.run` moves, and only
forward; every other component just reads it.

The heap holds ``(time, priority, seq, event)`` tuples rather than the
events themselves, so every heap comparison is a C-level tuple
comparison; ``seq`` is unique, so two entries never fall through to
comparing their :class:`Event` objects.  Cancellation is lazy: a
cancelled event stays on the heap and is dropped when it reaches the
head, which keeps :meth:`Simulator.cancel` O(1).
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.sim.events import Event
from repro.sim.perf import PerfRegistry
from repro.sim.rng import RandomStreams

# Priorities for simultaneous events: infrastructure state changes fire
# before application logic reads them, and bookkeeping runs last.
PRIORITY_RADIO = -10
PRIORITY_DEFAULT = 0
PRIORITY_BOOKKEEPING = 10

_FOREVER = float("inf")


class Simulator:
    """Deterministic discrete-event simulator."""

    def __init__(self, seed: int = 0, start_time: float = 0.0) -> None:
        if not start_time >= 0:
            raise ValueError(
                f"clock must start at a non-negative time, got {start_time!r}"
            )
        #: Current simulation time in seconds; only :meth:`run` moves it.
        self.now = float(start_time)
        self.rng = RandomStreams(seed)
        #: Work counters for hot paths; they read no clock and never
        #: feed the simulation, so they cannot perturb determinism.
        self.perf = PerfRegistry()
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = itertools.count()
        #: Cancelled entries still on the heap.
        self._dead = 0
        self._running = False
        self._event_count = 0

    @property
    def events_processed(self) -> int:
        return self._event_count

    @property
    def pending_events(self) -> int:
        """Events scheduled but neither fired nor cancelled."""
        return len(self._heap) - self._dead

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_DEFAULT,
    ) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if not delay >= 0:
            raise ValueError(f"delay must be non-negative, got {delay!r}")
        seq = next(self._seq)
        event = Event(self.now + delay, seq, callback, args, priority)
        heappush(self._heap, (event.time, priority, seq, event))
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_DEFAULT,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation time ``time``."""
        if not time >= self.now:
            raise ValueError(
                f"cannot schedule in the past: now={self.now!r}, requested={time!r}"
            )
        seq = next(self._seq)
        event = Event(time, seq, callback, args, priority)
        heappush(self._heap, (event.time, priority, seq, event))
        return event

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel a pending event.  None, an already-cancelled event and
        an event that has fired (or is firing) are no-ops."""
        if event is not None and event._cancelled is False:
            event._cancelled = True
            self._dead += 1

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> int:
        """Process events until the heap empties, ``until`` is reached,
        or ``max_events`` have fired.  Returns the number of events
        processed by this call.

        When ``until`` is given and no event due at or before it is left,
        the clock is advanced to exactly ``until`` on return even if the
        last event fired earlier, so residency-based energy accounting
        covers the full window.  A call that ``max_events`` stops while
        such an event is left keeps the clock at the last event it fired,
        so the next call can still fire it.
        """
        if self._running:
            raise RuntimeError("simulator is not re-entrant")
        if until is None:
            stop = _FOREVER
        elif not until >= self.now:
            raise ValueError(
                f"clock cannot move backwards: now={self.now!r}, until={until!r}"
            )
        else:
            stop = until
        # ``processed`` never equals -1, so None sets no limit.
        budget = -1 if max_events is None else max(max_events, 0)
        heap = self._heap
        processed = 0
        self._running = True
        try:
            while heap:
                time, _, _, event = heap[0]
                if event._cancelled:
                    heappop(heap)
                    self._dead -= 1
                    continue
                if time > stop:
                    break
                if processed == budget:
                    return processed
                heappop(heap)
                self.now = time
                # Dispatched: from here on cancel() is a no-op, while
                # fire() still runs the callback (see Event).
                event._cancelled = None
                event.fire()
                processed += 1
            if until is not None:
                self.now = float(until)
        finally:
            self._event_count += processed
            self._running = False
        return processed
