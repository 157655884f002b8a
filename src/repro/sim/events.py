"""Event primitives for the discrete-event kernel.

An :class:`Event` is a callback bound to a simulation time.  Events are
totally ordered by ``(time, priority, sequence)`` so that simultaneous
events fire in a deterministic order: lower priority value first, then
insertion order.  Cancellation is lazy — a cancelled event stays on the
heap but is skipped when popped, which keeps cancellation O(1).

The heap holds ``(time, priority, seq, event)`` tuples rather than the
events themselves, so every heap comparison is a C-level tuple
comparison; ``seq`` is unique, so two entries never fall through to
comparing their :class:`Event` objects.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional


class Event:
    """A scheduled callback.

    Events are created through :meth:`Simulator.schedule` (or
    :meth:`EventQueue.push`) rather than directly.  The public surface
    is :meth:`cancel` and the read-only properties.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "_cancelled")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: tuple = (),
        priority: int = 0,
    ) -> None:
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time!r}")
        self.time = float(time)
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self._cancelled = False

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called on this event."""
        return self._cancelled

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        self._cancelled = True

    def fire(self) -> None:
        """Invoke the callback unless cancelled."""
        if not self._cancelled:
            self.callback(*self.args)

    def sort_key(self) -> tuple:
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "Event") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else "pending"
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"<Event t={self.time:.3f} prio={self.priority} {name} [{state}]>"


class EventQueue:
    """A deterministic min-heap of :class:`Event` objects."""

    def __init__(self) -> None:
        #: ``(time, priority, seq, event)`` entries (see the module docstring).
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) events."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple = (),
        priority: int = 0,
    ) -> Event:
        """Create and enqueue an event; returns it for cancellation."""
        seq = next(self._counter)
        event = Event(time, seq, callback, args, priority)
        heapq.heappush(self._heap, (event.time, priority, seq, event))
        self._live += 1
        return event

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None if the queue is empty."""
        self._drop_cancelled_head()
        if not self._heap:
            return None
        return self._heap[0][0]

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or None if empty."""
        return self.pop_until(None)

    def pop_until(self, until: Optional[float]) -> Optional[Event]:
        """Remove and return the next live event due at or before
        ``until`` (any time when None); None if there is no such event.

        One heap pop per event — the simulator's dispatch loop.
        """
        self._drop_cancelled_head()
        heap = self._heap
        if not heap or (until is not None and heap[0][0] > until):
            return None
        self._live -= 1
        return heapq.heappop(heap)[3]

    def note_cancelled(self) -> None:
        """Adjust the live count after an external ``Event.cancel()``.

        :class:`Simulator` wraps cancellation so callers normally never
        need this.
        """
        if self._live > 0:
            self._live -= 1

    def clear(self) -> None:
        self._heap.clear()
        self._live = 0

    def _drop_cancelled_head(self) -> None:
        heap = self._heap
        while heap and heap[0][3]._cancelled:
            heapq.heappop(heap)
