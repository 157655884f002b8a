"""Event primitives for the discrete-event kernel.

An :class:`Event` is a callback bound to a simulation time.  Events are
totally ordered by ``(time, priority, sequence)`` so that simultaneous
events fire in a deterministic order: lower priority value first, then
insertion order.  :class:`~repro.sim.engine.Simulator` keeps them on its
heap under exactly that key.
"""

from __future__ import annotations

from typing import Any, Callable


class Event:
    """A scheduled callback.

    Events are created through :meth:`Simulator.schedule` rather than
    directly, and cancelled through :meth:`Simulator.cancel`.

    ``_cancelled`` is False while the event is pending, True once it is
    cancelled, and None once the simulator has dispatched it: a
    dispatched event can no longer be cancelled, and :meth:`fire` still
    runs its callback.
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
        if not time >= 0:
            raise ValueError(f"event time must be non-negative, got {time!r}")
        self.time = float(time)
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self._cancelled = False

    @property
    def cancelled(self) -> bool:
        """Whether the event was cancelled before it fired."""
        return self._cancelled is True

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once,
        and a no-op once the event has been dispatched.

        This does not tell the simulator; :meth:`Simulator.cancel` does,
        which keeps ``pending_events`` exact.
        """
        if self._cancelled is False:
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
        state = {False: "pending", True: "cancelled", None: "dispatched"}[self._cancelled]
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"<Event t={self.time:.3f} prio={self.priority} {name} [{state}]>"
