"""Process helpers layered over the event kernel."""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import Simulator
from repro.sim.events import Event


class PeriodicProcess:
    """Fires a callback every ``period`` seconds until stopped.

    The first firing is one period after construction.  The next
    firing is scheduled *before* the callback runs, so a callback that
    stops the process cancels cleanly, and a slow chain of events
    cannot skew the period.
    """

    def __init__(
        self, sim: Simulator, period: float, callback: Callable[[], Any]
    ) -> None:
        if not period > 0:
            raise ValueError(f"period must be positive, got {period!r}")
        self._sim = sim
        self._period = float(period)
        self._callback = callback
        self._firings = 0
        self._stopped = False
        self._pending: Optional[Event] = sim.schedule(self._period, self._fire)

    @property
    def firings(self) -> int:
        return self._firings

    @property
    def stopped(self) -> bool:
        return self._stopped

    def stop(self) -> None:
        """Stop the process; pending firing is cancelled."""
        self._stopped = True
        self._sim.cancel(self._pending)
        self._pending = None

    def _fire(self) -> None:
        if self._stopped:
            return
        self._firings += 1
        self._pending = self._sim.schedule(self._period, self._fire)
        self._callback()
