"""Process helpers layered over the event kernel."""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import PRIORITY_DEFAULT, Simulator
from repro.sim.events import Event


class PeriodicProcess:
    """Fires a callback every ``period`` seconds until stopped.

    The next firing is scheduled *before* the callback runs, so a
    callback that stops the process cancels cleanly, and a slow chain
    of events cannot skew the period.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[], Any],
        *,
        start_delay: Optional[float] = None,
        priority: int = PRIORITY_DEFAULT,
        max_firings: Optional[int] = None,
    ) -> None:
        if not period > 0:
            raise ValueError(f"period must be positive, got {period!r}")
        self._sim = sim
        self._period = float(period)
        self._callback = callback
        self._priority = priority
        self._max_firings = max_firings
        self._firings = 0
        self._stopped = False
        delay = self._period if start_delay is None else float(start_delay)
        self._pending: Optional[Event] = sim.schedule(
            delay, self._fire, priority=priority
        )

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
        if self._max_firings is not None and self._firings >= self._max_firings:
            self._pending = None
            self._stopped = True
        else:
            self._pending = self._sim.schedule(
                self._period, self._fire, priority=self._priority
            )
        self._callback()
