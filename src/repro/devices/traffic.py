"""Background (regular app) traffic per device.

Both frameworks under comparison feed off the user's own traffic:
Sense-Aid rides the radio *tail* each burst leaves behind, and PCS
piggybacks on the burst itself.  Modelling the bursts once — a renewal
process of app sessions with exponential think gaps and log-normal
session sizes, the standard shape for interactive smartphone traffic —
keeps the comparison between frameworks fair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.cellular.packets import TrafficCategory
from repro.sim.engine import Simulator


@dataclass(frozen=True)
class TrafficPattern:
    """Statistical shape of one user's phone usage."""

    mean_gap_s: float = 480.0
    session_bytes_mu: float = 11.0   # log-normal location (~60 kB median)
    session_bytes_sigma: float = 1.0
    packets_per_session: int = 3
    intra_session_gap_s: float = 1.5

    def __post_init__(self) -> None:
        if self.mean_gap_s <= 0:
            raise ValueError(f"mean_gap_s must be positive, got {self.mean_gap_s!r}")
        if self.packets_per_session <= 0:
            raise ValueError(
                "packets_per_session must be positive, "
                f"got {self.packets_per_session!r}"
            )
        if self.intra_session_gap_s < 0:
            raise ValueError(
                f"intra_session_gap_s must be non-negative, "
                f"got {self.intra_session_gap_s!r}"
            )


#: A heavier pattern for users who are glued to their phone.
HEAVY_USER = TrafficPattern(mean_gap_s=240.0, session_bytes_mu=12.0)

#: A light pattern: rare, small sessions (worst case for both
#: piggybacking and tail-riding).
LIGHT_USER = TrafficPattern(mean_gap_s=1200.0, session_bytes_mu=10.0)


def diurnal_modulator(time_s: float) -> float:
    """A gap multiplier following a student's day.

    Maps simulation time (seconds; t=0 is midnight) to a multiplier on
    the mean inter-session gap: phones are nearly silent overnight
    (×5 from 23:30 to 07:00), busiest in the evening (×0.6 from 19:00),
    normal during the day.
    """
    hour = (time_s / 3600.0) % 24.0
    if hour < 7.0 or hour >= 23.5:
        return 5.0
    if hour >= 19.0:
        return 0.6
    return 1.0


class BackgroundTraffic:
    """Drives a device's modem with app-session bursts.

    Observers subscribe to session starts — the PCS client uses this as
    its "the predicted app was opened" signal.
    """

    def __init__(
        self, sim: Simulator, device: object, pattern: TrafficPattern, rng
    ) -> None:
        self._sim = sim
        self._device = device
        self._pattern = pattern
        self._rng = rng
        self._gap_modulator: Optional[Callable[[float], float]] = None
        self._running = False
        self._sessions = 0
        self._session_listeners: List[Callable[[float], None]] = []
        self._pending = None

    def set_gap_modulator(
        self, modulator: Optional[Callable[[float], float]]
    ) -> None:
        """Install a time-of-day multiplier on the mean session gap."""
        self._gap_modulator = modulator

    def _current_mean_gap(self) -> float:
        gap = self._pattern.mean_gap_s
        if self._gap_modulator is not None:
            gap *= self._gap_modulator(self._sim.now)
        return gap

    @property
    def sessions(self) -> int:
        return self._sessions

    @property
    def running(self) -> bool:
        return self._running

    def add_session_listener(self, listener: Callable[[float], None]) -> None:
        """Called with the session start time at each session."""
        self._session_listeners.append(listener)

    def start(self) -> None:
        """Begin generating sessions.

        The first session arrives after one exponential gap, so a
        population of devices desynchronises naturally.
        """
        if self._running:
            raise RuntimeError("traffic generator already running")
        self._running = True
        delay = self._rng.expovariate(1.0 / self._current_mean_gap())
        self._pending = self._sim.schedule(delay, self._session)

    def stop(self) -> None:
        self._running = False
        if self._pending is not None:
            self._sim.cancel(self._pending)
            self._pending = None

    def _session(self) -> None:
        if not self._running:
            return
        self._sessions += 1
        now = self._sim.now
        for listener in self._session_listeners:
            listener(now)
        total_bytes = int(
            self._rng.lognormvariate(
                self._pattern.session_bytes_mu, self._pattern.session_bytes_sigma
            )
        )
        packets = self._pattern.packets_per_session
        per_packet = max(1, total_bytes // packets)
        for i in range(packets):
            offset = i * self._pattern.intra_session_gap_s
            self._sim.schedule(offset, self._send_packet, per_packet)
        gap = self._rng.expovariate(1.0 / self._current_mean_gap())
        session_span = packets * self._pattern.intra_session_gap_s
        self._pending = self._sim.schedule(session_span + gap, self._session)

    def _send_packet(self, size_bytes: int) -> None:
        if not self._running:
            return
        self._device.modem.transmit(size_bytes, TrafficCategory.BACKGROUND)
