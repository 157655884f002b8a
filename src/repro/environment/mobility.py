"""User mobility models.

The random-waypoint model drives the qualified-device dynamics the
paper reports: users walk between campus waypoints, pause, and walk
again, drifting in and out of task regions.  Positions are generated
lazily as a piecewise itinerary so any (monotone or not) time can be
queried without simulation events.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

from repro.environment.geometry import Point


class MobilityModel:
    """Interface: where is the user at simulation time ``t``?"""

    def position_at(self, time: float) -> Point:
        raise NotImplementedError

    def position_valid_until(self, time: float) -> float:
        """Latest instant the position at ``time`` is guaranteed unchanged.

        The spatial-index refresh uses this to skip devices that are
        provably stationary (mid-pause) instead of re-reading every
        position on every snapshot.  Returning ``time`` (the default)
        promises nothing and keeps the old always-re-read behaviour.
        """
        return time


class StaticMobility(MobilityModel):
    """A user who never moves — useful in unit tests and quickstarts."""

    def __init__(self, position: Point) -> None:
        self._position = position

    def position_at(self, time: float) -> Point:
        return self._position

    def position_valid_until(self, time: float) -> float:
        return float("inf")


@dataclass
class _Leg:
    """One itinerary segment: either a pause or a straight walk."""

    start_time: float
    end_time: float
    start: Point
    end: Point

    def position_at(self, time: float) -> Point:
        if self.end_time <= self.start_time:
            return self.end
        span = self.end_time - self.start_time
        fraction = min(1.0, max(0.0, (time - self.start_time) / span))
        return Point(
            self.start.x + (self.end.x - self.start.x) * fraction,
            self.start.y + (self.end.y - self.start.y) * fraction,
        )


class RandomWaypointMobility(MobilityModel):
    """Random-waypoint walking between campus destinations.

    The user starts at ``home``, pauses, picks a random waypoint, walks
    there at a per-user walking speed, pauses (exponential holding
    time), and repeats.  A ``home_bias`` probability makes users return
    to their home site, which keeps the population clustered the way a
    campus crowd is.
    """

    def __init__(
        self,
        home: Point,
        waypoints: Sequence[Point],
        rng: random.Random,
        *,
        mean_pause_s: float = 420.0,
        home_bias: float = 0.35,
    ) -> None:
        if not waypoints:
            raise ValueError("waypoints must be non-empty")
        if not 0.0 <= home_bias <= 1.0:
            raise ValueError(f"home_bias must be in [0, 1], got {home_bias!r}")
        if mean_pause_s <= 0:
            raise ValueError(f"mean_pause_s must be positive, got {mean_pause_s!r}")
        self._home = home
        self._waypoints = list(waypoints)
        self._rng = rng
        self._speed = rng.uniform(1.0, 1.6)
        self._mean_pause = mean_pause_s
        self._home_bias = home_bias
        first_pause = rng.expovariate(1.0 / mean_pause_s)
        self._legs: List[_Leg] = [_Leg(0.0, first_pause, home, home)]

    @property
    def speed_mps(self) -> float:
        return self._speed

    def position_at(self, time: float) -> Point:
        if time < 0:
            raise ValueError(f"time must be non-negative, got {time!r}")
        self._extend_until(time)
        leg = self._find_leg(time)
        return leg.position_at(time)

    def position_valid_until(self, time: float) -> float:
        """End of the current pause leg, or ``time`` while walking.

        Extends the itinerary exactly like :meth:`position_at`, so the
        per-user RNG stream is consumed in the same order whether the
        caller polls positions or validity windows.
        """
        if time < 0:
            raise ValueError(f"time must be non-negative, got {time!r}")
        self._extend_until(time)
        leg = self._find_leg(time)
        if leg.start == leg.end:  # pause: stationary until the leg ends
            return leg.end_time
        return time

    def _extend_until(self, time: float) -> None:
        while self._legs[-1].end_time < time:
            self._append_next_leg()

    def _append_next_leg(self) -> None:
        last = self._legs[-1]
        here = last.end
        destination = self._pick_destination(here)
        walk_s = here.distance_to(destination) / self._speed
        walk = _Leg(last.end_time, last.end_time + walk_s, here, destination)
        self._legs.append(walk)
        pause_s = self._rng.expovariate(1.0 / self._mean_pause)
        self._legs.append(
            _Leg(walk.end_time, walk.end_time + pause_s, destination, destination)
        )

    def _pick_destination(self, here: Point) -> Point:
        if self._rng.random() < self._home_bias and here != self._home:
            return self._home
        choices = [p for p in self._waypoints if p != here]
        if not choices:
            return self._home
        return self._rng.choice(choices)

    def _find_leg(self, time: float) -> _Leg:
        # Itineraries are short (tens of legs for a multi-hour run);
        # scan from the end since queries cluster near "now".
        for leg in reversed(self._legs):
            if leg.start_time <= time <= leg.end_time:
                return leg
        return self._legs[0]
