"""Builds the simulated study population.

One call produces the N participants of a user-study run: each user
gets a phone (from the device-profile mix), a random-waypoint itinerary
over the campus, a battery at a realistic level, and a background
traffic pattern.  All randomness is drawn from the simulator's named
streams keyed by stable user indices, so two runs with the same master
seed — e.g. the Periodic, PCS, and Sense-Aid arms of one experiment —
see *identical* users, removing the mobility noise the paper's
disjoint 20-student groups suffered from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.devices.device import SimDevice, UserPreferences
from repro.devices.profiles import population_mix
from repro.devices.traffic import TrafficPattern
from repro.environment.campus import Campus
from repro.environment.mobility import RandomWaypointMobility
from repro.sim.engine import Simulator


@dataclass(frozen=True)
class PopulationConfig:
    """Knobs for one study population."""

    size: int = 20
    min_battery_pct: float = 55.0
    max_battery_pct: float = 100.0
    energy_budget_j: float = 496.0
    critical_battery_pct: float = 20.0
    barometer_fraction: float = 1.0
    traffic: TrafficPattern = field(default_factory=TrafficPattern)
    #: Fractions of the population using the HEAVY_USER / LIGHT_USER
    #: patterns instead of ``traffic`` (the rest).  Real crowds are not
    #: homogeneous, and the heavy users are exactly the ones whose
    #: tails Sense-Aid rides most often.
    heavy_user_fraction: float = 0.0
    light_user_fraction: float = 0.0
    mean_pause_s: float = 900.0
    home_bias: float = 0.40
    #: Fraction of users whose home base is one of the named study
    #: sites (students cluster at the union / departments / gym); the
    #: rest are homed at random secondary waypoints.
    site_home_fraction: float = 0.6

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"population size must be positive, got {self.size!r}")
        if not 0.0 <= self.min_battery_pct <= self.max_battery_pct <= 100.0:
            raise ValueError("battery range must satisfy 0 <= min <= max <= 100")
        if not 0.0 <= self.site_home_fraction <= 1.0:
            raise ValueError("site_home_fraction must be in [0, 1]")
        if (
            self.heavy_user_fraction < 0
            or self.light_user_fraction < 0
            or self.heavy_user_fraction + self.light_user_fraction > 1.0
        ):
            raise ValueError(
                "heavy and light user fractions must be non-negative and "
                "sum to at most 1"
            )

    def pattern_for(self, index: int) -> TrafficPattern:
        """The traffic pattern of user ``index`` under the mix.

        Deterministic striping: the first ``heavy`` share of indices is
        heavy, the last ``light`` share is light, the middle uses the
        default pattern.
        """
        from repro.devices.traffic import HEAVY_USER, LIGHT_USER

        position = (index + 0.5) / self.size
        if position <= self.heavy_user_fraction:
            return HEAVY_USER
        if position > 1.0 - self.light_user_fraction:
            return LIGHT_USER
        return self.traffic


def build_population(
    sim: Simulator,
    campus: Campus,
    config: Optional[PopulationConfig] = None,
    *,
    start_traffic: bool = True,
) -> List[SimDevice]:
    """Create the participants and (optionally) start their app traffic."""
    if config is None:
        config = PopulationConfig()
    profiles = population_mix(config.size, barometer_fraction=config.barometer_fraction)
    waypoints = campus.all_waypoints()
    site_positions = [site.position for site in campus.sites.values()]
    devices: List[SimDevice] = []
    for i in range(config.size):
        user_rng = sim.rng.stream(f"user:{i}")
        if site_positions and i < config.site_home_fraction * config.size:
            home = site_positions[i % len(site_positions)]
        else:
            home = user_rng.choice(waypoints)
        mobility = RandomWaypointMobility(
            home,
            waypoints,
            sim.rng.stream(f"mobility:{i}"),
            mean_pause_s=config.mean_pause_s,
            home_bias=config.home_bias,
        )
        battery_pct = user_rng.uniform(config.min_battery_pct, config.max_battery_pct)
        device = SimDevice(
            sim,
            device_id=f"u{i:02d}",
            profile=profiles[i],
            mobility=mobility,
            initial_battery_pct=battery_pct,
            traffic_pattern=config.pattern_for(i),
            preferences=UserPreferences(
                energy_budget_j=config.energy_budget_j,
                critical_battery_pct=config.critical_battery_pct,
            ),
        )
        if start_traffic:
            device.traffic.start()
        devices.append(device)
    return devices
