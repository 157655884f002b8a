"""Campaign cost estimation — capacity planning before launch.

An application (or the Sense-Aid operator) wants to know, before
tasking a fleet: *roughly what will this campaign cost the selected
devices?*  The estimator composes the same primitives the simulator
uses — the radio profile's closed-form upload costs and the
tail-opportunity probability implied by the users' traffic process —
into an analytic per-device / per-fleet estimate, so its predictions
can be validated against (and are tested against) full simulations.

Model:

- a sampling window of length ``T`` (the task period) gives a selected
  device probability ``p = 1 − exp(−T/g)`` of a background session
  (mean think gap ``g``) opening a radio tail before the deadline;
- a tail hit costs the in-tail upload marginal (reset or no-reset per
  the server mode); a miss costs a cold upload;
- each sample adds one sensor acquisition;
- per request, exactly ``spatial_density`` devices pay this, and the
  rotation spreads the load over the qualified pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cellular.power import RadioPowerProfile
from repro.core.config import ServerMode
from repro.core.tasks import TaskSpec
from repro.devices.sensors import SENSOR_SPECS, SensorType
from repro.devices.traffic import TrafficPattern

#: Size of one sensed-data upload the estimate prices.
UPLOAD_BYTES = 600


@dataclass(frozen=True)
class CampaignEstimate:
    """Predicted cost of one campaign."""

    requests: int
    devices_per_request: int
    tail_hit_probability: float
    energy_per_upload_j: float
    fleet_energy_j: float
    #: Worst-case per-device total: what one device would spend if the
    #: rotation (or a tiny qualified pool) made it serve every instant.
    worst_case_device_j: float

    def within_budget(self, budget_j: float, qualified_pool: int) -> bool:
        """Whether a fair rotation over ``qualified_pool`` devices keeps
        every participant under ``budget_j``."""
        if qualified_pool <= 0:
            raise ValueError("qualified_pool must be positive")
        share = self.fleet_energy_j / qualified_pool
        return share <= budget_j


def tail_hit_probability(window_s: float, pattern: TrafficPattern) -> float:
    """P(a background session opens a tail within the window)."""
    if window_s < 0:
        raise ValueError("window must be non-negative")
    return 1.0 - math.exp(-window_s / pattern.mean_gap_s)


def upload_cost_j(profile: RadioPowerProfile, mode: ServerMode, *, hit: bool) -> float:
    """Marginal radio energy of one upload, by opportunity outcome."""
    transfer = profile.transfer_time(UPLOAD_BYTES)
    if not hit:
        return profile.cold_upload_energy_j(UPLOAD_BYTES)
    if mode is ServerMode.COMPLETE:
        # Expected no-reset cost at a uniformly random tail offset:
        # active over the (average) displaced tail power.
        return max(
            0.0,
            profile.active_energy_j(transfer)
            - profile.tail_energy_between(0.0, transfer),
        )
    # Basic: transfer plus the expected tail extension (uniform offset
    # into the tail means an average extension of half the tail).
    return (
        profile.active_energy_j(transfer)
        + profile.tail_energy_j(profile.tail_s / 2.0)
    )


def estimate_campaign(
    task: TaskSpec,
    profile: RadioPowerProfile,
    pattern: TrafficPattern,
    mode: ServerMode = ServerMode.COMPLETE,
) -> CampaignEstimate:
    """Analytic cost estimate for one task."""
    requests = task.request_count()
    window = (
        task.sampling_period_s if task.sampling_period_s is not None else 120.0
    )
    p_hit = tail_hit_probability(window, pattern)
    hit_cost = upload_cost_j(profile, mode, hit=True)
    miss_cost = upload_cost_j(profile, mode, hit=False)
    sensor = SENSOR_SPECS.get(task.sensor_type)
    sensor_j = sensor.sample_energy_j() if sensor is not None else 0.0
    per_upload = p_hit * hit_cost + (1.0 - p_hit) * miss_cost + sensor_j
    fleet = per_upload * requests * task.spatial_density
    return CampaignEstimate(
        requests=requests,
        devices_per_request=task.spatial_density,
        tail_hit_probability=p_hit,
        energy_per_upload_j=per_upload,
        fleet_energy_j=fleet,
        worst_case_device_j=per_upload * requests,
    )
