"""Energy accounting helpers used by every experiment."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Sequence

from repro.devices.battery import TWO_PERCENT_BUDGET_J
from repro.devices.device import SimDevice


@dataclass(frozen=True)
class EnergySummary:
    """Crowdsensing energy across one framework arm's devices."""

    total_j: float
    per_device_j: Dict[str, float]
    device_count: int

    @property
    def mean_per_device_j(self) -> float:
        if self.device_count == 0:
            return 0.0
        return self.total_j / self.device_count

    @property
    def max_per_device_j(self) -> float:
        if not self.per_device_j:
            return 0.0
        return max(self.per_device_j.values())

    def devices_over_2pct(self) -> int:
        """How many devices exceeded the paper's 496 J tolerance bar."""
        return sum(
            1 for j in self.per_device_j.values() if j > TWO_PERCENT_BUDGET_J
        )


def summarize_devices(devices: Sequence[SimDevice]) -> EnergySummary:
    """Aggregate crowdsensing energy over a device list."""
    per_device = {d.device_id: d.crowdsensing_energy_j() for d in devices}
    return EnergySummary(
        total_j=sum(per_device.values()),
        per_device_j=per_device,
        device_count=len(devices),
    )


def savings_pct(sense_aid_j: float, other_j: float) -> float:
    """The paper's energy-saving metric: ``1 − E_SA / E_other``, in %.

    Positive means Sense-Aid used less energy.  Returns 0.0 when the
    comparison framework used no energy (nothing to save against).
    """
    if sense_aid_j < 0 or other_j < 0:
        raise ValueError("energies must be non-negative")
    if other_j == 0:
        return 0.0
    return (1.0 - sense_aid_j / other_j) * 100.0


def min_mean_max(values: Iterable[float]) -> tuple:
    """(min, mean, max) of a value sweep — Table 2's reporting shape."""
    values = list(values)
    if not values:
        raise ValueError("need at least one value")
    return (min(values), sum(values) / len(values), max(values))
