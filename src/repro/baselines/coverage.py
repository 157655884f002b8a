"""Coverage-based participant recruitment (CrowdRecruiter / iCrowd style).

The paper's related-work section describes a family of schedulers that
"select mobile devices so that some level of coverage of a sensed area
is achieved ... the device selection is not done on a fine-grained
basis — once a device is selected to participate in a crowdsensing
task, it is expected to upload the sensed data, independent of its
local state."

:class:`CoverageFramework` implements that design point as a third
comparator: at campaign start it predicts each device's probability of
being inside the task region (from a mobility history window, the way
CrowdRecruiter uses historical call records), greedily recruits the
smallest cohort whose *expected* in-region count meets the spatial
density, and then has exactly that cohort sense and upload at every
tick — no radio awareness, no re-selection.  Its two failure modes are
the ones the paper calls out: uploads from idle radios (energy) and
coverage shortfalls when the predicted users happen to be elsewhere
(data quality).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.baselines.common import BaselineFramework
from repro.cellular.network import CellularNetwork
from repro.core.tasks import SensingRequest, TaskSpec
from repro.devices.device import SimDevice
from repro.sim.engine import Simulator

#: The mobility history a device's presence probability is read from.
HISTORY_WINDOW_S = 4 * 3600.0
#: Evenly spaced position samples taken over :data:`HISTORY_WINDOW_S`.
HISTORY_SAMPLES = 48
#: Recruit until the expected in-region count reaches density × margin.
COVERAGE_MARGIN = 1.0


@dataclass
class RecruitmentPlan:
    """The cohort chosen for one task at campaign start."""

    task_id: int
    recruited: List[str]
    presence_probability: Dict[str, float]
    expected_coverage: float


class CoverageFramework(BaselineFramework):
    """Recruit-once, probabilistic-coverage crowdsensing."""

    name = "coverage"

    def __init__(
        self,
        sim: Simulator,
        network: CellularNetwork,
        devices: Sequence[SimDevice],
    ) -> None:
        super().__init__(sim, network, devices)
        self.plans: Dict[int, RecruitmentPlan] = {}
        self.coverage_shortfalls = 0

    # ------------------------------------------------------------------
    # Recruitment
    # ------------------------------------------------------------------

    def add_task(self, task: TaskSpec) -> None:
        self.plans[task.task_id] = self._recruit(task)
        super().add_task(task)

    def _recruit(self, task: TaskSpec) -> RecruitmentPlan:
        probabilities = {
            device.device_id: self._presence_probability(device, task)
            for device in self._devices
            if device.sensors.has(task.sensor_type)
        }
        # Greedy: keep adding the most-likely-present devices until the
        # expected in-region count reaches density × margin.
        target = task.spatial_density * COVERAGE_MARGIN
        recruited: List[str] = []
        expected = 0.0
        for device_id, probability in sorted(
            probabilities.items(), key=lambda kv: (-kv[1], kv[0])
        ):
            if expected >= target:
                break
            if probability <= 0.0:
                break
            recruited.append(device_id)
            expected += probability
        return RecruitmentPlan(
            task_id=task.task_id,
            recruited=recruited,
            presence_probability=probabilities,
            expected_coverage=expected,
        )

    def _presence_probability(self, device: SimDevice, task: TaskSpec) -> float:
        """Fraction of a historical window the device spent in-region.

        Stands in for CrowdRecruiter's call-record-based mobility
        prediction; positions before t=0 mirror the start position.
        """
        now = self._sim.now
        hits = 0
        for i in range(HISTORY_SAMPLES):
            t = now - HISTORY_WINDOW_S * i / HISTORY_SAMPLES
            position = device.mobility.position_at(max(0.0, t))
            if position.within(task.center, task.area_radius_m):
                hits += 1
        return hits / HISTORY_SAMPLES

    # ------------------------------------------------------------------
    # Per-tick behaviour
    # ------------------------------------------------------------------

    def _tick(self, request: SensingRequest) -> None:
        self.stats.requests_issued += 1
        plan = self.plans[request.task.task_id]
        recruited = {d for d in plan.recruited}
        present = [
            device
            for device in self._devices
            if device.device_id in recruited
            and device.position().within(
                request.task.center, request.task.area_radius_m
            )
        ]
        self.stats.participants_per_request[request.request_id] = len(present)
        if len(present) < request.task.spatial_density:
            self.coverage_shortfalls += 1
        for device in present:
            self._handle_obligation(device, request)

    def _handle_obligation(self, device: SimDevice, request: SensingRequest) -> None:
        # Recruited devices upload immediately, radio state be damned —
        # the behaviour the paper contrasts against.
        self._upload(device, request)
        self.stats.uploads_forced += 1
