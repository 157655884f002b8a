"""Shared plumbing for the baseline frameworks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.cellular.network import CellularNetwork, DeliveryReceipt
from repro.cellular.packets import Message, sensor_data_message
from repro.core.tasks import SensingRequest, TaskSpec
from repro.devices.device import SimDevice
from repro.sim.engine import Simulator


@dataclass
class FrameworkStats:
    """Outcome counters shared by both baselines."""

    requests_issued: int = 0
    uploads: int = 0
    uploads_piggybacked: int = 0
    uploads_forced: int = 0
    data_points_delivered: int = 0
    #: Devices that participated in each request (Figs. 10 and 12).
    participants_per_request: Dict[str, int] = field(default_factory=dict)

    def mean_participants(self) -> float:
        if not self.participants_per_request:
            return 0.0
        counts = self.participants_per_request.values()
        return sum(counts) / len(counts)


class BaselineCollector:
    """The baselines' stand-in application server: receives uploads."""

    def __init__(self) -> None:
        self.delivered: List[Message] = []

    def on_delivered(self, message: Message, receipt: DeliveryReceipt) -> None:
        self.delivered.append(message)

    def __len__(self) -> int:
        return len(self.delivered)


class BaselineFramework:
    """Common task expansion and per-request participant computation.

    A baseline has no server-side orchestration: at each sampling
    instant every device currently inside the task region (and carrying
    the sensor) owes one sample.  Subclasses decide *when and how* the
    sample is uploaded.
    """

    name = "baseline"

    def __init__(
        self,
        sim: Simulator,
        network: CellularNetwork,
        devices: Sequence[SimDevice],
    ) -> None:
        self._sim = sim
        self._network = network
        self._devices = list(devices)
        self.collector = BaselineCollector()
        self.stats = FrameworkStats()
        self._tasks: List[TaskSpec] = []

    @property
    def devices(self) -> List[SimDevice]:
        return list(self._devices)

    @property
    def tasks(self) -> List[TaskSpec]:
        return list(self._tasks)

    def add_task(self, task: TaskSpec) -> None:
        """Accept a task and schedule its sampling instants."""
        self._tasks.append(task)
        for request in task.expand_requests(self._sim.now):
            delay = max(0.0, request.issue_time - self._sim.now)
            self._sim.schedule(delay, self._tick, request)

    def total_crowdsensing_energy_j(self) -> float:
        """Sum of crowdsensing-attributed Joules across all devices."""
        return sum(d.crowdsensing_energy_j() for d in self._devices)

    def per_device_energy_j(self) -> Dict[str, float]:
        return {d.device_id: d.crowdsensing_energy_j() for d in self._devices}

    # ------------------------------------------------------------------
    # Per-sample machinery
    # ------------------------------------------------------------------

    def _tick(self, request: SensingRequest) -> None:
        self.stats.requests_issued += 1
        participants = self._participants(request)
        self.stats.participants_per_request[request.request_id] = len(participants)
        for device in participants:
            self._handle_obligation(device, request)

    def _participants(self, request: SensingRequest) -> List[SimDevice]:
        task = request.task
        result = []
        for device in self._devices:
            if not device.position().within(task.center, task.area_radius_m):
                continue
            if not device.sensors.has(task.sensor_type):
                continue
            if (
                task.device_type is not None
                and device.profile.model != task.device_type
            ):
                continue
            result.append(device)
        return result

    def _handle_obligation(self, device: SimDevice, request: SensingRequest) -> None:
        raise NotImplementedError

    def _upload(self, device: SimDevice, request: SensingRequest) -> None:
        """Sense and upload one sample right now (stock RRC behaviour)."""
        reading = device.sample(request.task.sensor_type)
        message = sensor_data_message(
            device.device_id,
            {
                "device_id": device.device_id,
                "request_id": request.request_id,
                "value": reading.value,
                "sensed_at": reading.time,
            },
        )
        self.stats.uploads += 1
        self._network.uplink(
            device,
            message,
            on_delivered=self._on_delivered,
            resets_tail=True,
        )

    def _on_delivered(self, message: Message, receipt: DeliveryReceipt) -> None:
        self.stats.data_points_delivered += 1
        self.collector.on_delivered(message, receipt)
