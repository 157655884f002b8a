"""The Sense-Aid server's two datastores.

The **device datastore** holds, per registered device, exactly the
fields the paper enumerates: the hash of the IMEI, the remaining energy
budget, the current battery level, the number of times the device has
been selected, and the timestamp of its most recent radio
communication.  The counters run for the whole campaign, one
accounting epoch as in the paper's user study.

The **task datastore** holds every task received from crowdsensing
application servers.

Both live in process: selection ranks them on every request.  They
survive a crash through the write-ahead log alone
(:mod:`repro.core.wal`), whose entries and checkpoints speak the
record/task codecs defined here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.core.tasks import TaskSpec
from repro.devices.sensors import SensorType
from repro.environment.geometry import Point


@dataclass
class DeviceRecord:
    """Server-side state for one registered device."""

    device_id: str
    imei_hash: str
    device_model: str
    energy_budget_j: float
    critical_battery_pct: float
    battery_pct: float = 100.0
    energy_used_j: float = 0.0
    times_selected: int = 0
    last_comm_time: Optional[float] = None
    registered_at: float = 0.0
    responsive: bool = True
    invalid_data_count: int = 0
    sensors: frozenset = field(default_factory=frozenset)
    #: Consecutive assignments the device failed to deliver.
    missed_deliveries: int = 0

    def remaining_budget_j(self) -> float:
        return max(0.0, self.energy_budget_j - self.energy_used_j)

    def over_budget(self) -> bool:
        return self.energy_used_j >= self.energy_budget_j

    def below_critical_battery(self) -> bool:
        return self.battery_pct <= self.critical_battery_pct

    def ttl_s(self, now: float) -> Optional[float]:
        """Age of the most recent radio communication, if any."""
        if self.last_comm_time is None:
            return None
        return max(0.0, now - self.last_comm_time)


# ----------------------------------------------------------------------
# Codecs — the one serialization story (WAL entries and checkpoints)
# ----------------------------------------------------------------------


def record_to_dict(record: DeviceRecord) -> dict:
    return {
        "device_id": record.device_id,
        "imei_hash": record.imei_hash,
        "device_model": record.device_model,
        "energy_budget_j": record.energy_budget_j,
        "critical_battery_pct": record.critical_battery_pct,
        "battery_pct": record.battery_pct,
        "energy_used_j": record.energy_used_j,
        "times_selected": record.times_selected,
        "last_comm_time": record.last_comm_time,
        "registered_at": record.registered_at,
        "responsive": record.responsive,
        "invalid_data_count": record.invalid_data_count,
        "sensors": sorted(s.name for s in record.sensors),
        "missed_deliveries": record.missed_deliveries,
    }


def record_from_dict(data: dict) -> DeviceRecord:
    return DeviceRecord(
        device_id=data["device_id"],
        imei_hash=data["imei_hash"],
        device_model=data["device_model"],
        energy_budget_j=data["energy_budget_j"],
        critical_battery_pct=data["critical_battery_pct"],
        battery_pct=data["battery_pct"],
        energy_used_j=data["energy_used_j"],
        times_selected=data["times_selected"],
        last_comm_time=data["last_comm_time"],
        registered_at=data["registered_at"],
        responsive=data["responsive"],
        invalid_data_count=data["invalid_data_count"],
        sensors=frozenset(SensorType[name] for name in data["sensors"]),
        missed_deliveries=data["missed_deliveries"],
    )


def task_to_dict(task: TaskSpec) -> dict:
    return {
        "task_id": task.task_id,
        "sensor_type": task.sensor_type.name,
        "center": [task.center.x, task.center.y],
        "area_radius_m": task.area_radius_m,
        "spatial_density": task.spatial_density,
        "sampling_period_s": task.sampling_period_s,
        "sampling_duration_s": task.sampling_duration_s,
        "start_time": task.start_time,
        "end_time": task.end_time,
        "device_type": task.device_type,
        "origin": task.origin,
    }


def task_from_dict(data: dict) -> TaskSpec:
    return TaskSpec(
        task_id=data["task_id"],
        sensor_type=SensorType[data["sensor_type"]],
        center=Point(data["center"][0], data["center"][1]),
        area_radius_m=data["area_radius_m"],
        spatial_density=data["spatial_density"],
        sampling_period_s=data["sampling_period_s"],
        sampling_duration_s=data["sampling_duration_s"],
        start_time=data["start_time"],
        end_time=data["end_time"],
        device_type=data["device_type"],
        origin=data["origin"],
    )


class DeviceDatastore:
    """Registration, state updates, and lookups for devices."""

    def __init__(self) -> None:
        self._records: Dict[str, DeviceRecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, device_id: str) -> bool:
        return device_id in self._records

    def register(self, record: DeviceRecord) -> None:
        if record.device_id in self._records:
            raise ValueError(f"device {record.device_id!r} already registered")
        self._records[record.device_id] = record

    def deregister(self, device_id: str) -> None:
        if device_id not in self._records:
            raise KeyError(f"device {device_id!r} is not registered")
        del self._records[device_id]

    def record(self, device_id: str) -> DeviceRecord:
        try:
            return self._records[device_id]
        except KeyError:
            raise KeyError(f"device {device_id!r} is not registered") from None

    def __iter__(self) -> Iterator[DeviceRecord]:
        """All records in registration order, unsorted: for passes
        whose result does not depend on the order."""
        return iter(self._records.values())

    def records(self) -> List[DeviceRecord]:
        """All records, sorted by device id for determinism."""
        return [self._records[k] for k in sorted(self._records)]

    def device_ids(self) -> List[str]:
        return sorted(self._records)

    def update_state(
        self,
        device_id: str,
        *,
        battery_pct: Optional[float] = None,
        energy_used_j: Optional[float] = None,
        last_comm_time: Optional[float] = None,
    ) -> None:
        """Fold a device state report / edge observation into the record."""
        record = self.record(device_id)
        if battery_pct is not None:
            if not 0.0 <= battery_pct <= 100.0:
                raise ValueError(
                    f"battery_pct must be in [0, 100], got {battery_pct!r}"
                )
            record.battery_pct = battery_pct
        if energy_used_j is not None:
            if energy_used_j < 0:
                raise ValueError("energy_used_j must be non-negative")
            record.energy_used_j = energy_used_j
        if last_comm_time is not None:
            record.last_comm_time = last_comm_time

    def mark_selected(self, device_id: str) -> None:
        self.record(device_id).times_selected += 1

    def mark_unresponsive(self, device_id: str) -> None:
        """Exclude a device from future selections (paper §3.2)."""
        self.record(device_id).responsive = False

    def mark_responsive(self, device_id: str) -> None:
        self.record(device_id).responsive = True

    def note_invalid_data(self, device_id: str) -> None:
        self.record(device_id).invalid_data_count += 1


class TaskDatastore:
    """All tasks submitted by crowdsensing application servers."""

    def __init__(self) -> None:
        self._tasks: Dict[int, TaskSpec] = {}

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, task_id: int) -> bool:
        return task_id in self._tasks

    def add(self, task: TaskSpec) -> None:
        if task.task_id in self._tasks:
            raise ValueError(f"task {task.task_id} already exists")
        self._tasks[task.task_id] = task

    def replace(self, task: TaskSpec) -> None:
        if task.task_id not in self._tasks:
            raise KeyError(f"task {task.task_id} does not exist")
        self._tasks[task.task_id] = task

    def remove(self, task_id: int) -> TaskSpec:
        if task_id not in self._tasks:
            raise KeyError(f"task {task_id} does not exist")
        return self._tasks.pop(task_id)

    def get(self, task_id: int) -> TaskSpec:
        try:
            return self._tasks[task_id]
        except KeyError:
            raise KeyError(f"task {task_id} does not exist") from None

    def all_tasks(self) -> List[TaskSpec]:
        return [self._tasks[k] for k in sorted(self._tasks)]

    def tasks_from(self, origin: str) -> List[TaskSpec]:
        return [t for t in self.all_tasks() if t.origin == origin]
