"""Backends: what the service front executes requests against.

:class:`AppServerBackend` adapts the paper's synchronous
:class:`~repro.serverlib.appserver.CrowdsensingAppServer` facade into
the service's handler signature — the four-call API over a real
Sense-Aid world.  The load generator addresses tasks by *slot* (a
small stable namespace) rather than raw task ids, so a generated
request mix is meaningful regardless of execution interleaving:
creating an occupied slot, or updating/deleting a vacant one, is a
recorded no-op instead of an error.  That keeps the request trace
deterministic while the outcome of each call stays well-defined at
any number of run slots.

:func:`build_world` assembles a minimal single-server world (sim,
towers, network, Sense-Aid server, app server) for the CLI and the
benchmark; tests that already have a world just wrap their own CAS.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.cellular.enodeb import ENodeB, TowerRegistry
from repro.cellular.network import CellularNetwork
from repro.core.config import SenseAidConfig, ServerMode
from repro.core.server import SenseAidServer, SensedDataPoint
from repro.devices.sensors import SensorType
from repro.environment.geometry import Point
from repro.serverlib.appserver import CrowdsensingAppServer
from repro.service.api import RequestKind, ServiceRequest
from repro.sim.engine import Simulator

#: Centre of the backend world and of every task it creates (the
#: paper's campus CS corner).
DEFAULT_CENTER = Point(1275.0, 1350.0)


def build_world(
    *, seed: int = 7
) -> Tuple[Simulator, SenseAidServer, CrowdsensingAppServer]:
    """A minimal Sense-Aid world for the service front to execute
    against; the server resolves its store from ``REPRO_DATASTORE``."""
    sim = Simulator(seed=seed)
    registry = TowerRegistry(
        [ENodeB("t0", DEFAULT_CENTER, coverage_radius_m=5000.0)]
    )
    network = CellularNetwork(sim)
    server = SenseAidServer(
        sim, registry, network, SenseAidConfig(mode=ServerMode.COMPLETE)
    )
    cas = CrowdsensingAppServer(server, "service")
    return sim, server, cas


class AppServerBackend:
    """Executes service requests against one ``CrowdsensingAppServer``.

    Tasks are addressed by slot, ``payload["slot"]`` modulo
    :attr:`SLOTS`; each slot holds at most one live task id.  Every
    task senses the barometer around :data:`DEFAULT_CENTER`.
    """

    SLOTS = 16

    def __init__(self, sim: Simulator, cas: CrowdsensingAppServer) -> None:
        self._sim = sim
        self._cas = cas
        self._slot_tasks: Dict[int, int] = {}
        self._delivery_seq = 0

    @property
    def live_tasks(self) -> Dict[int, int]:
        """slot -> task id for every currently live slot."""
        return dict(self._slot_tasks)

    def handle(self, request: ServiceRequest) -> Any:
        payload = request.payload
        kind = request.kind
        if kind is RequestKind.CREATE_TASK:
            return self._create(payload)
        if kind is RequestKind.UPDATE_TASK:
            return self._update(payload)
        if kind is RequestKind.DELETE_TASK:
            return self._delete(payload)
        if kind is RequestKind.DELIVER_DATA:
            return self._deliver(payload)
        if kind is RequestKind.QUERY_DATA:
            return self._query(payload)
        raise ValueError(f"unknown request kind {kind!r}")

    # ------------------------------------------------------------------
    # The four-call API, slot-addressed
    # ------------------------------------------------------------------

    def _slot(self, payload: Dict[str, Any]) -> int:
        return int(payload.get("slot", 0)) % self.SLOTS

    def _create(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        slot = self._slot(payload)
        existing = self._slot_tasks.get(slot)
        if existing is not None:
            return {"slot": slot, "task_id": existing, "noop": True}
        task_id = self._cas.task(
            SensorType.BAROMETER,
            DEFAULT_CENTER,
            float(payload.get("radius_m", 1000.0)),
            int(payload.get("density", 2)),
            sampling_period_s=float(payload.get("period_s", 600.0)),
            sampling_duration_s=float(payload.get("duration_s", 1800.0)),
        )
        self._slot_tasks[slot] = task_id
        return {"slot": slot, "task_id": task_id, "noop": False}

    def _update(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        slot = self._slot(payload)
        task_id = self._slot_tasks.get(slot)
        if task_id is None:
            return {"slot": slot, "noop": True}
        updated = self._cas.update_task_param(
            task_id, spatial_density=int(payload.get("density", 2))
        )
        return {
            "slot": slot,
            "task_id": task_id,
            "spatial_density": updated.spatial_density,
            "noop": False,
        }

    def _delete(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        slot = self._slot(payload)
        task_id = self._slot_tasks.pop(slot, None)
        if task_id is None:
            return {"slot": slot, "noop": True}
        self._cas.delete_task(task_id)
        return {"slot": slot, "task_id": task_id, "noop": False}

    def _deliver(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        slot = self._slot(payload)
        task_id = self._slot_tasks.get(slot)
        if task_id is None:
            return {"slot": slot, "accepted": False}
        self._delivery_seq += 1
        now = self._sim.now
        point = SensedDataPoint(
            request_id=f"svc-{self._delivery_seq}",
            task_id=task_id,
            sensor_type=SensorType.BAROMETER,
            value=float(payload.get("value", 1013.25)),
            sensed_at=now,
            delivered_at=now,
            device_hash=str(payload.get("device_hash", "anonymous")),
        )
        self._cas.receive_sensed_data(point)
        return {"slot": slot, "task_id": task_id, "accepted": True}

    def _query(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        slot = payload.get("slot")
        if slot is not None and int(slot) % self.SLOTS in self._slot_tasks:
            task_id = self._slot_tasks[int(slot) % self.SLOTS]
            return {
                "task_id": task_id,
                "readings": self._cas.reading_count(task_id),
                "mean": self._cas.mean_value(task_id),
            }
        return {
            "readings": self._cas.reading_count(),
            "mean": self._cas.mean_value(),
            "distinct_devices": self._cas.distinct_devices(),
        }
